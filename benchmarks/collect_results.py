#!/usr/bin/env python
"""Regenerate every number quoted in EXPERIMENTS.md, in one run.

Run:  python benchmarks/collect_results.py [rows] [results.json]

Prints the Table 1 projection, the Section 6.2/7.1 claims, the
row-vs-vector engine speedups, the partial-read and Concat
measurements, and the science-pipeline summary statistics, each tagged
with the paper value it reproduces.  The Table 1 projections and the
vector-engine speedup ratios are also written to ``results.json``
(second CLI argument; defaults to ``results.json`` next to this
script).
"""

import json
import os
import pathlib
import sys
import time

import numpy as np

from table1_harness import PAPER, PAPER_ROWS, SQL_TEXT, load_tables, \
    run_queries


def table1_block(rows: int) -> dict:
    print("=" * 70)
    print(f"Table 1 (projected from {rows:,} rows to {PAPER_ROWS:,})")
    print("=" * 70)
    db, ts, tv = load_tables(rows)
    ratio = tv.data_bytes() / ts.data_bytes()
    print(f"S6.2 size overhead: {ratio - 1:.1%}   (paper: 43 %)")
    metrics = run_queries(db, ts, tv)
    factor = PAPER_ROWS / rows
    # One canonical flattening per query — the same dicts the server's
    # wire protocol ships — instead of plucking attributes ad hoc.
    projected = {
        m.label: m.scaled(factor,
                          fixed_random_reads=m.random_reads).to_dict()
        for m in metrics}
    for label, d in projected.items():
        p = PAPER[label]
        print(f"{label}: {d['sim_exec_seconds']:5.0f} s "
              f"{d['cpu_percent']:4.0f} % {d['io_mb_per_s']:6.0f} MB/s"
              f"   (paper: {p[0]} s, {p[1]} %, {p[2]} MB/s)")
    raw = {m.label: m.to_dict() for m in metrics}
    q2, q4, q5 = raw["Query 2"], raw["Query 4"], raw["Query 5"]
    per_call = (q5["sim_cpu_core_seconds"]
                - q2["sim_cpu_core_seconds"]) / q5["udf_calls"]
    print(f"S7.1 UDF call cost: {per_call * 1e6:.2f} us/call "
          "(paper: ~2 us)")
    from repro.engine import PAPER_HARDWARE
    share = PAPER_HARDWARE.cpu_udf_call * q5["udf_calls"] \
        / q5["sim_cpu_core_seconds"]
    print(f"S7.1 empty-call CPU share: {share:.0%} "
          "(paper: 'at least 38 %')")
    extra = q4["sim_cpu_core_seconds"] / q5["sim_cpu_core_seconds"] - 1
    print(f"S7.1 item extraction surcharge: {extra:.1%} (paper: 22 %)")
    return projected


def vectorized_block(rows: int) -> dict:
    print("=" * 70)
    print("Batch engine vs the row-at-a-time oracle: wall time")
    print("=" * 70)
    from repro.engine import SqlSession

    from bench_vectorized import vector_speedups
    db, _ts, _tv = load_tables(rows)
    speedups = vector_speedups(SqlSession(db))
    for label, ratio in speedups.items():
        print(f"  {label}: vector is {ratio:4.1f}x faster "
              f"(identical values and IO accounting)")
    return speedups


def pipeline_block() -> dict:
    print("=" * 70)
    print("Zero-copy data plane: pipelined statements, partial-blob "
          "wire traffic")
    print("=" * 70)
    from bench_pipeline import make_db as make_pipeline_db, \
        partial_numbers, pipeline_numbers
    from repro.server import ServerThread

    with ServerThread(make_pipeline_db()) as handle:
        pipeline = pipeline_numbers(handle.port)
        partial = partial_numbers(handle.port)
    print(f"  point SELECTs: serial {pipeline['serial_qps']:7.0f} q/s"
          f" vs pipelined {pipeline['pipelined_qps']:7.0f} q/s "
          f"(depth {pipeline['depth']}, "
          f"{pipeline['speedup']:.2f}x)")
    print(f"  partial read: {partial['partial_wire_bytes']:,} of "
          f"{partial['blob_bytes']:,} blob bytes on the wire "
          f"({partial['wire_savings']:.0f}x less traffic)")
    return {"pipeline": pipeline, "partial_wire": partial}


def sharded_block(rows: int) -> dict:
    print("=" * 70)
    print("Sharded backend: scatter-gather throughput by shard count")
    print("=" * 70)
    from bench_sharded import sharded_throughput
    numbers = sharded_throughput(rows=rows)
    for shards, d in numbers.items():
        print(f"  {shards} shard(s): {d['qps']:7.1f} q/s   "
              f"p95 {d['p95_ms']:6.1f} ms")
    cores = os.cpu_count() or 1
    if cores < 4:
        print(f"  (host has {cores} core(s); shard processes "
              "time-slice it, so these are coordination-overhead "
              "numbers, not scaling wins)")
    return numbers


def replica_block(rows: int) -> dict:
    print("=" * 70)
    print("Replica shards: read throughput by replica count, plus "
          "the kill-a-replica drill")
    print("=" * 70)
    from bench_sharded import kill_a_replica_drill, \
        replica_read_throughput
    numbers = replica_read_throughput(rows=rows)
    for count, d in numbers.items():
        print(f"  2 shards x {count} replica(s): {d['qps']:7.1f} q/s"
              f"   p95 {d['p95_ms']:6.1f} ms")
    drill = kill_a_replica_drill(rows=min(rows, 2_000))
    print(f"  drill: {drill['statements']} statements with a replica "
          f"SIGKILLed mid-run -> {drill['errors']} errors, "
          f"{drill['failovers']} failover(s)")
    assert drill["errors"] == 0, drill
    return {"read_throughput": numbers, "drill": drill}


def partial_reads_block() -> None:
    print("=" * 70)
    print("S3.3 partial subarray reads (8^3 window)")
    print("=" * 70)
    from repro.core import SqlArray
    from repro.core.partial import BytesBlobStream, read_subarray
    for edge in (16, 32, 64):
        blob = SqlArray.from_numpy(
            np.zeros((edge, edge, edge))).to_blob()
        stream = BytesBlobStream(blob)
        read_subarray(stream, (4, 4, 4), (8, 8, 8))
        print(f"  {edge}^3 stored array: whole-blob / partial = "
              f"{stream.length() / stream.bytes_read:6.1f}x")


def concat_block() -> None:
    print("=" * 70)
    print("S4.2 Concat UDA vs reader")
    print("=" * 70)
    from repro.core import FLOAT64
    from repro.core.aggregates import UdaCostLog, concat_reader, \
        concat_uda
    for side in (8, 16, 32):
        gen = np.random.default_rng(0)
        values = gen.standard_normal((side, side))
        rows = [(i, values[i]) for i in np.ndindex(side, side)]
        log = UdaCostLog()
        t0 = time.perf_counter()
        concat_uda(rows, (side, side), FLOAT64, cost_log=log)
        t_uda = time.perf_counter() - t0
        t0 = time.perf_counter()
        concat_reader(rows, (side, side), FLOAT64)
        t_reader = time.perf_counter() - t0
        print(f"  {side}x{side}: state bytes {log.bytes_serialized:>9,}"
              f"  wall uda/reader = {t_uda / t_reader:4.1f}x")


def turbulence_block() -> None:
    print("=" * 70)
    print("S2.1 turbulence service (64^3 field, lagrange8)")
    print("=" * 70)
    from repro.science.turbulence import (BlobPartitioner,
                                          MemoryBlobBackend,
                                          ParticleQueryService,
                                          TurbulenceStore, make_field)
    field = make_field(64, seed=0)
    store = TurbulenceStore(BlobPartitioner(64, 16, 4),
                            MemoryBlobBackend())
    store.load_field(field)
    svc = ParticleQueryService(store, "lagrange8")
    pos = np.random.default_rng(3).random((200, 3)) * field.box_size
    _v, partial = svc.query(pos)
    _v, full = svc.query_full_read(pos)
    print(f"  200 particles: partial {partial.bytes_read / 1e6:.2f} MB"
          f" vs whole-blob {full.bytes_read / 1e6:.2f} MB"
          f"  ({full.bytes_read / partial.bytes_read:.1f}x less IO)")


def spectra_block() -> None:
    print("=" * 70)
    print("S2.2 spectrum pipeline")
    print("=" * 70)
    from repro.science.spectra import (SpectrumBasis, SpectrumGenerator,
                                       classify_nearest_centroid)
    gen = SpectrumGenerator(n_bins=128, n_classes=3, seed=42)
    train = [gen.make(class_id=i % 3, redshift=0.01) for i in range(60)]
    basis = SpectrumBasis(4, 64).fit(train)
    coeffs = basis.expand_many(train)
    test = [gen.make(class_id=i % 3, redshift=0.01) for i in range(30)]
    pred = classify_nearest_centroid(
        coeffs, [s.class_id for s in train], basis.expand_many(test))
    acc = (pred == np.array([t.class_id for t in test])).mean()
    print(f"  PCA classification accuracy (3 classes): {acc:.0%}")


def nbody_block() -> None:
    print("=" * 70)
    print("S2.3 N-body analyses (16^3 Zel'dovich, growth 2.5)")
    print("=" * 70)
    from repro.science.nbody import (ZeldovichSimulation, cic_density,
                                     density_contrast, find_halos,
                                     power_spectrum)
    sim = ZeldovichSimulation(16, 100.0, spectral_index=-3.0, seed=5)
    snap = sim.snapshot(2.5)
    halos = find_halos(snap.positions, snap.ids, 100.0,
                       100.0 / 16 * 0.4, min_members=8)
    print(f"  FOF halos: {len(halos)} "
          f"(largest {halos[0].n_members if halos else 0} particles)")
    delta = density_contrast(cic_density(snap.positions, 100.0, 16))
    k, pk, counts = power_spectrum(delta, 100.0)
    slope = np.polyfit(np.log(k[counts > 0][:5]),
                       np.log(pk[counts > 0][:5] + 1e-30), 1)[0]
    print(f"  P(k) low-k log-slope: {slope:.2f} (clustered: negative)")


def main(rows: int = 20_000, json_out: str | None = None) -> None:
    results = {"rows": rows, "paper_rows": PAPER_ROWS}
    results["table1_projected"] = table1_block(rows)
    results["vector_speedup"] = vectorized_block(rows)
    results["sharded_throughput"] = sharded_block(min(rows, 8_000))
    results["replica_shards"] = replica_block(min(rows, 8_000))
    results["dataplane"] = pipeline_block()
    partial_reads_block()
    concat_block()
    turbulence_block()
    spectra_block()
    nbody_block()
    path = pathlib.Path(json_out) if json_out else \
        pathlib.Path(__file__).with_name("results.json")
    path.write_text(json.dumps(results, indent=2) + "\n")
    print("=" * 70)
    print(f"results JSON written to {path}")
    print("done; compare against EXPERIMENTS.md")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20_000,
         sys.argv[2] if len(sys.argv) > 2 else None)
