#!/usr/bin/env python3
"""Benchmark entry point: one command, every metric by name and unit.

    python3 bench/run.py --workload W --seed S --seconds T --trace 0|1
    python3 bench/run.py --smoke            # tiny tables, 2 s windows
    python3 bench/run.py --check [K]        # run-to-run agreement

Run shape (every workload): *set-up* = spawn the launcher -> its
``ready`` line (data loaded, port bound) -> connect -> wire load ->
fixed-count warm-up; *timed window* of ``--seconds``, recording only
statement completion times and pass/fail; *counted pass* of a fixed
number of ops with the socket tapped (exact byte counts), replayed on
the in-process twin for the exact layer counts.  ``--trace 0`` prints
the end-to-end metrics (set-up is done twice and the median reported);
``--trace 1`` halves the window into an untraced and a traced half,
records spans, probes the layers and prints the per-layer metrics.
End-to-end numbers never come from a traced window.

The last line of standard output is one JSON object per workload:
``{"correct", "attempted", "failed", "metrics"}``.  Exit status is
non-zero if any answer was wrong, any op failed, or teardown left a
process or a ``/dev/shm`` segment behind.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
    sys.exit(f"bench/run.py: no src/repro under {ROOT}: nothing to "
             f"benchmark")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402

import harness  # noqa: E402
import layers  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import STATEMENTS, WORKLOADS  # noqa: E402

#: Set-ups per end-to-end run; ``setup_s`` is their median.  Two, not
#: more: 92 driver runs must fit 3420 s, i.e. ~37 s each, and a run is
#: already 20 s of window + ~4.5 s per set-up + twin and counted pass.
SETUPS = 2
OUT_DIR = os.path.join(BENCH_DIR, "out")
#: Per-layer metrics that are counts of a seeded, single-client run:
#: they must repeat exactly for one seed (``--check`` asserts it).
EXACT = ("stored_bytes_per_user_byte",
         "engine.executor.rows_per_op",
         "engine.executor.udf_calls_per_op",
         "engine.bufferpool.physical_reads_per_op",
         "engine.bufferpool.io_bytes_per_op",
         "engine.bufferpool.hit_rate",
         "engine.btree.seek_pages_per_lookup",
         "engine.blob.stream_calls_per_op",
         "core.partial.bytes_read_per_window_byte",
         "engine.costmodel.sim_exec_s_per_op",
         "server.server.bquery_chunks_per_op")


def load_contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def host_facts() -> dict:
    try:
        sha = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {"nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "git": sha or "not a checkout"}


def oracle_twin(workload):
    """The twin database, with the workload's expectations bound."""
    twin = workload.build_twin()
    workload.bind_oracle(twin)
    return twin


def run_end_to_end(workload, seconds: float) -> tuple[dict, dict, dict]:
    """Returns (metrics, sample counts, tally)."""
    twin = oracle_twin(workload)
    setup_seconds = []
    for attempt in range(SETUPS):
        deployment, driver, setup_s = harness.set_up(workload)
        setup_seconds.append(setup_s)
        if attempt < SETUPS - 1:
            driver.close()
            deployment.stop()
    try:
        samples = driver.window(seconds)
        with harness.TappedPass(driver.client, Tracer(False)) as detail:
            driver.window(count=workload.counted_ops, tapped=detail)
        driver.close()
        peak_rss_mb = deployment.stop()
    except BaseException:
        deployment.abort()
        raise
    twin_counts = layers.twin_pass(workload, twin, Tracer(False))
    metrics = {
        "setup_s": statistics.median(setup_seconds),
        "op_floor_ms": harness.op_floor_ms(samples),
        "wire_bytes_per_op": detail.wire_bytes / detail.ops,
        "peak_rss_mb": peak_rss_mb,
        "stored_bytes_per_user_byte":
            twin_counts["stored_bytes_per_user_byte"],
    }
    counts = {"setup_s": SETUPS, "op_floor_ms": len(samples)}
    tally = {"attempted": driver.attempted,
             "failed": driver.failed + twin_counts["mismatches"]}
    return metrics, counts, tally


def run_traced(workload, seconds: float) -> tuple[dict, dict, dict]:
    twin = oracle_twin(workload)
    tracer = Tracer()
    deployment, driver, _setup_s = harness.set_up(workload)
    try:
        plain = driver.window(seconds / 2)
        with harness.TappedPass(driver.client, tracer) as detail:
            traced = driver.window(seconds / 2, tapped=detail)
        router_floor_ms = layers.router_pass(
            workload, deployment.shards, 3 * workload.counted_ops) \
            if workload.kind == "cluster" else 0.0
        driver.close()
        deployment.stop()
    except BaseException:
        deployment.abort()
        raise
    twin_counts = layers.twin_pass(workload, twin, tracer)
    probes = layers.probe_layers(workload.seed)

    n = detail.ops
    plain_ms = harness.latencies_ms(plain)
    op_p50_ms = statistics.median(plain_ms)
    # Ratios between passes compare floors, not medians: medians of
    # two windows of one run differ by more than what is measured.
    floor_ms = harness.op_floor_ms(plain)
    client_seconds = sum(detail.stmt_seconds.values())
    metrics = dict(probes)
    metrics["server.client.op_p50_ms"] = op_p50_ms
    metrics["server.client.op_p95_ms"] = harness.percentile(plain_ms, 95)
    metrics["server.client.segment_rate_per_s"] = harness.segment_rate(
        plain, seconds / 2)
    for name in STATEMENTS:
        metrics[f"server.client.stmt_share.{name}"] = \
            detail.stmt_seconds[name] / client_seconds
    metrics.update({
        "server.client.wire_overhead_ms_per_op":
            (client_seconds - detail.job_seconds) * 1e3 / n,
        "server.server.job_ms_per_op": detail.job_seconds * 1e3 / n,
        "server.server.nonexec_ms_per_op":
            detail.nonexec_seconds * 1e3 / n,
        "server.server.queries_failed":
            detail.stats_delta["queries_failed"],
        "server.server.rejected_busy":
            detail.stats_delta["rejected_busy"],
        "server.server.timeouts": detail.stats_delta["timeouts"],
        "server.server.bquery_chunks_per_op":
            detail.stats_delta["bquery_chunks"] / n,
        "engine.executor.wall_ms_per_op": detail.exec_seconds * 1e3 / n,
        "engine.executor.rows_per_op": twin_counts["rows_per_op"],
        "engine.executor.udf_calls_per_op":
            twin_counts["udf_calls_per_op"],
        "engine.bufferpool.physical_reads_per_op":
            twin_counts["physical_reads_per_op"],
        "engine.bufferpool.io_bytes_per_op":
            twin_counts["io_bytes_per_op"],
        "engine.bufferpool.hit_rate": twin_counts["hit_rate"],
        "engine.btree.seek_pages_per_lookup":
            twin_counts["seek_pages_per_lookup"],
        "engine.blob.stream_calls_per_op":
            twin_counts["stream_calls_per_op"],
        "core.partial.bytes_read_per_window_byte":
            twin_counts["bytes_read_per_window_byte"],
        "engine.costmodel.sim_exec_s_per_op":
            twin_counts["sim_exec_s_per_op"],
        "shard.router.execute_share": router_floor_ms / floor_ms,
        "shard.router.coordinator_hop_share":
            1.0 - router_floor_ms / floor_ms if router_floor_ms else 0.0,
        "shard.router.op_ms_over_local_engine_ms":
            floor_ms / twin_counts["local_op_ms"],
        "trace.overhead_share":
            (harness.op_floor_ms(traced) - floor_ms) / floor_ms,
    })
    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(
        OUT_DIR, f"spans-{workload.name}-{workload.seed}.json")
    tracer.dump(span_path, {
        "workload": workload.name, "seed": workload.seed,
        "host": host_facts(),
        "self_seconds": self_times(tracer.spans)})
    print(f"# spans: {len(tracer.spans)} -> "
          f"{os.path.relpath(span_path, ROOT)}")
    counts = {"server.client.op_p50_ms": len(plain),
              "server.client.op_p95_ms": len(plain),
              "server.client.segment_rate_per_s": harness.SEGMENTS,
              "trace.overhead_share": len(traced)}
    tally = {"attempted": driver.attempted,
             "failed": driver.failed + twin_counts["mismatches"]}
    return metrics, counts, tally


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 scale: str, contract: dict) -> bool:
    """Run one workload, print its metrics and JSON line; True if every
    answer was right."""
    workload = WORKLOADS[name](seed, scale)
    started = time.perf_counter()
    metrics, counts, tally = (run_traced if trace else run_end_to_end)(
        workload, seconds)
    declared = contract["per_layer" if trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(units) != set(metrics):
        raise AssertionError(
            f"metric names drifted from BENCHMARK.json: "
            f"{sorted(set(units) ^ set(metrics))}")
    facts = " ".join(f"{k}={v}" for k, v in host_facts().items())
    print(f"# {name} seed={seed} seconds={seconds:g} "
          f"trace={int(trace)} scale={scale} {facts} "
          f"total={time.perf_counter() - started:.1f}s")
    for entry in declared:
        key = entry["name"]
        samples = f"  (n={counts[key]})" if key in counts else ""
        print(f"{key:<52} {metrics[key]:>16.6g} {units[key]}{samples}")
    correct = tally["failed"] == 0
    print(f"{'failed_share':<52} "
          f"{tally['failed'] / tally['attempted']:>16.6g} share  "
          f"(n={tally['attempted']})")
    print(json.dumps({
        "correct": correct, "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {key: {"value": metrics[key], "unit": units[key]}
                    for key in units}}))
    return correct


# -- --check ------------------------------------------------------------------

def _child_run(name: str, seed: int, seconds: float, trace: int,
               smoke: bool) -> dict:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        command.append("--smoke")
    done = subprocess.run(command, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited "
                         f"{done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def _worsening(first: float, second: float, better: str) -> float:
    """By what share of ``first`` the second median is worse."""
    delta = second - first if better == "lower" else first - second
    return delta / abs(first)


def check(names, k: int, seed: int, seconds: float, smoke: bool,
          contract: dict) -> bool:
    """Two alternating sets of ``k`` runs per workload (run i of both
    sets shares seed ``seed + i``): per-metric medians, quartiles and
    spread against the bound; exact metrics must repeat identically;
    the sets' medians may not disagree by more than the bound."""
    ok = True
    for name in names:
        sets = ([], [])
        for i in range(k):
            for runs in sets:
                runs.append(_child_run(name, seed + i, seconds, 0,
                                       smoke))
        traced = [_child_run(name, seed, seconds, 1, smoke)
                  for _ in range(2)]
        print(f"== {name}: 2 x {k} end-to-end runs, 2 traced runs")
        for entry in contract["end_to_end"]:
            key, bound = entry["name"], entry["bound"]
            values = [[run["metrics"][key]["value"] for run in runs]
                      for runs in sets]
            medians = [statistics.median(v) for v in values]
            pooled = values[0] + values[1]
            q1, _q2, q3 = statistics.quantiles(pooled, n=4)
            spread = (q3 - q1) / statistics.median(pooled)
            drift = _worsening(medians[0], medians[1], entry["better"])
            verdict = "ok" if drift <= bound else "DISAGREE"
            ok &= drift <= bound
            print(f"{key:<28} median {medians[0]:.6g} / "
                  f"{medians[1]:.6g} {entry['unit']}  q1 {q1:.6g} "
                  f"q3 {q3:.6g}  spread {spread:.4f}  drift "
                  f"{drift:+.4f}  bound {bound}  {verdict}")
        for key in EXACT:
            if key in sets[0][0]["metrics"]:
                pairs = [(a["metrics"][key]["value"],
                          b["metrics"][key]["value"])
                         for a, b in zip(*sets)]
            else:
                pairs = [tuple(run["metrics"][key]["value"]
                               for run in traced)]
            same = all(repr(a) == repr(b) for a, b in pairs)
            ok &= same
            print(f"{key:<44} exact: "
                  f"{'identical' if same else f'DIFFERS {pairs}'}")
        overhead = [run["metrics"]["trace.overhead_share"]["value"]
                    for run in traced]
        print(f"{'trace.overhead_share':<44} {overhead}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="default: all four, one after another")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed window (default: BENCHMARK.json "
                             "run_seconds; 2 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny tables and 2 s windows")
    parser.add_argument("--check", type=int, nargs="?", const=3,
                        metavar="K", help="agreement check, K runs "
                                          "per set (default 3)")
    args = parser.parse_args()
    contract = load_contract()
    seconds = args.seconds if args.seconds is not None else (
        2.0 if args.smoke else float(contract["run_seconds"]))
    names = [args.workload] if args.workload else \
        [entry["name"] for entry in contract["workloads"]]
    if args.check is not None:
        return 0 if check(names, args.check, args.seed, seconds,
                          args.smoke, contract) else 1
    scale = "smoke" if args.smoke else "default"
    ok = True
    for name in names:
        ok &= run_workload(name, args.seed, seconds, bool(args.trace),
                           scale, contract)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
