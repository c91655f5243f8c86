"""Smoke test of the benchmark itself: ``pytest bench/tests``.

Runs every workload with ``--smoke`` (tiny tables, 2 s windows) in both
trace modes and checks the contract between ``bench/run.py`` and
``BENCHMARK.json``: same workload names, same metric names, legal
names, a seed that changes inputs but not names, a span file in which
every span has a parent and an op id — and a non-zero exit where there
is no ``src/`` to benchmark.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    CONTRACT = json.load(_handle)


def run_bench(workload: str, trace: int, seed: int = 1) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--smoke",
         "--workload", workload, "--seed", str(seed),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def results() -> dict:
    return {(name, trace): run_bench(name, trace)
            for name in WORKLOADS for trace in (0, 1)}


def test_workload_names_match_contract():
    declared = [entry["name"] for entry in CONTRACT["workloads"]]
    assert sorted(declared) == sorted(WORKLOADS)
    assert all(NAME.fullmatch(name) for name in declared)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_emitted_metrics_equal_declared(results, trace, section):
    declared = {entry["name"]: entry["unit"]
                for entry in CONTRACT[section]}
    assert all(NAME.fullmatch(name) for name in declared)
    for name in WORKLOADS:
        result = results[name, trace]
        assert set(result) == {"correct", "attempted", "failed",
                               "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 1
        emitted = {key: value["unit"]
                   for key, value in result["metrics"].items()}
        assert emitted == declared, name


def test_end_to_end_metrics_are_never_zero(results):
    for name in WORKLOADS:
        for key, value in results[name, 0]["metrics"].items():
            assert value["value"] > 0, (name, key)


def test_seed_changes_inputs_not_names(results):
    other = run_bench("table1_scan", 0, seed=2)
    assert set(other["metrics"]) == \
        set(results["table1_scan", 0]["metrics"])
    for name, cls in WORKLOADS.items():
        first, second = cls(1, "smoke"), cls(2, "smoke")
        assert first.bulk_rows() != second.bulk_rows() or \
            [s.sql for s in first.wire_load()] != \
            [s.sql for s in second.wire_load()], name
        assert [s.sql for s in first.wire_load()] == \
            [s.sql for s in cls(1, "smoke").wire_load()], name


def test_span_file_is_a_forest_under_the_run_root(results):
    for name in WORKLOADS:
        path = os.path.join(BENCH, "out", f"spans-{name}-1.json")
        with open(path) as handle:
            trace = json.load(handle)
        ids = {span["id"] for span in trace["spans"]}
        ids.add(trace["root"]["id"])
        assert trace["spans"], name
        for span in trace["spans"]:
            assert span["parent"] in ids, span
            assert span["op"], span
            assert span["end"] >= span["start"], span


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "table1_scan",
         "--seed", "1", "--seconds", "2", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not done.stdout.strip()
