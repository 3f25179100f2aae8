"""Tests of the benchmark itself; run with

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's own test run: they
spawn CLI processes and take about half a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from oracle import Oracle  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_run_prints_every_metric_in_benchmark_json():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        doc = _result(_bench("--workload", "sequences", "--seed", "0", "--seconds", "1",
                             "--trace", str(trace)))
        assert set(doc) == {"correct", "attempted", "failed", "metrics"}
        assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert {k: v["unit"] for k, v in doc["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in doc["metrics"].values())


def test_planted_wrong_answers_are_failures():
    argv = ["walks", "--group", "Z10", "--k", "8", "--from", "1", "--to", "3"]
    queries, wall = run.run_pass([[argv]], 60.0, float("inf"))
    good = queries[0]
    assert json.loads(good.stdout)["count"] == "57"
    wrong = run.Query(argv, good.wall_s, 0, good.stdout.replace('"57"', '"58"'), "")
    crashed = run.Query(argv, good.wall_s, 4, "", "consistency failure")
    hung = run.Query(argv, good.wall_s, None, "", "")
    empty = run.Query(argv, good.wall_s, 0, "\n", "")
    checkers = {tuple(argv): Oracle().checker(argv)}
    planted = [good, wrong, crashed, hung, empty]
    assert run.check(planted, checkers) == 4
    assert [q.failure is None for q in planted] == [True, False, False, False, False]
    metrics = run.end_to_end(planted, 4, wall, [0.1])
    assert metrics["queries_per_s"] == 1 / wall


def test_calls_through_imported_names_are_traced(tmp_path):
    # cli and series call mckay_adjacency and poly_det through names they
    # imported from quiver and polynomials.
    totals = {}
    for argv in (["quiver", "--group", "Z4"],
                 ["poincare", "--group", "Z4", "--method", "cramer"]):
        out = tmp_path / "trace.json"
        proc = subprocess.run([sys.executable, str(HERE / "tracer.py"), str(out), *argv],
                              cwd=ROOT, env=run.child_env(), capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        traced = run.Query(argv, 1.0, 0, proc.stdout, "", True, json.loads(out.read_text()))
        plain = run.Query(argv, 1.0, 0, proc.stdout, "")
        totals[argv[0]], _ = run.per_layer([plain, traced])
    assert totals["quiver"]["quiver.adjacency_calls"] == 1
    assert totals["poincare"]["quiver.adjacency_calls"] == 1
    assert totals["poincare"]["polynomials.det_calls"] == 2
    assert totals["poincare"]["series.cramer_s"] > 0


def test_same_seed_same_stream():
    for workload in workloads.WORKLOADS:
        stream = workloads.generate(workload, 7, 3)
        assert stream == workloads.generate(workload, 7, 3)
        assert stream != workloads.generate(workload, 8, 3)
    # String seeds do not depend on hash randomisation in another process.
    code = ("import json, workloads; "
            "print(json.dumps(workloads.generate('adjacency', 7, 3)))")
    env = dict(os.environ, PYTHONHASHSEED="12345")
    proc = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                          capture_output=True, text=True, timeout=60)
    assert json.loads(proc.stdout) == workloads.generate("adjacency", 7, 3)


def test_every_generated_query_has_a_reference_answer():
    oracle = Oracle()
    for workload in workloads.WORKLOADS:
        cycles = workloads.cycles_for(workload, BENCHMARK["run_seconds"], False)
        for seed in (0, 1):
            for cycle in workloads.generate(workload, seed, cycles):
                for argv in cycle:
                    assert callable(oracle.checker(argv)), argv


def test_tail_percentile_leaves_ten_samples_beyond():
    for n in (11, 30, 40, 52, 76, 108, 180):
        pct = run.tail_percentile(n)
        assert run.beyond(n, pct) >= 10 and run.beyond(n, pct + 1) < 10


def test_harrell_davis_estimates():
    assert abs(run.beta_cdf(2, 3, 0.4) - 0.5248) < 1e-12
    assert abs(run.harrell_davis(list(range(1, 101)), 50) - 50.5) < 1e-9
    assert run.harrell_davis([3.0, 1.0, 2.0], 100) == 3.0
    ordered = [0.1 * i for i in range(1, 109)]
    assert ordered[96] < run.harrell_davis(ordered[::-1], 90) < ordered[98]


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "adjacency", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
