"""tensorwalks benchmark: seeded query streams through the CLI.

    python3 perfbench/run.py --workload adjacency --seed 1 --seconds 45 --trace 0

One client runs a closed loop: each query is a fresh `python -m tensorwalks
<verb> ...` process, started when the previous one has exited, so the
library's in-process caches never carry over from one query to the next, as
for a user of the CLI.  Every output is checked against an answer computed
before the timed pass by a route the query did not use (see oracle.py).

--trace 0 prints the end-to-end metrics.  --trace 1 runs half as many cycles,
each query untraced and then traced (see tracer.py), and prints the per-layer
metrics.  The last line of standard output is one JSON object; the lines
before it are a readable report.  Details of a traced run are written to
.perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from oracle import Oracle, result_digits, verify_totals
from tracer import GROUP_BUILDERS, self_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
TRACER = Path(__file__).resolve().parent / "tracer.py"

# setup_s is the median of about this many imports, spread over the run:
# SETUP_SAMPLES before the pass and as many again divided among the cycles.
SETUP_SAMPLES = 6
QUERY_TIMEOUT_S = 60.0
# No query starts once a pass has taken this many times its duration at the
# seed commit, nor after RUN_BUDGET_S of the run, so a run ends within 180 s.
PASS_CAP_FACTOR = 3
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"queries_per_s": "1/s", "latency_p50_s": "s", "latency_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "quiver.adjacency_s": "s", "quiver.adjacency_calls": "count", "quiver.mat_pow_s": "s",
    "quiver.character_s": "s", "quiver.character_calls": "count",
    "closedforms.self_s": "s", "closedforms.calls": "count",
    "series.cramer_s": "s", "polynomials.det_s": "s", "polynomials.det_calls": "count",
    "series.character_s": "s", "groups.build_s": "s", "groups.build_calls": "count",
    "diagrams.basis_s": "s", "verify.suite_s": "s", "verify.checks": "count",
    "verify.checks_failed": "count", "cli.self_s": "s",
    "cyclotomic.mul_calls": "count", "cyclotomic.add_calls": "count",
    "trace.main_s": "s", "trace.overhead_ratio": "ratio",
}


@dataclass
class Query:
    argv: list[str]
    wall_s: float
    returncode: int | None
    stdout: str
    stderr: str
    traced: bool = False
    trace: dict | None = None
    failure: str | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # An installed CLI imports cached bytecode; without this, a checkout that
    # never got a __pycache__ would compile every module in every query.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def spawn(cmd: list[str], timeout: float) -> tuple[float, int | None, str, str]:
    """Run one process to its exit; a process past `timeout` is killed and
    reported with returncode None."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=timeout)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    return time.perf_counter() - start, code, out, err


def setup_samples(count: int) -> list[float]:
    """Wall times of `count` fresh interpreters importing the CLI."""
    samples = []
    for _ in range(count):
        wall, code, _, err = spawn([sys.executable, "-c", "import tensorwalks.cli"], QUERY_TIMEOUT_S)
        if code != 0:
            raise RuntimeError(f"importing tensorwalks.cli failed: {err.strip()}")
        samples.append(wall)
    return samples


def run_pass(stream, cap_s: float, run_deadline: float, between_cycles=lambda: None,
             traced: bool = False) -> tuple[list[Query], float]:
    """All queries of the stream in order, one process at a time; none starts
    after `cap_s` seconds of the pass.  With `traced`, each query runs once
    more right away under the tracer, so that both runs of it see the same
    state of the machine.  The wall time returned leaves out `between_cycles`,
    which runs after each cycle."""
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"query-{os.getpid()}.json"
    plain = [sys.executable, "-m", "tensorwalks"]
    tracer = [sys.executable, str(TRACER), str(trace_path)]
    queries: list[Query] = []
    wall = 0.0
    deadline = time.perf_counter() + cap_s
    for cycle in stream:
        start = time.perf_counter()
        for argv in cycle:
            for prefix in (plain, tracer) if traced else (plain,):
                now = time.perf_counter()
                if now >= min(deadline, run_deadline):
                    return queries, wall + now - start
                took, code, out, err = spawn(prefix + argv, min(QUERY_TIMEOUT_S, run_deadline - now))
                trace = None
                if prefix is tracer and trace_path.exists():
                    trace = json.loads(trace_path.read_text())
                    trace_path.unlink()
                queries.append(Query(argv, took, code, out, err, prefix is tracer, trace))
        end = time.perf_counter()
        wall += end - start
        between_cycles()
        deadline += time.perf_counter() - end
    return queries, wall


def check(queries: list[Query], checkers: dict) -> int:
    """Mark failed queries; returns how many failed."""
    for q in queries:
        if q.returncode is None:
            q.failure = "timed out"
        elif q.returncode != 0:
            q.failure = f"exit {q.returncode}: {q.stderr.strip()[-200:]}"
        elif not q.stdout.strip():
            q.failure = "empty output"
        else:
            q.failure = checkers[tuple(q.argv)](q.stdout)
    return sum(q.failure is not None for q in queries)


def tail_percentile(n: int) -> int:
    """The highest whole percentile with at least 10 of n samples beyond it
    (100 when there are too few samples for any)."""
    return max(0, 100 * (n - 10) // n) if n > 10 else 100


def beyond(n: int, pct: int) -> int:
    """Samples of n above the nearest-rank `pct` percentile."""
    return n - max(1, math.ceil(pct / 100 * n))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 400):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta function I_x(a, b)."""
    if x <= 0.0 or x >= 1.0:
        return 0.0 if x <= 0.0 else 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def harrell_davis(values: list[float], pct: int) -> float:
    """Harrell-Davis estimate of the `pct` percentile: a Beta-weighted mean of
    the order statistics around that rank.  A single order statistic jumps
    between the neighbouring samples; this moves smoothly with all of them."""
    ordered = sorted(values)
    n = len(ordered)
    if pct >= 100:
        return ordered[-1]
    a, b = pct / 100 * (n + 1), (1 - pct / 100) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def end_to_end(queries: list[Query], failed: int, wall: float, setup: list[float]) -> dict:
    lat = [q.wall_s for q in queries]
    pct = tail_percentile(len(lat))
    print(f"queries {len(lat)}, failed {failed}, failed_ratio {failed / len(lat):.4f}, "
          f"pass wall {wall:.3f} s")
    print(f"latency_tail_s is the p{pct} of {len(lat)} samples "
          f"({beyond(len(lat), pct)} beyond it), latency_p50_s the p50; both Harrell-Davis")
    return {
        "queries_per_s": (len(lat) - failed) / wall,
        "latency_p50_s": harrell_davis(lat, 50),
        "latency_tail_s": harrell_davis(lat, pct),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }


# Per-layer metric -> tracer layer whose self time or call count it sums.
SELF_TIME = {"quiver.adjacency_s": "quiver.adjacency", "quiver.mat_pow_s": "quiver.mat_pow",
             "quiver.character_s": "quiver.character", "closedforms.self_s": "closedforms",
             "series.cramer_s": "series.cramer", "polynomials.det_s": "polynomials.det",
             "series.character_s": "series.character", "groups.build_s": "groups.build",
             "diagrams.basis_s": "diagrams.basis", "verify.suite_s": "verify.suite",
             "cli.self_s": "cli"}
CALLS = {"quiver.adjacency_calls": "quiver.adjacency", "quiver.character_calls": "quiver.character",
         "closedforms.calls": "closedforms", "polynomials.det_calls": "polynomials.det"}
NO_TRACE = {"spans": [], "calls": {}, "ops": {"mul": 0, "add": 0}, "size": None}


def per_layer(queries: list[Query]) -> tuple[dict, list]:
    """Totals over the traced queries, and one row per traced query."""
    totals = dict.fromkeys(PER_LAYER_UNITS, 0)
    rows = []
    traced = [q for q in queries if q.traced]
    for q in traced:
        doc = q.trace or NO_TRACE
        selfs, calls = self_times(doc["spans"]), doc["calls"]
        row = {m: selfs.get(layer, 0.0) for m, layer in SELF_TIME.items()}
        for metric, layer in CALLS.items():
            row[metric] = sum(v for k, v in calls.items() if k.startswith(layer + "/"))
        row["groups.build_calls"] = sum(calls.get(f"groups.build/{f}", 0) for f in GROUP_BUILDERS)
        row["verify.checks"], row["verify.checks_failed"] = (
            verify_totals(q.stdout) if q.argv[0] == "verify" else (0, 0))
        row["cyclotomic.mul_calls"] = doc["ops"]["mul"]
        row["cyclotomic.add_calls"] = doc["ops"]["add"]
        row["trace.main_s"] = sum(end - start for _, parent, _, _, start, end in doc["spans"]
                                  if parent < 0)
        for key, value in row.items():
            totals[key] += value
        rows.append({"argv": q.argv, "wall_s": q.wall_s, "size": doc["size"],
                     "result_digits": result_digits(q.stdout), "layers": row})
    totals["trace.overhead_ratio"] = (sum(q.wall_s for q in traced)
                                      / sum(q.wall_s for q in queries if not q.traced))
    return totals, rows


def report_layers(totals: dict, rows: list) -> None:
    print(f"{'query':60s} {'wall_s':>7s} {'n':>4s} {'N':>4s} {'phi':>4s} {'digits':>6s}")
    for r in rows:
        size = r["size"] or {}
        print(f"{' '.join(r['argv'])[:60]:60s} {r['wall_s']:7.3f} "
              f"{size.get('classes', '-'):>4} {size.get('conductor', '-'):>4} "
              f"{size.get('phi', '-'):>4} {r['result_digits']:>6}")
    main_s = totals["trace.main_s"] or 1.0
    for key, value in totals.items():
        share = f"  ({value / main_s:.1%} of traced main)" if key.endswith("_s") and key != "trace.main_s" else ""
        print(f"{key:24s} {value:.6g}{share}")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    run_start = time.perf_counter()
    if not (SRC / "tensorwalks" / "cli.py").is_file():
        sys.stderr.write(f"error: no tensorwalks sources under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))

    traced = bool(args.trace)
    cycles = workloads.cycles_for(args.workload, args.seconds, traced)
    stream = workloads.generate(args.workload, args.seed, cycles)
    setup_samples(1)  # writes the bytecode caches of a fresh checkout
    oracle_start = time.perf_counter()
    oracle = Oracle()
    checkers = {tuple(a): oracle.checker(a) for cycle in stream for a in cycle}
    print(f"workload {args.workload}, seed {args.seed}, {cycles} cycles of "
          f"{len(stream[0])} queries; answers computed in {time.perf_counter() - oracle_start:.2f} s")

    run_deadline = run_start + RUN_BUDGET_S
    cap_s = PASS_CAP_FACTOR * cycles * workloads.NOMINAL_CYCLE_S[args.workload]
    if traced:
        queries, _ = run_pass(stream, 2 * cap_s, run_deadline, traced=True)
    else:
        setup = setup_samples(SETUP_SAMPLES)
        per_cycle = math.ceil(SETUP_SAMPLES / cycles)
        queries, wall = run_pass(stream, cap_s, run_deadline,
                                 lambda: setup.extend(setup_samples(per_cycle)))
    failed = check(queries, checkers)
    for q in queries:
        if q.failure:
            sys.stderr.write(f"FAILED {' '.join(q.argv)}: {q.failure}\n")

    if traced:
        metrics, rows = per_layer(queries)
        report_layers(metrics, rows)
        detail = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        detail.write_text(json.dumps({"totals": metrics, "queries": rows}, indent=1))
        print(f"per-query trace written to {detail.relative_to(ROOT)}")
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(queries, failed, wall, setup)
        for key, value in metrics.items():
            print(f"{key:16s} {value:.6g} {END_TO_END_UNITS[key]}")
        units = END_TO_END_UNITS
    attempted = len(queries)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
