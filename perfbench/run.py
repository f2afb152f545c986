"""sphere-census benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload census --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout.  The script checks every printed
answer against a closed-form oracle, prints one human-readable line per
metric (name, value, unit) and the failed operations, and ends with one
JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
See perfbench/README.md for the workloads and the metric table.

A shared host's speed drifts: on a 2-vCPU virtual machine the same census
pass took 4.4 s to 7.8 s over seven minutes, with the process's CPU time
tracking its wall time.  So the
worker brackets every query with a fixed reference kernel, and each query's
time is scaled to the host speed at which that kernel takes ``REFERENCE_S``
(``wall_s = sum(median over passes of query_s * REFERENCE_S / kernel_s)``).
The text lines also print the unscaled times and the host speed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
# the reference kernel's time at the host speed that wall_s and
# slowest_query_s are quoted at
REFERENCE_S = 0.016
WORKER_TIMEOUT_S = 160
SETUP_TIMEOUT_S = 30
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
LAYER_METRICS = (
    ("charts.evaluate", ("calls", "self_s")),
    ("charts.chordal", ("calls",)),
    ("charts.solve_profile_level", ("self_s",)),
    ("winding.winding_number", ("calls", "samples", "self_s")),
    ("degree.local_degree", ("calls", "self_s")),
    ("degree.component_degrees", ("self_s",)),
    ("degree.annular_degree", ("self_s",)),
    ("degree.find_preimages", ("self_s",)),
    ("degree.global_degree", ("self_s",)),
    ("annuli.decompose", ("calls", "self_s")),
    ("annuli.check_hypothesis_h", ("self_s",)),
    ("annuli.pole_preimages", ("self_s",)),
    ("lefschetz.lefschetz_index", ("calls", "self_s")),
    ("lefschetz.fixed_point_in", ("self_s",)),
    ("strip_lift.verify_index", ("calls", "m_used")),
    ("strip_lift.lift_fixed_point", ("self_s",)),
    ("strip_lift.nielsen_fixed_points", ("self_s",)),
    ("census.fixed_points", ("calls", "self_s", "points", "yield")),
    ("census.theorem_a_crosscheck", ("self_s",)),
    ("census.growth_report", ("self_s",)),
    ("cli.main", ("calls", "self_s")),
)
UNITS = {"calls": "count", "samples": "count", "m_used": "count",
         "points": "count", "self_s": "s", "yield": "ratio"}


class BenchError(Exception):
    """The run could not be measured; no result is printed."""


def pinned_env(workdir: str) -> dict:
    """Single-threaded BLAS, the checkout's program, and bytecode cached in
    the run's own directory whatever the caller's bytecode settings."""
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED_THREADS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(ROOT / workdir / "pycache")
    for name in ("SPHERE_CENSUS_SEED", "PYTHONDONTWRITEBYTECODE"):
        env.pop(name, None)
    return env


def measure_setup(spec: str, env: dict) -> list[tuple[float, float]]:
    """Fresh interpreters importing the CLI and parsing one map spec.

    Each child prints ``perf_counter()`` once the spec is parsed; on Linux
    that clock is system-wide, so the difference from the parent's reading
    before the spawn is the child's start-up, import and parse time.  Then,
    untimed, the child runs the reference kernel three times and prints the
    median, the host speed that the set-up time is scaled by.
    """
    code = ("import time; from sphere_census import cli; "
            f"cli.parse_map({spec!r}); ready = time.perf_counter(); "
            f"import statistics, sys; sys.path.insert(0, {str(BENCH)!r}); "
            "import worker; print(ready, statistics.median("
            "worker.reference_kernel() for _ in range(3)))")
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True,
                              timeout=SETUP_TIMEOUT_S)
        ready, kernel_s = map(float, proc.stdout.split())
        if i:                           # the first run fills the bytecode cache
            times.append((ready - start, kernel_s))
    return times


def run_worker(args, workdir: str, env: dict) -> dict:
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def scaled_pass(p: dict) -> list[float]:
    """A pass's query times, each scaled by the mean of the two reference
    kernel runs around it."""
    return [t * 2 * REFERENCE_S / (p["reference_s"][i] + p["reference_s"][i + 1])
            for i, t in enumerate(p["query_s"])]


def scaled_queries(untraced: list[dict]) -> list[float]:
    """Each query's median scaled time over untraced passes."""
    return [statistics.median(times) for times in zip(*map(scaled_pass, untraced))]


def host_speed(untraced: list[dict]) -> float:
    """REFERENCE_S over the run's median reference kernel time."""
    return REFERENCE_S / statistics.median(t for p in untraced for t in p["reference_s"])


def layer_metrics(traced: list[dict], overhead_s: float) -> dict:
    metrics = {}
    for key, fields in LAYER_METRICS:
        per_pass = [p["stats"][key] for p in traced]
        for field in fields:
            if field == "self_s":
                value = min(s["self_ns"] for s in per_pass) / 1e9
            elif field == "yield":
                oracle_total = per_pass[0]["oracle"]
                value = per_pass[0]["points"] / oracle_total if oracle_total else 0.0
            else:
                value = per_pass[0][field]
            metrics[f"{key}.{field}"] = {"value": value, "unit": UNITS[field]}
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics


def counts_repeat(traced: list[dict]) -> bool:
    def counts(p):
        return {k: {f: v for f, v in s.items() if f != "self_ns"}
                for k, s in p["stats"].items()}
    return all(counts(p) == counts(traced[0]) for p in traced)


def print_report(args, queries, ops, failed, untraced, traced, env_info,
                 reproducible) -> None:
    """Human-readable lines before the result line."""
    walls = [p["wall_s"] for p in untraced]
    q1, median, q3 = quartiles(walls)
    print(f"workload {args.workload} seed {args.seed}: {len(queries)} queries, "
          f"{len(ops)} operations, {len(untraced)} untraced and {len(traced)} "
          f"traced passes after warm-up")
    print("env " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    scaled = scaled_queries(untraced)
    for i, q in enumerate(queries):
        times = [p["query_s"][i] for p in untraced]
        order = f" --n-max {q.n_max}" if q.kind == "census" else ""
        print(f"query {q.label}{order}: fastest {min(times):.4f} s, "
              f"median {statistics.median(times):.4f} s, scaled median "
              f"{scaled[i]:.4f} s")
    print(f"untraced pass wall time: fastest {min(walls):.4f} s, q1 {q1:.4f} s, "
          f"median {median:.4f} s, q3 {q3:.4f} s over {len(walls)} passes: "
          + " ".join(f"{w:.3f}" for w in walls))
    print(f"host speed {host_speed(untraced):.3f} of the reference "
          f"(reference kernel {REFERENCE_S} s at 1.000)")
    print(f"failed_share {len(failed) / len(ops):.4f} ratio ({len(failed)}/{len(ops)})")
    for op in failed:
        where = f" n={op.n}" if op.n is not None else ""
        print(f"FAILED {args.workload} {op.query}{where}: expected {op.expected}; "
              f"got {op.got}")
    if not reproducible:
        print("NOT REPRODUCIBLE: outputs differ between passes")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sphere_census" / "cli.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.relpath(tempfile.mkdtemp(prefix=".work-", dir=BENCH), ROOT)
    env = pinned_env(workdir)
    try:
        queries = workloads.build(args.workload, args.seed, workdir)
        setup = [] if args.trace else measure_setup(queries[0].map.spec, env)
        result = run_worker(args, workdir, env)
    except (BenchError, subprocess.SubprocessError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)

    passes = result["passes"]
    first = passes[0]
    ops = [op for q, (rc, out, err) in zip(queries, first["outputs"])
           for op in oracle.check(q, rc, out, err)]
    failed = [op for op in ops if not op.ok]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    reproducible = all(p["digest"] == first["digest"] for p in passes)
    correct = reproducible and (not traced or counts_repeat(traced))

    print_report(args, queries, ops, failed, untraced, traced, result["env"],
                 reproducible)
    if args.trace:
        # passes alternate untraced, traced: pair each traced pass with the
        # untraced one just before it, both scaled to the reference speed
        overhead = statistics.median(
            sum(scaled_pass(t)) - sum(scaled_pass(u)) for u, t in zip(untraced, traced))
        metrics = layer_metrics(traced, overhead)
    else:
        print(f"set-up unscaled: median {statistics.median(t for t, _ in setup):.4f} s "
              f"over {len(setup)} fresh interpreters")
        scaled = scaled_queries(untraced)
        metrics = {
            "wall_s": {"value": sum(scaled), "unit": "s"},
            "slowest_query_s": {"value": max(scaled), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(
                t * REFERENCE_S / kernel_s for t, kernel_s in setup), "unit": "s"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
