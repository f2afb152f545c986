"""The measured process: one client running CLI queries back to back.

``run.py`` starts it in a fresh interpreter with single-threaded BLAS and the
program's ``src`` on ``PYTHONPATH``.  It runs every query in-process through
``sphere_census.cli.main`` (a closed loop, one query at a time): one
unmeasured warm-up pass, with census orders cut to ``WARMUP_NMAX`` so that
it loads every code path without costing a full pass, then whole passes
while one more, as long as the last, would end within ``--seconds`` (at
least one pass, or one pair when traced).  With ``--trace 1`` untraced
and traced passes alternate.  Every pass runs a fixed reference kernel
before and after every query, so that ``run.py`` can scale each query's
time by the speed the shared host gave the process at that moment.  The
last line of its standard output is one JSON object with the timings, the
first pass's outputs and a digest of every pass's outputs.
"""
from __future__ import annotations

import argparse
import cmath
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

WARMUP_NMAX = 3
REFERENCE_STEPS = 16000
REFERENCE_EIGS = 6
REFERENCE_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def environment() -> dict:
    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def reference_kernel() -> float:
    """Seconds taken by fixed work that shares no code with the program.

    Like the program it mixes scalar complex arithmetic in the interpreter
    with small dense eigensolves, so a host that slows one slows the other.
    """
    start = time.perf_counter()
    z, acc = 0.3 + 0.1j, 0j
    for _ in range(REFERENCE_STEPS):
        z = z * z * 0.5 + 0.1j
        acc += abs(z) + cmath.exp(-abs(z))
    for _ in range(REFERENCE_EIGS):
        np.linalg.eigvals(REFERENCE_MATRIX)
    return time.perf_counter() - start


def run_query(cli, q: workloads.Query) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(q.argv))
        except SystemExit as exc:      # argparse rejects its input
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


def run_pass(cli, queries, tracer: Tracer | None) -> dict:
    """One pass; ``reference_s[i]`` and ``reference_s[i + 1]`` bracket
    query i."""
    outputs, times, reference = [], [], [reference_kernel()]
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for q in queries:
            if tracer is not None:
                tracer.fixed_oracle = (
                    (lambda n, m=q.map: oracle.census_count(m, n))
                    if q.kind == "census" else None)
            rc, out, err, seconds = run_query(cli, q)
            outputs.append((rc, out, err))
            times.append(seconds)
            reference.append(reference_kernel())
    finally:
        if tracer is not None:
            tracer.uninstall()
    digest = hashlib.sha256(json.dumps(outputs).encode()).hexdigest()
    result = {"traced": tracer is not None, "wall_s": sum(times), "query_s": times,
              "reference_s": reference, "digest": digest, "outputs": outputs}
    if tracer is not None:
        result["stats"] = json.loads(json.dumps(tracer.stats))
    return result


def warmup_queries(queries):
    for q in queries:
        if q.kind == "census" and q.n_max > WARMUP_NMAX:
            argv = q.argv[:-1] + (str(WARMUP_NMAX),)
            q = dataclasses.replace(q, argv=argv, n_max=WARMUP_NMAX)
        yield q


def write_fixtures(queries) -> None:
    for q in queries:
        for path, text in q.files:
            Path(path).write_text(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    from sphere_census import cli

    queries = workloads.build(args.workload, args.seed, args.workdir)
    write_fixtures(queries)
    run_pass(cli, list(warmup_queries(queries)), None)

    tracer = Tracer() if args.trace else None
    group = 1 if tracer is None else 2       # a traced run measures pairs
    passes: list[dict] = []
    start = group_start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(cli, queries, tracer if traced else None))
        if len(passes) == 1:
            # peak resident memory of a fresh process that has run one pass
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if len(passes) % group == 0:
            now = time.perf_counter()
            # stop before a group that, as long as the last one, would end
            # past --seconds, so that a run never overruns by a whole pass
            if now - start + (now - group_start) > args.seconds:
                break
            group_start = now
    for p in passes[1:]:
        del p["outputs"]
    print(json.dumps({"env": environment(), "peak_rss_kb": peak_rss_kb,
                      "passes": passes}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
