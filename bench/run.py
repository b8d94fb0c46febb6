"""Benchmark of the blocksplit CLI: one workload per invocation.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

``--trace 0`` times the workload's pipeline (run -> certify -> rate ->
transport) as CLI subprocesses and prints the end-to-end metrics.
``--trace 1`` drives the same pipeline in-process through
``blocksplit.cli.main`` with spans around each layer and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from pipeline import (
    BENCH_DIR,
    COMMANDS,
    PINNED_THREADS,
    ROOT,
    Session,
    cli_argv,
    cli_pipeline,
    run_child,
    setup_probe,
)
import tracing
from workloads import WORKLOADS, generate

WORK_DIR = ROOT / ".bench_work"

# Every pass probes set-up once; setup_s is the median over passes.  At
# least three passes, so that the median has something to reject, and so
# that trajectory.csv is compared between passes.
MIN_PASSES = 3

# Each CPU of a shared host speeds up and slows down on its own (the speeds
# of two CPUs measured side by side were uncorrelated), so reference work
# tells the speed a child saw only if both run on the same CPU.  The
# benchmark is serial, so it and all its children run on one CPU.
PINNED_CPU = min(os.sched_getaffinity(0))

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "certify_s": "s", "rate_s": "s", "transport_s": "s",
    "peak_rss_mb": "MB", "success_frac": "fraction",
}


def provenance() -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "git_commit": commit or None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": dict(PINNED_THREADS),
        "pinned_cpu": PINNED_CPU,
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure_setup(workload, logs: Path, session: Session, index: int,
                  timed: bool = False) -> dict | None:
    """One set-up probe in a fresh interpreter; its phases, or None if it failed."""
    child, probe = setup_probe(workload.config, logs, index, timed)
    ok = child.exit_code == 0 and probe is not None
    session.add(f"setup[{index}]", [] if ok else
                [f"exit {child.exit_code}: {child.stderr.strip()[-300:]}"])
    if ok and timed:
        probe["reference_s"] = child.reference_s
        probe["scaled_setup_s"] = child.scaled(probe["setup_s"])
    return probe if ok else None


def untraced(workload, expected, seconds: float, logs: Path) -> tuple[dict, Session, dict]:
    """Passes of set-up probe + CLI pipeline, every child timed beside reference work.

    Passes start while the run is predicted to end within ``seconds`` (the
    last pass's duration is the prediction), and at least MIN_PASSES run.
    """
    session = Session(expected)
    t0 = time.perf_counter()
    setup, pass_s = [], []
    while len(pass_s) < MIN_PASSES or time.perf_counter() - t0 + pass_s[-1] < seconds:
        start = time.perf_counter()
        probe = measure_setup(workload, logs, session, len(pass_s), timed=True)
        if probe is not None:
            setup.append(probe)
        cli_pipeline(workload, session, logs, len(pass_s), timed=True)
        pass_s.append(time.perf_counter() - start)
    metrics = {
        "setup_s": _median([p["scaled_setup_s"] for p in setup]),
        **{f"{c}_s": _median(session.scaled_s[c]) for c in COMMANDS},
        "peak_rss_mb": _median(session.peak_rss_mb),
        "success_frac": 1.0 - session.failed / session.attempted,
    }
    samples = {"passes": len(pass_s), "pass_s": pass_s, "setup": setup,
               "peak_rss_mb": session.peak_rss_mb, "wall_s": session.wall_s,
               "cpu_s": session.cpu_s, "reference_s": session.reference_s,
               "scaled_s": session.scaled_s}
    return metrics, session, samples


def traced(workload, expected, seconds: float, logs: Path) -> tuple[dict, Session, dict]:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    session = Session(expected)
    t0 = time.perf_counter()
    setup = [p for p in (measure_setup(workload, logs, session, i)
                         for i in range(MIN_PASSES)) if p is not None]
    plain_walls, traced_walls, tracers = [], [], []
    while not tracers or (time.perf_counter() - t0
                          + plain_walls[-1] + traced_walls[-1] < seconds):
        i = len(tracers)
        plain_walls.append(tracing.in_process_pipeline(workload, session, None, f"untraced[{i}]"))
        tracer = tracing.Tracer(workload.name)
        traced_walls.append(tracing.in_process_pipeline(workload, session, tracer, f"traced[{i}]"))
        tracers.append(tracer)
    layer_runs = [t.layer_metrics() for t in tracers]
    for i, run in enumerate(layer_runs[1:], start=1):
        session.add(f"traced[{i}] counts", [f"{k} differs from the first traced pass"
                                            for k in tracing.COUNT_METRICS
                                            if run[k] != layer_runs[0][k]])
    metrics = {k: (layer_runs[0][k] if k in tracing.COUNT_METRICS
                   else _median([r[k] for r in layer_runs])) for k in layer_runs[0]}
    metrics["cli.import_s"] = _median([p["import_s"] for p in setup])
    metrics["trace.overhead_s"] = _median(traced_walls) - _median(plain_walls)
    keys = ("id", "name", "start", "end", "parent", "workload")
    samples = {"untraced_pipeline_s": plain_walls, "traced_pipeline_s": traced_walls,
               "missing_targets": sorted({m for t in tracers for m in t.missing}),
               "spans": [[dict(zip(keys, s)) for s in t.spans] for t in tracers]}
    return metrics, session, samples


def unit_of(name: str) -> str:
    return END_TO_END_UNITS.get(name) or tracing.UNITS.get(name, "s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "blocksplit" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'blocksplit'}", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        workload = generate(args.workload, args.seed, tmp / "inputs")
        recorded = json.loads((BENCH_DIR / "expected.json").read_text())
        expected = recorded[args.workload][str(workload.input_set)]
        logs = tmp / "logs"
        logs.mkdir()
        prov = provenance()
        os.sched_setaffinity(0, {PINNED_CPU})  # children inherit it
        # the first import of a checkout compiles bytecode; users pay that once
        warm = run_child(cli_argv(["--help"]), logs, "warm")
        if warm.exit_code != 0:
            print(f"bench: the package does not import:\n{warm.stderr}", file=sys.stderr)
            return 2
        measure = traced if args.trace else untraced
        metrics, session, samples = measure(workload, expected, args.seconds, logs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    record = {"workload": args.workload, "seed": args.seed, "input_set": workload.input_set,
              "trace": args.trace, "seconds": args.seconds, "provenance": prov,
              "metrics": metrics, "samples": samples, "attempted": session.attempted,
              "failed": session.failed, "failures": session.failures}
    # spans and samples stay in memory until the run ends, then go to one file
    results = WORK_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))

    print(f"workload {args.workload} seed {args.seed} (input set {workload.input_set}) "
          f"trace {args.trace}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for message in session.failures:
        print(f"FAILED {message}")
    if not args.trace:
        print(f"{'failed_frac':<28} {session.failed / session.attempted:.6g} fraction "
              f"({session.failed} of {session.attempted} invocations)")
    for name, value in metrics.items():
        print(f"{name:<28} {value:.6g} {unit_of(name)}")
    print(json.dumps({
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
