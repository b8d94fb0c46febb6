"""One workload pipeline as CLI subprocesses, with output checks.

The pipeline is closed-loop with a single client: each command starts
only after the previous one has exited.  Every child runs the package
from the checkout's ``src`` with BLAS pinned to one thread, and its wall
time, CPU time and peak RSS (from the child's own rusage) are recorded.
When timed, fixed reference work runs beside every child, and the child's
CPU time is also scaled to the speed that work shows (see run_child).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

COMMANDS = ("run", "certify", "rate", "transport")

# Relative tolerance on recorded values.  Tight enough to catch a wrong
# answer, loose enough for a change that only reorders a floating-point sum.
# It holds at every scale (feas_draws records psi_upper near 1e-79); only a
# recorded exact 0 is matched within the absolute ATOL instead.
RTOL = 1e-8
ATOL = 1e-14

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# The reference work and the traced pipeline compute in this process: pin
# BLAS here as well, before numpy is first imported.
os.environ.update(PINNED_THREADS)

import numpy as np  # noqa: E402

# A child still running after this long is killed, so a hung command fails
# its check instead of stalling the whole run.
CHILD_TIMEOUT_S = 120


def child_env() -> dict:
    """Environment for every child: the checkout's package, BLAS pinned to one thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(PINNED_THREADS)
    return env


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    # mean CPU time of the reference units run beside the child; None if none ran
    reference_s: float | None = None

    def scaled(self, cpu_s: float | None = None) -> float:
        """CPU time (the child's own by default) scaled to the reference speed."""
        cpu = self.cpu_s if cpu_s is None else cpu_s
        return cpu * REFERENCE_UNIT_S / self.reference_s


# Reference work: a fixed mix of interpreter and small-array work, like the
# inner loops of a CLI command.  It runs nothing of blocksplit, so no change
# to the package moves it.
_REFERENCE_MATRIX = np.linspace(0.0, 1.0, 64 * 64).reshape(64, 64)


def reference_unit() -> None:
    acc, seen = 0, {}
    for i in range(5_000):
        acc += (i * i) % 7
        seen[i & 1023] = acc
    a = _REFERENCE_MATRIX.copy()
    for _ in range(50):
        a = a @ a.T
        a /= np.abs(a).max()


# CPU time of one reference unit beside a child on a quiet 2-core x86_64
# host.  Scaled times are expressed at that speed, so on a quiet machine a
# scaled time reads close to the CPU time.
REFERENCE_UNIT_S = 0.0017


def run_child(argv: list[str], log_dir: Path, tag: str, timed: bool = False) -> Child:
    """Run one child to completion; CPU time and peak RSS come from its own rusage.

    With ``timed``, this process runs reference units, with pauses, until
    the child exits.  A shared host's CPU speed drifts by a third or more
    within seconds; the caller keeps this process and the child on one CPU,
    so the units and the child share the CPU at the same moments, see the
    same speed, and the child's CPU time divided by a unit's mean CPU time
    cancels the drift.
    """
    out_path, err_path = log_dir / f"{tag}.out", log_dir / f"{tag}.err"
    units: list[float] = []
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=child_env(), cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            while True:
                if timed:
                    c0 = time.process_time()
                    reference_unit()
                    units.append(time.process_time() - c0)
                    # idle twice as long, so the child gets about 3/4 of the CPU
                    time.sleep(2 * units[-1])
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG if timed else 0)
                if pid:
                    break
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, out_path.read_text(), err_path.read_text(),
                 sum(units) / len(units) if units else None)


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "blocksplit.cli"] + args


def verdict_lines(stdout: str) -> list[str]:
    """The PASS/FAIL lines of a command, with any numbers after a colon dropped."""
    return [line.split(":")[0] for line in stdout.splitlines()
            if line.startswith(("PASS ", "FAIL "))]


def observe(command: str, exit_code: int, stdout: str, run_out: Path) -> dict:
    """The checked facts of one command's outcome (also what expected.json records)."""
    obs = {"exit": exit_code}
    if command == "run":
        summary = json.loads((run_out / "summary.json").read_text())
        obs["psi_upper"] = summary["final"]["psi_upper"]
        obs["d_target"] = summary["final"]["d_target"]
    elif command in ("certify", "rate"):
        obs["verdicts"] = verdict_lines(stdout)
    else:
        obs["distance"] = float(stdout.strip().splitlines()[-1])
    return obs


NUMERIC = ("psi_upper", "d_target", "distance")


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is None and want is None
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL if want == 0 else 0.0)


def mismatches(observed: dict, expected: dict) -> list[str]:
    """Differences between an observed outcome and the recorded one."""
    bad = []
    for key, want in expected.items():
        got = observed.get(key)
        if not (_close(got, want) if key in NUMERIC else got == want):
            bad.append(f"{key}: got {got!r}, recorded {want!r}")
    return bad


class Session:
    """Everything one benchmark run has seen: timings, peak RSS and checked invocations.

    ``expected`` holds the recorded outcome of each command (None while
    recording).  Every ``run`` of the session must write the same
    trajectory.csv bytes as the first one.
    """

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.wall_s: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.scaled_s: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.cpu_s: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.reference_s: dict[str, list[float]] = {c: [] for c in COMMANDS}
        self.peak_rss_mb: list[float] = []  # per pass: the largest of its children
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.observed: dict = {}
        self._trajectory: bytes | None = None

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures += [f"{label}: {p}" for p in problems]

    def check(self, workload, command: str, exit_code, stdout: str, label: str) -> None:
        """Compare one command's outcome with the recorded one and count it."""
        problems = []
        try:
            obs = observe(command, exit_code, stdout, workload.run_out)
            if command == "run":
                trajectory = (workload.run_out / "trajectory.csv").read_bytes()
                if self._trajectory is None:
                    self._trajectory = trajectory
                elif trajectory != self._trajectory:
                    problems.append("trajectory.csv differs from the first run")
        except (OSError, ValueError, KeyError, IndexError) as e:
            problems.append(f"output unreadable ({e}); exit {exit_code}")
        else:
            self.observed[command] = obs
            if self.expected is not None:
                problems += mismatches(obs, self.expected[command])
        self.add(f"{label} {command}", problems)


def prepare(workload, command: str) -> None:
    """Clear the run's output directory, so a failed run cannot pass on stale files."""
    if command == "run":
        shutil.rmtree(workload.run_out, ignore_errors=True)


def cli_pipeline(workload, session: Session, log_dir: Path, index: int,
                 timed: bool = False) -> None:
    """One pass: the four commands as subprocesses, in order, each one checked.

    With ``timed``, each command's scaled CPU time is recorded as well.
    """
    peak = 0.0
    for command in COMMANDS:
        prepare(workload, command)
        child = run_child(cli_argv(workload.argv(command)), log_dir, f"{index}-{command}",
                          timed)
        session.wall_s[command].append(child.wall_s)
        session.cpu_s[command].append(child.cpu_s)
        if timed:
            session.reference_s[command].append(child.reference_s)
            session.scaled_s[command].append(child.scaled())
        peak = max(peak, child.peak_rss_mb)
        session.check(workload, command, child.exit_code, child.stdout, f"pass[{index}]")
    session.peak_rss_mb.append(peak)


def setup_probe(config: Path, log_dir: Path, index: int,
                timed: bool = False) -> tuple[Child, dict | None]:
    """CPU time of import + load_config + build_problem + build_map + init_ensemble in a fresh interpreter."""
    child = run_child([sys.executable, str(BENCH_DIR / "setup_probe.py"), str(config)],
                      log_dir, f"setup-{index}", timed)
    try:
        phases = json.loads(child.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        phases = None
    return child, phases
