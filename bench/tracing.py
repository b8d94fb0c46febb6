"""In-process traced pipeline: spans around each layer's entry points.

The tracer wraps functions of the package from outside: for every target
it replaces the function object in each loaded ``blocksplit`` module that
holds it (the defining module and every ``from .x import f`` binding), and
puts the originals back afterwards.  Nothing in the package changes.

Coarse calls are kept as spans (name, start, end, parent, workload) in
memory.  Hot leaf calls (subset draws, gradients, proxes, operator
applications) are only aggregated, so that a million draws do not become
a million records.  Every call adds its duration to its parent's child
time, which gives self times.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

from pipeline import COMMANDS, Session, prepare

# A span whose name is listed here becomes the "phase" of every call
# beneath it, until another phase begins.  Counters split by phase.
PHASES = ("problems.build", "problems.verify", "markov.run", "regularity.certify")


@dataclass(frozen=True)
class Target:
    module: str
    attr: str
    name: str
    keep: bool = True  # False: aggregate only, record no span


def _t(module, attr, name, keep=True):
    return Target(f"blocksplit.{module}", attr, name, keep)


TARGETS = (
    _t("cli", "cmd_run", "cli.run"),
    _t("cli", "cmd_certify", "cli.certify"),
    _t("cli", "cmd_rate", "cli.rate"),
    _t("cli", "cmd_transport", "cli.transport"),
    _t("config", "load_config", "config.load"),
    _t("config", "build_problem", "problems.build"),
    _t("problems", "_verify_declared_fixed_points", "problems.verify"),
    _t("markov", "init_ensemble", "markov.init"),
    _t("markov", "run", "markov.run"),
    _t("markov", "sbi_step", "markov.step"),
    _t("markov", "empirical_residual_psi", "markov.residual_psi"),
    _t("markov", "write_trajectory_csv", "markov.io"),
    _t("markov", "read_trajectory_csv", "markov.io"),
    _t("markov", "write_snapshot", "markov.io"),
    _t("blockspace", "sample_subset", "blockspace.draw", keep=False),
    _t("blockspace", "block_probabilities", "blockspace.prob_build", keep=False),
    _t("splitting", "apply_T", "splitting.apply_T", keep=False),
    _t("splitting", "apply_full", "splitting.apply_full", keep=False),
    _t("operators", "resolvent_separable", "operators.prox", keep=False),
    _t("operators", "resolvent_partial_smooth", "operators.partial_resolvent", keep=False),
    _t("transport", "wasserstein2_weighted", "transport.w2"),
    _t("transport", "cost_matrix", "transport.cost_matrix"),
    _t("transport", "linear_sum_assignment", "transport.assign"),
    _t("transport", "linprog", "transport.lp"),
    _t("transport", "distance_to_point_mass", "transport.point_mass"),
    _t("transport", "read_measure", "transport.io"),
    _t("transport", "write_measure", "transport.io"),
    _t("regularity", "certify_pointwise_aafne", "regularity.certify"),
    _t("regularity", "certify_aafne_in_expectation", "regularity.certify"),
    _t("regularity", "certify_paracontraction_in_expectation", "regularity.certify"),
    _t("regularity", "verify_expectation_identities", "regularity.certify"),
    _t("regularity", "_coordinate_refine", "regularity.refine"),
    _t("rates", "check_fejer", "rates.check"),
    _t("rates", "check_gauge_monotone", "rates.check"),
    _t("rates", "check_asymptotic_regularity", "rates.check"),
    _t("rates", "fit_linear_rate", "rates.check"),
)

# Span names whose calls pass a file path first: their bytes are counted.
IO_SPANS = ("markov.io", "transport.io")
# Span names whose arguments feed a counter (see Tracer._before).
HOOKED = IO_SPANS + ("transport.w2", "transport.cost_matrix", "markov.step")


class Tracer:
    """Spans and per-(name, phase) aggregates of one traced pipeline."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, workload)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # (name, phase) -> calls, total, self
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # frames: [id, name, phase, child time]
        self._next_id = 0
        self._patched: list[tuple] = []
        self.missing: list[str] = []

    def wrap(self, fn, name: str, keep: bool):
        stack, stats = self._stack, self.stats
        perf = time.perf_counter
        hooked = name in HOOKED

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            phase = name if name in PHASES else (parent[2] if parent else None)
            span_id = None
            if keep:
                span_id = self._next_id
                self._next_id += 1
            frame = [span_id, name, phase, 0.0]
            stack.append(frame)
            if hooked:
                self._before(name, args)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent[3] += dur
                st = stats[(name, phase)]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[3]
                if keep:
                    self.spans.append((span_id, name, t0, t1,
                                       parent[0] if parent is not None else None,
                                       self.workload))
                if hooked:
                    self._after(name, args)

        traced.__wrapped__ = fn
        return traced

    def _before(self, name, args):
        if name == "transport.w2":
            mu, nu = args[0], args[1]
            self.counts["transport.max_n"] = max(self.counts["transport.max_n"],
                                                 mu.num_points, nu.num_points)
        elif name == "transport.cost_matrix":
            self.counts["transport.cost_bytes"] += 8 * args[0].num_points * args[1].num_points
        elif name == "markov.step":
            self.counts["markov.chain_steps"] += args[0].num_chains
        elif name in IO_SPANS and _is_read(args):
            self.counts[f"{name}_bytes"] += _size(args[0])

    def _after(self, name, args):
        if name in IO_SPANS and not _is_read(args):
            self.counts[f"{name}_bytes"] += _size(args[0])

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in every loaded blocksplit module; restore on exit."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "blocksplit" or n.startswith("blocksplit."))]
        try:
            for target in TARGETS:
                home = sys.modules.get(target.module)
                original = getattr(home, target.attr, None)
                if original is None:
                    self.missing.append(f"{target.module}.{target.attr}")
                    continue
                wrapped = self.wrap(original, target.name, target.keep)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._patched.append((mod, attr, original))
            self._patch_gradients()
            yield self
        finally:
            for mod, attr, original in reversed(self._patched):
                setattr(mod, attr, original)
            self._patched.clear()

    def _patch_gradients(self):
        """Count gradient evaluations of every coupling built while tracing."""
        ops = sys.modules["blocksplit.operators"]
        cls = ops.SmoothCoupling
        original = cls.__post_init__
        tracer = self

        def post_init(coupling):
            original(coupling)
            if coupling.gradient is not None:
                coupling.gradient = tracer.wrap(coupling.gradient, "operators.grad", keep=False)

        cls.__post_init__ = post_init
        self._patched.append((cls, "__post_init__", original))

    # -- aggregation ---------------------------------------------------------

    def calls(self, name, phase=any) -> int:
        return sum(v[0] for (n, p), v in self.stats.items()
                   if n == name and (phase is any or p == phase))

    def total(self, name, phase=any) -> float:
        return sum(v[1] for (n, p), v in self.stats.items()
                   if n == name and (phase is any or p == phase))

    def self_time(self, name) -> float:
        return sum(v[2] for (n, _), v in self.stats.items() if n == name)

    def layer_metrics(self) -> dict:
        """The per-layer metrics of this trace, keyed by metric name."""
        c = self.counts
        return {
            "blockspace.draws": self.calls("blockspace.draw"),
            "blockspace.draw_s": self.total("blockspace.draw"),
            "blockspace.prob_builds": self.calls("blockspace.prob_build"),
            "markov.step_self_s": self.self_time("markov.step"),
            "markov.diag_s": self.total("markov.run") - self.total("markov.step")
            - self.total("transport.w2", "markov.run"),
            "markov.init_s": self.total("markov.init"),
            "markov.chain_steps": c["markov.chain_steps"],
            "markov.io_s": self.total("markov.io"),
            "markov.io_bytes": c["markov.io_bytes"],
            "splitting.apply_T_calls": self.calls("splitting.apply_T"),
            "splitting.apply_T_s": self.total("splitting.apply_T"),
            "splitting.apply_full_calls": self.calls("splitting.apply_full"),
            "splitting.apply_full_s": self.total("splitting.apply_full"),
            "operators.grad_evals": self.calls("operators.grad"),
            "operators.prox_calls": self.calls("operators.prox"),
            "operators.prox_s": self.total("operators.prox"),
            "operators.partial_resolvent_s": self.total("operators.partial_resolvent"),
            "problems.build_s": self.total("problems.build"),
            "problems.reference_iters": self.calls("splitting.apply_full", "problems.build"),
            "config.load_s": self.total("config.load"),
            "transport.solves_assign": self.calls("transport.assign"),
            "transport.solves_lp": self.calls("transport.lp"),
            "transport.max_n": c["transport.max_n"],
            "transport.cost_matrix_s": self.total("transport.cost_matrix"),
            "transport.cost_bytes": c["transport.cost_bytes"],
            "transport.assign_s": self.total("transport.assign"),
            "transport.lp_s": self.total("transport.lp"),
            "transport.w2_self_s": self.self_time("transport.w2"),
            "transport.io_s": self.total("transport.io"),
            "regularity.certify_s": self.total("regularity.certify"),
            "regularity.refine_s": self.total("regularity.refine"),
            "regularity.operator_calls": self.calls("splitting.apply_T", "regularity.certify")
            + self.calls("splitting.apply_full", "regularity.certify"),
            "rates.checks_s": self.total("rates.check"),
        }


def _is_read(args) -> bool:
    # read_* take only a path; write_* take a path and the data
    return len(args) == 1


def _size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Count metrics: they must repeat exactly between traced pipelines.
COUNT_METRICS = (
    "blockspace.draws", "blockspace.prob_builds", "markov.chain_steps", "markov.io_bytes",
    "splitting.apply_T_calls", "splitting.apply_full_calls", "operators.grad_evals",
    "operators.prox_calls", "problems.reference_iters", "transport.solves_assign",
    "transport.solves_lp", "transport.max_n", "transport.cost_bytes",
    "regularity.operator_calls",
)

UNITS = {name: "count" for name in COUNT_METRICS}
UNITS.update({"markov.io_bytes": "B", "transport.cost_bytes": "B_computed",
              "transport.max_n": "points"})


def in_process_pipeline(workload, session: Session, tracer: Tracer | None, label: str) -> float:
    """One pass of the four commands through ``blocksplit.cli.main`` in this process.

    Each command is checked into ``session``; returns the pass's wall time.
    With a tracer, its wrappers are installed for the duration of the pass.
    """
    from blocksplit import cli

    ctx = tracer.installed() if tracer is not None else contextlib.nullcontext()
    t0 = time.perf_counter()
    with ctx:
        for command in COMMANDS:
            prepare(workload, command)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                try:
                    code = cli.main(workload.argv(command))
                except SystemExit as e:  # argparse rejects its input this way
                    code = e.code
                except Exception as e:  # a subprocess would die with a traceback here
                    code = f"uncaught {type(e).__name__}: {e}"
            session.check(workload, command, code, buf.getvalue(), label)
    return time.perf_counter() - t0
