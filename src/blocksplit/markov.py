"""Particle ensembles for the induced Markov chain, diagnostics, and file output.

Each chain owns two generator streams derived from (master_seed, chain_id):
stream 0 draws the initial state, stream 1 drives the subset draws, so the
initial ensemble is independent of every selection and the whole run is
reproducible bitwise from (config, seed).

Every block of a drawn subset is updated from the same input, so one step
of the whole ensemble is x+ = where(mask_xi, T1 x, x) over a single
full-block evaluation T1 x (random sweeping).  ``run`` makes that the only
operator work per step: the T1 x behind the residual columns at step k is
the update of step k + 1.  Subset draws are prefetched per chain, DRAW_BLOCK
steps at a time, as one outcome table; the stepping is serial and vectorized
across chains, with no worker threads.  The per-record block means are one
reduction per distinct block dim (:meth:`BlockLayout.block_means`), and the
file writers format one CSV row per ``%`` operation.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .blockspace import chain_rng, sample_subsets
from .errors import DimensionMismatch, Diverged
from .splitting import SplittingMap, apply_full

# Steps of subset draws prefetched per chain at a time.  Results do not
# depend on it; it only bounds the outcome table at (DRAW_BLOCK, N).
DRAW_BLOCK = 256


@dataclass
class Ensemble:
    """N independent chains advanced in lockstep."""

    states: np.ndarray  # (N, dim)
    rngs: list[np.random.Generator]
    master_seed: int
    k: int = 0

    def __post_init__(self):
        if self.states.ndim != 2:
            raise DimensionMismatch(f"states must be (N, dim), got {self.states.shape}")
        if len(self.rngs) != self.states.shape[0]:
            raise DimensionMismatch("one rng per chain required")

    @property
    def num_chains(self) -> int:
        return self.states.shape[0]


def init_ensemble(
    m: SplittingMap,
    initial_sampler: Callable[[np.random.Generator], np.ndarray],
    num_chains: int,
    master_seed: int,
) -> Ensemble:
    """Draw N i.i.d. initial states, one init stream per chain.

    Chain i's initial draw uses stream (master_seed, i, 0) and its subset
    draws use (master_seed, i, 1), so adding chains leaves the existing
    chains' initial states and draw streams unchanged.  Their trajectories
    can still move in the last bits: a quadratic coupling's BLAS gradient
    rounds a row differently in a batch with another row count.
    """
    if num_chains <= 0:
        raise ValueError(f"need at least one chain, got {num_chains}")
    dim = m.layout.total_dim
    states = np.empty((num_chains, dim))
    rngs = []
    for i in range(num_chains):
        x0 = np.asarray(initial_sampler(chain_rng(master_seed, i, stream=0)), dtype=float)
        if x0.shape != (dim,):
            raise DimensionMismatch(f"initial sampler returned shape {x0.shape}, expected ({dim},)")
        states[i] = x0
        rngs.append(chain_rng(master_seed, i, stream=1))
    return Ensemble(states=states, rngs=rngs, master_seed=master_seed)


def sbi_step(ensemble: Ensemble, m: SplittingMap, outcomes=None, full=None) -> None:
    """Advance every chain by one random blockwise update, in place.

    Chain c takes the blocks of subset ``outcomes[c]`` from ``full``, the
    full-block map T1 of the current states, and keeps its other blocks:
    x+ = where(mask, T1 x, x).  ``run`` passes its prefetched draws and the
    T1 x its diagnostics already evaluated.  Called bare, each chain draws
    one outcome from its own stream and T1 is evaluated here.
    """
    if outcomes is None:
        outcomes = sample_subsets(m.scheme, ensemble.rngs, 1)[0]
    if full is None:
        full = apply_full(m, ensemble.states)
    np.copyto(ensemble.states, full, where=m.outcome_masks[outcomes])
    ensemble.k += 1


def empirical_residual_psi(ensemble: Ensemble, m: SplittingMap) -> float:
    """Root-mean-square full-block residual, sqrt(mean ||x - T1 x||^2).

    In the consistent case this equals the certified upper bound on the
    invariant discrepancy of the empirical measure.
    """
    sq = squared_residuals(ensemble.states, apply_full(m, ensemble.states))
    return float(np.sqrt(np.mean(sq)))


def squared_residuals(states: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Squared full-block residual ||x - T1 x||^2 of each chain."""
    r = states - full
    return np.sum(r * r, axis=-1)


@dataclass
class DiagnosticRecord:
    """Per-iteration summary row of a run."""

    k: int
    mean_residual: float
    psi_upper: float
    dw_step: float | None
    d_target: float | None
    block_means: np.ndarray


@dataclass
class RunResult:
    records: list[DiagnosticRecord]
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)


def run(
    ensemble: Ensemble,
    m: SplittingMap,
    iterations: int,
    snapshot_every: int = 0,
    dw_step_every: int = 0,
    target_distance: Callable[[np.ndarray], float] | None = None,
    step_distance: Callable[[np.ndarray, np.ndarray], float] | None = None,
) -> RunResult:
    """Advance the ensemble K iterations, recording diagnostics each step.

    ``snapshot_every`` > 0 stores particle copies at k = 0, multiples, and K.
    ``dw_step_every`` > 0 evaluates ``step_distance`` between consecutive
    clouds on that stride (an exact transport solve, so it costs).
    ``target_distance`` maps a cloud to its distance from the declared
    target and fills the d_target column.

    Each step evaluates T1 once: the residual diagnostics of step k compute
    T1 x, and :func:`sbi_step` reuses it as the update of step k + 1.  The
    draws come from :func:`sample_subsets` in blocks of DRAW_BLOCK steps,
    never past K, so every chain's stream ends where K single draws leave
    it and the result does not depend on the block size.  A non-finite
    state raises Diverged with k and the first such chain.  States that
    stay finite can still overflow a diagnostic: after the last step, a
    non-finite residual or distance raises Diverged naming the first such
    column and its k.  The floating-point warnings on the way are
    silenced, as the error reports them.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    records: list[DiagnosticRecord] = []
    snapshots: dict[int, np.ndarray] = {}
    block = DRAW_BLOCK

    def record_now(dw: float | None) -> np.ndarray:
        finite = np.isfinite(ensemble.states).all(axis=-1)
        if not finite.all():
            chain = int(np.argmin(finite))
            raise Diverged(ensemble.k, f"chain {chain} has a non-finite state", chain)
        full = apply_full(m, ensemble.states)
        sq = squared_residuals(ensemble.states, full)
        records.append(
            DiagnosticRecord(
                k=ensemble.k,
                mean_residual=float(np.mean(np.sqrt(sq))),
                psi_upper=float(np.sqrt(np.mean(sq))),
                dw_step=dw,
                d_target=None if target_distance is None else float(target_distance(ensemble.states)),
                block_means=m.layout.block_means(ensemble.states),
            )
        )
        return full

    def want_snapshot(k: int) -> bool:
        if snapshot_every <= 0:
            return k == 0 or k == iterations
        return k == 0 or k == iterations or k % snapshot_every == 0

    with np.errstate(over="ignore", invalid="ignore"):
        full = record_now(None)
        if want_snapshot(0):
            snapshots[0] = ensemble.states.copy()
        for step in range(iterations):
            if step % block == 0:
                draws = sample_subsets(m.scheme, ensemble.rngs, min(block, iterations - step))
            want_dw = dw_step_every > 0 and step_distance is not None and (step + 1) % dw_step_every == 0
            prev = ensemble.states.copy() if want_dw else None
            sbi_step(ensemble, m, draws[step % block], full)
            dw = float(step_distance(prev, ensemble.states)) if want_dw else None
            full = record_now(dw)
            if want_snapshot(ensemble.k):
                snapshots[ensemble.k] = ensemble.states.copy()
    for r in records:
        for name in ("mean_residual", "psi_upper", "dw_step", "d_target"):
            v = getattr(r, name)
            if v is not None and not math.isfinite(v):
                raise Diverged(r.k, f"{name} is {v}")
    return RunResult(records=records, snapshots=snapshots)


# ---------------------------------------------------------------------------
# File formats.  Trajectory: plain CSV, floats at 17 significant digits, no
# timestamps, so identical (config, seed) runs produce identical bytes.
# Snapshot: one JSON header line, then one CSV row of coordinates per chain.
# Rows are formatted by hand with the bytes csv.writer would write: "%.17g"
# floats (the text of format(v, ".17g")), comma separated, "\r\n" row ends;
# no field of a number needs quoting.  An empty trajectory cell marks a value
# that was not computed.
# ---------------------------------------------------------------------------


def _cell(v: float | None) -> str:
    return "" if v is None else "%.17g" % v


def trajectory_header(num_blocks: int) -> list[str]:
    return ["k", "mean_residual", "psi_upper", "dw_step", "d_target"] + [
        f"block{j}_mean" for j in range(num_blocks)
    ]


def write_trajectory_csv(path, records: Sequence[DiagnosticRecord]) -> None:
    """Write diagnostics as CSV; empty cells mark values not computed."""
    num_blocks = len(records[0].block_means) if records else 0
    row = "%d,%.17g,%.17g,%s,%s" + ",%.17g" * num_blocks + "\r\n"
    lines = [",".join(trajectory_header(num_blocks)) + "\r\n"]
    lines += [
        row % (r.k, r.mean_residual, r.psi_upper, _cell(r.dw_step), _cell(r.d_target),
               *r.block_means.tolist())
        for r in records
    ]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def trajectory_columns(records: Sequence[DiagnosticRecord]) -> dict[str, np.ndarray]:
    """The columns ``read_trajectory_csv`` returns for these records, without the file."""
    num_blocks = len(records[0].block_means) if records else 0
    header = trajectory_header(num_blocks)
    cols = {name: np.array([getattr(r, name) for r in records], dtype=float) for name in header[:5]}
    means = np.array([r.block_means for r in records], dtype=float).reshape(len(records), num_blocks)
    cols.update(zip(header[5:], np.ascontiguousarray(means.T)))
    return cols


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Read a trajectory CSV into named columns (NaN for empty cells)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("file is empty")
    header, body = rows[0], rows[1:]
    width = len(header)
    cells = [[v or "nan" for v in row[:width]] + ["nan"] * (width - len(row)) for row in body]
    table = np.array(cells, dtype=float).reshape(len(body), width)
    return dict(zip(header, np.ascontiguousarray(table.T)))


def write_snapshot(path, states: np.ndarray, k: int, seed: int) -> None:
    """Particle dump: JSON header line (n, dim, k, seed), then CSV rows."""
    states = np.asarray(states, dtype=float)
    header = {"n": int(states.shape[0]), "dim": int(states.shape[1]), "k": int(k), "seed": int(seed)}
    write_table(path, header, states)


def write_table(path, header: dict, rows: np.ndarray) -> None:
    """JSON header line, then one CSV row of "%.17g" floats per row of a 2-D array."""
    row = ",".join(["%.17g"] * rows.shape[1]) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write("".join([row % tuple(r) for r in rows.tolist()]))


def read_snapshot(path) -> tuple[dict, np.ndarray]:
    """Read a snapshot file back as (header, states)."""
    with open(path, newline="") as fh:
        header = json.loads(fh.readline())
        rows = list(csv.reader(fh))
    states = np.array(rows, dtype=float)
    if states.size == 0:
        states = states.reshape(0, header.get("dim", 0))
    if states.shape != (header["n"], header["dim"]):
        raise DimensionMismatch(
            f"snapshot body shape {states.shape} does not match header {header}"
        )
    return header, states


def point_sampler(x0) -> Callable[[np.random.Generator], np.ndarray]:
    """Initial sampler concentrated at one point."""
    x0 = np.asarray(x0, dtype=float)

    def sample(rng: np.random.Generator) -> np.ndarray:
        return x0.copy()

    return sample


def uniform_box_sampler(lo, hi) -> Callable[[np.random.Generator], np.ndarray]:
    """Initial sampler uniform over a box (lo, hi coordinatewise)."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or np.any(lo > hi):
        raise ValueError("box bounds must have equal shape with lo <= hi")

    def sample(rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(lo, hi)

    return sample
