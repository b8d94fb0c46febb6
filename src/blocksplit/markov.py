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
across chains, in one process.  ``run`` computes both distance columns
itself (``d_target`` to the target's point mass, ``dw_step`` between
consecutive clouds) and returns its trajectory as the columns
``read_trajectory_csv`` reads back, so a run checks the values ``rate``
does.  The per-row block means are one reduction per distinct block dim
(:meth:`BlockLayout.block_means`), and the trajectory writer formats one
CSV row per ``%`` operation.  A snapshot of the ensemble is written as the
measure file of its equal-weight cloud, the format of every point cloud
the package writes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .blockspace import BlockLayout, chain_rng, sample_subsets
from .errors import DimensionMismatch, Diverged
from .splitting import SplittingMap, apply_full, squared_residuals
from .transport import DiscreteMeasure, distance_to_point_mass, wasserstein2_weighted, write_measure

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


@dataclass
class RunResult:
    """A run's trajectory columns (see ``read_trajectory_csv``) and its snapshots."""

    trajectory: dict[str, np.ndarray]
    snapshots: dict[int, np.ndarray] = field(default_factory=dict)


def run(
    ensemble: Ensemble,
    m: SplittingMap,
    iterations: int,
    snapshot_every: int = 0,
    dw_step_every: int = 0,
    target: np.ndarray | None = None,
) -> RunResult:
    """Advance the ensemble K iterations, recording diagnostics each step.

    The trajectory holds one row per k = 0..K, in the columns
    ``read_trajectory_csv`` returns for the written file, NaN where a value
    was not computed.  ``d_target`` is the weighted W2 distance from the
    ensemble's cloud to the point mass at ``target`` (closed form), NaN
    without a target.  ``dw_step_every`` > 0 fills ``dw_step`` on that
    stride with the exact weighted W2 distance between consecutive clouds,
    one transport solve per entry.  ``snapshot_every`` > 0 stores particle
    copies at k = 0, multiples, and K.

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
    layout = m.layout
    rows: list[tuple] = []  # (k, mean_residual, psi_upper, dw_step, d_target), None: not computed
    means: list[np.ndarray] = []
    snapshots: dict[int, np.ndarray] = {}
    block = DRAW_BLOCK

    def record_now(dw: float | None) -> np.ndarray:
        states = ensemble.states
        finite = np.isfinite(states).all(axis=-1)
        if not finite.all():
            chain = int(np.argmin(finite))
            raise Diverged(ensemble.k, f"chain {chain} has a non-finite state", chain)
        full = apply_full(m, states)
        sq = squared_residuals(states, full)
        d = None if target is None else distance_to_point_mass(
            DiscreteMeasure.empirical(states, layout), target, m.probabilities)
        rows.append((ensemble.k, float(np.mean(np.sqrt(sq))), float(np.sqrt(np.mean(sq))), dw, d))
        means.append(layout.block_means(states))
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
            want_dw = dw_step_every > 0 and (step + 1) % dw_step_every == 0
            prev = ensemble.states.copy() if want_dw else None
            sbi_step(ensemble, m, draws[step % block], full)
            dw = None
            if want_dw:
                dw = wasserstein2_weighted(DiscreteMeasure.empirical(prev, layout),
                                           DiscreteMeasure.empirical(ensemble.states, layout),
                                           m.probabilities)[0]
            full = record_now(dw)
            if want_snapshot(ensemble.k):
                snapshots[ensemble.k] = ensemble.states.copy()
    header = trajectory_header(layout.num_blocks)
    for row in rows:
        for name, v in zip(header[1:5], row[1:]):
            if v is not None and not math.isfinite(v):
                raise Diverged(row[0], f"{name} is {v}")
    table = np.array([[np.nan if v is None else v for v in row] for row in rows], dtype=float)
    table = np.hstack([table, np.array(means)])
    return RunResult(trajectory=dict(zip(header, np.ascontiguousarray(table.T))),
                     snapshots=snapshots)


# ---------------------------------------------------------------------------
# File formats.  Trajectory: plain CSV, floats at 17 significant digits, no
# timestamps, so identical (config, seed) runs produce identical bytes.
# Snapshot: the measure file of the ensemble's equal-weight cloud, the format
# of final_measure.csv, which ``transport.read_measure`` reads back.
# Rows are formatted by hand with the bytes csv.writer would write: "%.17g"
# floats (the text of format(v, ".17g")), comma separated, "\r\n" row ends;
# no field of a number needs quoting.  An empty trajectory cell marks a value
# that was not computed, NaN in the columns.
# ---------------------------------------------------------------------------


def _cell(v: float) -> str:
    return "" if math.isnan(v) else "%.17g" % v


def trajectory_header(num_blocks: int) -> list[str]:
    return ["k", "mean_residual", "psi_upper", "dw_step", "d_target"] + [
        f"block{j}_mean" for j in range(num_blocks)
    ]


def write_trajectory_csv(path, trajectory: dict[str, np.ndarray]) -> None:
    """Write trajectory columns as CSV; a NaN dw_step or d_target is an empty cell."""
    header = trajectory_header(len(trajectory) - 5)
    table = np.column_stack([trajectory[name] for name in header])
    row = "%d,%.17g,%.17g,%s,%s" + ",%.17g" * (len(header) - 5) + "\r\n"
    lines = [",".join(header) + "\r\n"]
    lines += [row % (k, res, psi, _cell(dw), _cell(d), *block_means)
              for k, res, psi, dw, d, *block_means in table.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


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


def write_snapshot(path, states: np.ndarray, layout: BlockLayout) -> None:
    """Write an ensemble as its equal-weight measure file (see ``write_measure``)."""
    write_measure(path, DiscreteMeasure.empirical(states, layout))


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
