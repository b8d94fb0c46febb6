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
across chains, in one process.  ``run`` records each step in one table,
whose k column starts at the ensemble's own k.  It computes both distance
columns itself (``d_target`` to the target's point mass, ``dw_step``
between consecutive clouds) and returns the table as the columns
``read_trajectory_csv`` reads back, so a run checks the values ``rate``
does.  The per-row block means are one reduction per distinct block dim
(:meth:`BlockLayout.block_means`), and the trajectory writer (in
``rates``, re-exported here) formats one CSV row per ``%`` operation.
A snapshot of the ensemble is written as the measure file of its
equal-weight cloud, the format of every point cloud the package writes.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .blockspace import BlockLayout, chain_rng, sample_subsets
from .errors import DimensionMismatch, Diverged
from .rates import read_trajectory_csv, trajectory_header, write_trajectory_csv  # noqa: F401
from .splitting import SplittingMap, apply_full, squared_residuals
from .transport import DiscreteMeasure, point_mass_distance, wasserstein2_weighted, write_measure

# Steps of subset draws prefetched per chain at a time.  Results do not
# depend on it; it only bounds the outcome table at (DRAW_BLOCK, N).
DRAW_BLOCK = 256


class Ensemble:
    """N independent chains advanced in lockstep."""

    __slots__ = ("states", "rngs", "k")

    def __init__(self, states: np.ndarray, rngs: list[np.random.Generator], k: int = 0):
        if states.ndim != 2:
            raise DimensionMismatch(f"states must be (N, dim), got {states.shape}")
        if len(rngs) != states.shape[0]:
            raise DimensionMismatch("one rng per chain required")
        self.states = states  # (N, dim)
        self.rngs = rngs
        self.k = k

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
    return Ensemble(states=states, rngs=rngs)


def sbi_step(ensemble: Ensemble, m: SplittingMap, outcomes: np.ndarray, full: np.ndarray) -> None:
    """Advance every chain by one random blockwise update, in place.

    Chain c takes the blocks of subset ``outcomes[c]`` from ``full``, the
    full-block map T1 of the current states, and keeps its other blocks:
    x+ = where(mask, T1 x, x).  ``run`` passes its prefetched draws
    (``sample_subsets``) and the T1 x its diagnostics already evaluated.
    """
    np.copyto(ensemble.states, full, where=m.outcome_masks[outcomes])
    ensemble.k += 1


def empirical_residual_psi(ensemble: Ensemble, m: SplittingMap) -> float:
    """Root-mean-square full-block residual, sqrt(mean ||x - T1 x||^2).

    In the consistent case this equals the certified upper bound on the
    invariant discrepancy of the empirical measure.
    """
    sq = squared_residuals(ensemble.states, apply_full(m, ensemble.states))
    return float(np.sqrt(np.mean(sq)))


class RunResult(NamedTuple):
    """A run's trajectory columns (see ``read_trajectory_csv``) and its snapshots."""

    trajectory: dict[str, np.ndarray]
    snapshots: dict[int, np.ndarray]


def run(
    ensemble: Ensemble,
    m: SplittingMap,
    iterations: int,
    snapshot_every: int = 0,
    dw_step_every: int = 0,
    target: np.ndarray | None = None,
) -> RunResult:
    """Advance the ensemble K iterations, recording diagnostics each step.

    The trajectory holds K + 1 rows, k from the ensemble's own k, in the
    columns ``read_trajectory_csv`` returns, NaN where not computed.
    ``d_target`` is the weighted W2 distance from the ensemble's cloud to
    the point mass at ``target`` (closed form).  ``dw_step_every`` > 0 fills
    ``dw_step`` on that stride with the exact weighted W2 distance between
    consecutive clouds, one transport solve per entry.  Snapshots are
    particle copies keyed by k: at the first and last row and wherever
    ``snapshot_every`` > 0 divides k.

    Each step evaluates T1 once: the residual diagnostics of step k compute
    T1 x, and :func:`sbi_step` reuses it as the update of step k + 1.  The
    draws come from :func:`sample_subsets` in blocks of DRAW_BLOCK steps,
    never past K, so every chain's stream ends where K single draws leave
    it and the result does not depend on the block size.  A non-finite
    state raises Diverged with k and the first such chain.  States that
    stay finite can still overflow a diagnostic: the first non-finite
    residual or distance is noted as it is recorded and raised as Diverged,
    naming its column and k, after the last step.  The floating-point
    warnings on the way are silenced, as the error reports them.
    """
    if iterations < 0:
        raise ValueError(f"iterations must be nonnegative, got {iterations}")
    layout = m.layout
    header = trajectory_header(layout.num_blocks)
    table = np.full((iterations + 1, len(header)), np.nan)
    table[:, 0] = np.arange(ensemble.k, ensemble.k + iterations + 1)
    snapshots: dict[int, np.ndarray] = {}
    diverged = None  # the first non-finite diagnostic, raised after the last step
    n = ensemble.num_chains
    if target is not None:  # distance_to_point_mass's inputs, but for the states
        target = layout.check(target)
        weights, coordinate_inverse = np.full(n, 1.0 / n), m.probabilities.coordinate_inverse()

    def record(i: int, dw: float | None = None) -> np.ndarray:
        nonlocal diverged
        states, k = ensemble.states, ensemble.k
        if not np.isfinite(states).all():
            chain = int(np.argmin(np.isfinite(states).all(axis=-1)))
            raise Diverged(k, f"chain {chain} has a non-finite state", chain)
        full = apply_full(m, states)
        sq = squared_residuals(states, full)
        d = None if target is None else point_mass_distance(states, weights, target,
                                                            coordinate_inverse)
        # the means are np.mean's arithmetic: a pairwise sum, then one division
        mean_residual = float(np.add.reduce(np.sqrt(sq))) / n
        psi_upper = math.sqrt(float(np.add.reduce(sq)) / n)
        row = table[i]
        for col, v in enumerate((mean_residual, psi_upper, dw, d), start=1):
            if v is not None:
                row[col] = v
                if diverged is None and not math.isfinite(v):
                    diverged = Diverged(k, f"{header[col]} is {v}")
        row[5:] = layout.block_means(states)
        if i in (0, iterations) or (snapshot_every > 0 and k % snapshot_every == 0):
            snapshots[k] = states.copy()
        return full

    with np.errstate(over="ignore", invalid="ignore"):
        full = record(0)
        for step in range(iterations):
            if step % DRAW_BLOCK == 0:
                draws = sample_subsets(m.scheme, ensemble.rngs, min(DRAW_BLOCK, iterations - step))
            want_dw = dw_step_every > 0 and (step + 1) % dw_step_every == 0
            prev = ensemble.states.copy() if want_dw else None
            sbi_step(ensemble, m, draws[step % DRAW_BLOCK], full)
            dw = wasserstein2_weighted(DiscreteMeasure.empirical(prev, layout),
                                       DiscreteMeasure.empirical(ensemble.states, layout),
                                       m.probabilities)[0] if want_dw else None
            full = record(step + 1, dw)
    if diverged is not None:
        raise diverged
    return RunResult(trajectory=dict(zip(header, np.ascontiguousarray(table.T))),
                     snapshots=snapshots)


# ---------------------------------------------------------------------------
# A snapshot is the measure file of the ensemble's equal-weight cloud, the
# format of final_measure.csv, which ``transport.read_measure`` reads back.
# ---------------------------------------------------------------------------


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
