"""Particle ensembles for the induced Markov chain, diagnostics, and file output.

Each chain owns two generator streams: chain i's stream s is the PCG64 that
numpy's ``SeedSequence(entropy=master_seed, spawn_key=(i, s))`` seeds,
derived for all chains in one pass (:func:`stream_seeds`).  Stream 0 draws
the initial state, stream 1 drives the subset draws, so the initial
ensemble is independent of every selection and the whole run is
reproducible bitwise from (config, seed).  An initial sampler is a batch
map: it takes the (N, dim) array of each chain's first dim stream-0
doubles and returns the N initial states as a new (N, dim) array.

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
from numpy.random.bit_generator import ISeedSequence

from .blockspace import BlockLayout, sample_subsets
from .config import DRAW_BLOCK
from .errors import CostOverflow, DimensionMismatch, Diverged
from .rates import read_trajectory_csv, trajectory_header, write_trajectory_csv  # noqa: F401
from .splitting import SplittingMap, apply_full, squared_residuals
from .transport import DiscreteMeasure, point_mass_distance, wasserstein2_weighted, write_measure


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
    initial_sampler: Callable[[np.ndarray], np.ndarray],
    num_chains: int,
    master_seed: int,
) -> Ensemble:
    """Draw N i.i.d. initial states, one init stream per chain.

    Chain i's initial draw uses stream (master_seed, i, 0) and its subset
    draws use (master_seed, i, 1), both seeded in one pass over the chains
    (:func:`stream_seeds`), so adding chains leaves the existing chains'
    initial states and draw streams unchanged.  Their trajectories can
    still move in the last bits: a quadratic coupling's BLAS gradient
    rounds a row differently in a batch with another row count.

    Each chain's first ``dim`` stream-0 doubles form one row of an (N, dim)
    array ``u`` of uniforms on [0, 1), and ``initial_sampler(u)`` returns
    the (N, dim) states as a new array (the batch sampler protocol of
    :func:`uniform_box_sampler` and :func:`point_sampler`).
    """
    if num_chains <= 0:
        raise ValueError(f"need at least one chain, got {num_chains}")
    u = np.empty((num_chains, m.layout.total_dim))
    chain_ids = np.arange(num_chains)
    for row, seed in zip(u, stream_seeds(master_seed, chain_ids, 0)):
        _generator(seed).random(out=row)
    rngs = [_generator(seed) for seed in stream_seeds(master_seed, chain_ids, 1)]
    states = np.asarray(initial_sampler(u), dtype=float)
    if states.shape != u.shape:
        raise DimensionMismatch(f"initial sampler returned shape {states.shape}, expected {u.shape}")
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
    state raises Diverged with k and the first such chain, before a
    transport solve reads it.  States that stay finite can still overflow
    a diagnostic (a ``dw_step`` whose cost overflows is inf): the first
    non-finite residual or distance is noted as it is recorded and raised
    as Diverged, naming its column and k, after the last step.  The
    floating-point warnings on the way are silenced, as the error reports them.
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

    def require_finite() -> None:
        states = ensemble.states
        if not np.isfinite(states).all():
            chain = int(np.argmin(np.isfinite(states).all(axis=-1)))
            raise Diverged(ensemble.k, f"chain {chain} has a non-finite state", chain)

    def record(i: int, dw: float | None = None) -> np.ndarray:
        nonlocal diverged
        states, k = ensemble.states, ensemble.k
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
        require_finite()
        full = record(0)
        for step in range(iterations):
            if step % DRAW_BLOCK == 0:
                draws = sample_subsets(m.scheme, ensemble.rngs, min(DRAW_BLOCK, iterations - step))
            want_dw = dw_step_every > 0 and (step + 1) % dw_step_every == 0
            prev = ensemble.states.copy() if want_dw else None
            sbi_step(ensemble, m, draws[step % DRAW_BLOCK], full)
            require_finite()  # before the transport solve reads the states
            dw = None
            if want_dw:
                try:
                    dw = wasserstein2_weighted(DiscreteMeasure.empirical(prev, layout),
                                               DiscreteMeasure.empirical(ensemble.states, layout),
                                               m.probabilities)[0]
                except CostOverflow:  # finite clouds too far apart: noted as the others are
                    dw = math.inf
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


def point_sampler(x0) -> Callable[[np.ndarray], np.ndarray]:
    """Initial sampler concentrated at one point: every row of ``u`` maps to ``x0``."""
    x0 = np.asarray(x0, dtype=float)

    def sample(u: np.ndarray) -> np.ndarray:
        _check_sampler_dim(x0, u)
        return np.tile(x0, (u.shape[0], 1))

    return sample


def uniform_box_sampler(lo, hi) -> Callable[[np.ndarray], np.ndarray]:
    """Initial sampler uniform over a box (lo, hi coordinatewise): u maps to lo + (hi - lo) u.

    That is ``Generator.uniform(lo, hi)``'s own arithmetic, so a row equals
    its draw from the same doubles bit for bit; like it, the sampler
    refuses a box whose width hi - lo is not finite.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if lo.shape != hi.shape or np.any(lo > hi):
        raise ValueError("box bounds must have equal shape with lo <= hi")
    with np.errstate(over="ignore", invalid="ignore"):
        width = hi - lo
    if not np.isfinite(width).all():
        raise OverflowError("Range exceeds valid bounds")

    def sample(u: np.ndarray) -> np.ndarray:
        _check_sampler_dim(lo, u)
        return lo + width * u

    return sample


def _check_sampler_dim(x: np.ndarray, u: np.ndarray) -> None:
    if x.shape != u.shape[1:]:
        raise DimensionMismatch(f"initial sampler has shape {x.shape}, expected ({u.shape[1]},)")


# ---------------------------------------------------------------------------
# Chain streams.  Chain i's stream s is numpy's
# SeedSequence(entropy=master_seed, spawn_key=(i, s)) driving a PCG64: its
# hash (numpy/random/bit_generator.pyx) runs here on uint32 words, scalars
# for the seed and arrays across chains for the key, and each chain's
# generator is seeded with its row of the result.
# ---------------------------------------------------------------------------

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # the entropy hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # the output hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


class _SeedWords(ISeedSequence):
    """Hands a bit generator the seed words computed for it; it does not spawn."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _generator(words: np.ndarray) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _words(n: int) -> list[int]:
    """The uint32 words of a nonnegative integer, least significant first; 0 is one word."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_constants(value: int, multiplier: int):
    """The (xor, multiplier) pair of each successive hash call."""
    while True:
        stepped = value * multiplier & _MASK32
        yield value, stepped
        value = stepped


# Each operation below takes Python ints below 2**32 or uint32 arrays, so
# that the arrays wrap modulo 2**32 as the C code does.


def _hashmix(word, constants):
    xor, multiplier = next(constants)
    word = (word ^ xor) * multiplier & _MASK32
    return word ^ word >> 16


def _mix(x, y):
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _seed_words(master_seed: int, id_words: list[np.ndarray], stream: int) -> np.ndarray:
    """(N, 4) uint64: ``generate_state(4, np.uint64)`` of each chain's SeedSequence.

    ``id_words`` holds the chain ids' uint32 words, one array per word.
    """
    entropy = _words(master_seed)
    entropy += [0] * (_POOL_SIZE - len(entropy))  # a spawn key pads the seed to the pool size
    entropy += id_words + _words(stream)
    hashes = _hash_constants(_INIT_A, _MULT_A)
    pool = [_hashmix(word, hashes) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hashes))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, hashes))
    hashes = _hash_constants(_INIT_B, _MULT_B)
    state = np.stack([_hashmix(pool[j % _POOL_SIZE], hashes) for j in range(2 * _POOL_SIZE)], axis=1)
    # little-endian word pairs, as numpy reads them on any platform
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def stream_seeds(master_seed: int, chain_ids, stream: int) -> np.ndarray:
    """Each chain's PCG64 seed words for one stream, an (N, 4) uint64 array.

    Row c equals ``SeedSequence(entropy=master_seed, spawn_key=(chain_ids[c],
    stream)).generate_state(4, np.uint64)``, computed for all chains in one
    pass.  ``chain_ids`` is an integer array of nonnegative ids; an id of
    2**32 or more takes two key words.
    """
    if chain_ids.dtype.kind not in "ui" or (chain_ids < 0).any():
        raise ValueError("chain ids must be nonnegative integers")
    ids = chain_ids.astype(np.uint64)
    seeds = np.empty((ids.size, _POOL_SIZE), dtype=np.uint64)
    wide = ids > _MASK32
    for rows, parts in ((~wide, (ids,)), (wide, (ids, ids >> 32))):
        if rows.any():
            seeds[rows] = _seed_words(master_seed, [(part[rows] & _MASK32).astype(np.uint32)
                                                    for part in parts], stream)
    return seeds


def chain_rng(master_seed: int, chain_id: int, stream: int = 0) -> np.random.Generator:
    """Chain ``chain_id``'s generator for one stream: the one-chain case of :func:`stream_seeds`.

    Stream 0 draws the initial state, stream 1 drives the index sequence,
    so initial conditions are independent of every selection draw.
    """
    if not 0 <= chain_id < 2**64:
        raise ValueError(f"chain id must lie in [0, 2**64), got {chain_id}")
    return _generator(stream_seeds(master_seed, np.array([chain_id], dtype=np.uint64), stream)[0])
