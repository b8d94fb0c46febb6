"""Block structure of the product space, selection probabilities, weighted norms, and draws.

The ambient space is a product of m Euclidean blocks.  Vectors are plain
1-D numpy arrays; a :class:`BlockLayout` knows how to slice them into
blocks and is the single authority on dimensional bookkeeping.  Blocks are
indexed from 0.  The subset scheme that draws are taken from is
``config.BlockSubsetScheme``, which holds no arrays.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, UncoveredBlock

if TYPE_CHECKING:
    from .config import BlockSubsetScheme


class BlockLayout:
    """Partition of R^d into contiguous blocks; offsets, slices and dim groups are cached.

    Layouts are equal when their block dims are.
    """

    # _dim_groups: one (blocks, columns) pair per distinct block dim d: the
    # indices of the k blocks of dim d and their (k, d) coordinate columns
    __slots__ = ("block_dims", "offsets", "_slices", "_dim_groups")

    def __init__(self, block_dims: tuple[int, ...]):
        if len(block_dims) == 0:
            raise DimensionMismatch("layout needs at least one block")
        if any(int(d) <= 0 for d in block_dims):
            raise DimensionMismatch(f"block dims must be positive, got {block_dims}")
        self.block_dims = dims = tuple(int(d) for d in block_dims)
        self.offsets = offsets = tuple(int(o) for o in np.cumsum((0,) + dims[:-1]))
        self._slices = tuple(slice(o, o + d) for o, d in zip(offsets, dims))
        groups = []
        for d in sorted(set(dims)):
            blocks = np.array([j for j, dj in enumerate(dims) if dj == d])
            groups.append((blocks, np.array(offsets)[blocks, None] + np.arange(d)))
        self._dim_groups = tuple(groups)

    def __eq__(self, other):
        if type(other) is not BlockLayout:
            return NotImplemented
        return self.block_dims == other.block_dims

    def __hash__(self):
        return hash(self.block_dims)

    @property
    def num_blocks(self) -> int:
        return len(self.block_dims)

    @property
    def total_dim(self) -> int:
        return sum(self.block_dims)

    def slice_of(self, j: int) -> slice:
        if not 0 <= j < self.num_blocks:
            raise DimensionMismatch(f"block index {j} out of range for {self.num_blocks} blocks")
        return self._slices[j]

    def check(self, x: np.ndarray) -> np.ndarray:
        """Validate the trailing axis of ``x`` against the layout."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.total_dim:
            raise DimensionMismatch(
                f"vector has trailing dim {x.shape[-1]}, layout expects {self.total_dim}"
            )
        return x

    def block(self, x: np.ndarray, j: int) -> np.ndarray:
        """View of block j along the trailing axis."""
        return x[..., self.slice_of(j)]

    def block_means(self, x: np.ndarray) -> np.ndarray:
        """Mean of each block's entries over all rows of a 2-D ``x``, shape (m,).

        One reduction per distinct block dim d: the k blocks of dim d are
        gathered as a contiguous (k, N*d) array, one row per block in
        (row, coordinate) order, and summed along its rows.  That is the
        pairwise sum np.mean takes over one block's N*d values, so each
        entry equals np.mean(self.block(x, j)) bitwise while N*d is at most
        numpy's buffer size (8192 values), and at any N for a block of dim 1
        or a block spanning all of x.  On a larger strided block of dim >= 2,
        np.mean sums buffer-sized chunks in sequence instead, and the two
        can differ in the last bit.
        """
        n = x.shape[0]
        out = np.empty(self.num_blocks)
        for blocks, cols in self._dim_groups:
            k, d = cols.shape
            rows = x[:, cols].transpose(1, 0, 2).reshape(k, n * d)
            out[blocks] = rows.sum(axis=1) / (n * d)
        return out


class BlockProbabilities:
    """Per-block selection probabilities p_j of a scheme, with the layout.

    Each p_j lies in (0, 1]; the weighted norm divides block j's
    contribution by p_j, so rarely updated blocks weigh more.
    """

    __slots__ = ("probs", "layout")

    def __init__(self, probs: np.ndarray, layout: BlockLayout):
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (layout.num_blocks,):
            raise DimensionMismatch(
                f"expected {layout.num_blocks} block probabilities, got shape {probs.shape}"
            )
        if not np.isfinite(probs).all():
            raise ValueError(f"block probabilities must be finite, got {probs}")
        if np.any(probs <= 0):
            raise UncoveredBlock(f"nonpositive block probability in {probs}")
        if np.any(probs > 1 + 1e-12):
            raise ValueError(f"block probability above 1 in {probs}")
        self.probs = probs
        self.layout = layout

    @property
    def p_max(self) -> float:
        return float(np.max(self.probs))

    def coordinate_inverse(self) -> np.ndarray:
        """1/p_j expanded to coordinates, for weighted inner products."""
        return np.repeat(1.0 / self.probs, self.layout.block_dims)


def block_probabilities(scheme: BlockSubsetScheme, layout: BlockLayout) -> BlockProbabilities:
    """Per-block selection probabilities p_j = sum of probs of subsets containing j.

    Raises UncoveredBlock if some block is never selected (p_j = 0), since
    the weighted norm and every convergence statement need p_j > 0.
    """
    m = layout.num_blocks
    if scheme.max_block_index() >= m:
        raise DimensionMismatch(
            f"scheme references block {scheme.max_block_index()}, layout has {m} blocks"
        )
    p = np.zeros(m)
    for subset, q in zip(scheme.subsets, scheme.probs):
        for j in subset:
            p[j] += q
    if np.any(p <= 0):
        missing = [j for j in range(m) if p[j] <= 0]
        raise UncoveredBlock(f"blocks {missing} have zero selection probability")
    # guard against accumulation drift above 1
    p = np.minimum(p, 1.0)
    return BlockProbabilities(p, layout)


def weighted_norm(z: np.ndarray, p: BlockProbabilities) -> float | np.ndarray:
    """Selection-weighted norm: sqrt(sum_j ||z_j||^2 / p_j).

    Accepts a single vector or a batch with the vector on the trailing axis.
    """
    return np.sqrt(weighted_sq(z, p))


def weighted_sq(z: np.ndarray, p: BlockProbabilities) -> float | np.ndarray:
    """Squared selection-weighted norm (no rounding through sqrt)."""
    z = p.layout.check(z)
    w = p.coordinate_inverse()
    val = np.sum(w * z * z, axis=-1)
    return float(val) if np.ndim(val) == 0 else val


def sample_subset(scheme: BlockSubsetScheme, rng: np.random.Generator) -> int:
    """Draw a subset index according to the scheme's probabilities."""
    u = rng.random()
    return int(np.searchsorted(np.cumsum(scheme.probs), u, side="right").clip(0, scheme.num_outcomes - 1))


def sample_subsets(scheme: BlockSubsetScheme, rngs, steps: int) -> np.ndarray:
    """Outcome table (steps, N): column c holds ``steps`` draws from ``rngs[c]``.

    ``rng.random(steps)`` yields the same doubles as ``steps`` scalar calls,
    so the table equals ``steps`` rounds of :func:`sample_subset` per chain
    bit for bit, and leaves every generator in the same state.
    """
    u = np.empty((steps, len(rngs)))
    for c, rng in enumerate(rngs):
        u[:, c] = rng.random(steps)
    return np.searchsorted(np.cumsum(scheme.probs), u, side="right").clip(0, scheme.num_outcomes - 1)

