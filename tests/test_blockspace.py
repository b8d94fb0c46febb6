"""Layout slicing, subset schemes, selection probabilities, weighted norms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blocksplit import chain_rng
from blocksplit.blockspace import (
    BlockLayout,
    BlockProbabilities,
    block_probabilities,
    sample_subset,
    sample_subsets,
    weighted_norm,
    weighted_sq,
)
from blocksplit.config import BlockSubsetScheme
from blocksplit.errors import DimensionMismatch, UncoveredBlock


def test_layout_offsets_and_slices():
    layout = BlockLayout((2, 3, 1))
    assert layout.num_blocks == 3
    assert layout.total_dim == 6
    assert layout.offsets == (0, 2, 5)
    assert layout.slice_of(0) == slice(0, 2)
    assert layout.slice_of(1) == slice(2, 5)
    assert layout.slice_of(2) == slice(5, 6)
    with pytest.raises(DimensionMismatch):
        layout.slice_of(3)
    with pytest.raises(DimensionMismatch):
        layout.slice_of(-1)


def test_layout_rejects_bad_dims():
    with pytest.raises(DimensionMismatch):
        BlockLayout(())
    with pytest.raises(DimensionMismatch):
        BlockLayout((2, 0))


def test_block_and_embed_round_trip():
    layout = BlockLayout((2, 2))
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(layout.block(x, 1), [3.0, 4.0])
    # block is a view: writing through it replaces block 1 in x
    layout.block(x, 1)[:] = [9.0, 8.0]
    np.testing.assert_array_equal(x, [1.0, 2.0, 9.0, 8.0])


def test_check_rejects_wrong_trailing_dim():
    layout = BlockLayout((2, 1))
    with pytest.raises(DimensionMismatch):
        layout.check(np.zeros(4))
    layout.check(np.zeros((7, 3)))  # batches pass


def test_scheme_validation():
    BlockSubsetScheme(((0,), (1,)), (0.5, 0.5))
    with pytest.raises(ValueError):
        BlockSubsetScheme(((0,), (1,)), (0.5, 0.6))
    with pytest.raises(UncoveredBlock):
        BlockSubsetScheme(((0,), ()), (0.5, 0.5))
    with pytest.raises(DimensionMismatch):
        BlockSubsetScheme(((0,),), (0.5, 0.5))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="sum to"):
            BlockSubsetScheme(((0,), (1,)), (bad, 1.0))
        with pytest.raises(ValueError, match="finite"):
            BlockProbabilities(np.array([bad, 0.5]), BlockLayout((1, 1)))


def test_scheme_normalizes_subsets():
    s = BlockSubsetScheme(((1, 0, 1),), (1.0,))
    assert s.subsets == ((0, 1),)


def test_block_probabilities_sum_over_subsets():
    layout = BlockLayout((1, 1, 1))
    # p_0 = 0.2 + 0.5, p_1 = 0.5 + 0.3, p_2 = 0.3 + 0.2
    scheme = BlockSubsetScheme(((0, 1), (1, 2), (2, 0)), (0.5, 0.3, 0.2))
    p = block_probabilities(scheme, layout)
    np.testing.assert_allclose(p.probs, [0.7, 0.8, 0.5])
    assert p.p_max == pytest.approx(0.8)


def test_block_probabilities_uncovered():
    layout = BlockLayout((1, 1, 1))
    scheme = BlockSubsetScheme(((0,), (1,)), (0.5, 0.5))
    with pytest.raises(UncoveredBlock):
        block_probabilities(scheme, layout)


def test_block_probabilities_out_of_range_block():
    layout = BlockLayout((1, 1))
    scheme = BlockSubsetScheme(((0,), (5,)), (0.5, 0.5))
    with pytest.raises(DimensionMismatch):
        block_probabilities(scheme, layout)


def test_weighted_norm_hand_value():
    layout = BlockLayout((1, 1))
    p = BlockProbabilities(np.array([0.5, 0.25]), layout)
    # ||(1, 2)||_p^2 = 1/0.5 + 4/0.25 = 18
    z = np.array([1.0, 2.0])
    assert weighted_sq(z, p) == pytest.approx(18.0)
    assert weighted_norm(z, p) == pytest.approx(np.sqrt(18.0))


def test_weighted_norm_unit_probs_is_euclidean():
    layout = BlockLayout((2, 3))
    p = BlockProbabilities(np.ones(2), layout)
    z = np.array([1.0, -2.0, 0.5, 3.0, -1.0])
    assert weighted_norm(z, p) == pytest.approx(np.linalg.norm(z))


def test_weighted_norm_batched():
    layout = BlockLayout((1, 2))
    p = BlockProbabilities(np.array([0.5, 1.0]), layout)
    z = np.array([[1.0, 0.0, 0.0], [0.0, 3.0, 4.0]])
    np.testing.assert_allclose(weighted_sq(z, p), [2.0, 25.0])


@given(
    st.lists(st.floats(-50, 50), min_size=3, max_size=3),
    st.floats(0.1, 1.0),
    st.floats(0.1, 1.0),
)
def test_weighted_norm_dominates_euclidean(coords, p0, p1):
    # 1/p_j >= 1 for probabilities, so the weighted norm can only grow
    layout = BlockLayout((1, 2))
    p = BlockProbabilities(np.array([p0, p1]), layout)
    z = np.asarray(coords)
    assert weighted_norm(z, p) >= np.linalg.norm(z) - 1e-12


def test_sample_subset_distribution():
    scheme = BlockSubsetScheme(((0,), (1,), (0, 1)), (0.2, 0.3, 0.5))
    rng = np.random.default_rng(0)
    draws = np.array([sample_subset(scheme, rng) for _ in range(20000)])
    freqs = np.bincount(draws, minlength=3) / draws.size
    np.testing.assert_allclose(freqs, [0.2, 0.3, 0.5], atol=0.02)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from([0.0, 0.1, 0.25, 1.0, 3.0]), min_size=1, max_size=6).filter(any),
    st.integers(1, 7),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
)
def test_sample_subsets_matches_repeated_sample_subset(weights, num_chains, steps, seed):
    # zero weights give empty cumulative steps that searchsorted must skip
    probs = tuple(w / sum(weights) for w in weights)
    scheme = BlockSubsetScheme(tuple((j,) for j in range(len(weights))), probs)
    table_rngs = [chain_rng(seed, c, 1) for c in range(num_chains)]
    single_rngs = [chain_rng(seed, c, 1) for c in range(num_chains)]
    table = sample_subsets(scheme, table_rngs, steps)
    expected = [[sample_subset(scheme, rng) for rng in single_rngs] for _ in range(steps)]
    assert table.shape == (steps, num_chains)
    np.testing.assert_array_equal(table, expected)
    for a, b in zip(table_rngs, single_rngs):
        assert a.bit_generator.state == b.bit_generator.state


def test_chain_rng_streams_are_independent_and_reproducible():
    a0 = chain_rng(123, 0, 0).random(4)
    a0_again = chain_rng(123, 0, 0).random(4)
    a1 = chain_rng(123, 0, 1).random(4)
    b0 = chain_rng(123, 1, 0).random(4)
    np.testing.assert_array_equal(a0, a0_again)
    assert not np.allclose(a0, a1)
    assert not np.allclose(a0, b0)
