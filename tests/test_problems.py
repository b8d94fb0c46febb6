"""Problem gallery: declared structure, witnesses, and reference solutions."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from blocksplit import problems
from blocksplit.config import BlockSubsetScheme
from blocksplit.errors import DimensionMismatch, NotPSD, UnsupportedSet
from blocksplit.problems import (
    ConvexSet,
    counterexample2d,
    deterministic_reference,
    feasibility,
    make_set,
    quadratic_l1,
)
from blocksplit.splitting import apply_T, apply_full

SINGLETONS = BlockSubsetScheme(((0,), (1,)), (0.5, 0.5))


def test_counterexample_structure():
    prob = counterexample2d(0.25)
    assert prob.layout.block_dims == (1, 1)
    assert prob.coupling.convex and prob.term.convex
    np.testing.assert_array_equal(prob.target_point, [0.0, 0.0])
    m = prob.build_map("fb", SINGLETONS)
    np.testing.assert_allclose(apply_full(m, np.zeros(2)), np.zeros(2), atol=1e-15)
    # each line {x1 = z} has its own minimizer at (-z, z): grad vanishes there
    z = 1.7
    g = prob.coupling.gradient(np.array([-z, z]))
    assert abs(g[0]) < 1e-14


def test_counterexample_rejects_bad_step():
    with pytest.raises(ValueError):
        counterexample2d(0.0)


# ---------------------------------------------------------------------------
# Convex sets and their projections.
# ---------------------------------------------------------------------------


def test_set_projections():
    box = make_set("box", lo=[-1.0, -1.0], hi=[1.0, 1.0])
    np.testing.assert_allclose(box.project(np.array([3.0, 0.5])), [1.0, 0.5])
    ball = make_set("ball", center=[0.0, 0.0], radius=2.0)
    np.testing.assert_allclose(ball.project(np.array([6.0, 8.0])), [1.2, 1.6])
    line = make_set("line", point=[0.0, 1.0], direction=[1.0, 0.0])
    np.testing.assert_allclose(line.project(np.array([3.0, 4.0])), [3.0, 1.0])
    pt = make_set("point", point=[2.0, 2.0])
    np.testing.assert_allclose(pt.project(np.array([0.0, 0.0])), [2.0, 2.0])
    assert ball.contains(np.array([1.0, 1.0]))
    assert not ball.contains(np.array([3.0, 3.0]))


def test_make_set_rejects_unknown_kind():
    with pytest.raises(UnsupportedSet):
        make_set("halfspace", normal=[1.0])


@pytest.mark.parametrize("kind, params", [
    ("box", {"lo": [1.0, 0.0], "hi": [0.0, 1.0]}),
    ("box", {"lo": [0.0, 0.0]}),
    ("point", {}),
    ("ball", {"center": [0.0, 0.0], "radius": -1.0}),
    ("ball", {"center": [0.0, 0.0], "radius": "a"}),
    ("ball", {"center": [0.0, 0.0], "radius": float("nan")}),
    ("ball", {"center": [0.0, 0.0], "radius": float("inf")}),
    ("line", {"point": [0.0, 0.0], "direction": [0.0, 0.0]}),
    ("line", {"point": [0.0, 0.0], "direction": [float("nan"), 1.0]}),
    ("line", {"direction": [1.0, 0.0]}),
], ids=["box_lo_above_hi", "box_without_hi", "point_without_point", "ball_radius_negative",
        "ball_radius_text", "ball_radius_nan", "ball_radius_inf", "line_zero_direction",
        "line_nan_direction", "line_without_point"])
def test_make_set_rejects_bad_descriptor(kind, params):
    # the projection is built with the descriptor, so a bad one raises here
    with pytest.raises((ValueError, UnsupportedSet)):
        make_set(kind, **params)


@pytest.mark.parametrize("direction, scaled", [([1e308, 1.0], [1.0, 1e-308]),
                                               ([1e-200, -1e-200], [1.0, -1.0])],
                         ids=["norm_overflows", "norm_underflows"])
def test_line_direction_whose_norm_leaves_float64_is_scaled_first(direction, scaled):
    # finite and nonzero, so accepted: it projects as its scaling by its largest entry
    v = np.array([3.0, 4.0])
    line = make_set("line", point=[0.0, 0.0], direction=direction)
    np.testing.assert_array_equal(line.project(v),
                                  make_set("line", point=[0.0, 0.0], direction=scaled).project(v))
    prob = feasibility([line, make_set("point", point=[0.0, 0.0])])
    np.testing.assert_array_equal(prob.target_point, np.zeros(4))


def test_feasibility_consistent_balls():
    # balls touching at (1, 0): witness must land in both sets
    prob = feasibility([
        make_set("ball", center=[0.0, 0.0], radius=1.0),
        make_set("ball", center=[2.0, 0.0], radius=1.0),
    ])
    assert prob.target_point is not None
    w = prob.target_point[:2]
    np.testing.assert_allclose(w, [1.0, 0.0], atol=1e-12)
    # tiled witness is a common fixed point of the full map
    m = prob.build_map("fb", SINGLETONS)
    np.testing.assert_allclose(apply_full(m, prob.target_point), prob.target_point, atol=1e-12)


def test_feasibility_inconsistent_points():
    prob = feasibility([
        make_set("point", point=[0.0, 0.0]),
        make_set("point", point=[2.0, 0.0]),
    ])
    assert prob.target_point is None


def test_feasibility_witness_pairs():
    cases = [
        ([make_set("box", lo=[0.0, 0.0], hi=[2.0, 2.0]),
          make_set("box", lo=[1.0, 1.0], hi=[3.0, 3.0])], True),
        ([make_set("box", lo=[0.0, 0.0], hi=[1.0, 1.0]),
          make_set("box", lo=[2.0, 2.0], hi=[3.0, 3.0])], False),
        ([make_set("line", point=[0.0, 0.0], direction=[1.0, 0.0]),
          make_set("line", point=[1.0, -1.0], direction=[0.0, 1.0])], True),
        ([make_set("line", point=[0.0, 0.0], direction=[1.0, 0.0]),
          make_set("line", point=[0.0, 1.0], direction=[1.0, 0.0])], False),
        ([make_set("ball", center=[0.0, 0.0], radius=1.5),
          make_set("box", lo=[1.0, 0.0], hi=[2.0, 1.0])], True),
        ([make_set("ball", center=[0.0, 0.0], radius=1.0),
          make_set("line", point=[0.0, 0.5], direction=[1.0, 0.0])], True),
        ([make_set("ball", center=[0.0, 0.0], radius=1.0),
          make_set("line", point=[0.0, 5.0], direction=[1.0, 0.0])], False),
    ]
    for sets, expect in cases:
        prob = feasibility(sets)
        assert (prob.target_point is not None) is expect
        if expect:
            w = prob.target_point[:2]
            assert sets[0].contains(w) and sets[1].contains(w)


def test_feasibility_line_box_pair_unsupported():
    with pytest.raises(UnsupportedSet):
        feasibility([
            make_set("line", point=[0.0, 0.0], direction=[1.0, 1.0]),
            make_set("box", lo=[-1.0, -1.0], hi=[1.0, 1.0]),
        ])


def test_feasibility_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        feasibility([make_set("point", point=[0.0]), make_set("point", point=[0.0, 0.0])])


def test_feasibility_indicator_coupling_is_reflection_only():
    prob = feasibility(
        [make_set("point", point=[0.0]), make_set("point", point=[1.0])],
        coupling_kind="indicator",
    )
    assert prob.coupling.gradient is None
    m = prob.build_map("dr", SINGLETONS, steps=np.array([1.0, 1.0]))
    assert m.flavor == "dr"


def test_quadratic_l1_scalar_reference():
    # min x^2/2 - x + 0.5 |x|: optimality x - 1 + 0.5 = 0 at x > 0
    prob = quadratic_l1(np.array([[1.0]]), np.array([-1.0]), np.array([0.5]))
    assert prob.target_point[0] == pytest.approx(0.5, abs=1e-12)


def test_quadratic_l1_separable_reference():
    # block 0: min x^2 - 2x + 0.5|x| -> 0.75; block 1: min y^2/2 + 0.5|y| -> 0
    prob = quadratic_l1(np.diag([2.0, 1.0]), np.array([-2.0, 0.0]), np.array([0.5, 0.5]))
    np.testing.assert_allclose(prob.target_point, [0.75, 0.0], atol=1e-12)


def _lasso(seed, rows, block_dims, weight_range=(0.05, 0.4)):
    """Q = A'A / rows, b = -A'y / rows: rank min(rows, d), b in the range of Q,
    so the objective is bounded below; one l1 weight per block."""
    rng = np.random.default_rng(seed)
    d = sum(block_dims)
    A = rng.normal(size=(rows, d))
    y = rng.normal(size=rows)
    Q = A.T @ A / rows
    Q = 0.5 * (Q + Q.T)
    b = -A.T @ y / rows
    w = rng.uniform(*weight_range, size=len(block_dims))
    return Q, b, w


def _full_block_map(prob):
    scheme = BlockSubsetScheme((tuple(range(prob.layout.num_blocks)),), (1.0,))
    return prob.build_map("fb", scheme)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 3), min_size=1, max_size=4),
    st.integers(1, 8),
)
# every active-set candidate on the support {4, 5, 7} where the run stalls has
# a singular Q_SS (rank 2 of 3); the minimizer lies on {4, 7}
@example(1936, [2, 3, 3], 2)
# T1 moves the target -11.20426864 by one ulp and the next step moves it back
@example(95624, [1], 1)
def test_quadratic_l1_target_meets_kkt_and_is_a_t1_fixed_point(seed, block_dims, rows):
    # rows < sum(block_dims) makes Q rank deficient
    Q, b, w_block = _lasso(seed, rows, tuple(block_dims))
    prob = quadratic_l1(Q, b, w_block, tuple(block_dims))
    x = prob.target_point
    w = np.repeat(w_block, block_dims)
    g = Q @ x + b
    scale = max(1.0, np.abs(b).max(), w.max(), np.abs(Q).max() * np.abs(x).sum())
    on = x != 0
    # stationarity on the support, subgradient bound off it
    assert np.all(np.abs(g[on] + w[on] * np.sign(x[on])) <= 1e-10 * scale)
    assert np.all(np.abs(g[~on]) <= w[~on] + 1e-10 * scale)
    T1 = lambda v: apply_full(_full_block_map(prob), v)
    move = np.abs(T1(x) - x)
    # or, where no double near the target is fixed by T1, a two-cycle of
    # one-ulp moves: T1(T1(x)) is x bit for bit
    assert np.max(move) < 1e-15 or (np.all(move <= np.spacing(np.abs(x)))
                                     and T1(T1(x)).tobytes() == x.tobytes())


def test_quadratic_l1_falls_back_to_the_plain_run_bit_for_bit(monkeypatch):
    Q, b, w = _lasso(11, 6, (2, 1, 2))
    solved = quadratic_l1(Q, b, w, (2, 1, 2)).target_point

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    prob = quadratic_l1(Q, b, w, (2, 1, 2), reference_iterations=20_000)
    plain = deterministic_reference(_full_block_map(prob), np.zeros(5), 20_000)
    assert prob.target_point.tobytes() == plain.tobytes()
    # the two routes meet the same stop rule at the same minimizer
    np.testing.assert_allclose(prob.target_point, solved, rtol=0, atol=1e-12)


def test_quadratic_l1_build_stops_at_the_identified_support(monkeypatch):
    # a well-conditioned instance (cond(Q) about 15): the plain run makes 412
    # T1 evaluations; the build makes 12, as the first candidate (after 10
    # steps) passes its check
    Q, b, w = _lasso(1, 20, (1,) * 10, weight_range=(0.1, 0.1))
    calls = []
    counted = lambda m, x: calls.append(1) or apply_full(m, x)
    monkeypatch.setattr(problems, "apply_full", counted)
    prob = quadratic_l1(Q, b, w)
    assert len(calls) <= 150
    del calls[:]
    plain = deterministic_reference(_full_block_map(prob), np.zeros(10))
    assert len(calls) > 300
    np.testing.assert_allclose(prob.target_point, plain, rtol=0, atol=1e-12)


def test_quadratic_l1_rejects_indefinite():
    with pytest.raises(NotPSD):
        quadratic_l1(np.diag([1.0, -1.0]), np.zeros(2), np.array([0.1, 0.1]))


def test_deterministic_reference_counterexample():
    m = counterexample2d(0.2).build_map("fb", SINGLETONS)
    ref = deterministic_reference(m, np.array([3.0, -4.0]), iterations=10_000)
    np.testing.assert_allclose(ref, [0.0, 0.0], atol=1e-12)


def test_dr_sqdist_reference_is_fixed_by_every_outcome():
    # inconsistent feasibility with the smooth coupling still has a single
    # common fixed point (2c, 0, 2 - 2c, 0), c = t/(t+2)
    prob = feasibility(
        [make_set("point", point=[0.0, 0.0]), make_set("point", point=[2.0, 0.0])],
        coupling_kind="sqdist",
    )
    m = prob.build_map("dr", SINGLETONS, steps=np.array([1.0, 1.0]))
    z = deterministic_reference(m, np.zeros(4), iterations=5_000)
    np.testing.assert_allclose(z, [2.0 / 3.0, 0.0, 4.0 / 3.0, 0.0], atol=1e-9)
    for i in range(m.scheme.num_outcomes):
        np.testing.assert_allclose(apply_T(m, i, z), z, rtol=0, atol=1e-15)
