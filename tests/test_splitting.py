"""Blockwise splitting maps, transport discrepancy, composite constants."""

import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st, target

from blocksplit.blockspace import (
    BlockLayout,
    BlockProbabilities,
    BlockSubsetScheme,
    Region,
    weighted_sq,
)
from blocksplit.errors import DimensionMismatch, EmptyResolvent, InvalidFixedPoints
from blocksplit.operators import (
    SeparableTerm,
    SmoothCoupling,
    coupling_diagonal_indicator,
    coupling_diagonal_sqdist,
    coupling_quadratic,
    h_indicator_ball,
    h_indicator_box,
    h_indicator_point,
    h_l1,
    h_quadratic,
    h_zero,
    reflector,
    resolvent_partial_smooth,
)
from blocksplit.problems import (
    ProblemSpec,
    _verify_declared_fixed_points,
    counterexample2d,
    feasibility,
    make_set,
    quadratic_l1,
)
from blocksplit.regularity import certify_paracontraction_in_expectation
from blocksplit.splitting import (
    RegularityConstants,
    SplittingMap,
    apply_T,
    apply_full,
    composite_constants,
    expectation_constants,
    expected_weighted_terms,
    transport_discrepancy,
    weighted_transport_discrepancy,
)

SINGLETONS = BlockSubsetScheme(((0,), (1,)), (0.5, 0.5))


def _fb_pair(t=0.25):
    return counterexample2d(t).build_map("fb", SINGLETONS)


def test_fb_block_updates_hand_values():
    # f = (x0+x1)^2, h0 = 0, h1 = x1^2, t = 1/4:
    # block 0: x0 - 2t(x0+x1) = 0.5 x0 - 0.5 x1
    # block 1: (x1 - 2t(x0+x1)) / (1 + 2t)
    m = _fb_pair()
    x = np.array([1.0, 2.0])
    np.testing.assert_allclose(apply_T(m, 0, x), [-0.5, 2.0])
    np.testing.assert_allclose(apply_T(m, 1, x), [1.0, (2.0 - 1.5) / 1.5])
    np.testing.assert_allclose(apply_full(m, x), [-0.5, 0.5 / 1.5])


def test_apply_T_reads_unmodified_input():
    # both blocks in one subset still read the same x (no Gauss-Seidel leak)
    scheme = BlockSubsetScheme(((0, 1),), (1.0,))
    m = counterexample2d(0.25).build_map("fb", scheme)
    x = np.array([1.0, 2.0])
    np.testing.assert_allclose(apply_T(m, 0, x), apply_full(m, x))


def test_apply_T_batched():
    m = _fb_pair()
    xs = np.random.default_rng(0).normal(size=(7, 2))
    batch = apply_T(m, 0, xs)
    for i in range(7):
        np.testing.assert_allclose(batch[i], apply_T(m, 0, xs[i]), atol=1e-14)


def test_apply_T_out_of_range():
    m = _fb_pair()
    with pytest.raises(DimensionMismatch):
        apply_T(m, 2, np.zeros(2))


def test_fixed_point_of_full_map():
    m = _fb_pair()
    np.testing.assert_allclose(apply_full(m, np.zeros(2)), np.zeros(2), atol=1e-15)


def test_dr_block_update_singleton_sets_closed_form():
    # point sets with sqdist coupling, m = 2, t = 1:
    # x_j+ = (omega_j + x_j + x_other) / 3
    prob = feasibility(
        [make_set("point", point=[0.0, 0.0]), make_set("point", point=[2.0, 0.0])],
        coupling_kind="sqdist",
    )
    m = prob.build_map("dr", SINGLETONS, steps=np.array([1.0, 1.0]))
    x = np.array([1.0, 0.0, 3.0, 0.0])
    out = apply_T(m, 0, x)
    np.testing.assert_allclose(out, [4.0 / 3.0, 0.0, 3.0, 0.0], atol=1e-14)
    out1 = apply_T(m, 1, x)
    np.testing.assert_allclose(out1, [1.0, 0.0, (2.0 + 3.0 + 1.0) / 3.0, 0.0], atol=1e-14)


def test_dr_fixed_point_singleton_sets():
    # common fixed point (2c, 0, 2-2c, 0) with c = t/(t+2); t = 1 gives c = 1/3
    prob = feasibility(
        [make_set("point", point=[0.0, 0.0]), make_set("point", point=[2.0, 0.0])],
        coupling_kind="sqdist",
    )
    m = prob.build_map("dr", SINGLETONS, steps=np.array([1.0, 1.0]))
    xstar = np.array([2.0 / 3.0, 0.0, 4.0 / 3.0, 0.0])
    np.testing.assert_allclose(apply_full(m, xstar), xstar, atol=1e-14)
    for i in range(2):
        np.testing.assert_allclose(apply_T(m, i, xstar), xstar, atol=1e-14)


def test_fb_rejects_gradient_free_coupling():
    layout = BlockLayout((1, 1))
    coupling = coupling_diagonal_indicator(layout)
    term = SeparableTerm(layout, [h_zero(), h_zero()])
    with pytest.raises(EmptyResolvent):
        SplittingMap("fb", coupling, term, np.array([0.5, 0.5]), SINGLETONS, layout)


def test_dr_accepts_gradient_free_coupling():
    layout = BlockLayout((1, 1))
    coupling = coupling_diagonal_indicator(layout)
    term = SeparableTerm(layout, [h_indicator_point([0.0]), h_indicator_point([1.0])])
    m = SplittingMap("dr", coupling, term, np.array([1.0, 1.0]), SINGLETONS, layout)
    out = apply_T(m, 0, np.array([0.3, 0.7]))
    assert out.shape == (2,)


def test_splitting_map_validation():
    layout = BlockLayout((1, 1))
    prob = counterexample2d(0.25)
    with pytest.raises(ValueError):
        SplittingMap("xx", prob.coupling, prob.term, np.array([0.1, 0.1]), SINGLETONS, layout)
    with pytest.raises(ValueError):
        SplittingMap("fb", prob.coupling, prob.term, np.array([0.1, -0.1]), SINGLETONS, layout)
    bad_scheme = BlockSubsetScheme(((0,), (7,)), (0.5, 0.5))
    with pytest.raises(DimensionMismatch):
        SplittingMap("fb", prob.coupling, prob.term, np.array([0.1, 0.1]), bad_scheme, layout)


# ---------------------------------------------------------------------------
# One operator core: outcome maps are block masks over T1, and the batched
# update plan reproduces the one-block-at-a-time definition bit for bit.
# ---------------------------------------------------------------------------


def _random_map(dims, flavor, seed):
    """Quadratic coupling with a mix of shared and private separable oracles."""
    rng = np.random.default_rng(seed)
    layout = BlockLayout(tuple(dims))
    d = layout.total_dim
    A = rng.normal(size=(d + 1, d))
    coupling = coupling_quadratic(layout, A.T @ A / d, rng.normal(size=d))
    shared = [h_l1(0.3), h_indicator_ball(0.0, 1.0), h_indicator_box(-0.5, 0.5)]
    private = [lambda: h_l1(0.1), h_zero, lambda: h_quadratic(0.7)]
    blocks = [shared[k] if k < 3 else private[k - 3]()
              for k in rng.integers(0, 6, size=layout.num_blocks)]
    term = SeparableTerm(layout, blocks)
    steps = rng.choice([0.1, 0.25], size=layout.num_blocks)
    subsets = [tuple(np.flatnonzero(rng.random(layout.num_blocks) < 0.5)) or (0,)
               for _ in range(3)]
    subsets.append(tuple(range(layout.num_blocks)))
    scheme = BlockSubsetScheme(tuple(subsets), (0.25, 0.25, 0.25, 0.25))
    return SplittingMap(flavor, coupling, term, steps, scheme, layout)


def _points(m, batch, seed):
    shape = (m.layout.total_dim,) if batch == 0 else (batch, m.layout.total_dim)
    return np.random.default_rng(seed + 1).normal(scale=2.0, size=shape)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=6),
    st.sampled_from(["fb", "dr"]),
    st.integers(0, 3),
    st.integers(0, 2**31 - 1),
)
def test_outcome_map_is_block_mask_over_full_map(dims, flavor, batch, seed):
    m = _random_map(dims, flavor, seed)
    x = _points(m, batch, seed)
    full = apply_full(m, x)
    for i, subset in enumerate(m.scheme.subsets):
        mask = np.repeat(np.isin(np.arange(m.layout.num_blocks), subset), m.layout.block_dims)
        assert apply_T(m, i, x).tobytes() == np.where(mask, full, x).tobytes()


def _fb_reference(m, x):
    """FB by its definition: one gradient and one prox per block."""
    out = np.array(x, copy=True)
    for j in range(m.layout.num_blocks):
        sl, t = m.layout.slice_of(j), m.steps[j]
        g = m.coupling.gradient(x)[..., sl]
        out[..., sl] = m.term.blocks[j].prox(x[..., sl] - t * g, float(t))
    return out


def _dr_reference(m, x):
    """DR by its definition: reflect, partial resolvent, average, block by block."""
    out = np.array(x, copy=True)
    for j in range(m.layout.num_blocks):
        sl, t = m.layout.slice_of(j), m.steps[j]
        xj = x[..., sl]
        yj = reflector(m.term.blocks[j].prox(xj, float(t)), xj)
        x_yj = np.array(x, copy=True)
        x_yj[..., sl] = yj
        u = resolvent_partial_smooth(m.coupling, j, x_yj, t)
        out[..., sl] = 0.5 * (reflector(u, yj) + xj)
    return out


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=6),
    st.sampled_from(["fb", "dr"]),
    st.integers(0, 3),
    st.integers(0, 2**31 - 1),
)
def test_full_map_matches_blockwise_reference(dims, flavor, batch, seed):
    # FB is the reference arithmetic; closed-form DR multiplies by a stored
    # (I + t A_jj)^-1 where the reference solves, so it agrees to roundoff
    m = _random_map(dims, flavor, seed)
    x = _points(m, batch, seed)
    full = apply_full(m, x)
    if flavor == "fb":
        assert full.tobytes() == _fb_reference(m, x).tobytes()
        return
    scale = max(1.0, np.max(np.abs(x)), np.max(np.abs(full)))
    assert np.max(np.abs(full - _dr_reference(m, x))) <= 1e-14 * scale


def _gradient_only(layout, seed):
    """f(x) = sum_i log cosh((Bx)_i) with ||B|| = 1/2: a gradient and no hessian_block."""
    B = np.random.default_rng(seed).normal(size=(layout.total_dim, layout.total_dim))
    B /= 2.0 * np.linalg.norm(B, 2)
    return SmoothCoupling(layout, gradient=lambda x: np.tanh(x @ B.T) @ B,
                          lipschitz=0.25, hypomono=0.0, convex=True)


def _count_calls(monkeypatch, owner, name):
    calls = []
    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("kind", ["indicator", "gradient_only"])
@pytest.mark.parametrize("seed", range(6))
def test_dr_per_block_route_matches_reference_bitwise(monkeypatch, kind, seed):
    # an override takes one call per update group and matches the per-block
    # definition bit for bit; a coupling without hessian_block has no DR map
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    layout = BlockLayout((d, d))
    term = SeparableTerm(layout, [h_indicator_ball(0.0, 1.0), h_l1(0.2)])
    steps = rng.choice([0.5, 1.0], size=2)
    x = rng.normal(scale=2.0, size=(int(rng.integers(1, 5)), 2 * d))
    if kind == "gradient_only":
        coupling = _gradient_only(layout, seed)
        with pytest.raises(EmptyResolvent):
            resolvent_partial_smooth(coupling, 0, x, 0.5)
        with pytest.raises(EmptyResolvent, match="Douglas-Rachford needs"):
            SplittingMap("dr", coupling, term, steps, SINGLETONS, layout)
        return
    m = SplittingMap("dr", coupling_diagonal_indicator(layout), term, steps, SINGLETONS, layout)
    assert all(g.inverse is None for g in m.full_plan)
    reference = _dr_reference(m, x)
    calls = _count_calls(monkeypatch, m.coupling, "partial_resolvent")
    assert apply_full(m, x).tobytes() == reference.tobytes()
    assert len(calls) == len(m.full_plan) == 2


def test_dr_indicator_override_takes_a_group_of_shared_oracle_blocks(monkeypatch):
    # blocks 0-2 share one ball oracle and step, so they form one group of k = 3
    d = 2
    layout = BlockLayout((d,) * 4)
    ball = h_indicator_ball(0.0, 1.0)
    term = SeparableTerm(layout, [ball, ball, ball, h_l1(0.2)])
    scheme = BlockSubsetScheme(((0, 1, 2), (3,), (0, 3)), (0.4, 0.3, 0.3))
    m = SplittingMap("dr", coupling_diagonal_indicator(layout), term, 0.7, scheme, layout)
    assert [g.blocks for g in m.full_plan] == [(0, 1, 2), (3,)]
    # the diagonal plus noise below the agreement tolerance, so every block
    # has a partial resolvent and the block each one copies shows in the bits
    rng = np.random.default_rng(8)
    x = np.tile(rng.normal(scale=2.0, size=(5, 1, d)), (1, 4, 1)).reshape(5, 4 * d)
    x += rng.uniform(-1e-10, 1e-10, size=x.shape)
    # block j copies the first block other than j
    xb = x.reshape(5, 4, d)
    resolved = m.coupling.partial_resolvent(x, xb[:, :3], (0, 1, 2), 0.7)
    assert resolved.tobytes() == xb[:, [1, 0, 0]].tobytes()
    reference = _dr_reference(m, x)
    calls = _count_calls(monkeypatch, m.coupling, "partial_resolvent")
    assert apply_full(m, x).tobytes() == reference.tobytes()
    assert len(calls) == 2
    mask = np.repeat(np.isin(np.arange(4), (0, 1, 2)), d)
    assert apply_T(m, 0, x).tobytes() == np.where(mask, reference, x).tobytes()
    assert len(calls) == 3


@pytest.mark.parametrize("flavor", ["fb", "dr"])
def test_quadratic_coupling_takes_one_gradient_per_call(monkeypatch, flavor):
    m = _random_map([2, 1, 3, 1, 2], flavor, 5)
    gradients = _count_calls(monkeypatch, m.coupling, "gradient")
    x = _points(m, 4, 5)
    apply_full(m, x)
    assert len(gradients) == 1
    apply_T(m, 0, x[0])
    assert len(gradients) == 2


def test_lasso_plan_groups_by_weight_and_step():
    rng = np.random.default_rng(4)
    A = rng.normal(size=(8, 6))
    prob = quadratic_l1(A.T @ A / 8, -A.T @ rng.normal(size=8),
                        np.array([0.2, 0.2, 0.05, 0.2, 0.05, 0.2]))
    steps = np.array([0.1, 0.1, 0.1, 0.05, 0.05, 0.1])
    m = prob.build_map("fb", BlockSubsetScheme(((0, 1, 2), (3, 4, 5)), (0.5, 0.5)), steps)
    assert sorted(g.blocks for g in m.full_plan) == [(0, 1, 5), (2,), (3,), (4,)]
    x = rng.normal(size=(5, 6))
    assert apply_full(m, x).tobytes() == _fb_reference(m, x).tobytes()
    assert apply_full(m, x[0]).tobytes() == _fb_reference(m, x[0]).tobytes()


def test_ball_and_box_plan_splits_on_dim():
    layout = BlockLayout((2, 3, 2, 3, 1))
    ball, box = h_indicator_ball(0.0, 0.8), h_indicator_box(-0.3, 0.4)
    term = SeparableTerm(layout, [ball, ball, ball, box, box])
    rng = np.random.default_rng(6)
    A = rng.normal(size=(12, 11))
    coupling = coupling_quadratic(layout, A.T @ A / 11)
    scheme = BlockSubsetScheme(((0, 1, 2, 3, 4),), (1.0,))
    m = SplittingMap("fb", coupling, term, np.full(5, 0.2), scheme, layout)
    assert sorted(g.blocks for g in m.full_plan) == [(0, 2), (1,), (3,), (4,)]
    x = rng.normal(scale=2.0, size=(9, 11))
    assert apply_full(m, x).tobytes() == _fb_reference(m, x).tobytes()


# ---------------------------------------------------------------------------
# Transport discrepancy: definition vs six-term expansion.
# ---------------------------------------------------------------------------


def transport_discrepancy_six_term(x, y, Tx, Ty):
    """||Tx-x||^2 + ||Ty-y||^2 + ||Tx-Ty||^2 + ||x-y||^2 - ||Tx-y||^2 - ||x-Ty||^2."""

    def sq(a):
        return np.sum(a * a, axis=-1)

    return sq(Tx - x) + sq(Ty - y) + sq(Tx - Ty) + sq(x - y) - sq(Tx - y) - sq(x - Ty)


def test_transport_discrepancy_hand_value():
    x = np.array([1.0, 0.0])
    y = np.array([0.0, 0.0])
    Tx = np.array([0.0, 1.0])
    Ty = np.array([0.0, 0.0])
    # (x - Tx) - (y - Ty) = (1, -1)
    assert transport_discrepancy(x, y, Tx, Ty) == pytest.approx(2.0)


@given(st.lists(st.floats(-100, 100), min_size=12, max_size=12))
def test_transport_discrepancy_six_term_identity(vals):
    v = np.asarray(vals).reshape(4, 3)
    x, y, Tx, Ty = v
    a = transport_discrepancy(x, y, Tx, Ty)
    b = transport_discrepancy_six_term(x, y, Tx, Ty)
    scale = max(1.0, abs(a), float(np.max(np.abs(v)) ** 2))
    assert abs(a - b) <= 1e-9 * scale


def test_weighted_transport_discrepancy():
    layout = BlockLayout((1, 1))
    p = BlockProbabilities(np.array([0.5, 0.5]), layout)
    x = np.array([1.0, 0.0])
    y = np.zeros(2)
    Tx = np.array([0.0, 1.0])
    Ty = np.zeros(2)
    assert weighted_transport_discrepancy(x, y, Tx, Ty, p) == pytest.approx(4.0)


# ---------------------------------------------------------------------------
# Exact scheme expectations and the identities tying them to the full map.
# ---------------------------------------------------------------------------


def _per_outcome_sums(m, x, y):
    """Both scheme expectations summed outcome by outcome over the reference route apply_T.

    Each outcome map runs on the stacked batch (x; y), the batch that
    expected_weighted_terms hands to T1: a row's rounding may depend on its
    batch (BLAS row grouping, the batch-wide stop of an inner fixed-point
    solve), and that is not what the comparison is about.
    """
    p = m.probabilities
    stacked = np.stack((x, y))
    sq = psi = 0.0
    for i, q in enumerate(m.scheme.probs):
        Tx, Ty = apply_T(m, i, stacked.reshape(-1, x.shape[-1])).reshape(stacked.shape)
        sq = sq + q * weighted_sq(Tx - Ty, p)
        psi = psi + q * weighted_transport_discrepancy(x, y, Tx, Ty, p)
    return sq, psi


def _identity_rhs(m, x, y):
    """Right-hand sides of both identities, read off T1 by their textbook formulas."""
    T1x, T1y = apply_full(m, x), apply_full(m, y)
    d1, d0 = T1x - T1y, x - y
    rhs_sq = float(d1 @ d1) - float(d0 @ d0) + weighted_sq(d0, m.probabilities)
    return rhs_sq, transport_discrepancy(x, y, T1x, T1y)


def test_expectation_identity_sq_distance():
    m = _fb_pair()
    rng = np.random.default_rng(1)
    for _ in range(50):
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert _per_outcome_sums(m, x, y)[0] == pytest.approx(_identity_rhs(m, x, y)[0], abs=1e-9)


def test_expectation_identity_psi():
    m = _fb_pair()
    rng = np.random.default_rng(2)
    for _ in range(50):
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert _per_outcome_sums(m, x, y)[1] == pytest.approx(_identity_rhs(m, x, y)[1], abs=1e-9)


def test_expectation_identities_uneven_scheme():
    # identities hold for any scheme, not only uniform singletons
    scheme = BlockSubsetScheme(((0,), (1,), (0, 1)), (0.2, 0.3, 0.5))
    m = counterexample2d(0.2).build_map("fb", scheme)
    rng = np.random.default_rng(3)
    x, y = rng.normal(size=2), rng.normal(size=2)
    lhs1, lhs2 = _per_outcome_sums(m, x, y)
    rhs1, rhs2 = _identity_rhs(m, x, y)
    assert lhs1 == pytest.approx(rhs1, abs=1e-9)
    assert lhs2 == pytest.approx(rhs2, abs=1e-9)


def _gallery():
    """Map sources: every gallery problem, and a gradient-only coupling on mixed block dims.

    Each entry is (layout, build), where build(scheme, flavor) returns the
    SplittingMap.  The gradient-only coupling has no Douglas-Rachford map,
    so its source builds forward-backward whatever the flavor.
    """
    rng = np.random.default_rng(21)
    A = rng.normal(size=(7, 5))
    lasso = quadratic_l1(A.T @ A / 7, -A.T @ rng.normal(size=7), np.array([0.1, 0.3, 0.1]),
                         block_dims=(2, 1, 2), reference_iterations=2000)
    ball_box = feasibility([make_set("ball", center=[0.0, 0.0], radius=1.0),
                            make_set("box", lo=[0.5, -3.0], hi=[3.0, 3.0])])
    three = feasibility([make_set("point", point=[2.0, 0.0]),
                         make_set("ball", center=[0.0, 1.0], radius=1.5),
                         make_set("box", lo=[-1.0, -1.0], hi=[1.0, 0.5])])
    problems = [counterexample2d(0.2), counterexample2d(0.45), lasso, ball_box, three]
    sources = [(prob.layout, lambda scheme, flavor, prob=prob: prob.build_map(flavor, scheme))
               for prob in problems]

    def gradient_only(scheme, flavor, layout=BlockLayout((2, 1, 2))):
        term = SeparableTerm(layout, [h_indicator_ball(0.0, 1.0), h_l1(0.2), h_zero()])
        return SplittingMap("fb", _gradient_only(layout, 22), term, np.array([0.5, 1.0, 0.5]),
                            scheme, layout)

    sources.append((BlockLayout((2, 1, 2)), gradient_only))
    return sources


GALLERY = _gallery()


def _random_scheme(num_blocks, rng):
    """Overlapping random subsets covering every block, with uneven probabilities."""
    subsets = [tuple(np.flatnonzero(rng.random(num_blocks) < 0.5)) or (int(rng.integers(num_blocks)),)
               for _ in range(int(rng.integers(1, 5)))]
    covered = set().union(*subsets)
    if len(covered) < num_blocks:
        subsets.append(tuple(j for j in range(num_blocks) if j not in covered))
    probs = rng.uniform(0.05, 1.0, size=len(subsets))
    probs /= probs.sum()
    probs[-1] = 1.0 - probs[:-1].sum()
    return BlockSubsetScheme(tuple(subsets), tuple(probs.tolist()))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, len(GALLERY)),
    st.lists(st.integers(1, 3), min_size=1, max_size=6),
    st.sampled_from(["fb", "dr"]),
    st.integers(0, 3),
    st.integers(0, 2**31 - 1),
)
def test_closed_form_expectations_match_per_outcome_sums(source, dims, flavor, batch, seed):
    # source == len(GALLERY): a random quadratic map with mixed block dims
    rng = np.random.default_rng(seed)
    if source == len(GALLERY):
        m = _random_map(dims, flavor, seed)
        m = SplittingMap(flavor, m.coupling, m.term, m.steps,
                         _random_scheme(m.layout.num_blocks, rng), m.layout)
    else:
        layout, build = GALLERY[source]
        m = build(_random_scheme(layout.num_blocks, rng), flavor)
    x, y = _points(m, batch, seed), _points(m, batch, seed + 7)
    closed = expected_weighted_terms(m, x, y)
    reference = _per_outcome_sums(m, x, y)
    worst = 0.0
    for got, want in zip(closed, reference):
        assert np.shape(got) == np.shape(want)
        worst = max(worst, float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))))
    note(f"relative deviation {worst:.3e}")
    # --hypothesis-show-statistics reports the largest deviation seen
    target(worst, label="relative deviation of the closed form")
    assert worst <= 1e-12


# ---------------------------------------------------------------------------
# Composite constants.
# ---------------------------------------------------------------------------


def test_regularity_constants_validation():
    RegularityConstants(0.5, 0.0)
    with pytest.raises(ValueError):
        RegularityConstants(1.0, 0.0)
    with pytest.raises(ValueError):
        RegularityConstants(0.5, -0.1)
    assert RegularityConstants(0.25, 0.0).transport_weight == pytest.approx(3.0)


def test_composite_constants_dr_convex():
    prob = feasibility(
        [make_set("point", point=[0.0]), make_set("point", point=[1.0])],
        coupling_kind="sqdist",
    )
    m = prob.build_map("dr", SINGLETONS, steps=np.array([1.0, 1.0]))
    c = composite_constants(m)
    assert c.alpha == pytest.approx(2.0 / 3.0)
    assert c.violation == 0.0


def test_composite_constants_dr_nonconvex_product_rule():
    layout = BlockLayout((1, 1))
    coupling = SmoothCoupling(
        layout=layout,
        gradient=lambda x: np.zeros_like(x),
        lipschitz=np.zeros(2),
        hypomono=np.array([0.3, 0.1]),
        convex=False,
        hessian_block=lambda j: np.zeros((1, 1)),
    )
    from blocksplit.operators import BlockFunction

    soft = BlockFunction(prox=lambda v, lam: v, tau=0.2, convex=False)
    term = SeparableTerm(layout, [soft, soft])
    m = SplittingMap("dr", coupling, term, np.array([1.0, 1.0]), SINGLETONS, layout)
    c = composite_constants(m)
    # tau_f + tau_h + tau_f tau_h with tau_f = 0.3, tau_h = 0.2
    assert c.violation == pytest.approx(0.3 + 0.2 + 0.06)


def test_composite_constants_fb_inside_global_bound():
    m = _fb_pair(t=0.2)  # global convex bound is 0.25
    c = composite_constants(m, alpha_bar=0.5)
    assert c.alpha == pytest.approx(2.0 / 3.0)
    assert c.violation == 0.0


def test_composite_constants_fb_outside_bound():
    m = _fb_pair(t=0.3)
    c = composite_constants(m, alpha_bar=0.5)
    # max_j 2 t tau + t^2 L^2 / alpha_bar = 0.09 * 16 / 0.5
    assert c.violation == pytest.approx(0.09 * 16.0 / 0.5)


def test_expectation_constants_scales_violation_by_pmax():
    m = _fb_pair(t=0.3)
    c = composite_constants(m, alpha_bar=0.5)
    e = expectation_constants(c, m.probabilities)
    assert e.alpha == c.alpha
    assert e.violation == pytest.approx(0.5 * c.violation)


def _origin_problem(point):
    """A problem whose T1 sends every point to the origin, declaring ``point`` fixed."""
    layout = BlockLayout((1, 1))
    return ProblemSpec("origin", layout, coupling_quadratic(layout, np.zeros((2, 2))),
                       SeparableTerm(layout, [h_indicator_point([0.0])] * 2), np.ones(2),
                       Region(-np.ones(2), np.ones(2)), True, True, np.array([point]))


def _certifier_check(spec):
    certify_paracontraction_in_expectation(spec.build_map("fb", SINGLETONS), spec.fixed_points,
                                           spec.region, 10, seed=0)


@pytest.mark.parametrize("check", [_verify_declared_fixed_points, _certifier_check])
def test_one_fixed_point_rule_for_the_gallery_and_the_certifier(check):
    # outcome 0 moves the point by its first coordinate, outcome 1 not at all
    check(_origin_problem([5e-13, 0.0]))
    with pytest.raises(InvalidFixedPoints, match=r"moves by 2\.000e-12 under outcome 0$"):
        check(_origin_problem([2e-12, 0.0]))
