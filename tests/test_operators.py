"""Proximal oracles, partial resolvents, and step-size bounds."""

import numpy as np
import pytest

from blocksplit.blockspace import BlockLayout
from blocksplit.config import BlockSubsetScheme
from blocksplit.errors import DimensionMismatch, EmptyResolvent, NotPSD
from blocksplit.operators import (
    SeparableTerm,
    SmoothCoupling,
    coupling_diagonal_indicator,
    coupling_diagonal_sqdist,
    coupling_quadratic,
    gd_step_bound,
    gd_violation_bound,
    h_indicator_ball,
    h_indicator_box,
    h_indicator_point,
    h_l1,
    h_quadratic,
    h_zero,
    reflector,
    resolvent_partial_smooth,
    resolvent_separable,
)
from blocksplit.splitting import SplittingMap


# ---------------------------------------------------------------------------
# Separable gallery: each prox against its closed form.
# ---------------------------------------------------------------------------


def test_h_zero_prox_is_identity():
    v = np.array([1.5, -2.0])
    np.testing.assert_array_equal(h_zero().prox(v, 0.7), v)


def test_h_quadratic_prox():
    # argmin_u c u^2 + (u-v)^2/(2 lam) = v / (1 + 2 lam c)
    h = h_quadratic(3.0)
    v = np.array([2.0])
    np.testing.assert_allclose(h.prox(v, 0.5), v / (1 + 2 * 0.5 * 3.0))


def test_h_l1_soft_threshold():
    h = h_l1(2.0)
    v = np.array([3.0, -0.5, -4.0])
    np.testing.assert_allclose(h.prox(v, 1.0), [1.0, 0.0, -2.0])
    np.testing.assert_allclose(h.prox(v, 0.1), [2.8, -0.3, -3.8])


def test_h_indicator_box_clips():
    h = h_indicator_box([-1.0, -1.0], [1.0, 2.0])
    np.testing.assert_allclose(h.prox(np.array([5.0, -3.0]), 1.0), [1.0, -1.0])


def test_h_indicator_point_constant():
    h = h_indicator_point([2.0, 3.0])
    out = h.prox(np.zeros((4, 2)), 1.0)
    np.testing.assert_array_equal(out, np.tile([2.0, 3.0], (4, 1)))


def test_h_indicator_ball_projects_radially():
    h = h_indicator_ball([0.0, 0.0], 1.0)
    np.testing.assert_allclose(h.prox(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])
    inside = np.array([0.1, -0.2])
    np.testing.assert_allclose(h.prox(inside, 1.0), inside)


def test_prox_batch_shapes():
    for h in (h_zero(), h_quadratic(1.0), h_l1(0.5), h_indicator_ball([0.0], 2.0)):
        out = h.prox(np.random.default_rng(0).normal(size=(5, 1)), 0.3)
        assert out.shape == (5, 1)


# ---------------------------------------------------------------------------
# Partial smooth resolvent: solve y + lam grad_j f(x|_j=y) = x_j.
# ---------------------------------------------------------------------------


def _pair_coupling():
    # f(x) = (x0 + x1)^2 = x'Qx/2 with Q = 2*ones(2,2)
    layout = BlockLayout((1, 1))
    return coupling_quadratic(layout, 2.0 * np.ones((2, 2)))


def test_partial_resolvent_quadratic_closed_form():
    # block 0 of f=(x0+x1)^2: y + lam*2*(y + x1) = x0 => y = (x0 - 2 lam x1)/(1 + 2 lam)
    c = _pair_coupling()
    x = np.array([3.0, 1.0])
    lam = 0.25
    expected = (3.0 - 2 * lam * 1.0) / (1 + 2 * lam)
    out = resolvent_partial_smooth(c, 0, x, lam)
    np.testing.assert_allclose(out, [expected], rtol=0, atol=1e-15)
    # 2.5/1.5 exactly
    assert out[0] == pytest.approx(5.0 / 3.0)


def test_partial_resolvent_defining_equation():
    c = _pair_coupling()
    rng = np.random.default_rng(3)
    for _ in range(20):
        x = rng.normal(size=2)
        lam = float(rng.uniform(0.05, 2.0))
        for j in (0, 1):
            y = resolvent_partial_smooth(c, j, x, lam)
            xmod = x.copy()
            xmod[c.layout.slice_of(j)] = y
            resid = y + lam * c.layout.block(c.gradient(xmod), j) - c.layout.block(x, j)
            assert np.max(np.abs(resid)) < 1e-12


def test_partial_resolvent_batch_matches_loop():
    c = _pair_coupling()
    xs = np.random.default_rng(5).normal(size=(6, 2))
    batch = resolvent_partial_smooth(c, 1, xs, 0.4)
    for i in range(6):
        single = resolvent_partial_smooth(c, 1, xs[i], 0.4)
        np.testing.assert_allclose(batch[i], single, atol=1e-14)


def test_gradient_only_coupling_has_no_partial_resolvent():
    # a coupling with a gradient but neither hessian_block nor an override
    # has no Douglas-Rachford route: the operator and the map both refuse it
    layout = BlockLayout((1, 1))
    c = coupling_quadratic(layout, np.array([[1.0, 0.3], [0.3, 1.0]]))
    gradient_only = SmoothCoupling(layout=layout, gradient=c.gradient, lipschitz=c.lipschitz,
                                   hypomono=c.hypomono, convex=True)
    with pytest.raises(EmptyResolvent):
        resolvent_partial_smooth(gradient_only, 0, np.array([1.0, -2.0]), 0.5)
    term = SeparableTerm(layout, [h_zero(), h_zero()])
    scheme = BlockSubsetScheme(((0,), (1,)), (0.5, 0.5))
    with pytest.raises(EmptyResolvent, match="Douglas-Rachford needs"):
        SplittingMap("dr", gradient_only, term, 0.5, scheme, layout)
    SplittingMap("fb", gradient_only, term, 0.5, scheme, layout)


def test_partial_resolvent_rejects_nonpositive_step():
    with pytest.raises(ValueError):
        resolvent_partial_smooth(_pair_coupling(), 0, np.zeros(2), 0.0)


def test_reflector():
    np.testing.assert_allclose(reflector(np.array([2.0]), np.array([1.0])), [3.0])


def test_resolvent_separable_dispatch():
    layout = BlockLayout((1, 1))
    term = SeparableTerm(layout, [h_zero(), h_quadratic(1.0)])
    v = np.array([4.0])
    np.testing.assert_allclose(resolvent_separable(term, 0, v, 0.5), [4.0])
    np.testing.assert_allclose(resolvent_separable(term, 1, v, 0.5), [2.0])


# ---------------------------------------------------------------------------
# Step bounds and violation bounds for the blockwise gradient map.
# ---------------------------------------------------------------------------


def test_gd_step_bound_convex_hand_value():
    # tau = 0, L = 4: per-block bound ALPHA_BAR * L / L^2 = 0.5/4 = 1/8,
    # global convex bound 2 * 0.5 / 4 = 1/4
    c = _pair_coupling()
    bounds = gd_step_bound(c)
    np.testing.assert_allclose(bounds.per_block, (0.125, 0.125))
    assert bounds.global_convex == pytest.approx(0.25)
    assert bounds.admits([0.1, 0.1])
    assert not bounds.admits([0.2, 0.1])


def test_gd_step_bound_hypomonotone_hand_value():
    # tau = 3, L = 4: 0.5 * (sqrt(9 + 16) - 3) / 16 = 0.5 * 2 / 16 = 1/16
    layout = BlockLayout((1,))
    c = SmoothCoupling(
        layout=layout,
        gradient=lambda x: x,
        lipschitz=np.array([4.0]),
        hypomono=np.array([3.0]),
        convex=False,
    )
    bounds = gd_step_bound(c)
    assert bounds.per_block[0] == pytest.approx(1.0 / 16.0)
    assert bounds.global_convex is None


def test_gd_violation_zero_for_convex_common_step():
    c = _pair_coupling()
    assert gd_violation_bound(c, np.array([0.2, 0.2])) == 0.0


def test_gd_violation_formula_uneven_steps():
    # uneven steps leave the exemption: max_j 2 t tau + t^2 L^2 / ALPHA_BAR
    c = _pair_coupling()
    t = np.array([0.1, 0.2])
    expected = max(2 * t * 0.0 + t**2 * 16.0 / 0.5)
    assert gd_violation_bound(c, t) == pytest.approx(expected)


def test_gd_violation_formula_hypomonotone():
    layout = BlockLayout((1,))
    c = SmoothCoupling(
        layout=layout,
        gradient=lambda x: x,
        lipschitz=np.array([2.0]),
        hypomono=np.array([1.5]),
        convex=False,
    )
    # 2 * 0.3 * 1.5 + 0.09 * 4 / 0.5 = 0.9 + 0.72 = 1.62
    assert gd_violation_bound(c, np.array([0.3])) == pytest.approx(1.62)


# ---------------------------------------------------------------------------
# Coupling gallery.
# ---------------------------------------------------------------------------


def test_coupling_quadratic_gradient_and_value():
    layout = BlockLayout((1, 1))
    Q = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([1.0, -1.0])
    c = coupling_quadratic(layout, Q, b)
    x = np.array([1.0, 2.0])
    np.testing.assert_allclose(c.gradient(x), Q @ x + b)


def test_coupling_quadratic_dense_uses_global_norm():
    layout = BlockLayout((1, 1))
    Q = 2.0 * np.ones((2, 2))
    c = coupling_quadratic(layout, Q)
    # ||Q||_2 = 4 for both blocks; the blockwise inequality needs it
    np.testing.assert_allclose(c.lipschitz, [4.0, 4.0])
    assert c.convex


def test_coupling_quadratic_block_diagonal_exact_norms():
    layout = BlockLayout((1, 1))
    Q = np.diag([2.0, 5.0])
    c = coupling_quadratic(layout, Q)
    np.testing.assert_allclose(c.lipschitz, [2.0, 5.0])


def test_coupling_quadratic_rejects_asymmetric():
    layout = BlockLayout((2,))
    with pytest.raises(ValueError):
        coupling_quadratic(layout, np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_coupling_quadratic_nonconvex_constants():
    layout = BlockLayout((1, 1))
    Q = np.diag([-2.0, 1.0])
    c = coupling_quadratic(layout, Q)
    assert not c.convex
    assert c.tau_max == pytest.approx(2.0)
    with pytest.raises(NotPSD):
        coupling_quadratic(layout, Q, convex=True)


def test_coupling_zero():
    layout = BlockLayout((2, 1))
    c = SmoothCoupling(layout=layout, gradient=lambda x: np.zeros_like(x),
                       lipschitz=np.zeros(2), hypomono=np.zeros(2), convex=True)
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(c.gradient(x), np.zeros(3))
    assert gd_step_bound(c).per_block == (np.inf, np.inf)


def test_coupling_diagonal_sqdist_gradient():
    layout = BlockLayout((2, 2, 2))
    c = coupling_diagonal_sqdist(layout)
    x = np.array([1.0, 0.0, 3.0, 0.0, 5.0, 0.0])
    # means are (3, 0); grad_j = x_j - mean
    np.testing.assert_allclose(c.gradient(x), [-2, 0, 0, 0, 2, 0])


def test_coupling_diagonal_sqdist_partial_resolvent():
    # y + lam (y - (y + s)/m) = x_j with s the other-block sum:
    # y (1 + lam (1 - 1/m)) = x_j + lam s / m
    layout = BlockLayout((1, 1))
    c = coupling_diagonal_sqdist(layout)
    x = np.array([2.0, 0.0])
    lam = 1.0
    y = resolvent_partial_smooth(c, 0, x, lam)
    expected = (2.0 + 0.5 * 0.0) / 1.5
    np.testing.assert_allclose(y, [expected])


def test_coupling_diagonal_indicator_resolvent():
    layout = BlockLayout((2, 2))
    c = coupling_diagonal_indicator(layout)
    x = np.array([9.0, 9.0, 1.0, 2.0])
    np.testing.assert_allclose(resolvent_partial_smooth(c, 0, x, 1.0), [1.0, 2.0])
    assert c.gradient is None


def test_coupling_diagonal_indicator_disagreement_raises():
    layout = BlockLayout((1, 1, 1))
    c = coupling_diagonal_indicator(layout)
    x = np.array([0.0, 1.0, 2.0])
    with pytest.raises(EmptyResolvent):
        resolvent_partial_smooth(c, 0, x, 1.0)


def test_coupling_diagonal_indicator_names_first_disagreeing_row():
    c = coupling_diagonal_indicator(BlockLayout((1, 1, 1)))
    x = np.array([[5.0, 1.0, 1.0], [0.0, 2.0, 2.0], [0.0, 1.0, 3.0], [0.0, 0.0, 9.0]])
    np.testing.assert_array_equal(resolvent_partial_smooth(c, 0, x[:2], 1.0), [[1.0], [2.0]])
    with pytest.raises(EmptyResolvent, match=r"block 0 empty at batch row 2: .* by 2\.000e\+00"):
        resolvent_partial_smooth(c, 0, x, 1.0)


def test_coupling_diagonal_requires_equal_blocks():
    with pytest.raises(DimensionMismatch):
        coupling_diagonal_sqdist(BlockLayout((1, 2)))
