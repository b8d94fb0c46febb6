"""Exact weighted transport distances, dual solver routes, measure files."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linprog

from blocksplit import transport
from blocksplit.blockspace import BlockLayout, BlockProbabilities
from blocksplit.errors import BlocksplitError, DimensionMismatch, SolverFailure
from blocksplit.transport import (
    CouplingPlan,
    DiscreteMeasure,
    cost_matrix,
    distance_to_point_mass,
    read_measure,
    wasserstein2_weighted,
    write_measure,
)


def _unit_p(num_blocks, dims=None):
    layout = BlockLayout(tuple(dims) if dims else (1,) * num_blocks)
    return layout, BlockProbabilities(np.ones(layout.num_blocks), layout)


def brute_force_w2(mu, nu, p):
    """Minimum over all permutations; the independent oracle for n <= 6."""
    C = cost_matrix(mu, nu, p)
    n = mu.num_points
    best = np.inf
    for perm in itertools.permutations(range(n)):
        best = min(best, sum(C[i, perm[i]] for i in range(n)) / n)
    return float(np.sqrt(best))


def test_measure_validation():
    layout = BlockLayout((2,))
    DiscreteMeasure(np.zeros((3, 2)), np.full(3, 1 / 3), layout)
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((3, 2)), np.array([0.5, 0.5, 0.5]), layout)
    with pytest.raises(DimensionMismatch):
        DiscreteMeasure(np.zeros((3, 5)), np.full(3, 1 / 3), layout)
    for bad in (np.nan, np.inf, -np.inf):
        support = np.zeros((3, 2))
        support[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            DiscreteMeasure(support, np.full(3, 1 / 3), layout)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match=f"weights sum to {bad!r}"):
            DiscreteMeasure(np.zeros((3, 2)), np.array([0.5, 0.5, bad]), layout)


def test_cost_matrix_hand_value():
    layout, p = _unit_p(1, dims=(1,))
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]), layout)
    nu = DiscreteMeasure(np.array([[2.0], [3.0]]), np.array([0.5, 0.5]), layout)
    np.testing.assert_allclose(cost_matrix(mu, nu, p), [[4.0, 9.0], [1.0, 4.0]])


def test_cost_matrix_weighted():
    layout = BlockLayout((1, 1))
    p = BlockProbabilities(np.array([0.25, 1.0]), layout)
    mu = DiscreteMeasure(np.array([[1.0, 0.0]]), np.array([1.0]), layout)
    nu = DiscreteMeasure(np.array([[0.0, 1.0]]), np.array([1.0]), layout)
    # cost = 1/0.25 + 1/1 = 5
    np.testing.assert_allclose(cost_matrix(mu, nu, p), [[5.0]])


def test_w2_unit_shift():
    layout, p = _unit_p(1, dims=(2,))
    pts = np.random.default_rng(0).normal(size=(5, 2))
    mu = DiscreteMeasure.empirical(pts, layout)
    nu = DiscreteMeasure.empirical(pts + np.array([1.0, 1.0]), layout)
    d, plan = wasserstein2_weighted(mu, nu, p)
    assert d == pytest.approx(np.sqrt(2.0), abs=1e-12)
    # the optimal plan is the identity matching
    np.testing.assert_allclose(plan.matrix, np.eye(5) / 5, atol=1e-12)


def test_w2_assignment_matches_brute_force():
    rng = np.random.default_rng(7)
    layout = BlockLayout((1, 2))
    p = BlockProbabilities(np.array([0.5, 0.8]), layout)
    for n in (2, 3, 4, 5, 6):
        mu = DiscreteMeasure.empirical(rng.normal(size=(n, 3)), layout)
        nu = DiscreteMeasure.empirical(rng.normal(size=(n, 3)), layout)
        d, _ = wasserstein2_weighted(mu, nu, p)
        assert d == pytest.approx(brute_force_w2(mu, nu, p), abs=1e-10)


def test_w2_lp_route_matches_assignment_route():
    # force the LP by perturbing one weight pair, then restoring balance:
    # identical supports with uniform vs explicitly-listed uniform weights
    rng = np.random.default_rng(8)
    layout, p = _unit_p(1, dims=(2,))
    pts_a = rng.normal(size=(4, 2))
    pts_b = rng.normal(size=(4, 2))
    mu = DiscreteMeasure.empirical(pts_a, layout)
    nu = DiscreteMeasure.empirical(pts_b, layout)
    d_assign, _ = wasserstein2_weighted(mu, nu, p)
    # unbalanced sizes: split one atom of nu into two halves at the same spot
    nu_split = DiscreteMeasure(
        np.vstack([pts_b, pts_b[-1:]]),
        np.array([0.25, 0.25, 0.25, 0.125, 0.125]),
        layout,
    )
    d_lp, plan = wasserstein2_weighted(mu, nu_split, p)
    assert d_lp == pytest.approx(d_assign, abs=1e-9)
    np.testing.assert_allclose(plan.matrix.sum(axis=0), nu_split.weights, atol=1e-10)


def test_w2_lp_hand_instance():
    # two atoms to one atom: all mass ships to the single target
    layout, p = _unit_p(1, dims=(1,))
    mu = DiscreteMeasure(np.array([[0.0], [2.0]]), np.array([0.5, 0.5]), layout)
    nu = DiscreteMeasure(np.array([[1.0]]), np.array([1.0]), layout)
    d, plan = wasserstein2_weighted(mu, nu, p)
    assert d == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(plan.matrix, [[0.5], [0.5]], atol=1e-12)


def test_w2_symmetry_and_identity():
    rng = np.random.default_rng(9)
    layout, p = _unit_p(2)
    mu = DiscreteMeasure.empirical(rng.normal(size=(6, 2)), layout)
    nu = DiscreteMeasure.empirical(rng.normal(size=(6, 2)), layout)
    d1, _ = wasserstein2_weighted(mu, nu, p)
    d2, _ = wasserstein2_weighted(nu, mu, p)
    assert d1 == pytest.approx(d2, abs=1e-12)
    d0, _ = wasserstein2_weighted(mu, mu, p)
    assert d0 == pytest.approx(0.0, abs=1e-12)


def _random_cloud(rng, n, layout, equal_weights):
    support = rng.normal(scale=2.0, size=(n, layout.total_dim))
    if equal_weights:
        return DiscreteMeasure.empirical(support, layout)
    w = rng.uniform(0.2, 1.0, size=n)
    w /= w.sum()
    w[-1] = 1.0 - w[:-1].sum()
    return DiscreteMeasure(support, w, layout)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.sampled_from(["balanced", "equal_weight", "weighted"]),
    st.integers(1, 5),
    st.lists(st.integers(1, 2), min_size=1, max_size=3),
)
def test_w2_metric_properties_on_random_clouds(seed, kind, n, dims):
    # balanced: equal-size equal-weight clouds; equal_weight: equal weights at
    # random sizes, both the assignment route; weighted: random weights and
    # sizes, the LP route
    rng = np.random.default_rng(seed)
    layout = BlockLayout(tuple(dims))
    p = BlockProbabilities(rng.uniform(0.2, 1.0, size=layout.num_blocks), layout)
    sizes = (n, n, n) if kind == "balanced" else tuple(int(k) for k in rng.integers(1, 6, size=3))
    mu, nu, rho = (_random_cloud(rng, k, layout, kind != "weighted") for k in sizes)

    def w2(a, b):
        return wasserstein2_weighted(a, b, p)[0]

    # the LP's optimal value is exact to the solver's tolerance, and W2 is
    # its square root
    tol, slack = (1e-8, 1e-6) if kind == "weighted" else (1e-12, 1e-12)
    assert w2(mu, mu) ** 2 <= tol
    d_mn, d_nm = w2(mu, nu), w2(nu, mu)
    assert abs(d_mn**2 - d_nm**2) <= tol * (1.0 + d_mn**2)
    assert w2(mu, rho) <= d_mn + w2(nu, rho) + slack


def _lp_w2(mu, nu, p):
    """Weighted W2 from a dense n x m transport LP, solved directly by scipy.

    At HiGHS's default primal feasibility tolerance, 1e-7, a marginal can end
    that far off its weight and the distance some 1e-7 off, so it is solved
    at the tightest one, 1e-10.
    """
    C = cost_matrix(mu, nu, p)
    n, m = C.shape
    A_eq = np.vstack([np.kron(np.eye(n), np.ones(m)), np.kron(np.ones(n), np.eye(m))])
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return float(np.sqrt(max(res.fun, 0.0)))


def _forbid(monkeypatch, solver):
    def refuse(*args, **kwargs):
        raise AssertionError(f"transport.{solver} must not be called on this route")
    monkeypatch.setattr(transport, solver, refuse)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 12),
    st.integers(1, 12),
    st.lists(st.integers(1, 2), min_size=1, max_size=3),
)
@example(seed=1, n=7, m=12, dims=[1, 2])  # coprime: L = 84
@example(seed=2, n=4, m=12, dims=[2])  # divisor: L = 12
@example(seed=3, n=12, m=1, dims=[1, 1])
def test_w2_replicated_assignment_matches_lp(seed, n, m, dims):
    # equal-weight clouds of any sizes under the cap take one assignment on
    # lcm(n, m) atoms; its value must be the n x m LP optimum
    rng = np.random.default_rng(seed)
    layout = BlockLayout(tuple(dims))
    p = BlockProbabilities(rng.uniform(0.2, 1.0, size=layout.num_blocks), layout)
    mu = _random_cloud(rng, n, layout, True)
    nu = _random_cloud(rng, m, layout, True)
    d, plan = wasserstein2_weighted(mu, nu, p)
    d_lp = _lp_w2(mu, nu, p)
    assert abs(d - d_lp) <= 1e-12 * d_lp + 1e-15
    np.testing.assert_allclose(plan.matrix.sum(axis=1), mu.weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(plan.matrix.sum(axis=0), nu.weights, rtol=0, atol=1e-12)
    assert np.all(plan.matrix >= 0)
    cost = float(np.sum(plan.matrix * cost_matrix(mu, nu, p)))
    assert cost == pytest.approx(d * d, rel=1e-12, abs=1e-15)


def _plain_assignment(mu, nu, p):
    """Reference route: W2 and dense plan from scipy's assignment on the cost itself.

    Equal-weight clouds of sizes n and m, replicated to L = lcm(n, m) atoms
    as the package does, with no potentials subtracted.
    """
    from scipy.optimize import linear_sum_assignment

    C = cost_matrix(mu, nu, p)
    n, m = C.shape
    L = np.lcm(n, m)
    rows, cols = linear_sum_assignment(np.repeat(np.repeat(C, L // n, axis=0), L // m, axis=1))
    rows, cols = rows // (L // n), cols // (L // m)
    plan = np.zeros_like(C)
    np.add.at(plan, (rows, cols), 1.0 / L)
    return float(np.sqrt(max(float(C[rows, cols].sum() / L), 0.0))), plan


def _anisotropic_pair(rng, n, d, m=None):
    """Two equal-weight clouds in d dims, rotated, per-axis scales 0.1..10, shifted."""
    layout = BlockLayout((1,) * d)
    p = BlockProbabilities(rng.uniform(0.1, 1.0, size=d), layout)
    scales = 10.0 ** rng.uniform(-1, 1, size=d)
    rot = np.linalg.qr(rng.normal(size=(d, d)))[0]
    x = rng.normal(size=(n, d)) * scales @ rot
    y = (rng.normal(size=(n if m is None else m, d)) * scales * rng.uniform(0.5, 2.0, size=d)
         + rng.normal(size=d) * scales) @ rot
    return DiscreteMeasure.empirical(x, layout), DiscreteMeasure.empirical(y, layout), p


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(2, 120), st.integers(1, 6))
@example(seed=5, n=120, d=2)  # warm-started
@example(seed=1, n=4, d=6)  # n <= d: a singular covariance, solved on the cost
def test_w2_warm_start_is_bitwise_the_plain_assignment(seed, n, d):
    # distinct atoms at random: one optimal assignment, which the Gaussian
    # potentials must not change, nor the distance summed from it
    mu, nu, p = _anisotropic_pair(np.random.default_rng(seed), n, d)
    dist, plan = wasserstein2_weighted(mu, nu, p)
    ref, ref_plan = _plain_assignment(mu, nu, p)
    assert dist == ref
    np.testing.assert_array_equal(plan.matrix, ref_plan)


@pytest.mark.parametrize("d, weighted", [
    pytest.param(d, weighted, id=f"{d}-weighted" if weighted else str(d))
    for weighted in (False, True) for d in (1, 2, 5)])
def test_gaussian_potential_zeroes_the_reduced_cost_of_an_affine_image(d, weighted):
    # y = T x + c with T symmetric positive definite is the optimal map, and
    # the Gaussian fit recovers it, equal-weight or with atom i weighted
    # alike in both clouds (some weights zero): the potential and its column
    # minima leave every matched pair (i, i) at reduced cost zero, to rounding
    rng = np.random.default_rng(24)
    x = rng.normal(size=(200, d)) * 10.0 ** rng.uniform(-1, 1, size=d)
    B = rng.normal(size=(d, d))
    T = B @ B.T + 0.5 * np.eye(d)
    y = x @ T + rng.normal(size=d)
    if weighted:
        w = rng.uniform(0.2, 1.0, size=200) * (rng.random(200) > 0.3)
        u = transport._gaussian_potential(x, y, w / w.sum(), w / w.sum())
    else:
        u = transport._gaussian_potential(x, y, np.ones(200), np.ones(200))
    C = ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=-1)
    R = C - u[:, None]
    R -= R.min(axis=0)
    assert np.abs(np.diag(R)).max() <= 1e-9 * C.max()
    assert np.argmin(R, axis=0).tolist() == list(range(200))


@pytest.mark.parametrize("case", ["replicated", "duplicates", "one_point", "identical_atoms"])
def test_w2_warm_start_on_tied_optima_matches_lp(case):
    # tied optimal assignments: the potentials may pick another one, whose
    # cost agrees with the LP optimum to the last bits
    rng = np.random.default_rng(21)
    if case == "replicated":
        mu, nu, p = _anisotropic_pair(rng, 60, 3, m=84)  # L = 420
    else:
        mu, nu, p = _anisotropic_pair(rng, 50, 2)
        x = mu.support.copy()
        if case == "duplicates":
            x[1:20] = x[0]
        elif case == "one_point":
            x = x[:1]
            nu = DiscreteMeasure.empirical(nu.support[:7], nu.layout)
        else:
            x[:] = x[0]
        mu = DiscreteMeasure.empirical(x, mu.layout)
    d, plan = wasserstein2_weighted(mu, nu, p)
    d_lp = _lp_w2(mu, nu, p)
    assert abs(d - d_lp) <= 1e-12 * d_lp
    np.testing.assert_allclose(plan.matrix.sum(axis=1), mu.weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(plan.matrix.sum(axis=0), nu.weights, rtol=0, atol=1e-12)


@pytest.mark.parametrize("case", ["constant_coordinate", "n_at_most_d", "overflowing_potential"])
def test_w2_warm_start_falls_back_to_the_plain_assignment(case):
    rng = np.random.default_rng(22)
    if case == "n_at_most_d":
        mu, nu, p = _anisotropic_pair(rng, 5, 6)
    else:
        mu, nu, p = _anisotropic_pair(rng, 40, 3)
        x, y = mu.support.copy(), nu.support.copy()
        if case == "constant_coordinate":
            x[:, 1] = 0.5
        else:
            # squared distances near 1e300 stay finite; the covariance
            # products behind the potential overflow
            x, y = rng.normal(size=x.shape) * 1e150, rng.normal(size=y.shape) * 1e150
        mu, nu = DiscreteMeasure.empirical(x, mu.layout), DiscreteMeasure.empirical(y, nu.layout)
    scale = np.sqrt(p.coordinate_inverse())
    assert transport._gaussian_potential(mu.support * scale, nu.support * scale,
                                         mu.weights, nu.weights) is None
    d, plan = wasserstein2_weighted(mu, nu, p)
    ref, ref_plan = _plain_assignment(mu, nu, p)
    assert d == ref and np.isfinite(d)
    np.testing.assert_array_equal(plan.matrix, ref_plan)


@pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9, 50, 64, 200])
@pytest.mark.parametrize("case", ["square", "replicated", "plain"])
def test_w2_matched_pair_costs_are_the_cost_matrix_entries(monkeypatch, d, case):
    # the assignment overwrites C with its reduced cost, so the distance is
    # summed from the matched pairs' costs evaluated again; each must be
    # the entry of C bit for bit, whatever the dimension, replicated or not,
    # and on the plain route, solved on C itself
    rng = np.random.default_rng(40 + d)
    n, m = (40, 60) if case == "replicated" else (150, 150)
    layout = BlockLayout((1,) * d)
    p = BlockProbabilities(rng.uniform(0.5, 1.0, size=d), layout)
    scales = 10.0 ** rng.uniform(-0.5, 0.5, size=d)
    mu = DiscreteMeasure.empirical(rng.normal(size=(n, d)) * scales, layout)
    nu = DiscreteMeasure.empirical(rng.normal(size=(m, d)) * scales + 0.5, layout)
    scale = np.sqrt(p.coordinate_inverse())
    x, y = mu.support * scale, nu.support * scale
    if case == "plain":
        monkeypatch.setattr(transport, "_gaussian_potential", lambda *args: None)
    else:
        # warm-started wherever the fit is regular: 200 dimensions need
        # more than 150 atoms
        assert (transport._gaussian_potential(x, y, mu.weights, nu.weights) is None) == (n <= d)
    dist, plan = wasserstein2_weighted(mu, nu, p)
    matched = cost_matrix(mu, nu, p)[plan.rows, plan.cols]
    assert plan.rows.size == np.lcm(n, m)
    np.testing.assert_array_equal(transport._matched_costs(x, y, plan.rows, plan.cols), matched)
    assert dist == np.sqrt(max(float(matched.sum() / plan.rows.size), 0.0))


@pytest.mark.parametrize("n, m", [(400, 400), (300, 200)])
def test_w2_assignment_working_set(n, m):
    # a square solve runs in the cost matrix's own buffer; a replicated one
    # holds the L x L copy and the n x m cost only while the copy is made
    layout, p = _unit_p(2)
    rng = np.random.default_rng(41)
    mu = DiscreteMeasure.empirical(rng.normal(size=(n, 2)), layout)
    nu = DiscreteMeasure.empirical(rng.normal(size=(m, 2)) + 1.0, layout)
    wasserstein2_weighted(mu, nu, p)  # loads the kernels untraced
    tracemalloc.start()
    try:
        wasserstein2_weighted(mu, nu, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    L = np.lcm(n, m)
    if n == m:
        assert peak <= 1.25 * 8 * n * n
    else:
        assert peak <= 1.1 * 8 * (L * L + n * m)


def test_coupling_plan_matrix_is_the_former_dense_plan_on_both_routes(monkeypatch, tmp_path):
    # the assignment route: the dense plan folded from the plain assignment
    mu, nu, p = _anisotropic_pair(np.random.default_rng(23), 30, 2, m=45)
    _, plan = wasserstein2_weighted(mu, nu, p)
    np.testing.assert_array_equal(plan.matrix, _plain_assignment(mu, nu, p)[1])
    # the LP route: the dense plan the LP support and masses filled in
    mu, nu, p = _lp_instance(14)
    solved = []
    lp = transport._transport_lp
    monkeypatch.setattr(transport, "_transport_lp", lambda *a: solved.append(lp(*a)) or solved[-1])
    d, plan = wasserstein2_weighted(mu, nu, p)
    pairs, mass = solved[0]
    dense = np.zeros(60 * 50)
    dense[pairs] = mass
    dense = np.where(np.abs(dense) < 1e-14, 0.0, dense).reshape(60, 50)
    np.testing.assert_array_equal(plan.matrix, dense)
    assert plan.mass.size == np.count_nonzero(dense) < 60 + 50
    assert d == np.sqrt(np.sum(dense * cost_matrix(mu, nu, p)))
    # transport --plan writes that dense plan
    from blocksplit.cli import main

    write_measure(tmp_path / "mu.csv", mu)
    write_measure(tmp_path / "nu.csv", nu)
    assert main(["transport", str(tmp_path / "mu.csv"), str(tmp_path / "nu.csv"),
                 "--probs", "0.4,0.9", "--plan", str(tmp_path / "plan.csv")]) == 0
    np.savetxt(tmp_path / "dense.csv", dense, delimiter=",", fmt="%.17g")
    assert (tmp_path / "plan.csv").read_bytes() == (tmp_path / "dense.csv").read_bytes()


def test_w2_route_follows_weights_and_replication_cap(monkeypatch):
    rng = np.random.default_rng(12)
    layout = BlockLayout((1, 2))
    p = BlockProbabilities(np.array([0.4, 0.9]), layout)
    mu = _random_cloud(rng, 6, layout, True)
    nu = _random_cloud(rng, 4, layout, True)  # L = 12
    d_lp = _lp_w2(mu, nu, p)

    monkeypatch.setattr(transport, "ASSIGN_MAX_ATOMS", 12)
    with monkeypatch.context() as mp:
        _forbid(mp, "linprog")
        d_assign, _ = wasserstein2_weighted(mu, nu, p)
    assert d_assign == pytest.approx(d_lp, rel=1e-12)

    # one atom above the cap: the LP route, same distance
    monkeypatch.setattr(transport, "ASSIGN_MAX_ATOMS", 11)
    with monkeypatch.context() as mp:
        _forbid(mp, "linear_sum_assignment")
        d_above, plan = wasserstein2_weighted(mu, nu, p)
    assert d_above == pytest.approx(d_lp, rel=1e-8)
    np.testing.assert_allclose(plan.matrix.sum(axis=0), nu.weights, atol=1e-10)

    # equal sizes replicate nothing and take the assignment at any cap
    monkeypatch.setattr(transport, "ASSIGN_MAX_ATOMS", 1)
    nu6 = _random_cloud(rng, 6, layout, True)
    with monkeypatch.context() as mp:
        _forbid(mp, "linprog")
        d_square, _ = wasserstein2_weighted(mu, nu6, p)
    assert d_square == pytest.approx(_lp_w2(mu, nu6, p), rel=1e-12)

    # randomly weighted clouds take the LP under any cap
    monkeypatch.setattr(transport, "ASSIGN_MAX_ATOMS", 10**6)
    _forbid(monkeypatch, "linear_sum_assignment")
    for size_mu, size_nu in ((6, 4), (5, 5)):
        a = _random_cloud(rng, size_mu, layout, False)
        b = _random_cloud(rng, size_nu, layout, False)
        d_w, _ = wasserstein2_weighted(a, b, p)
        assert d_w == pytest.approx(_lp_w2(a, b, p), rel=1e-8)


def _weighted_cloud(rng, n, layout, zero_frac, duplicates):
    """Random weights, some of them zero; with duplicates, a third of the atoms sit on atom 0."""
    support = rng.normal(scale=2.0, size=(n, layout.total_dim))
    if duplicates:
        support[1 : 1 + n // 3] = support[0]
    w = rng.uniform(0.2, 1.0, size=n)
    w[rng.random(n) < zero_frac] = 0.0
    if not w.any():
        w[rng.integers(n)] = 1.0
    return DiscreteMeasure(support, w / w.sum(), layout)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 2**31 - 1),
    st.integers(1, 40),
    st.integers(1, 40),
    st.sampled_from([0.0, 0.3]),
    st.booleans(),
    st.booleans(),
)
@example(seed=1, n=1, m=40, zero_frac=0.3, duplicates=False, identical=False)
@example(seed=2, n=40, m=1, zero_frac=0.0, duplicates=True, identical=False)
@example(seed=3, n=40, m=40, zero_frac=0.3, duplicates=True, identical=True)
# at HiGHS's default feasibility tolerance a target marginal ends 8.1e-8 off
@example(seed=102668276, n=14, m=24, zero_frac=0.3, duplicates=False, identical=False)
def test_w2_restricted_lp_matches_dense_lp(seed, n, m, zero_frac, duplicates, identical):
    rng = np.random.default_rng(seed)
    layout = BlockLayout((1, 2))
    p = BlockProbabilities(rng.uniform(0.2, 1.0, size=2), layout)
    mu = _weighted_cloud(rng, n, layout, zero_frac, duplicates)
    nu = mu if identical else _weighted_cloud(rng, m, layout, zero_frac, duplicates)
    d, plan = wasserstein2_weighted(mu, nu, p)
    d_lp = _lp_w2(mu, nu, p)
    assert abs(d - d_lp) <= 1e-12 * d_lp + 1e-15
    np.testing.assert_allclose(plan.matrix.sum(axis=1), mu.weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(plan.matrix.sum(axis=0), nu.weights, rtol=0, atol=1e-12)
    assert np.all(plan.matrix >= 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 30), st.integers(1, 30))
def test_northwest_corner_staircase_is_feasible(seed, n, m):
    rng = np.random.default_rng(seed)
    layout = BlockLayout((1,))
    a = _weighted_cloud(rng, n, layout, 0.3, False).weights
    b = _weighted_cloud(rng, m, layout, 0.3, False).weights
    pairs = transport._northwest_corner(a, b)
    rows, cols = np.divmod(pairs, m)
    assert pairs.size == n + m - 1 == np.unique(pairs).size
    assert (rows[0], cols[0], rows[-1], cols[-1]) == (0, 0, n - 1, m - 1)
    assert np.all(np.diff(rows) + np.diff(cols) == 1)
    # the marginals have a plan on the staircase alone
    A_eq = np.vstack([np.eye(n)[rows].T, np.eye(m)[cols].T])
    res = linprog(np.zeros(pairs.size), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs")
    assert res.status == 0


def _spy_linprog(monkeypatch):
    """Record the model columns, status and solution at every transport.linprog call."""
    calls = []
    forward = transport.linprog

    def spy(h):
        status, sol = forward(h)
        k = h.getNumCol()
        _, starts, index, _ = h.getColsEntries(k, np.arange(k, dtype=np.int32))
        calls.append(SimpleNamespace(
            starts=starts, index=index, cost=np.array(h.getLp().col_cost_), status=status,
            row_dual=np.array(sol.row_dual), col_value=np.array(sol.col_value)))
        return status, sol

    monkeypatch.setattr(transport, "linprog", spy)
    return calls


def _count_rounds(monkeypatch, mu, nu, p):
    """W2 of mu, nu and the number of LP rounds it solved."""
    with monkeypatch.context() as mp:
        calls = _spy_linprog(mp)
        d, _ = wasserstein2_weighted(mu, nu, p)
    return d, len(calls)


def _column_pairs(call, n, m):
    """Flat (i, j) pair index of every model column, read back from its entries.

    A column holds source row i and target row n + j, or only row i when j is
    the last target, whose redundant row the model leaves out.
    """
    ends = np.append(call.starts[1:], call.index.size)
    assert np.all(ends - call.starts >= 1) and np.all(ends - call.starts <= 2)
    src = call.index[call.starts]
    dst = np.where(ends - call.starts == 2, call.index[ends - 1] - n, m - 1)
    assert np.all(src < n) and np.all((dst >= 0) & (dst < m))
    return src * m + dst


def _lp_instance(seed, zero_frac=0.0, duplicates=False):
    """A 60 x 50 weighted pair, which takes the LP route.

    Both clouds are Gaussian draws, so the Gaussian-seeded first round is
    close to optimal: the LP certifies in one or two rounds.
    """
    rng = np.random.default_rng(seed)
    layout = BlockLayout((1, 2))
    p = BlockProbabilities(np.array([0.4, 0.9]), layout)
    mu = _weighted_cloud(rng, 60, layout, zero_frac, duplicates)
    return mu, _weighted_cloud(rng, 50, layout, zero_frac, duplicates), p


def _bimodal_lp_instance(seed):
    """_lp_instance's pair, each cloud shrunk and split into two modes.

    The source's modes lie apart along the first coordinate, the target's
    along the second, so the optimal plan is far from the W2 map between
    Gaussian fits and the LP needs further pricing rounds after the first.
    """
    mu, nu, p = _lp_instance(seed)
    for measure, axis in ((mu, 0), (nu, 1)):
        measure.support *= 0.3
        measure.support[: measure.num_points // 2, axis] += 4.0
    return mu, nu, p


def test_w2_lp_solves_restricted_rounds_through_module_linprog(monkeypatch):
    from scipy.optimize._highspy import _core

    mu, nu, p = _bimodal_lp_instance(14)
    d_dense = _lp_w2(mu, nu, p)
    C = cost_matrix(mu, nu, p).ravel()
    runs = []

    class Counted(_core._Highs):
        def run(self):
            runs.append(self.getNumCol())
            return super().run()

    monkeypatch.setattr(_core, "_Highs", Counted)
    calls = _spy_linprog(monkeypatch)
    d, _ = wasserstein2_weighted(mu, nu, p)
    sizes = [call.starts.size for call in calls]
    # every HiGHS solve went through the module global a profiler wraps
    assert len(sizes) >= 2 and runs == sizes
    assert sizes[0] < 60 * 50
    # every round adds at least one pair to the one model ...
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    for call in calls:
        pairs = _column_pairs(call, 60, 50)
        # ... never a pair it already holds, and each column costs its pair
        assert np.unique(pairs).size == pairs.size
        np.testing.assert_array_equal(call.cost, C[pairs])
    assert d == pytest.approx(d_dense, rel=1e-12)


def test_w2_lp_seeded_from_gaussian_potentials_certifies_in_one_round(monkeypatch):
    # the target is an affine image of the source's atoms under a symmetric
    # positive definite map, reweighted by up to 20%: the optimal plan stays
    # near the map, whose Gaussian potential seeds the first round with every
    # optimal pair, so its duals already price all 30 x 30 pairs
    rng = np.random.default_rng(20)
    layout = BlockLayout((1, 2))
    p = BlockProbabilities(np.array([0.4, 0.9]), layout)
    mu = _weighted_cloud(rng, 30, layout, 0.0, False)
    scale = np.sqrt(p.coordinate_inverse())
    B = rng.normal(size=(3, 3))
    w = mu.weights * rng.uniform(0.8, 1.2, size=30)
    y = (mu.support * scale @ (B @ B.T + 0.5 * np.eye(3)) + rng.normal(size=3)) / scale
    nu = DiscreteMeasure(y, w / w.sum(), layout)
    d, rounds = _count_rounds(monkeypatch, mu, nu, p)
    assert rounds == 1
    assert abs(d - _lp_w2(mu, nu, p)) <= 1e-12 * d
    # seeded from the cost's nearest neighbours instead, it needs more rounds
    monkeypatch.setattr(transport, "_gaussian_potential", lambda *args: None)
    d_unseeded, rounds = _count_rounds(monkeypatch, mu, nu, p)
    assert rounds >= 2 and d_unseeded == pytest.approx(d, rel=1e-12)


@pytest.mark.parametrize("case", ["three_atoms_with_mass", "collinear_atoms_with_mass"])
def test_w2_lp_seeds_from_the_cost_where_the_weighted_fit_is_singular(monkeypatch, case):
    # the weighted fit sees only the atoms with mass: here their covariance
    # is singular, so no potential exists and the first round's candidates
    # come from C itself; the zero-weight atoms lie anywhere
    rng = np.random.default_rng(25)
    mu, nu, p = _lp_instance(19)
    x, w = mu.support.copy(), mu.weights.copy()
    if case == "three_atoms_with_mass":  # no more than d = 3 atoms
        w[3:] = 0.0
    else:
        w[rng.random(60) < 0.5] = 0.0
        x[w > 0] = x[0] + np.outer(rng.normal(size=60), [1.0, -2.0, 0.5])[w > 0]
    mu = DiscreteMeasure(x, w / w.sum(), mu.layout)
    scale = np.sqrt(p.coordinate_inverse())
    assert transport._gaussian_potential(
        mu.support * scale, nu.support * scale, mu.weights, nu.weights) is None
    seeds = []
    lp = transport._transport_lp
    monkeypatch.setattr(transport, "_transport_lp",
                        lambda C, a, b, R0: seeds.append((C, R0)) or lp(C, a, b, R0))
    d, plan = wasserstein2_weighted(mu, nu, p)
    [(C, R0)] = seeds
    assert R0 is C
    assert abs(d - _lp_w2(mu, nu, p)) <= 1e-12 * d
    np.testing.assert_allclose(plan.matrix.sum(axis=1), mu.weights, rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed, zero_frac, duplicates", [(14, 0.0, False), (15, 0.3, True)])
def test_w2_lp_duals_certify_every_pair(monkeypatch, seed, zero_frac, duplicates):
    mu, nu, p = _lp_instance(seed, zero_frac, duplicates)
    calls = _spy_linprog(monkeypatch)
    d, _ = wasserstein2_weighted(mu, nu, p)
    C = cost_matrix(mu, nu, p)
    y = np.append(calls[-1].row_dual, 0.0)
    u, v = y[:60], y[60:]
    # dual feasible on all n x m pairs, not only on the restricted support ...
    assert (C - u[:, None] - v[None, :]).min() >= -1e-12 * max(1.0, C.max())
    # ... and the dual objective equals the plan's cost: the plan is optimal
    assert mu.weights @ u + nu.weights @ v == pytest.approx(d * d, rel=1e-12)


def test_w2_lp_failure_on_any_round_raises(monkeypatch):
    from scipy.optimize._highspy._core import HighsModelStatus

    mu, nu, p = _bimodal_lp_instance(18)
    _, rounds = _count_rounds(monkeypatch, mu, nu, p)
    assert rounds >= 2
    forward = transport.linprog
    nan_duals = SimpleNamespace(row_dual=[np.nan] * 109, col_value=[])
    for fail_at, (bad, match) in itertools.product(range(rounds), [
            ("status", "status Infeasible"), ("duals", "non-finite duals")]):
        seen = []

        def failing(h):
            status, sol = forward(h)
            if len(seen) == fail_at:
                status, sol = ((HighsModelStatus.kInfeasible, sol) if bad == "status"
                               else (status, nan_duals))
            seen.append(h.getNumCol())
            return status, sol

        with monkeypatch.context() as mp:
            mp.setattr(transport, "linprog", failing)
            with pytest.raises(SolverFailure, match=match):
                wasserstein2_weighted(mu, nu, p)
        assert len(seen) == fail_at + 1


def test_highs_model_api_solves_a_two_by_two_transport_lp():
    # _transport_lp drives scipy's private HiGHS binding directly; this pins
    # the calls it makes, so a scipy that moves or changes them fails here
    from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus, _Highs

    a, b = np.array([0.5, 0.5]), np.array([0.3, 0.7])
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    rhs = np.concatenate([a, b])[:-1]  # the last target row is redundant
    h = _Highs()
    # the three options _transport_lp sets, each checked: an unknown name or
    # a bad value is refused with kError, which _set_option turns into
    # SolverFailure
    for name, value in (("output_flag", False), ("primal_feasibility_tolerance", 1e-10),
                        ("simplex_strategy", 4)):
        assert h.setOptionValue(name, value) == HighsStatus.kOk
    assert h.setOptionValue("no_such_option", 1) == HighsStatus.kError
    assert h.setOptionValue("simplex_strategy", 99) == HighsStatus.kError
    h.addRows(3, rhs, rhs, 0, [], [], [])
    # columns (0,0), (0,1), (1,0), (1,1); target row 1 is the dropped one
    starts = np.array([0, 2, 3, 5], dtype=np.int32)
    index = np.array([0, 2, 0, 1, 2, 1], dtype=np.int32)
    h.addCols(4, C.ravel(), np.zeros(4), np.full(4, np.inf), 6, starts, index, np.ones(6))
    h.run()
    assert h.getModelStatus() == HighsModelStatus.kOptimal
    assert h.modelStatusToString(h.getModelStatus()) == "Optimal"
    sol = h.getSolution()
    # the unique optimum ships as much as it can along the zero-cost diagonal
    np.testing.assert_allclose(sol.col_value, [0.3, 0.2, 0.0, 0.5], rtol=0, atol=1e-12)
    A_eq = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0]], dtype=float)
    res = linprog(C.ravel(), A_eq=A_eq, b_eq=rhs, bounds=(0, None), method="highs")
    np.testing.assert_allclose(sol.row_dual, res.eqlin.marginals, rtol=0, atol=1e-12)


def test_w2_lp_accepts_tiny_negative_weights():
    # DiscreteMeasure accepts weights down to -1e-15; on the LP route such a
    # weight is a negative right-hand side of its marginal row
    rng = np.random.default_rng(17)
    layout = BlockLayout((1, 2))
    p = BlockProbabilities(np.array([0.4, 0.9]), layout)
    mu = _weighted_cloud(rng, 30, layout, 0.0, False)
    nu = _weighted_cloud(rng, 20, layout, 0.0, False)
    for measure, at in ((mu, 3), (nu, 5)):
        w = measure.weights
        w[-1] += w[at] + 1e-16
        w[at] = -1e-16
    mu, nu = (DiscreteMeasure(q.support, q.weights, layout) for q in (mu, nu))
    d, plan = wasserstein2_weighted(mu, nu, p)
    d_lp = _lp_w2(mu, nu, p)
    assert abs(d - d_lp) <= 1e-12 * d_lp + 1e-15
    np.testing.assert_allclose(plan.matrix.sum(axis=1), mu.weights, rtol=0, atol=1e-12)
    np.testing.assert_allclose(plan.matrix.sum(axis=0), nu.weights, rtol=0, atol=1e-12)


def test_cli_transport_lp_failure_exits_2_one_line(tmp_path, monkeypatch, capsys):
    from scipy.optimize._highspy._core import HighsModelStatus

    from blocksplit.cli import main

    mu, nu, _ = _lp_instance(18)
    paths = [tmp_path / "mu.csv", tmp_path / "nu.csv"]
    for path, measure in zip(paths, (mu, nu)):
        write_measure(path, measure)
    monkeypatch.setattr(transport, "linprog",
                        lambda h: (HighsModelStatus.kSolveError, None))
    assert main(["transport"] + [str(path) for path in paths]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "transport LP failed with status Solve error" in err


@pytest.mark.parametrize("option", ["output_flag", "primal_feasibility_tolerance",
                                    "simplex_strategy"])
def test_cli_transport_rejected_highs_option_exits_2_one_line(tmp_path, monkeypatch, capsys,
                                                              option):
    # a scipy whose HiGHS renames or drops an option must not solve on
    # silently without it; simplex_strategy is set after the first round
    from scipy.optimize._highspy import _core

    from blocksplit.cli import main

    class Refusing(_core._Highs):
        def setOptionValue(self, name, value):
            if name == option:
                return _core.HighsStatus.kError
            return super().setOptionValue(name, value)

    mu, nu, _ = _bimodal_lp_instance(18)
    paths = [tmp_path / "mu.csv", tmp_path / "nu.csv"]
    for path, measure in zip(paths, (mu, nu)):
        write_measure(path, measure)
    monkeypatch.setattr(_core, "_Highs", Refusing)
    assert main(["transport"] + [str(path) for path in paths]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert f"HiGHS rejected option {option}=" in err


KERNEL_PIN = """
import sys
import numpy as np
from blocksplit.transport import _scipy_kernel

NAMES = ("scipy.spatial._distance_pybind", "scipy.optimize._lsap",
         "scipy.optimize._highspy._core")
if sys.argv[1] == "kernels-first":
    kernels = [_scipy_kernel(name) for name in NAMES]
    assert not {"scipy", "scipy.optimize", "scipy.spatial"} & set(sys.modules)
    import scipy.optimize
    import scipy.optimize._highspy._core as core
    from scipy.spatial.distance import cdist
else:
    import scipy.optimize
    import scipy.optimize._highspy._core as core
    from scipy.spatial.distance import cdist
    kernels = [_scipy_kernel(name) for name in NAMES]
# one module object per kernel, whichever side loaded it first
assert all(sys.modules[name] is kernel for name, kernel in zip(NAMES, kernels))
distance, lsap, highs = kernels
assert core is highs
# the assignment scipy.optimize exports, input checks and all
assert scipy.optimize.linear_sum_assignment is lsap.linear_sum_assignment
res = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method="highs")
assert res.status == 0 and np.array_equal(res.x, [1.0, 0.0]), res
rng = np.random.default_rng(0)
for d in (1, 2, 50):
    x, y = rng.normal(size=(7, d)), rng.normal(size=(5, d))
    assert cdist(x, y, "sqeuclidean").tobytes() == distance.cdist_sqeuclidean(x, y).tobytes()
"""


def _fresh_python(*args, path=()):
    """Run a fresh interpreter on the package's source, with ``path`` ahead of it."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join([*map(str, path), src, env.get("PYTHONPATH", "")])
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("order", ["kernels-first", "scipy-first"])
def test_scipy_kernels_are_the_modules_scipy_imports(order):
    # a fresh interpreter, so that the order of first loads is the one named
    proc = _fresh_python("-c", KERNEL_PIN, order)
    assert proc.returncode == 0, proc.stderr


KERNEL_RETRY = """
import importlib.machinery
import sys
from blocksplit.transport import _scipy_kernel

# the first extension load fails, as one whose shared libraries scipy's
# package init has not set up yet
real = importlib.machinery.ExtensionFileLoader.exec_module
failed = []

def exec_module(self, module):
    if not failed:
        failed.append(module.__name__)
        raise ImportError("shared libraries not set up")
    real(self, module)

importlib.machinery.ExtensionFileLoader.exec_module = exec_module
lsap = _scipy_kernel("scipy.optimize._lsap")
assert failed == ["scipy.optimize._lsap"], failed
assert "scipy" in sys.modules  # the package init ran before the retry
assert sys.modules["scipy.optimize._lsap"] is lsap
rows, cols = lsap.linear_sum_assignment([[4.0, 1.0], [2.0, 3.0]])
assert cols.tolist() == [1, 0]
"""


def test_scipy_kernel_retries_once_after_scipy_init():
    proc = _fresh_python("-c", KERNEL_RETRY)
    assert proc.returncode == 0, proc.stderr


def _two_point_measure_file(tmp_path):
    layout, _ = _unit_p(2)
    mu = DiscreteMeasure(np.array([[0.0, 1.0], [2.0, 0.0]]), np.array([0.5, 0.5]), layout)
    write_measure(tmp_path / "mu.csv", mu)
    return str(tmp_path / "mu.csv")


def test_missing_scipy_kernel_exits_2_one_line(tmp_path):
    with pytest.raises(BlocksplitError, match=r"scipy\._no_kernel; blocksplit needs scipy>=1\.15"):
        transport._scipy_kernel("scipy._no_kernel")
    # a scipy whose directory lacks the cost-matrix kernel: a stub package
    # ahead of the installed one, in a fresh interpreter
    stub = tmp_path / "stub"
    (stub / "scipy").mkdir(parents=True)
    (stub / "scipy" / "__init__.py").write_text('__version__ = "0.0.stub"\n')
    mu = _two_point_measure_file(tmp_path)
    proc = _fresh_python("-m", "blocksplit.cli", "transport", mu, mu, path=[stub])
    assert proc.returncode == 2
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
    assert "scipy 0.0.stub has no compiled module scipy.spatial._distance_pybind" in proc.stderr
    assert "scipy>=1.15" in proc.stderr


def test_no_scipy_exits_2_one_line(tmp_path, monkeypatch, capsys):
    import importlib.util

    from blocksplit.cli import main

    find_spec = importlib.util.find_spec
    monkeypatch.setattr(importlib.util, "find_spec",
                        lambda name, *a: None if name == "scipy" else find_spec(name, *a))
    monkeypatch.delitem(sys.modules, "scipy.spatial._distance_pybind", raising=False)
    mu = _two_point_measure_file(tmp_path)
    assert main(["transport", mu, mu]) == 2
    err = capsys.readouterr().err
    assert err == "error: scipy is not installed; blocksplit needs scipy>=1.15\n"


def test_coupling_plan_marginal_validation():
    layout, _ = _unit_p(1, dims=(1,))
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]), layout)
    nu = DiscreteMeasure(np.array([[2.0], [3.0]]), np.array([0.25, 0.75]), layout)
    plan = CouplingPlan([0, 1, 1], [1, 0, 1], [0.5, 0.25, 0.25], mu, nu)
    np.testing.assert_array_equal(plan.matrix, [[0.0, 0.5], [0.25, 0.25]])
    # a repeated pair's masses add
    plan = CouplingPlan([0, 1, 1, 1], [1, 0, 1, 0], [0.5, 0.125, 0.25, 0.125], mu, nu)
    np.testing.assert_array_equal(plan.matrix, [[0.0, 0.5], [0.25, 0.25]])
    with pytest.raises(SolverFailure, match="row sums"):
        CouplingPlan([0, 1], [0, 1], [0.7, 0.5], mu, nu)
    with pytest.raises(SolverFailure, match="column sums"):
        CouplingPlan([0, 1], [0, 1], [0.5, 0.5], mu, nu)
    # a marginal 1e-9 off fails the 1e-10 bound, one 1e-11 off passes it
    point = DiscreteMeasure(nu.support, [0.0, 1.0], layout)
    with pytest.raises(SolverFailure):
        CouplingPlan([0, 1], [1, 1], [0.5, 0.5 + 1e-9], mu, point)
    CouplingPlan([0, 1], [1, 1], [0.5, 0.5 + 1e-11], mu, point)
    with pytest.raises(DimensionMismatch):
        CouplingPlan([0, 2], [0, 1], [0.25, 0.75], mu, nu)
    with pytest.raises(DimensionMismatch):
        CouplingPlan([0, 1], [0, 1], [1.0], mu, nu)


def test_distance_to_point_mass_matches_general_solver():
    rng = np.random.default_rng(10)
    layout = BlockLayout((1, 1))
    p = BlockProbabilities(np.array([0.5, 0.5]), layout)
    pts = rng.normal(size=(8, 2))
    mu = DiscreteMeasure.empirical(pts, layout)
    z = np.array([0.3, -0.7])
    closed = distance_to_point_mass(mu, z, p)
    nu = DiscreteMeasure(z[None, :], np.array([1.0]), layout)
    lp, _ = wasserstein2_weighted(mu, nu, p)
    assert closed == pytest.approx(lp, abs=1e-10)


def test_measure_file_round_trip(tmp_path):
    layout = BlockLayout((2, 1))
    pts = np.random.default_rng(11).normal(size=(4, 3))
    w = np.array([0.1, 0.2, 0.3, 0.4])
    mu = DiscreteMeasure(pts, w, layout)
    path = tmp_path / "measure.csv"
    write_measure(path, mu)
    loaded = read_measure(path)
    np.testing.assert_array_equal(loaded.support, pts)
    np.testing.assert_array_equal(loaded.weights, w)
    assert loaded.layout.block_dims == (2, 1)


def test_read_measure_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text('{"n": 2, "dim": 2}\n0.0,0.0\n1.0,1.0\n')
    with pytest.raises(DimensionMismatch):
        read_measure(path)
