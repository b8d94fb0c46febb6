"""Exact weighted transport distances, dual solver routes, measure files."""

import itertools
import os
import subprocess
import sys
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
    distance_to_set_mixture,
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
    """A 60 x 50 weighted pair, which takes the LP route in several rounds."""
    rng = np.random.default_rng(seed)
    layout = BlockLayout((1, 2))
    p = BlockProbabilities(np.array([0.4, 0.9]), layout)
    mu = _weighted_cloud(rng, 60, layout, zero_frac, duplicates)
    return mu, _weighted_cloud(rng, 50, layout, zero_frac, duplicates), p


def test_w2_lp_solves_restricted_rounds_through_module_linprog(monkeypatch):
    from scipy.optimize._highspy import _core

    mu, nu, p = _lp_instance(14)
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
    assert sizes and runs == sizes
    assert sizes[0] < 60 * 50
    # every round adds at least one pair to the one model ...
    assert all(a < b for a, b in zip(sizes, sizes[1:]))
    for call in calls:
        pairs = _column_pairs(call, 60, 50)
        # ... never a pair it already holds, and each column costs its pair
        assert np.unique(pairs).size == pairs.size
        np.testing.assert_array_equal(call.cost, C[pairs])
    assert d == pytest.approx(d_dense, rel=1e-12)


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

    mu, nu, p = _lp_instance(16)
    with monkeypatch.context() as mp:
        calls = _spy_linprog(mp)
        wasserstein2_weighted(mu, nu, p)
        rounds = len(calls)
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
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

    a, b = np.array([0.5, 0.5]), np.array([0.3, 0.7])
    C = np.array([[0.0, 1.0], [1.0, 0.0]])
    rhs = np.concatenate([a, b])[:-1]  # the last target row is redundant
    h = _Highs()
    h.setOptionValue("output_flag", False)
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


KERNEL_PIN = """
import sys
import numpy as np
from blocksplit.transport import _scipy_kernel

NAMES = ("scipy.spatial._distance_pybind", "scipy.optimize._lsap",
         "scipy.optimize._highspy._core")
if sys.argv[1] == "kernels-first":
    kernels = [_scipy_kernel(name) for name in NAMES]
    assert "scipy.optimize" not in sys.modules and "scipy.spatial" not in sys.modules
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


@pytest.mark.parametrize("order", ["kernels-first", "scipy-first"])
def test_scipy_kernels_are_the_modules_scipy_imports(order):
    # a fresh interpreter, so that the order of first loads is the one named
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", KERNEL_PIN, order],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_missing_scipy_kernel_exits_2_one_line(tmp_path, monkeypatch, capsys):
    import scipy

    from blocksplit.cli import main

    with pytest.raises(BlocksplitError, match=r"scipy\._no_kernel; blocksplit needs scipy>=1\.15"):
        transport._scipy_kernel("scipy._no_kernel")
    # a scipy whose spatial directory lacks the cost-matrix kernel
    monkeypatch.delitem(sys.modules, "scipy.spatial._distance_pybind")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    layout, _ = _unit_p(2)
    mu = DiscreteMeasure(np.array([[0.0, 1.0], [2.0, 0.0]]), np.array([0.5, 0.5]), layout)
    write_measure(tmp_path / "mu.csv", mu)
    assert main(["transport", str(tmp_path / "mu.csv"), str(tmp_path / "mu.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert "no compiled module scipy.spatial._distance_pybind" in err
    assert "scipy>=1.15" in err


def test_coupling_plan_marginal_validation():
    layout, _ = _unit_p(1, dims=(1,))
    mu = DiscreteMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]), layout)
    nu = DiscreteMeasure(np.array([[2.0]]), np.array([1.0]), layout)
    CouplingPlan(np.array([[0.5], [0.5]]), mu, nu)
    with pytest.raises(SolverFailure):
        CouplingPlan(np.array([[0.7], [0.5]]), mu, nu)


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


def test_distance_to_set_mixture_picks_nearest():
    layout, p = _unit_p(1, dims=(1,))
    mu = DiscreteMeasure(np.array([[0.0], [10.0]]), np.array([0.5, 0.5]), layout)
    points = np.array([[0.0], [9.0]])
    # each atom ships to its nearest candidate: sqrt(0.5 * 0 + 0.5 * 1)
    assert distance_to_set_mixture(mu, points, p) == pytest.approx(np.sqrt(0.5))


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
