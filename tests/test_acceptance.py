"""End-to-end acceptance checks.

One test per headline guarantee, each at its stated tolerance and (where
stated) time budget.  Every test prints a single ``ACCEPT nn PASS`` line
on success (visible with ``pytest -s``); the per-test pytest verdict is
the pass/fail record.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest

from blocksplit.blockspace import BlockLayout, BlockProbabilities, block_probabilities
from blocksplit.cli import main
from blocksplit.config import BlockSubsetScheme
from blocksplit.markov import init_ensemble, run, uniform_box_sampler
from blocksplit.operators import (
    BlockFunction,
    SmoothCoupling,
    coupling_quadratic,
    gd_step_bound,
    gd_violation_bound,
    h_indicator_box,
    h_l1,
    h_quadratic,
    h_zero,
)
from blocksplit.problems import (
    ConvexSet,
    counterexample2d,
    deterministic_reference,
    feasibility,
)
from blocksplit.rates import (
    check_asymptotic_regularity,
    check_fejer,
    check_gauge_monotone,
    fit_linear_rate,
    theta_linear,
)
from blocksplit.regularity import (
    Region,
    certify_aafne_in_expectation,
    certify_paracontraction_in_expectation,
    certify_pointwise_aafne,
    verify_expectation_identities,
)
from blocksplit.splitting import (
    SeparableTerm,
    SplittingMap,
    apply_T,
    apply_full,
    composite_constants,
    expectation_constants,
)
from blocksplit.transport import (
    DiscreteMeasure,
    cost_matrix,
    wasserstein2_weighted,
)
from law_oracle import UniformBoxLaw, law_rate

SINGLETONS = BlockSubsetScheme(((0,), (1,)), (0.5, 0.5))
SQUARE = Region(np.array([-10.0, -10.0]), np.array([10.0, 10.0]))


def _accept(n, msg):
    print(f"ACCEPT {n:02d} PASS: {msg}")


def _brute_force_w2(mu, nu, p):
    """Minimum over all permutations; independent oracle for small n."""
    C = cost_matrix(mu, nu, p)
    n = mu.num_points
    best = min(
        sum(C[i, perm[i]] for i in range(n)) / n
        for perm in itertools.permutations(range(n))
    )
    return float(np.sqrt(best))


def test_01_single_block_update_expands_off_the_diagonal():
    budget = 5.0
    t0 = time.monotonic()
    m = counterexample2d(0.25).build_map("fb", SINGLETONS)
    report = certify_pointwise_aafne(
        lambda x: apply_T(m, 0, x), SQUARE,
        alpha=0.5, violation=0.0, num_pairs=10_000, seed=11, adversarial=True,
    )
    assert not report.passed
    wx, wy = np.asarray(report.witness_x), np.asarray(report.witness_y)
    moved = np.linalg.norm(apply_T(m, 0, wx) - apply_T(m, 0, wy))
    assert moved > np.linalg.norm(wx - wy)
    x, y = np.array([0.0, 0.0]), np.array([0.0, 1.0])
    ratio = np.linalg.norm(apply_T(m, 0, x) - apply_T(m, 0, y)) / np.linalg.norm(x - y)
    assert abs(ratio - math.sqrt(1.25)) <= 1e-12
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _accept(1, f"witness expands by {moved / np.linalg.norm(wx - wy):.4f}, "
               f"frozen pair ratio sqrt(1.25) within 1e-12, {elapsed:.2f}s")


def test_02_firm_nonexpansiveness_on_lines_full_updates_and_in_expectation():
    budget = 30.0
    t0 = time.monotonic()
    # restricted to a horizontal line the single-block update is 1/2-fne
    for t, z in zip((0.1, 0.25, 0.45), (-3.0, 1.5, 0.7)):
        m = counterexample2d(t).build_map("fb", SINGLETONS)
        line = Region(np.array([-10.0, z]), np.array([10.0, z]))
        r = certify_pointwise_aafne(
            lambda x: apply_T(m, 0, x), line,
            alpha=0.5, violation=0.0, num_pairs=10_000, seed=23, adversarial=True,
        )
        assert r.passed, f"line restriction failed at t={t}: margin {r.margin}"
    # the all-blocks update satisfies the composite constant with no violation
    for t in (0.1, 0.2):
        m = counterexample2d(t).build_map("fb", SINGLETONS)
        c = composite_constants(m)
        assert c.alpha == 2.0 / 3.0 and c.violation == 0.0
        r = certify_pointwise_aafne(
            lambda x: apply_full(m, x), SQUARE,
            alpha=c.alpha, violation=c.violation,
            num_pairs=10_000, seed=29, adversarial=True,
        )
        assert r.passed, f"full update failed at t={t}: margin {r.margin}"
    # in expectation over singleton blocks, in the probability-weighted norm
    for t in (0.1, 0.2):
        m = counterexample2d(t).build_map("fb", SINGLETONS)
        p = block_probabilities(m.scheme, m.layout)
        ec = expectation_constants(composite_constants(m), p)
        assert ec.alpha == 2.0 / 3.0 and ec.violation == 0.0
        r = certify_aafne_in_expectation(
            m, SQUARE, alpha=ec.alpha, violation=ec.violation,
            num_pairs=10_000, seed=37, adversarial=True,
        )
        assert r.passed and r.margin <= 1e-10, f"t={t}: margin {r.margin}"
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _accept(2, f"line, full-update, and expectation certificates all pass, {elapsed:.2f}s")


def _random_scheme(rng, num_blocks):
    """Random covering subset family with exactly normalized probabilities."""
    while True:
        subsets = []
        for _ in range(int(rng.integers(2, 5))):
            mask = rng.random(num_blocks) < 0.5
            if not mask.any():
                mask[int(rng.integers(num_blocks))] = True
            subsets.append(tuple(int(j) for j in np.flatnonzero(mask)))
        subsets = list(dict.fromkeys(subsets))
        if set().union(*map(set, subsets)) != set(range(num_blocks)):
            continue
        raw = rng.random(len(subsets)) + 0.1
        probs = raw / raw.sum()
        probs[-1] = 1.0 - probs[:-1].sum()
        return BlockSubsetScheme(tuple(subsets), tuple(float(q) for q in probs))


def test_03_expectation_identities_across_random_schemes():
    rng = np.random.default_rng(31)
    layout = BlockLayout((2, 1, 3, 2))
    A = rng.normal(size=(8, 8))
    coupling = coupling_quadratic(layout, A @ A.T + 0.5 * np.eye(8), b=rng.normal(size=8))
    term = SeparableTerm(layout, [
        h_quadratic(0.7),
        h_l1(0.3),
        h_indicator_box(np.full(3, -1.0), np.full(3, 1.0)),
        h_zero(),
    ])
    region = Region(np.full(8, -4.0), np.full(8, 4.0))
    for trial in range(3):
        scheme = _random_scheme(rng, 4)
        m = SplittingMap("fb", coupling, term, np.full(4, 0.05), scheme, layout)
        r = verify_expectation_identities(m, region, num_pairs=1000,
                                          seed=100 + trial, tolerance=1e-9)
        assert r.passed, f"scheme {scheme.subsets}: margin {r.margin}"
    _accept(3, "both identities hold to 1e-9 on 1000 pairs for three random schemes")


def test_04_transport_distance_matches_permutation_and_lp_oracles():
    budget = 10.0
    t0 = time.monotonic()
    rng = np.random.default_rng(41)
    sizes = [6] + [int(rng.integers(1, 7)) for _ in range(99)]
    for n in sizes:
        nb = int(rng.integers(1, 3))
        layout = BlockLayout(tuple(int(d) for d in rng.integers(1, 3, size=nb)))
        p = BlockProbabilities(rng.uniform(0.2, 1.0, size=nb), layout)
        mu = DiscreteMeasure(rng.normal(size=(n, layout.total_dim)), np.full(n, 1.0 / n), layout)
        nu = DiscreteMeasure(rng.normal(size=(n, layout.total_dim)), np.full(n, 1.0 / n), layout)
        d, _ = wasserstein2_weighted(mu, nu, p)
        assert abs(d - _brute_force_w2(mu, nu, p)) <= 1e-10
    # same target measure with its last atom split in two forces the LP route
    layout = BlockLayout((1, 1))
    for n in [8] + [int(rng.integers(2, 9)) for _ in range(11)]:
        p = BlockProbabilities(rng.uniform(0.2, 1.0, size=2), layout)
        mu = DiscreteMeasure(rng.normal(size=(n, 2)), np.full(n, 1.0 / n), layout)
        pts = rng.normal(size=(n, 2))
        nu = DiscreteMeasure(pts, np.full(n, 1.0 / n), layout)
        w = np.full(n + 1, 1.0 / n)
        w[-2:] = 1.0 / (2 * n)
        nu_split = DiscreteMeasure(np.vstack([pts, pts[-1:]]), w, layout)
        d_assign, _ = wasserstein2_weighted(mu, nu, p)
        d_lp, _ = wasserstein2_weighted(mu, nu_split, p)
        assert abs(d_assign - d_lp) <= 1e-10
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _accept(4, f"100 permutation-oracle instances and 12 LP-route instances agree, {elapsed:.2f}s")


def test_05_randomized_ensemble_contracts_to_the_minimizer():
    budget = 60.0
    t0 = time.monotonic()
    prob = counterexample2d(0.25)
    m = prob.build_map("fb", SINGLETONS)
    ensemble = init_ensemble(m, uniform_box_sampler(prob.region.lo, prob.region.hi),
                             500, master_seed=20250817)
    result = run(ensemble, m, 300, dw_step_every=1, target=np.zeros(2))
    d = result.trajectory["d_target"]
    dw = result.trajectory["dw_step"][1:]
    assert d[-1] <= 1e-3
    assert check_fejer(d, tol_rel=1e-3).passed
    assert check_asymptotic_regularity(d).passed
    assert check_asymptotic_regularity(dw).passed
    fit = fit_linear_rate(result.trajectory["k"], d)
    # The law's exact rate (tests/law_oracle.py) is 0.918325.  The band on
    # log c_hat is the fit's own bias, its distance from that rate when fitted
    # to the law's exact d_target over k = 0..300, plus 3.29 standard
    # deviations of log c_hat across seeds (two-sided 1e-3 under a normal
    # approximation).  That deviation is taken to first order in the sampling
    # error of 500 chains, from the law's exact second and fourth moments
    # (UniformBoxLaw.log_rate_sd: 0.00132, so c_hat within about +-0.0040).
    rate = law_rate(m, np.zeros(2))
    assert rate == pytest.approx(0.918325, abs=5e-7)
    law = UniformBoxLaw(m, np.zeros(2), prob.region.lo, prob.region.hi)
    bias = abs(math.log(fit_linear_rate(range(301), np.sqrt(law.mean_sq(300))).c_hat / rate))
    band = bias + 3.29 * law.log_rate_sd(300, 500)
    assert abs(math.log(fit.c_hat / rate)) <= band
    elapsed = time.monotonic() - t0
    assert elapsed < budget
    _accept(5, f"d_final={d[-1]:.3e}, Fejer and vanishing steps hold, "
               f"c_hat={fit.c_hat:.4f} (law's rate {rate:.6f}, log band {band:.2e}), {elapsed:.2f}s")


def test_06_inconsistent_feasibility_ensemble_matches_enumerated_reference():
    sets = [ConvexSet("point", {"point": np.array([0.0, 0.0])}),
            ConvexSet("point", {"point": np.array([2.0, 0.0])})]
    prob = feasibility(sets, coupling_kind="sqdist")
    m = prob.build_map("dr", SINGLETONS, steps=(1.0, 1.0))
    p = block_probabilities(SINGLETONS, prob.layout)
    # the reference is verified on the dynamics, not assumed: the T1 fixed
    # point z is fixed by every outcome's own update, so the one-atom measure
    # at z is invariant; its two blocks carry the pair of mutually nearest
    # points
    z = deterministic_reference(m, np.zeros(prob.layout.total_dim))
    for i in range(m.scheme.num_outcomes):
        np.testing.assert_allclose(apply_T(m, i, z), z, rtol=0, atol=1e-15)
    np.testing.assert_allclose(z, [2.0 / 3.0, 0.0, 4.0 / 3.0, 0.0], rtol=0, atol=1e-12)
    reference = DiscreteMeasure(z[None, :], np.ones(1), prob.layout)
    ensemble = init_ensemble(m, uniform_box_sampler(prob.region.lo, prob.region.hi),
                             1000, master_seed=4242)
    run(ensemble, m, 2000)
    empirical = DiscreteMeasure.empirical(ensemble.states, prob.layout)
    d, _ = wasserstein2_weighted(empirical, reference, p)
    assert d <= 0.05
    _accept(6, f"long-run ensemble is {d:.3e} from the verified common fixed point "
               f"(bound 0.05)")


def test_07_composite_constants_match_closed_forms():
    c = composite_constants(counterexample2d(0.25).build_map("dr", SINGLETONS))
    assert c.alpha == 2.0 / 3.0
    assert c.violation == 0.0
    # violation composes as tau_f + tau_h + tau_f * tau_h
    layout = BlockLayout((1, 1))
    rng = np.random.default_rng(71)
    for _ in range(3):
        tau_f, tau_h = rng.uniform(0.05, 0.6, size=2)
        coupling = SmoothCoupling(
            layout=layout,
            gradient=lambda x: np.zeros_like(x),
            lipschitz=np.zeros(2),
            hypomono=np.full(2, tau_f),
            convex=False,
            hessian_block=lambda j: np.zeros((1, 1)),
        )
        soft = BlockFunction(prox=lambda v, lam: v, tau=float(tau_h), convex=False)
        m = SplittingMap("dr", coupling, SeparableTerm(layout, [soft, soft]),
                         np.ones(2), SINGLETONS, layout)
        expected = tau_f + tau_h + tau_f * tau_h
        assert abs(composite_constants(m).violation - expected) <= 1e-15
    # gradient-step bounds against hand-derived values
    pair = coupling_quadratic(layout, 2.0 * np.ones((2, 2)))
    bounds = gd_step_bound(pair)
    assert abs(bounds.per_block[0] - 0.125) <= 1e-12
    assert abs(bounds.per_block[1] - 0.125) <= 1e-12
    assert abs(bounds.global_convex - 0.25) <= 1e-12
    hypo = SmoothCoupling(layout=BlockLayout((1,)), gradient=lambda x: x,
                          lipschitz=np.array([4.0]), hypomono=np.array([3.0]), convex=False)
    assert abs(gd_step_bound(hypo).per_block[0] - 1.0 / 16.0) <= 1e-12
    assert gd_violation_bound(pair, np.array([0.2, 0.2])) == 0.0
    assert abs(gd_violation_bound(pair, np.array([0.1, 0.2])) - 0.04 * 16.0 / 0.5) <= 1e-12
    mild = SmoothCoupling(layout=BlockLayout((1,)), gradient=lambda x: x,
                          lipschitz=np.array([2.0]), hypomono=np.array([1.5]), convex=False)
    assert abs(gd_violation_bound(mild, np.array([0.3])) - 1.62) <= 1e-12
    _accept(7, "alpha=2/3 exact, violation product rule to 1e-15, step bounds to 1e-12")


def test_08_gauge_round_trips_and_monotonicity_gates():
    for kappa, tau, eps in [(2.0, 2.0, 0.0), (1.7, 1.3, 0.25), (3.0, 4.0, 0.1)]:
        gauge = theta_linear(kappa, tau, eps)
        ts = np.linspace(0.05, 25.0, 101)
        theta = gauge * ts
        # theta(t)^2 = (1+eps) t^2 - tau rho_inv(t)^2 must give back rho(t) = kappa t,
        # i.e. kappa * rho_inv(t) = t on the grid
        rho_inv = np.sqrt(((1.0 + eps) * ts**2 - theta**2) / tau)
        assert float(np.max(np.abs(kappa * rho_inv - ts))) <= 1e-10
    gauge = theta_linear(2.0, 2.0, 0.0)
    # d_{i+1} = gauge * d_i, so each step meets the gauge exactly
    d = [5.0]
    for _ in range(39):
        d.append(gauge * d[-1])
    assert check_gauge_monotone(range(40), d, gauge).passed
    tighter = gauge - 1e-6
    assert not check_gauge_monotone(range(40), d, tighter).passed
    _accept(8, "defining-relation round trip within 1e-10, monotonicity gate is factor-exact")


def test_09_expected_step_strictly_contracts_toward_the_fixed_point():
    prob = counterexample2d(0.25)
    m = prob.build_map("fb", SINGLETONS)
    report = certify_paracontraction_in_expectation(
        m, prob.target_point, SQUARE,
        num_samples=10_000, seed=97, residual_threshold=1e-8,
    )
    assert report.passed
    assert report.margin < 0.0
    assert report.details["num_eligible"] > 0
    _accept(9, f"strict expected contraction on {report.details['num_eligible']} "
               f"samples, worst margin {report.margin:.3e}")


def test_10_identical_seeds_reproduce_trajectories_byte_for_byte(tmp_path):
    doc = {
        "schema_version": 1,
        "problem": {"id": "counterexample2d", "params": {"t": 0.25}},
        "flavor": "fb",
        "scheme": {"subsets": [[0], [1]], "probs": [0.5, 0.5]},
        "steps": [0.25, 0.25],
        "seed": 20260817,
        "run": {"num_chains": 40, "iterations": 60, "dw_step_every": 3},
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(doc))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "trajectory.csv").read_bytes()
    assert len(bytes_a) > 0
    assert bytes_a == (out_b / "trajectory.csv").read_bytes()
    _accept(10, f"two runs agree on all {len(bytes_a)} trajectory bytes")
