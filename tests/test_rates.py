"""Gauges, trajectory checks, and rate fits."""

import numpy as np
import pytest

from blocksplit.errors import DegenerateSequence, InadmissibleGauge
from blocksplit.rates import (
    STEP_TOL_REL,
    TAIL_TOL,
    check_asymptotic_regularity,
    check_fejer,
    check_gauge_monotone,
    check_trajectory,
    fit_linear_rate,
    theta_linear,
)


def test_theta_linear_factor_formula():
    g = theta_linear(kappa=2.0, tau=2.0, epsilon=0.0)
    assert g == pytest.approx(np.sqrt(0.5))
    assert g * 3.0 == pytest.approx(3.0 * np.sqrt(0.5))


def test_theta_linear_defining_relation_round_trip():
    # the factor solves kappa * sqrt(((1+eps) t^2 - theta^2) / tau) = t
    for kappa, tau, eps in ((2.0, 2.0, 0.0), (1.5, 1.2, 0.3), (3.0, 5.0, 0.1)):
        g = theta_linear(kappa, tau, eps)
        t = 0.7
        th = g * t
        lhs = kappa * np.sqrt(((1 + eps) * t**2 - th**2) / tau)
        assert lhs == pytest.approx(t, abs=1e-12)


def test_theta_linear_admissibility_window():
    # admissible iff sqrt(tau/(1+eps)) < kappa < sqrt(tau/eps)
    with pytest.raises(InadmissibleGauge):
        theta_linear(kappa=1.0, tau=2.0, epsilon=0.0)  # kappa^2 <= tau
    with pytest.raises(InadmissibleGauge):
        theta_linear(kappa=10.0, tau=2.0, epsilon=0.5)  # factor >= 1
    theta_linear(kappa=1.9, tau=2.0, epsilon=0.5)  # inside the window
    with pytest.raises(InadmissibleGauge):
        theta_linear(kappa=-1.0, tau=1.0)


def test_theta_linear_refuses_a_factor_that_rounds_to_one():
    # 1 - tau/kappa^2 is below 1 inside the window, but rounds to 1 in
    # float64 once tau/kappa^2 <= 2^-54: kappa >= 2^27 sqrt(tau), about 1.34e8
    assert theta_linear(kappa=1e8, tau=1.0) < 1.0
    with pytest.raises(InadmissibleGauge) as refused:
        theta_linear(kappa=1e9, tau=1.0)
    message = str(refused.value)
    assert "rounds to 1 in float64" in message and "inf" not in message
    assert "below about 1.34218e+08" in message
    assert theta_linear(kappa=2.0**27 * 0.999, tau=1.0) < 1.0
    with pytest.raises(InadmissibleGauge, match="below about 2.68435e"):
        theta_linear(kappa=2.0**28, tau=4.0)


def test_check_fejer():
    good = np.array([1.0, 0.8, 0.8, 0.5, 0.2])
    assert check_fejer(good).passed
    bad = np.array([1.0, 0.8, 0.9, 0.5])
    res = check_fejer(bad)
    assert not res.passed
    assert res.first_violation == 1  # the 0.8 -> 0.9 step
    assert res.worst_excess == pytest.approx(0.1 - 0.8 * 1e-3)
    # relative tolerance forgives shallow bumps
    assert check_fejer(np.array([1.0, 1.0005]), tol_rel=1e-3).passed


def test_check_gauge_monotone_exact_geometric():
    g = theta_linear(2.0, 2.0, 0.0)
    # build by iterated multiplication so floats match the gauge exactly
    d = [1.0]
    for _ in range(39):
        d.append(g * d[-1])
    assert check_gauge_monotone(range(40), d, g).passed


def test_check_gauge_monotone_detects_slower_decay():
    g = theta_linear(2.0, 2.0, 0.0)
    slower = (g + 2e-3) ** np.arange(30)  # above the slack of 1e-3 per step
    res = check_gauge_monotone(range(30), slower, g)
    assert not res.passed
    assert res.first_violation == 0


# At the scale of feas_draws' distances, where its recorded Fejer failure is
# an excess of about 2e-34, the bound must be rounded as written: at this d0,
# d0 + tol_rel * d0 rounds to another float than d0 * (1 + tol_rel), and
# factor * d0 + tol_rel * d0 to another than d0 * (factor + tol_rel).
D0 = 1.004e-24


def test_check_fejer_bound_rounds_as_d_times_one_plus_tol_rel():
    tol_rel = 1e-3
    bound = D0 * (1.0 + tol_rel)
    assert bound != D0 + tol_rel * D0
    assert check_fejer(np.array([D0, bound]), tol_rel=tol_rel).passed
    res = check_fejer(np.array([D0, np.nextafter(bound, np.inf)]), tol_rel=tol_rel)
    assert not res.passed and res.first_violation == 0


def test_check_gauge_bound_rounds_as_d_times_factor_plus_tol_rel():
    g = theta_linear(2.0, 2.0, 0.0)
    tol_rel = 1e-9
    bound = D0 * (g + tol_rel)
    assert bound != g * D0 + tol_rel * D0
    assert check_gauge_monotone([0, 1], np.array([D0, bound]), g, tol_rel=tol_rel).passed
    res = check_gauge_monotone([0, 1], np.array([D0, np.nextafter(bound, np.inf)]), g, tol_rel=tol_rel)
    assert not res.passed and res.first_violation == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_check_fejer_worst_excess_is_d_times_one_plus_step_tol_rel(seed):
    # Fejer is the slack rule at factor 1, and its bound keeps its bits
    d = list(np.random.default_rng(seed).uniform(0.5, 1.5, 200))
    excess = max(after - t * (1.0 + STEP_TOL_REL) for t, after in zip(d, d[1:]))
    assert check_fejer(d).worst_excess == excess


def test_a_gauge_at_factor_one_is_the_fejer_check():
    d = list(np.random.default_rng(3).uniform(0.5, 1.5, 100))
    assert check_gauge_monotone(range(100), d, 1.0) == check_fejer(d)


def test_check_fejer_reports_a_degenerate_sequence_before_a_negative_distance():
    with pytest.raises(DegenerateSequence):
        check_fejer(np.array([-1.0]))
    with pytest.raises(ValueError, match="nonnegative"):
        check_fejer(np.array([1.0, -1.0]))


def test_asymptotic_regularity_summable_steps():
    k = np.arange(1, 4001, dtype=float)
    res = check_asymptotic_regularity(1.0 / k)
    assert res.passed
    assert res.fitted_exponent == pytest.approx(-2.0, abs=1e-6)


def test_asymptotic_regularity_rejects_constant():
    res = check_asymptotic_regularity(np.full(100, 0.5))
    assert not res.passed


def test_asymptotic_regularity_rejects_borderline_decay():
    # 1/sqrt(k): squared steps decay like 1/k, exponent -1 is not < -1
    k = np.arange(1, 100001, dtype=float)
    res = check_asymptotic_regularity(1.0 / np.sqrt(k))
    assert not res.passed
    assert res.fitted_exponent == pytest.approx(-1.0, abs=1e-6)


def test_asymptotic_regularity_all_zero_passes():
    res = check_asymptotic_regularity(np.zeros(20))
    assert res.passed
    assert res.fitted_exponent is None


def test_fit_linear_rate_exact_geometric():
    d = 3.0 * 0.8 ** np.arange(30)
    fit = fit_linear_rate(np.arange(30), d)
    assert fit.c_hat == pytest.approx(0.8, abs=1e-12)
    assert fit.log_intercept == pytest.approx(np.log(3.0), abs=1e-10)
    assert fit.num_used == 30


def test_fit_linear_rate_needs_five_positive():
    with pytest.raises(DegenerateSequence):
        fit_linear_rate(np.arange(6), np.array([1.0, 0.5, 0.0, 0.0, 0.0, 0.0]))


# A column filled every s steps of k is held to factor^s per entry.
FACTOR = 0.9


def _strided(values, stride):
    """Trajectory columns with ``values`` as d_target on rows k = 0, stride, 2 stride, ..."""
    return {"k": [float(stride * i) for i in range(len(values))], "d_target": list(values)}


def _checked(cols):
    return check_trajectory(cols, "d_target", "--column", "t.csv", FACTOR)


def _gauge(cols):
    return _checked(cols).gauge


# Each per-step rule with its library call, its verdict in the command's
# report, and distances that change by a given amount over the rule's factor.
ONE_SLACK = {
    "fejer": (lambda d, **tol: check_fejer(d, **tol), lambda report: report.fejer,
              lambda over: [(1.0 + over) ** k for k in range(30)]),
    "gauge": (lambda d, **tol: check_gauge_monotone(range(len(d)), d, FACTOR, **tol),
              lambda report: report.gauge, lambda over: [(FACTOR + over) ** k for k in range(30)]),
}


@pytest.mark.parametrize("rule", ONE_SLACK)
def test_the_library_and_the_command_judge_a_step_by_one_slack(rule):
    library, command, distances = ONE_SLACK[rule]
    assert STEP_TOL_REL == 1e-3
    for over, passed in ((0.9 * STEP_TOL_REL, True), (1.1 * STEP_TOL_REL, False)):
        d = distances(over)
        assert library(d).passed is passed
        assert command(_checked(_strided(d, 1))).passed is passed
    # the library's tol_rel is that slack
    assert not library(distances(0.9 * STEP_TOL_REL), tol_rel=0.8 * STEP_TOL_REL).passed


def test_the_library_and_the_command_judge_a_tail_by_one_bound():
    assert TAIL_TOL == 1e-3
    shape = [k ** -2.0 for k in range(1, 21)]  # squared steps trend summable
    tail = sum(shape[-5:]) / 5  # the mean of the last quarter
    for fraction, passed in ((0.99, True), (1.01, False)):
        dw = [v * fraction * TAIL_TOL / tail for v in shape]
        assert check_asymptotic_regularity(dw).passed is passed
        cols = {"k": [float(k) for k in range(20)], "d_target": [0.9 ** k for k in range(20)],
                "dw_step": dw}
        assert _checked(cols).asymptotic.passed is passed


def test_gauge_on_a_strided_column_uses_factor_to_the_step_of_k():
    # c = factor + 0.001 contracts by c^5 = 0.5935 per entry, more than the
    # per-step factor 0.9 allows over 5 steps (0.9^5 = 0.5905, plus 1e-3)
    c = FACTOR + 0.001
    res = _gauge(_strided([c ** (5 * i) for i in range(30)], 5))
    assert not res.passed and res.first_violation == 0
    assert not check_gauge_monotone(range(0, 150, 5), [c ** k for k in range(0, 150, 5)], FACTOR).passed


@pytest.mark.parametrize("stride", [1, 5])
def test_gauge_passes_a_sequence_contracting_by_the_factor(stride):
    ks = range(0, 40 * stride, stride)
    assert _gauge(_strided([FACTOR ** k for k in ks], stride)).passed
    assert check_gauge_monotone(ks, [FACTOR ** k for k in ks], FACTOR).passed


# The fits work on Python floats with math.fsum sums; np.polyfit is the
# reference.  Both solve the same least-squares line and agree to about
# 1e-14 relative (the intercept at k = 0 is the least well conditioned);
# the bound is well above that and far below a printed digit.
FIT_REL = 1e-12


@pytest.mark.parametrize("seed", range(6))
def test_fits_match_numpy_polyfit(seed):
    rng = np.random.default_rng(seed)
    n, stride = int(rng.integers(20, 300)), int(rng.integers(1, 8))
    k = stride * np.arange(n) + int(rng.integers(0, 10))
    noise = np.exp(rng.normal(0.0, 0.1, n))
    d = rng.uniform(2.0, 10.0) * rng.uniform(0.9, 0.999) ** k * noise
    zeros = rng.choice(n, n // 10, replace=False)
    d[zeros] = 0.0
    fit = fit_linear_rate(k.tolist(), d.tolist())
    used = d > 0
    slope, intercept = np.polyfit(k[used], np.log(d[used]), 1)
    assert fit.num_used == np.count_nonzero(used)
    assert fit.c_hat == pytest.approx(np.exp(slope), rel=FIT_REL)
    assert fit.log_intercept == pytest.approx(intercept, rel=FIT_REL)

    steps = rng.uniform(0.5, 5.0) * np.arange(1, n + 1) ** -rng.uniform(0.3, 2.0) * noise
    steps[zeros] = 0.0
    res = check_asymptotic_regularity(steps.tolist())
    used = steps > 0
    exponent = np.polyfit(np.log(np.arange(1, n + 1)[used]), np.log(steps[used] ** 2), 1)[0]
    assert res.fitted_exponent == pytest.approx(exponent, rel=FIT_REL)
    assert res.tail_mean == pytest.approx(np.mean(steps[-(n // 4):]), rel=FIT_REL)


def test_fit_refuses_distances_that_all_share_one_k():
    with pytest.raises(DegenerateSequence):
        fit_linear_rate([3.0] * 6, [1.0, 0.5, 0.25, 0.1, 0.05, 0.01])
