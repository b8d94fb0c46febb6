"""Convergence gauges, monotonicity checks, and empirical rate estimation.

A gauge theta maps distances to distances with theta(0) = 0 and
0 < theta(t) < t on (0, t_bar]; distance trajectories certified against a
gauge contract per-step.  The linear family comes from a linear error
bound with modulus kappa: theta(t) = sqrt((1+eps) - tau/kappa^2) * t, the
exact solution of the defining relation with rho(t) = kappa t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blockspace import BlockProbabilities, weighted_norm
from .errors import (
    ConfigError,
    DegenerateSequence,
    DimensionMismatch,
    InadmissibleGauge,
    NoEligibleSamples,
    OutOfDomain,
)
from .splitting import SplittingMap, apply_full

_ADMISSIBILITY_GRID = 1000


@dataclass
class GaugeSpec:
    """A gauge function, linear (factor * t) or tabulated on a grid."""

    kind: str
    factor: float | None = None
    kappa: float | None = None
    tau: float | None = None
    epsilon: float | None = None
    grid_t: np.ndarray | None = None
    grid_theta: np.ndarray | None = None
    t_bar: float = np.inf

    def __post_init__(self):
        if self.kind == "linear":
            if self.factor is None or not 0 < self.factor < 1:
                raise InadmissibleGauge(f"linear gauge needs factor in (0,1), got {self.factor}")
        elif self.kind == "tabulated":
            t = np.asarray(self.grid_t, dtype=float)
            th = np.asarray(self.grid_theta, dtype=float)
            if t.ndim != 1 or t.shape != th.shape or t.shape[0] < 2:
                raise DimensionMismatch("tabulated gauge needs matching 1-D grids of length >= 2")
            if t[0] != 0.0 or th[0] != 0.0:
                raise InadmissibleGauge("tabulated gauge must start at theta(0) = 0")
            if np.any(np.diff(t) <= 0):
                raise InadmissibleGauge("tabulated grid must be strictly increasing")
            self.grid_t, self.grid_theta = t, th
            self.t_bar = float(t[-1])
            fine = np.linspace(t[1] * 1e-6, self.t_bar, _ADMISSIBILITY_GRID)
            vals = np.interp(fine, t, th)
            if np.any(vals <= 0) or np.any(vals >= fine):
                raise InadmissibleGauge("tabulated gauge violates 0 < theta(t) < t on its grid")
        else:
            raise InadmissibleGauge(f"unknown gauge kind {self.kind!r}")

    def theta(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            out = self.factor * t
        else:
            out = np.interp(t, self.grid_t, self.grid_theta)
        return float(out) if out.ndim == 0 else out


def theta_linear(kappa: float, tau: float, epsilon: float = 0.0) -> GaugeSpec:
    """Linear gauge induced by a linear error bound with modulus kappa.

    Solving the defining relation with rho(t) = kappa t gives
    theta(t) = sqrt((1 + epsilon) - tau / kappa^2) * t.  Admissible exactly
    when sqrt(tau / (1 + epsilon)) < kappa < sqrt(tau / epsilon) (upper end
    infinite for epsilon = 0); outside that window the factor leaves (0, 1).
    """
    if kappa <= 0 or tau <= 0 or epsilon < 0:
        raise InadmissibleGauge(
            f"need kappa > 0, tau > 0, epsilon >= 0; got {kappa}, {tau}, {epsilon}"
        )
    inner = (1.0 + epsilon) - tau / kappa**2
    lo = np.sqrt(tau / (1.0 + epsilon))
    hi = np.inf if epsilon == 0 else np.sqrt(tau / epsilon)
    if inner <= 0 or inner >= 1:
        raise InadmissibleGauge(
            f"kappa={kappa} gives factor^2={inner:.6g}; admissible kappa range is ({lo:.6g}, {hi:.6g})"
        )
    factor = float(np.sqrt(inner))
    return GaugeSpec(kind="linear", factor=factor, kappa=float(kappa), tau=float(tau),
                     epsilon=float(epsilon))


def invert_id_minus_theta(gauge: GaugeSpec, s: float, tol: float = 1e-12) -> float:
    """Solve t - theta(t) = s for t.

    Linear gauges invert in closed form, t = s / (1 - factor); tabulated
    gauges bisect on [0, t_bar].  Raises OutOfDomain when s is negative or
    beyond the reachable range.
    """
    if s < 0:
        raise OutOfDomain(f"s must be nonnegative, got {s}")
    if gauge.kind == "linear":
        return float(s / (1.0 - gauge.factor))
    top = gauge.t_bar - gauge.theta(gauge.t_bar)
    if s > top:
        raise OutOfDomain(f"s={s} exceeds t_bar - theta(t_bar) = {top}")
    lo, hi = 0.0, gauge.t_bar
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid - gauge.theta(mid) < s:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol:
            break
    return float(0.5 * (lo + hi))


def theta_iterates(gauge: GaugeSpec, t0: float, count: int) -> np.ndarray:
    """[t0, theta(t0), theta^2(t0), ...] with ``count`` entries."""
    out = np.empty(count)
    t = float(t0)
    for i in range(count):
        out[i] = t
        t = gauge.theta(t)
    return out


def linear_tail_sum(gauge: GaugeSpec, t0: float, start: int) -> float:
    """Closed-form tail sum_{j >= start} theta^j(t0) for linear gauges."""
    if gauge.kind != "linear":
        raise InadmissibleGauge("tail sums in closed form exist for linear gauges only")
    g = gauge.factor
    return float(t0 * g**start / (1.0 - g))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a per-step trajectory check."""

    passed: bool
    first_violation: int | None
    worst_excess: float

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "first_violation": self.first_violation,
            "worst_excess": self.worst_excess,
        }


def check_fejer(distances: np.ndarray, tol_rel: float = 1e-3, tol_abs: float = 0.0) -> CheckResult:
    """Monotone nonincrease up to tolerance: d_{k+1} <= d_k (1 + tol_rel) + tol_abs."""
    d = np.asarray(distances, dtype=float)
    if d.ndim != 1 or d.shape[0] < 2:
        raise DegenerateSequence("need at least two distances")
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    excess = d[1:] - (d[:-1] * (1.0 + tol_rel) + tol_abs)
    bad = np.nonzero(excess > 0)[0]
    return CheckResult(
        passed=bad.size == 0,
        first_violation=int(bad[0]) if bad.size else None,
        worst_excess=float(np.max(excess)),
    )


def check_gauge_monotone(
    distances: np.ndarray,
    gauge: GaugeSpec,
    tol_rel: float = 1e-9,
    tol_abs: float = 0.0,
) -> CheckResult:
    """Per-step gauge contraction: d_{k+1} <= theta(d_k) + tol_rel d_k + tol_abs."""
    d = np.asarray(distances, dtype=float)
    if d.ndim != 1 or d.shape[0] < 2:
        raise DegenerateSequence("need at least two distances")
    if float(d[0]) > gauge.t_bar:
        raise OutOfDomain(f"initial distance {d[0]} exceeds the gauge domain t_bar={gauge.t_bar}")
    excess = d[1:] - (gauge.theta(d[:-1]) + tol_rel * d[:-1] + tol_abs)
    bad = np.nonzero(excess > 0)[0]
    return CheckResult(
        passed=bad.size == 0,
        first_violation=int(bad[0]) if bad.size else None,
        worst_excess=float(np.max(excess)),
    )


@dataclass(frozen=True)
class AsymptoticRegularityResult:
    passed: bool
    tail_mean: float
    fitted_exponent: float | None

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "tail_mean": self.tail_mean,
            "fitted_exponent": self.fitted_exponent,
        }


def check_asymptotic_regularity(
    step_distances: np.ndarray, tail_tol: float = 1e-3
) -> AsymptoticRegularityResult:
    """Vanishing step sizes with summable-trending squares.

    The tail average over the last quarter must drop below ``tail_tol``,
    and a log-log fit of the squared steps against the iteration index
    must show exponent below -1 (so the squares trend summable).  A tail
    that has already vanished numerically passes the trend check outright.
    """
    d = np.asarray(step_distances, dtype=float)
    if d.ndim != 1 or d.shape[0] < 4:
        raise DegenerateSequence("need at least four step distances")
    ntail = max(1, d.shape[0] // 4)
    tail = d[-ntail:]
    tail_mean = float(np.mean(tail))
    tail_ok = tail_mean < tail_tol

    k = np.arange(1, d.shape[0] + 1, dtype=float)
    positive = d > 0
    exponent = None
    if np.count_nonzero(positive) >= 3:
        logs = np.log(d[positive] ** 2)
        logk = np.log(k[positive])
        slope = np.polyfit(logk, logs, 1)[0]
        exponent = float(slope)
        trend_ok = slope < -1.0
    else:
        trend_ok = True  # steps vanished outright
    return AsymptoticRegularityResult(
        passed=bool(tail_ok and trend_ok),
        tail_mean=tail_mean,
        fitted_exponent=exponent,
    )


def estimate_msr_kappa(
    m: SplittingMap,
    samples: np.ndarray,
    c_points: np.ndarray,
    p: BlockProbabilities,
    residual_floor: float = 1e-10,
) -> float:
    """Empirical metric-subregularity modulus over a sample cloud.

    kappa_hat = max over samples of (min_z ||x - z||_p) / ||x - T1 x||,
    skipping samples whose full-block residual sits below ``residual_floor``
    (the ratio is 0/0 noise there).  Raises NoEligibleSamples if nothing
    survives the floor.
    """
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    c_points = np.atleast_2d(np.asarray(c_points, dtype=float))
    residuals = np.linalg.norm(samples - apply_full(m, samples), axis=-1)
    eligible = residuals >= residual_floor
    if not np.any(eligible):
        raise NoEligibleSamples(
            f"all {samples.shape[0]} samples have residual below {residual_floor}"
        )
    xs = samples[eligible]
    res = residuals[eligible]
    dists = np.min(
        np.stack([weighted_norm(xs - z, p) for z in c_points], axis=0), axis=0
    )
    return float(np.max(np.atleast_1d(dists / res)))


@dataclass(frozen=True)
class RateFit:
    """Least-squares geometric fit d_k ~ intercept * c_hat^k."""

    c_hat: float
    log_intercept: float
    num_used: int

    def to_dict(self) -> dict:
        return {"c_hat": self.c_hat, "log_intercept": self.log_intercept, "num_used": self.num_used}


def fit_linear_rate(distances: np.ndarray) -> RateFit:
    """Fit log d_k against k; requires at least five positive entries."""
    d = np.asarray(distances, dtype=float)
    if d.ndim != 1:
        raise DimensionMismatch("distances must be 1-D")
    k = np.arange(d.shape[0], dtype=float)
    mask = d > 0
    if np.count_nonzero(mask) < 5:
        raise DegenerateSequence(
            f"need at least 5 positive distances to fit a rate, got {int(np.count_nonzero(mask))}"
        )
    slope, intercept = np.polyfit(k[mask], np.log(d[mask]), 1)
    return RateFit(c_hat=float(np.exp(slope)), log_intercept=float(intercept),
                   num_used=int(np.count_nonzero(mask)))


@dataclass
class RateReport:
    """Bundle of trajectory checks produced by the rate command."""

    fejer: CheckResult | None = None
    gauge: CheckResult | None = None
    asymptotic: AsymptoticRegularityResult | None = None
    fit: RateFit | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "fejer": None if self.fejer is None else self.fejer.to_dict(),
            "gauge": None if self.gauge is None else self.gauge.to_dict(),
            "asymptotic": None if self.asymptotic is None else self.asymptotic.to_dict(),
            "fit": None if self.fit is None else self.fit.to_dict(),
            "details": self.details,
        }


def check_trajectory(
    cols: dict[str, np.ndarray],
    column: str,
    source: str,
    fejer_tol_rel: float,
    tail_tol: float,
    gauge: dict | None,
) -> RateReport:
    """Every check of a trajectory: the rate command's and the run summary's verdicts.

    ``cols`` maps column names to values, NaN where a cell is empty, as
    ``read_trajectory_csv`` returns them; ``source`` names the trajectory
    in the report.  The distances are the non-empty cells of ``column``.
    They get Fejer monotonicity with ``fejer_tol_rel``, a linear-rate fit
    when at least five are positive, and, when ``gauge`` gives kappa, tau
    and an optional epsilon, the linear gauge check.  ``dw_step``, when it
    has four entries or more, gets asymptotic regularity with ``tail_tol``.
    A missing column, fewer than two distances, or a non-finite or
    negative one raise ConfigError.
    """
    if column not in cols:
        raise ConfigError(f"rate.column: trajectory has no column {column!r}; "
                          f"available: {sorted(cols)}")
    d = cols[column]
    d = d[~np.isnan(d)]
    if d.shape[0] < 2:
        raise ConfigError(f"rate.column: column {column!r} has fewer than two usable entries")
    if not np.isfinite(d).all():
        raise ConfigError(f"rate.column: column {column!r} holds a non-finite distance "
                          f"{float(d[~np.isfinite(d)][0])!r}; distances must be finite")
    if np.any(d < 0):
        raise ConfigError(f"rate.column: column {column!r} holds a negative distance "
                          f"{float(d[d < 0][0])!r}; distances must be nonnegative")

    report = RateReport(details={"column": column, "trajectory": source,
                                 "num_entries": int(d.shape[0])})
    report.fejer = check_fejer(d, tol_rel=fejer_tol_rel)
    try:
        report.fit = fit_linear_rate(d)
    except DegenerateSequence:
        report.fit = None

    dw = cols.get("dw_step")
    if dw is not None:
        dw = dw[~np.isnan(dw)]
        if dw.shape[0] >= 4:
            report.asymptotic = check_asymptotic_regularity(dw, tail_tol=tail_tol)

    if gauge is not None:
        if gauge.get("tau") is None:
            raise ConfigError("rate.gauge.tau: required alongside kappa")
        spec = theta_linear(float(gauge["kappa"]), float(gauge["tau"]),
                            float(gauge.get("epsilon", 0.0) or 0.0))
        report.gauge = check_gauge_monotone(d, spec, tol_rel=1e-3)
        report.details["gauge_factor"] = spec.factor
    return report
