"""Convergence gauges, monotonicity checks, rate fits, and the trajectory file.

A gauge theta maps distances to distances; distance trajectories
certified against a gauge contract per-step.  Gauges are linear,
theta(t) = factor * t with factor in (0, 1), so a gauge is its factor, a
float.  The factor comes from a linear error bound with modulus kappa:
theta(t) = sqrt((1+eps) - tau/kappa^2) * t, the exact solution of the
defining relation with rho(t) = kappa t; ``theta_linear`` computes it and
is the one place that checks it lies in (0, 1).

The trajectory CSV that ``run`` writes and ``rate`` checks is read and
written here, beside ``check_trajectory``, so that checking a trajectory
file loads no simulator.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSequence,
    DimensionMismatch,
    InadmissibleGauge,
    OutOfDomain,
)


def theta_linear(kappa: float, tau: float, epsilon: float = 0.0) -> float:
    """The factor of the linear gauge induced by a linear error bound with modulus kappa.

    Solving the defining relation with rho(t) = kappa t gives
    theta(t) = sqrt((1 + epsilon) - tau / kappa^2) * t.  Admissible exactly
    when sqrt(tau / (1 + epsilon)) < kappa < sqrt(tau / epsilon) (upper end
    infinite for epsilon = 0); outside that window the factor leaves (0, 1).
    Near the upper end factor^2 rounds to 1 in float64, which is no
    contraction either: at epsilon = 0 that happens from kappa of about
    1.34e8 sqrt(tau) on.
    """
    if kappa <= 0 or tau <= 0 or epsilon < 0:
        raise InadmissibleGauge(
            f"need kappa > 0, tau > 0, epsilon >= 0; got {kappa}, {tau}, {epsilon}"
        )
    inner = (1.0 + epsilon) - tau / kappa**2
    lo = np.sqrt(tau / (1.0 + epsilon))
    hi = np.inf if epsilon == 0 else np.sqrt(tau / epsilon)
    if inner >= 1 and kappa < hi:
        # (1 + epsilon) - tau / kappa^2 rounds below 1 only when tau / kappa^2
        # exceeds (1 + epsilon) - 1 by more than 2^-54, half the spacing of
        # float64 just under 1
        top = np.sqrt(tau / (((1.0 + epsilon) - 1.0) + 2.0**-54))
        raise InadmissibleGauge(
            f"kappa={kappa} gives factor^2 = {1.0 + epsilon:.17g} - "
            f"{tau / kappa**2:.6g}, which rounds to {inner:.17g} in float64; "
            f"the factor stays below 1 only for kappa below about {top:.6g}"
        )
    if inner <= 0 or inner >= 1:
        raise InadmissibleGauge(
            f"kappa={kappa} gives factor^2={inner:.6g}; admissible kappa range is ({lo:.6g}, {hi:.6g})"
        )
    return float(np.sqrt(inner))


def invert_id_minus_theta(factor: float, s: float) -> float:
    """Solve t - theta(t) = s for t: t = s / (1 - factor).

    Raises OutOfDomain when s is negative.
    """
    if s < 0:
        raise OutOfDomain(f"s must be nonnegative, got {s}")
    return float(s / (1.0 - factor))


def theta_iterates(factor: float, t0: float, count: int) -> np.ndarray:
    """[t0, theta(t0), theta^2(t0), ...] with ``count`` entries."""
    out = np.empty(count)
    t = float(t0)
    for i in range(count):
        out[i] = t
        t = factor * t
    return out


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a per-step trajectory check."""

    passed: bool
    first_violation: int | None
    worst_excess: float


def _sequence(distances) -> np.ndarray:
    d = np.asarray(distances, dtype=float)
    if d.ndim != 1 or d.shape[0] < 2:
        raise DegenerateSequence("need at least two distances")
    return d


def _per_step(d: np.ndarray, bound) -> CheckResult:
    """d_{k+1} <= bound(d_k) at every step; the first step that breaks it and the worst excess."""
    excess = d[1:] - bound(d[:-1])
    bad = np.flatnonzero(excess > 0)
    return CheckResult(
        passed=bad.size == 0,
        first_violation=int(bad[0]) if bad.size else None,
        worst_excess=float(np.max(excess)),
    )


def check_fejer(distances: np.ndarray, tol_rel: float = 1e-3) -> CheckResult:
    """Monotone nonincrease up to tolerance: d_{k+1} <= d_k (1 + tol_rel)."""
    d = _sequence(distances)
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    return _per_step(d, lambda t: t * (1.0 + tol_rel))


def check_gauge_monotone(distances: np.ndarray, factor: float, tol_rel: float = 1e-9) -> CheckResult:
    """Per-step gauge contraction: d_{k+1} <= factor d_k + tol_rel d_k."""
    return _per_step(_sequence(distances), lambda t: factor * t + tol_rel * t)


@dataclass(frozen=True)
class AsymptoticRegularityResult:
    passed: bool
    tail_mean: float
    fitted_exponent: float | None


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


@dataclass(frozen=True)
class RateFit:
    """Least-squares geometric fit d_k ~ intercept * c_hat^k."""

    c_hat: float
    log_intercept: float
    num_used: int


def fit_linear_rate(k: np.ndarray, distances: np.ndarray) -> RateFit:
    """Fit log d against the iteration numbers ``k`` of the distances; needs five positive ones.

    ``c_hat`` is the contraction per unit of k, so a column filled on a
    stride fits the same rate as one filled at every k.
    """
    k = np.asarray(k, dtype=float)
    d = np.asarray(distances, dtype=float)
    if d.ndim != 1 or k.shape != d.shape:
        raise DimensionMismatch(f"need 1-D k and distances of one length, got {k.shape} and {d.shape}")
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


def check_column(columns, column: str, where: str) -> None:
    """Refuse a ``column`` not among ``columns`` under ``where``, the flag or field that named it."""
    if column not in columns:
        raise ConfigError(f"{where}: the trajectory has no column {column!r}; "
                          f"available: {list(columns)}")


def _check_distances(d: np.ndarray, column: str, where: str) -> None:
    """Refuse a non-finite or negative entry of the distance column ``column`` under ``where``."""
    if not np.isfinite(d).all():
        raise ConfigError(f"{where}: column {column!r} holds a non-finite distance "
                          f"{float(d[~np.isfinite(d)][0])!r}; distances must be finite")
    if np.any(d < 0):
        raise ConfigError(f"{where}: column {column!r} holds a negative distance "
                          f"{float(d[d < 0][0])!r}; distances must be nonnegative")


def check_trajectory(
    cols: dict[str, np.ndarray],
    column: str,
    where: str,
    source: str,
    fejer_tol_rel: float,
    tail_tol: float,
    gauge_factor: float | None,
) -> RateReport:
    """Every check of a trajectory: the rate command's and the run summary's verdicts.

    ``cols`` maps column names to values, NaN where a cell is empty, as
    ``read_trajectory_csv`` returns them; ``source`` names the trajectory
    in the report.  The distances are the non-empty cells of ``column``,
    which ``where`` named.  They get Fejer monotonicity with
    ``fejer_tol_rel``, a linear-rate fit against their rows' ``k`` when at
    least five are positive, and, given a ``gauge_factor``, the gauge
    check.  ``dw_step``, when it has four entries or more, gets asymptotic
    regularity with ``tail_tol``.  A missing column, fewer than two
    distances, or a non-finite or negative one raise ConfigError under
    ``where``; a missing ``k`` column, a non-finite ``k`` beside a distance
    and a non-finite or negative ``dw_step`` raise it under ``source``.
    """
    check_column(cols, column, where)
    check_column(cols, "k", source)
    rows = ~np.isnan(cols[column])
    d, k = cols[column][rows], cols["k"][rows]
    if d.shape[0] < 2:
        raise ConfigError(f"{where}: column {column!r} has fewer than two usable entries")
    _check_distances(d, column, where)
    if not np.isfinite(k).all():
        raise ConfigError(f"{source}: column 'k' is not finite on a row with a {column!r} entry")
    dw = cols.get("dw_step")
    if dw is not None:
        dw = dw[~np.isnan(dw)]
        _check_distances(dw, "dw_step", source)

    report = RateReport(details={"column": column, "trajectory": source,
                                 "num_entries": int(d.shape[0])})
    report.fejer = check_fejer(d, tol_rel=fejer_tol_rel)
    try:
        report.fit = fit_linear_rate(k, d)
    except DegenerateSequence:
        report.fit = None
    if dw is not None and dw.shape[0] >= 4:
        report.asymptotic = check_asymptotic_regularity(dw, tail_tol=tail_tol)
    if gauge_factor is not None:
        report.gauge = check_gauge_monotone(d, gauge_factor, tol_rel=1e-3)
        report.details["gauge_factor"] = gauge_factor
    return report


# ---------------------------------------------------------------------------
# Trajectory file: plain CSV, floats at 17 significant digits, no
# timestamps, so identical (config, seed) runs produce identical bytes.
# Rows are formatted by hand with the bytes csv.writer would write: "%.17g"
# floats (the text of format(v, ".17g")), comma separated, "\r\n" row ends;
# no field of a number needs quoting.  An empty cell marks a value that was
# not computed, NaN in the columns.
# ---------------------------------------------------------------------------


def _cell(v: float) -> str:
    return "" if math.isnan(v) else "%.17g" % v


def trajectory_header(num_blocks: int) -> list[str]:
    return ["k", "mean_residual", "psi_upper", "dw_step", "d_target"] + [
        f"block{j}_mean" for j in range(num_blocks)
    ]


def write_trajectory_csv(path, trajectory: dict[str, np.ndarray]) -> None:
    """Write trajectory columns as CSV; a NaN dw_step or d_target is an empty cell."""
    header = trajectory_header(len(trajectory) - 5)
    table = np.column_stack([trajectory[name] for name in header])
    row = "%d,%.17g,%.17g,%s,%s" + ",%.17g" * (len(header) - 5) + "\r\n"
    lines = [",".join(header) + "\r\n"]
    lines += [row % (k, res, psi, _cell(dw), _cell(d), *block_means)
              for k, res, psi, dw, d, *block_means in table.tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def read_trajectory_csv(path) -> dict[str, np.ndarray]:
    """Read a trajectory CSV into named columns (NaN for empty cells); refuse a row of the wrong width."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("file is empty")
    header, body = rows[0], rows[1:]
    width = len(header)
    for line, row in enumerate(body, start=2):
        if len(row) != width:
            raise ValueError(f"line {line} has {len(row)} fields, expected {width}")
    cells = [[v or "nan" for v in row] for row in body]
    table = np.array(cells, dtype=float).reshape(len(body), width)
    return dict(zip(header, np.ascontiguousarray(table.T)))
