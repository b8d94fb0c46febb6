"""Convergence gauges, monotonicity checks, rate fits, and the trajectory file.

A gauge theta maps distances to distances; distance trajectories
certified against a gauge contract per step of k.  Gauges are linear,
theta(t) = factor * t with factor in (0, 1), so a gauge is its factor, a
float.  The factor comes from a linear error bound with modulus kappa:
theta(t) = sqrt((1+eps) - tau/kappa^2) * t, the exact solution of the
defining relation with rho(t) = kappa t; ``theta_linear`` computes it and
is the one place that checks it lies in (0, 1).

The trajectory CSV that ``run`` writes and ``rate`` checks is read and
written here, beside ``check_trajectory``, so that checking a trajectory
file loads no simulator.  It all works on Python floats and lists, with
``math.fsum`` sums, so ``rate`` loads no numpy.
"""

from __future__ import annotations

import csv
import math
from typing import NamedTuple

from .errors import ConfigError, DegenerateSequence, DimensionMismatch, InadmissibleGauge


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
    try:
        ratio = tau / kappa**2
    except (OverflowError, ZeroDivisionError):
        # kappa^2 leaves the float64 range; two divisions give tau / kappa^2 or inf
        ratio = tau / kappa / kappa
    inner = (1.0 + epsilon) - ratio
    lo = math.sqrt(tau / (1.0 + epsilon))
    hi = math.inf if epsilon == 0 else math.sqrt(tau / epsilon)
    if inner >= 1 and kappa < hi:
        # (1 + epsilon) - tau / kappa^2 rounds below 1 only when tau / kappa^2
        # exceeds (1 + epsilon) - 1 by more than 2^-54, half the spacing of
        # float64 just under 1
        top = math.sqrt(tau / (((1.0 + epsilon) - 1.0) + 2.0**-54))
        # no bound to quote where tau / (epsilon + 2^-54) overflows
        bound = f"; the factor stays below 1 only for kappa below about {top:.6g}" if top < math.inf else ""
        raise InadmissibleGauge(
            f"kappa={kappa} gives factor^2 = {1.0 + epsilon:.17g} - "
            f"{ratio:.6g}, which rounds to {inner:.17g} in float64{bound}"
        )
    if inner <= 0 or inner >= 1:
        raise InadmissibleGauge(
            f"kappa={kappa} gives factor^2={inner:.6g}; admissible kappa range is ({lo:.6g}, {hi:.6g})"
        )
    return math.sqrt(inner)


class CheckResult(NamedTuple):
    """Outcome of a per-step trajectory check."""

    passed: bool
    first_violation: int | None
    worst_excess: float


def _sequence(distances) -> list[float]:
    d = [float(v) for v in distances]
    if len(d) < 2:
        raise DegenerateSequence("need at least two distances")
    return d


def _per_step(d: list[float], bounds) -> CheckResult:
    """d_{i+1} <= bounds[i] at every step i; the first step that breaks it and the worst excess."""
    excess = [after - bound for after, bound in zip(d[1:], bounds)]
    bad = [i for i, e in enumerate(excess) if e > 0]
    return CheckResult(not bad, bad[0] if bad else None, max(excess))


def check_fejer(distances, tol_rel: float = 1e-3) -> CheckResult:
    """Monotone nonincrease up to tolerance: d_{k+1} <= d_k (1 + tol_rel)."""
    d = _sequence(distances)
    if any(v < 0 for v in d):
        raise ValueError("distances must be nonnegative")
    return _per_step(d, [t * (1.0 + tol_rel) for t in d[:-1]])


def check_gauge_monotone(k, distances, factor: float, tol_rel: float = 1e-9) -> CheckResult:
    """Gauge contraction over each step of k: d_next <= factor^(k_next - k) d + tol_rel d.

    ``k`` are the distances' iteration numbers: a column filled every s
    steps is held to factor^s per entry, and a unit step to factor d + tol_rel d.
    """
    d, k = _sequence(distances), [float(v) for v in k]
    if len(k) != len(d):
        raise DimensionMismatch(f"need k and distances of one length, got {len(k)} and {len(d)}")
    return _per_step(d, [factor ** (k1 - k0) * t + tol_rel * t
                         for k0, k1, t in zip(k, k[1:], d)])


def _mean(values: list[float]) -> float:
    """The mean from a correctly rounded sum, inf where that sum overflows."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:
        return math.inf


def _line_fit(x: list[float], y: list[float]) -> tuple[float, float]:
    """Slope and intercept of the least-squares line through the points (x, y)."""
    xm, ym = _mean(x), _mean(y)
    dx = [v - xm for v in x]
    sxx = math.fsum(a * a for a in dx)
    if sxx == 0:
        raise DegenerateSequence("need two distinct abscissae to fit a line")
    slope = math.fsum(a * (b - ym) for a, b in zip(dx, y)) / sxx
    return slope, ym - slope * xm


class AsymptoticRegularityResult(NamedTuple):
    passed: bool
    tail_mean: float
    fitted_exponent: float | None


def check_asymptotic_regularity(step_distances, tail_tol: float = 1e-3) -> AsymptoticRegularityResult:
    """Vanishing step sizes with summable-trending squares.

    The tail average over the last quarter must drop below ``tail_tol``,
    and a log-log fit of the squared steps against the iteration index
    must show exponent below -1 (so the squares trend summable).  A tail
    that has already vanished numerically passes the trend check outright.
    """
    d = [float(v) for v in step_distances]
    if len(d) < 4:
        raise DegenerateSequence("need at least four step distances")
    tail_mean = _mean(d[-max(1, len(d) // 4):])
    # log(d^2) as 2 log d, which no tiny d underflows to log 0
    points = [(math.log(i), 2.0 * math.log(v)) for i, v in enumerate(d, start=1) if v > 0]
    exponent = _line_fit(*zip(*points))[0] if len(points) >= 3 else None
    return AsymptoticRegularityResult(
        passed=tail_mean < tail_tol and (exponent is None or exponent < -1.0),
        tail_mean=tail_mean,
        fitted_exponent=exponent,
    )


class RateFit(NamedTuple):
    """Least-squares geometric fit d_k ~ intercept * c_hat^k."""

    c_hat: float
    log_intercept: float
    num_used: int


def fit_linear_rate(k, distances) -> RateFit:
    """Fit log d against the iteration numbers ``k`` of the distances; needs five positive ones.

    ``c_hat`` is the contraction per unit of k, so a column filled on a
    stride fits the same rate as one filled at every k.
    """
    k, d = [float(v) for v in k], [float(v) for v in distances]
    if len(k) != len(d):
        raise DimensionMismatch(f"need k and distances of one length, got {len(k)} and {len(d)}")
    points = [(kv, math.log(v)) for kv, v in zip(k, d) if v > 0]
    if len(points) < 5:
        raise DegenerateSequence(f"need at least 5 positive distances to fit a rate, got {len(points)}")
    slope, intercept = _line_fit(*zip(*points))
    return RateFit(c_hat=math.exp(slope), log_intercept=intercept, num_used=len(points))


class RateReport(NamedTuple):
    """Bundle of trajectory checks produced by the rate command; None marks a check not made."""

    fejer: CheckResult
    gauge: CheckResult | None
    asymptotic: AsymptoticRegularityResult | None
    fit: RateFit | None
    details: dict


def check_column(columns, column: str, where: str) -> None:
    """Refuse a ``column`` not among ``columns`` under ``where``, the flag or field that named it."""
    if column not in columns:
        raise ConfigError(f"{where}: the trajectory has no column {column!r}; "
                          f"available: {list(columns)}")


def _check_distances(d: list[float], column: str, where: str) -> None:
    """Refuse a non-finite or negative entry of the distance column ``column`` under ``where``."""
    nonfinite, negative = [v for v in d if not math.isfinite(v)], [v for v in d if v < 0]
    if nonfinite:
        raise ConfigError(f"{where}: column {column!r} holds a non-finite distance "
                          f"{nonfinite[0]!r}; distances must be finite")
    if negative:
        raise ConfigError(f"{where}: column {column!r} holds a negative distance "
                          f"{negative[0]!r}; distances must be nonnegative")


def check_trajectory(
    cols: dict[str, list[float]],
    column: str,
    where: str,
    source: str,
    fejer_tol_rel: float,
    tail_tol: float,
    gauge_factor: float | None,
) -> RateReport:
    """Every check of a trajectory: the rate command's and the run summary's verdicts.

    ``cols`` maps column names to lists, NaN where a cell is empty, as
    ``read_trajectory_csv`` returns them; ``source`` names the trajectory
    in the report.  The distances are the non-empty cells of ``column``,
    which ``where`` named.  They get Fejer monotonicity with
    ``fejer_tol_rel``, a linear-rate fit when at least five are positive
    and, given a ``gauge_factor``, the gauge check, the last two over their
    rows' ``k``.  ``dw_step``, when it has four entries or more, gets
    asymptotic regularity with ``tail_tol``.  A missing column, fewer than
    two distances, or a non-finite or negative one raise ConfigError under
    ``where``; a missing ``k`` column, a non-finite ``k`` beside a distance,
    a ``k`` that does not increase strictly over those rows and a
    non-finite or negative ``dw_step`` raise it under ``source``.
    """
    check_column(cols, column, where)
    check_column(cols, "k", source)
    rows = [(kv, v) for kv, v in zip(cols["k"], cols[column]) if not math.isnan(v)]
    k, d = [kv for kv, _ in rows], [v for _, v in rows]
    if len(d) < 2:
        raise ConfigError(f"{where}: column {column!r} has fewer than two usable entries")
    _check_distances(d, column, where)
    if not all(map(math.isfinite, k)):
        raise ConfigError(f"{source}: column 'k' is not finite on a row with a {column!r} entry")
    backward = [(k0, k1) for k0, k1 in zip(k, k[1:]) if not k1 > k0]
    if backward:
        k0, k1 = backward[0]
        raise ConfigError(f"{source}: column 'k' goes from {k0:g} to {k1:g} on rows "
                          f"with a {column!r} entry; it must increase strictly")
    dw = cols.get("dw_step")
    if dw is not None:
        dw = [v for v in dw if not math.isnan(v)]
        _check_distances(dw, "dw_step", source)

    fejer = check_fejer(d, tol_rel=fejer_tol_rel)
    try:
        fit = fit_linear_rate(k, d)
    except DegenerateSequence:
        fit = None
    asymptotic = (check_asymptotic_regularity(dw, tail_tol=tail_tol)
                  if dw is not None and len(dw) >= 4 else None)
    details = {"column": column, "trajectory": source, "num_entries": len(d)}
    gauge = None
    if gauge_factor is not None:
        gauge = check_gauge_monotone(k, d, gauge_factor, tol_rel=1e-3)
        details["gauge_factor"] = gauge_factor
    return RateReport(fejer, gauge, asymptotic, fit, details)


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


def write_trajectory_csv(path, trajectory: dict[str, list[float]]) -> None:
    """Write trajectory columns as CSV; a NaN dw_step or d_target is an empty cell."""
    header = trajectory_header(len(trajectory) - 5)
    row = "%d,%.17g,%.17g,%s,%s" + ",%.17g" * (len(header) - 5) + "\r\n"
    lines = [",".join(header) + "\r\n"]
    lines += [row % (k, res, psi, _cell(dw), _cell(d), *block_means)
              for k, res, psi, dw, d, *block_means in zip(*(trajectory[name] for name in header))]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def read_trajectory_csv(path) -> dict[str, list[float]]:
    """Read a trajectory CSV into named lists (NaN for empty cells); refuse a row of the wrong width."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise ValueError("file is empty")
    header, body = rows[0], rows[1:]
    width = len(header)
    for line, row in enumerate(body, start=2):
        if len(row) != width:
            raise ValueError(f"line {line} has {len(row)} fields, expected {width}")
    table = [[float(v or "nan") for v in row] for row in body]
    return {name: [row[j] for row in table] for j, name in enumerate(header)}
