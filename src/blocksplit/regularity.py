"""Empirical certification of regularity properties on sampled regions.

Each certifier samples pairs from a box region, evaluates the defining
inequality of the property, and reports the worst signed margin together
with the pair achieving it.  Positive margin above tolerance means the
property fails and the witness replays the violation.  Expectations over
the subset scheme are exact, never Monte Carlo.  The squared weighted terms
of ``certify_aafne_in_expectation`` take the closed form over one T1
evaluation of the stacked pair batch (``expected_weighted_terms``).  The
paracontraction certifier measures distances to one fixed point z; its
norms are not squared and have no closed form, so it sums over the masked
route where(mask_i, T1 x, x).
``verify_expectation_identities`` checks the closed form against sums over
the reference route ``apply_T``, so its two sides never share a T1.

Every pair certifier is a margin function swept by ``_certify_pairs``.
Samples are drawn whole and evaluated in row chunks (``_by_chunks``), so a
sweep holds its sample arrays and one chunk's intermediates, whatever the
number of pairs.  The per-pair values, and so the worst margin and its
witness, are those of one whole-batch evaluation.  A sweep silences
numpy's overflow warnings and raises BlocksplitError, naming the sample,
at the first margin (or paracontraction residual) that is not finite:
where the map or a distance overflows on the region, there is no verdict.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .blockspace import weighted_norm, weighted_sq
from .config import CertifySection, Region
from .errors import BlocksplitError
from .splitting import (
    SplittingMap,
    apply_T,
    apply_full,
    expected_weighted_terms,
    require_fixed,
    squared_residuals,
    transport_discrepancy,
)

# Rounds of the adversarial coordinate search (see _coordinate_refine).
REFINE_STEPS = 50
_CERTIFY = CertifySection._field_defaults  # the defaults the certifiers take


class CertificationReport(NamedTuple):
    """Outcome of one certification sweep."""

    property: str
    alpha: float | None
    violation: float | None
    num_samples: int
    margin: float
    tolerance: float
    passed: bool
    witness_x: np.ndarray | None
    witness_y: np.ndarray | None
    details: dict


def _coordinate_refine(
    margin_fn: Callable[[np.ndarray, np.ndarray], float],
    x: np.ndarray,
    y: np.ndarray,
    region: Region,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Deterministic coordinate search maximizing the margin inside the region."""
    x = np.array(x, copy=True)
    y = np.array(y, copy=True)
    best = margin_fn(x, y)
    span = max((b - a for a, b in zip(region.lo, region.hi)), default=0.0) or 1.0
    h = 0.25 * max(span, 1e-8)
    d = region.dim
    for _ in range(REFINE_STEPS):
        improved = False
        for which in (0, 1):
            z = x if which == 0 else y
            for c in range(d):
                base = z[c]
                for s in (h, -h):
                    z[c] = np.clip(base + s, region.lo[c], region.hi[c])
                    m = margin_fn(x, y)
                    if m > best:
                        best = m
                        base = z[c]
                        improved = True
                z[c] = base
        if not improved:
            h *= 0.5
            if h < 1e-14 * max(span, 1.0):
                break
    return x, y, best


def _sq(a):
    return np.sum(a * a, axis=-1)


# Sampled points are evaluated in row chunks of about CHUNK_VALUES
# coordinates each, and of no fewer than CHUNK_MIN_ROWS rows: a quadratic
# coupling's BLAS gradient can round a row of a small batch differently
# than in the whole batch (seen at dimension 50 for batches of 1 to 16
# rows), while batches of 256 rows and more rounded every row as the whole
# batch did, at each dimension tried between 1 and 200.
CHUNK_VALUES = 8192
CHUNK_MIN_ROWS = 256


def _by_chunks(fn, *arrays):
    """fn over balanced row chunks of the equal-length (n, dim) arrays, outputs concatenated.

    fn returns one per-row array or a tuple of them; each comes back as if
    fn had run on the whole arrays at once, while only one chunk's
    intermediates are alive at a time.  Arrays smaller than two chunks are
    one call.
    """
    n, dim = arrays[0].shape
    k = max(1, n // max(CHUNK_MIN_ROWS, CHUNK_VALUES // dim))
    if k == 1:
        return fn(*arrays)
    parts = [fn(*chunk) for chunk in zip(*(np.array_split(a, k) for a in arrays))]
    if isinstance(parts[0], tuple):
        return tuple(np.concatenate(outs) for outs in zip(*parts))
    return np.concatenate(parts)


def _require_finite(name: str, what: str, values: np.ndarray) -> None:
    """Raise BlocksplitError at the first sample whose ``what`` in ``values`` is not finite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = int(bad[0])
        raise BlocksplitError(f"certify {name}: the {what} of sample {i} is {values[i]}")


def _certify_pairs(name, margin_batch, spawn_key, region, alpha, violation, num_pairs, seed,
                   tolerance, adversarial, **details) -> CertificationReport:
    """Worst margin over sampled pairs, sharpened by coordinate search on request.

    ``margin_batch`` maps (n, dim) batches of x and y to n margins; the
    search evaluates it on one-pair batches.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(spawn_key,)))
    xs = region.sample(rng, num_pairs)
    ys = region.sample(rng, num_pairs)
    with np.errstate(over="ignore", invalid="ignore"):
        margins = _by_chunks(margin_batch, xs, ys)
        _require_finite(name, "margin", margins)
        worst = int(np.argmax(margins))
        wx, wy, wm = xs[worst], ys[worst], float(margins[worst])

        if adversarial:
            def margin_one(x, y):
                return float(margin_batch(x[None, :], y[None, :])[0])

            wx, wy, wm = _coordinate_refine(margin_one, wx, wy, region)
            if not np.isfinite(wm):  # the search can find an infinite margin, never a NaN one
                raise BlocksplitError(f"certify {name}: the margin of the pair refined from "
                                      f"sample {worst} is {wm}")

    return CertificationReport(
        property=name,
        alpha=alpha,
        violation=violation,
        num_samples=num_pairs,
        margin=wm,
        tolerance=tolerance,
        passed=bool(wm <= tolerance),
        witness_x=wx,
        witness_y=wy,
        details={"adversarial": adversarial, "seed": int(seed), **details},
    )


def certify_pointwise_aafne(
    T: Callable[[np.ndarray], np.ndarray],
    region: Region,
    alpha: float,
    violation: float,
    num_pairs: int,
    seed: int,
    tolerance: float = _CERTIFY["tolerance"],
    adversarial: bool = _CERTIFY["adversarial"],
) -> CertificationReport:
    """Test ||Tx-Ty||^2 <= (1+eps)||x-y||^2 - ((1-a)/a) psi on sampled pairs.

    Samples ``num_pairs`` independent pairs uniformly from the region, then
    optionally sharpens the worst pair by coordinate search.  The reported
    witness replays: re-evaluating the margin at (witness_x, witness_y)
    reproduces ``margin``.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    w = (1.0 - alpha) / alpha

    def margin_batch(x, y):
        Tx, Ty = T(x), T(y)
        return _sq(Tx - Ty) - (1.0 + violation) * _sq(x - y) + w * transport_discrepancy(x, y, Tx, Ty)

    return _certify_pairs("pointwise_aafne", margin_batch, 0, region, alpha, violation, num_pairs,
                          seed, tolerance, adversarial)


def certify_aafne_in_expectation(
    m: SplittingMap,
    region: Region,
    alpha: float,
    violation: float,
    num_pairs: int,
    seed: int,
    tolerance: float = _CERTIFY["tolerance"],
    adversarial: bool = _CERTIFY["adversarial"],
) -> CertificationReport:
    """Test the selection-weighted expectation inequality over the scheme.

    E||T_xi x - T_xi y||_p^2 <= (1+eps)||x-y||_p^2 - ((1-a)/a) E psi_p, with
    both expectations exact: the closed form of ``expected_weighted_terms``,
    one ``apply_full`` per margin batch whatever the number of subsets.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must lie in (0,1), got {alpha}")
    p = m.probabilities
    w = (1.0 - alpha) / alpha

    def margin_batch(x, y):
        lhs, psi = expected_weighted_terms(m, x, y)
        return lhs - ((1.0 + violation) * weighted_sq(x - y, p) - w * psi)

    return _certify_pairs("aafne_in_expectation", margin_batch, 1, region, alpha, violation,
                          num_pairs, seed, tolerance, adversarial, p_max=p.p_max)


def certify_paracontraction_in_expectation(
    m: SplittingMap,
    z: np.ndarray,
    region: Region,
    num_samples: int,
    seed: int,
    residual_threshold: float = _CERTIFY["residual_threshold"],
) -> CertificationReport:
    """Test strict decrease E||T_xi x - z||_p < ||x - z||_p off the fixed set.

    The one point ``z`` must be fixed by the map (``require_fixed``:
    InvalidFixedPoints otherwise).  Samples with full-block residual below
    ``residual_threshold`` are skipped: they are numerically
    indistinguishable from fixed points, where the inequality degenerates
    to equality.
    """
    z = np.asarray(z, dtype=float)
    require_fixed(m, z)
    masks = m.outcome_masks
    p = m.probabilities
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(2,)))
    xs = region.sample(rng, num_samples)

    def residual_and_margin(x):
        # the full-block residual of each sample and its margin E||T_xi x - z||_p - ||x - z||_p
        T1x = apply_full(m, x)
        expected = 0.0
        for q, mask in zip(m.scheme.probs, masks):
            expected = expected + q * weighted_norm(np.where(mask, T1x, x) - z, p)
        return np.sqrt(squared_residuals(x, T1x)), expected - weighted_norm(x - z, p)

    name = "paracontraction_in_expectation"
    with np.errstate(over="ignore", invalid="ignore"):
        residual, margins = _by_chunks(residual_and_margin, xs)
    _require_finite(name, "residual", residual)
    _require_finite(name, "margin", margins)
    eligible = np.flatnonzero(residual > residual_threshold)
    num_eligible = int(eligible.size)

    margin, wx = float("nan"), None
    if num_eligible:
        worst = eligible[int(np.argmax(margins[eligible]))]
        margin, wx = float(margins[worst]), xs[worst]

    return CertificationReport(
        property=name,
        alpha=None,
        violation=None,
        num_samples=num_samples,
        margin=margin,
        tolerance=0.0,
        passed=bool(margin < 0.0),  # NaN, without eligible samples, fails
        witness_x=wx,
        witness_y=None if wx is None else z,
        details={
            "num_eligible": num_eligible,
            "residual_threshold": residual_threshold,
            "seed": int(seed),
        },
    )


def verify_expectation_identities(
    m: SplittingMap,
    region: Region,
    num_pairs: int,
    seed: int,
    tolerance: float = _CERTIFY["tolerance"],
) -> CertificationReport:
    """Check the two exact identities tying scheme expectations to T1.

    E||T_xi x - T_xi y||_p^2 = ||T1 x - T1 y||^2 - ||x-y||^2 + ||x-y||_p^2
    and E psi_p = ||(x - T1 x) - (y - T1 y)||^2, evaluated exactly; reports
    the largest absolute deviation across both.  The left-hand sides sum
    over the reference route ``apply_T``; the right-hand sides are the
    closed form ``expected_weighted_terms`` that the expectation certifier
    reads, so the two sides never share an evaluation.
    """
    p = m.probabilities

    def margin_batch(x, y):
        lhs1 = lhs2 = 0.0
        for i, q in enumerate(m.scheme.probs):
            Tx, Ty = apply_T(m, i, x), apply_T(m, i, y)
            lhs1 = lhs1 + q * weighted_sq(Tx - Ty, p)
            lhs2 = lhs2 + q * weighted_sq((x - Tx) - (y - Ty), p)
        rhs1, rhs2 = expected_weighted_terms(m, x, y)
        return np.maximum(np.abs(lhs1 - rhs1), np.abs(lhs2 - rhs2))

    return _certify_pairs("expectation_identities", margin_batch, 3, region, None, None,
                          num_pairs, seed, tolerance, False)
