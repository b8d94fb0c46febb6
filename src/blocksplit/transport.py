"""Exact weighted Wasserstein-2 distances between discrete measures.

Costs are squared selection-weighted norms: block j's coordinates carry
weight 1/p_j.  Balanced equal-weight clouds go through an assignment
solve; everything else through an exact transport LP.  Both routes are
exact up to solver tolerance, no entropic smoothing anywhere.
"""

from __future__ import annotations

import json
import csv
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment, linprog
from scipy.sparse import coo_matrix

from .blockspace import BlockLayout, BlockProbabilities, weighted_sq
from .errors import DimensionMismatch, SolverFailure
from .splitting import SplittingMap, apply_full


@dataclass
class DiscreteMeasure:
    """Finitely supported probability measure on the product space."""

    support: np.ndarray  # (n, dim)
    weights: np.ndarray  # (n,)
    layout: BlockLayout

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.support.ndim != 2:
            raise DimensionMismatch(f"support must be (n, dim), got {self.support.shape}")
        if self.support.shape[1] != self.layout.total_dim:
            raise DimensionMismatch(
                f"support dim {self.support.shape[1]} does not match layout {self.layout.total_dim}"
            )
        if self.weights.shape != (self.support.shape[0],):
            raise DimensionMismatch("one weight per support point required")
        if np.any(self.weights < -1e-15):
            raise ValueError("weights must be nonnegative")
        total = float(self.weights.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total!r}, expected 1 within 1e-12")

    @property
    def num_points(self) -> int:
        return self.support.shape[0]

    @classmethod
    def empirical(cls, states: np.ndarray, layout: BlockLayout) -> "DiscreteMeasure":
        """Equal-weight cloud from ensemble states."""
        states = np.asarray(states, dtype=float)
        n = states.shape[0]
        return cls(states, np.full(n, 1.0 / n), layout)


@dataclass
class CouplingPlan:
    """Transport plan between two discrete measures."""

    matrix: np.ndarray  # (n_source, n_target)
    source: DiscreteMeasure
    target: DiscreteMeasure

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        n, mth = self.source.num_points, self.target.num_points
        if self.matrix.shape != (n, mth):
            raise DimensionMismatch(f"plan shape {self.matrix.shape}, expected ({n}, {mth})")
        if np.max(np.abs(self.matrix.sum(axis=1) - self.source.weights)) > 1e-10:
            raise SolverFailure("plan row sums do not match source weights within 1e-10")
        if np.max(np.abs(self.matrix.sum(axis=0) - self.target.weights)) > 1e-10:
            raise SolverFailure("plan column sums do not match target weights within 1e-10")


def _scaled_coords(x: np.ndarray, p: BlockProbabilities) -> np.ndarray:
    return x * np.sqrt(p.coordinate_inverse())


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, p: BlockProbabilities) -> np.ndarray:
    """Pairwise squared weighted distances between supports."""
    a = _scaled_coords(mu.support, p)
    b = _scaled_coords(nu.support, p)
    diff = a[:, None, :] - b[None, :, :]
    return np.sum(diff * diff, axis=-1)


def _is_balanced(mu: DiscreteMeasure, nu: DiscreteMeasure) -> bool:
    if mu.num_points != nu.num_points:
        return False
    n = mu.num_points
    return bool(
        np.allclose(mu.weights, 1.0 / n, rtol=0, atol=1e-12)
        and np.allclose(nu.weights, 1.0 / n, rtol=0, atol=1e-12)
    )


def wasserstein2_weighted(
    mu: DiscreteMeasure, nu: DiscreteMeasure, p: BlockProbabilities
) -> tuple[float, CouplingPlan]:
    """Exact weighted W2 distance and an optimal plan.

    Equal-size equal-weight clouds reduce to an optimal assignment; the
    general case solves the transport LP to optimality.  Raises
    SolverFailure if the underlying solver reports anything but success.
    """
    if mu.layout.block_dims != nu.layout.block_dims:
        raise DimensionMismatch("measures live on different layouts")
    C = cost_matrix(mu, nu, p)
    if _is_balanced(mu, nu):
        rows, cols = linear_sum_assignment(C)
        n = mu.num_points
        plan = np.zeros_like(C)
        plan[rows, cols] = 1.0 / n
        val = float(C[rows, cols].sum() / n)
        return float(np.sqrt(max(val, 0.0))), CouplingPlan(plan, mu, nu)

    n, mth = mu.num_points, nu.num_points
    # marginal constraints as a sparse equality system; drop the final
    # (redundant) row for numerical hygiene.  Variable a * mth + b ships
    # from source a to target b; source rows list it by a, target rows by b.
    var = np.arange(n * mth)
    by_target = var.reshape(n, mth).T.ravel()
    rows_idx = np.concatenate([var // mth, n + by_target % mth])
    cols_idx = np.concatenate([var, by_target])
    A_eq = coo_matrix((np.ones(2 * n * mth), (rows_idx, cols_idx)),
                      shape=(n + mth, n * mth)).tocsr()[:-1]
    rhs = np.concatenate([mu.weights, nu.weights])[:-1]
    res = linprog(C.reshape(-1), A_eq=A_eq, b_eq=rhs, bounds=(0, None), method="highs")
    if res.status != 0:
        raise SolverFailure(f"transport LP failed with status {res.status}: {res.message}")
    plan = res.x.reshape(n, mth)
    # clean tiny negatives from the solver before validating marginals
    plan = np.where(np.abs(plan) < 1e-14, 0.0, plan)
    val = float(np.sum(plan * C))
    return float(np.sqrt(max(val, 0.0))), CouplingPlan(plan, mu, nu)


def distance_to_point_mass(mu: DiscreteMeasure, z: np.ndarray, p: BlockProbabilities) -> float:
    """Weighted W2 distance from mu to the point mass at z (closed form)."""
    z = np.asarray(z, dtype=float)
    sq = weighted_sq(mu.support - z, p)
    return float(np.sqrt(np.sum(mu.weights * sq)))


def distance_to_set_mixture(
    mu: DiscreteMeasure, points: np.ndarray, p: BlockProbabilities
) -> float:
    """Weighted W2 distance from mu to the nearest mixture of point masses.

    Equals sqrt(integral of min_z ||x - z||_p^2): every support atom ships
    to its closest candidate, which is optimal because target weights are
    free when minimizing over all mixtures supported on the candidates.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise DimensionMismatch(f"points must be (k, dim), got {points.shape}")
    a = _scaled_coords(mu.support, p)
    b = _scaled_coords(points, p)
    diff = a[:, None, :] - b[None, :, :]
    d2 = np.sum(diff * diff, axis=-1).min(axis=1)
    return float(np.sqrt(np.sum(mu.weights * d2)))


def invariant_discrepancy_consistent(mu: DiscreteMeasure, m: SplittingMap) -> float:
    """Upper bound on the weighted W2 distance to invariance, consistent case.

    Equals sqrt(integral ||x - T1 x||^2 dmu) in the plain Euclidean norm;
    the full-block residual is exactly the expected squared weighted
    one-step displacement.
    """
    r = mu.support - apply_full(m, mu.support)
    return float(np.sqrt(np.sum(mu.weights * np.sum(r * r, axis=-1))))


# ---------------------------------------------------------------------------
# Measure files: JSON header line, then one CSV row per atom
# (weight, coordinates...).
# ---------------------------------------------------------------------------


def write_measure(path, mu: DiscreteMeasure) -> None:
    header = {
        "version": 1,
        "n": int(mu.num_points),
        "dim": int(mu.layout.total_dim),
        "block_dims": list(mu.layout.block_dims),
    }
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        w = csv.writer(fh)
        for wt, row in zip(mu.weights, mu.support):
            w.writerow([format(float(wt), ".17g")] + [format(float(v), ".17g") for v in row])


def read_measure(path) -> DiscreteMeasure:
    with open(path, newline="") as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as e:
            raise DimensionMismatch(f"{path}: first line is not a JSON measure header: {e}")
        rows = list(csv.reader(fh))
    if not isinstance(header, dict) or "block_dims" not in header:
        raise DimensionMismatch(
            f"{path}: header {header!r} is not a measure header (missing block_dims); "
            "snapshot files carry raw states, not measures"
        )
    layout = BlockLayout(tuple(header["block_dims"]))
    weights = np.array([float(r[0]) for r in rows])
    support = np.array([[float(v) for v in r[1:]] for r in rows])
    if support.size == 0:
        support = support.reshape(0, layout.total_dim)
    if support.shape != (header["n"], header["dim"]):
        raise DimensionMismatch(f"measure body {support.shape} does not match header {header}")
    return DiscreteMeasure(support, weights, layout)
