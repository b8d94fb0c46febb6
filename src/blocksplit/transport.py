"""Exact weighted Wasserstein-2 distances between discrete measures.

Costs are squared selection-weighted norms: block j's coordinates carry
weight 1/p_j.  Two equal-weight clouds of sizes n and m are one assignment
problem on L = lcm(n, m) replicated atoms, solved as such while L is at
most ASSIGN_MAX_ATOMS (or n == m); every other pair of measures goes
through the transport LP.  The LP is solved on a small support of candidate
pairs, grown by pricing until its duals leave none of the n x m pairs with a
negative reduced cost, which certifies the plan optimal for the full LP.
All pricing rounds of one LP share one HiGHS model, which each round
extends by the newly priced pairs and re-solves from the last optimal
basis.  Both routes are exact up to solver tolerance, no entropic smoothing
anywhere.

Of scipy, the W2 routes use only three compiled modules, loaded on the
first solve that needs each (``_scipy_kernel``): ``spatial._distance_pybind``
for the cost matrix, ``optimize._lsap`` for the assignment and
``optimize._highspy._core`` for the LP.  No scipy subpackage is imported:
``scipy.optimize`` and ``scipy.spatial`` pull in sparse, linalg, special and
numpy's f2py and testing, which cost several times the solves themselves.
Commands that never solve a transport problem load no scipy at all.
"""

from __future__ import annotations

import importlib.util
import json
import csv
import math
import os
import sys
from dataclasses import dataclass
from importlib.machinery import PathFinder

import numpy as np

from .blockspace import BlockLayout, BlockProbabilities, weighted_sq
from .errors import BlocksplitError, DimensionMismatch, SolverFailure

# Largest replicated size L = lcm(n, m) that two equal-weight clouds of
# different sizes solve as one L x L assignment; the gathered cost takes
# 8 L^2 bytes (32 MB at 2000).  Set against the warm-started LP on Gaussian
# clouds in d dimensions, best process time of up to three solves (cost
# matrix included) on one core of a 2-core Xeon host, one BLAS thread:
#
#     n x m, d          L     warm LP   assignment
#     150 x 300, 50     300   0.072 s   0.013 s
#     300 x 200, 2      600   0.135 s   0.088 s
#     800 x 100, 2      800   0.426 s   0.206 s
#     1000 x 500, 2    1000   1.487 s   0.449 s
#     250 x 200, 2     1000   0.162 s   0.491 s
#     1200 x 100, 2    1200   0.790 s   0.704 s
#     600 x 400, 2     1200   0.761 s   0.893 s
#     1500 x 500, 2    1500   2.570 s   1.482 s
#     500 x 300, 2     1500   0.438 s   1.600 s
#     2000 x 1000, 2   2000   7.330 s   3.954 s
#     2000 x 10, 2     2000   0.423 s   3.127 s
#
# (one solve each for the rows with n >= 1500).  The LP wins on most pairs
# from L = 1000 up, but at every L measured it loses where n = L and m is
# large, since it prices all n m pairs; so the cap stays at 2000.  Equal
# sizes replicate nothing and take the assignment at any size.
ASSIGN_MAX_ATOMS = 2000


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
        if not np.isfinite(self.support).all():
            raise ValueError("support must be finite")
        if np.any(self.weights < -1e-15):
            raise ValueError("weights must be nonnegative")
        # a NaN or infinite weight makes the sum NaN or infinite, which fails here
        total = float(self.weights.sum())
        if not abs(total - 1.0) <= 1e-12:
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


def _scipy_kernel(name: str):
    """scipy's compiled module ``name``, loaded without its packages' __init__.

    A module already in sys.modules is returned as it is.  Otherwise the
    extension is found in its subpackage's directory, executed, and only
    then registered under ``name`` (registering first fails pybind11's
    initialization), so a later ``import scipy.optimize`` reuses this same
    module object; a parent package imported later does not get it as an
    attribute, but ``from``-imports, as scipy's own, still find it.
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    import scipy

    where = os.path.join(scipy.__path__[0], *name.split(".")[1:-1])
    spec = PathFinder.find_spec(name, [where])
    if spec is None:
        raise BlocksplitError(
            f"scipy {scipy.__version__} has no compiled module {name}; "
            "blocksplit needs scipy>=1.15")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


def _sq_distances(x: np.ndarray, y: np.ndarray, p: BlockProbabilities) -> np.ndarray:
    """Pairwise squared weighted distances between the rows of x and y.

    Computed by the kernel ``cdist(x, y, "sqeuclidean")`` dispatches to, so
    bit for bit cdist's values.
    """
    kernel = _scipy_kernel("scipy.spatial._distance_pybind")
    return kernel.cdist_sqeuclidean(_scaled_coords(x, p), _scaled_coords(y, p))


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, p: BlockProbabilities) -> np.ndarray:
    """Pairwise squared weighted distances between supports."""
    return _sq_distances(mu.support, nu.support, p)


# The two solver calls stay module-level names, which the W2 routes look up
# at call time (so a profiler can wrap them, as bench/tracing.py does).
# They reach scipy only through _scipy_kernel: the assignment is
# optimize._lsap's and the LP's HiGHS model optimize._highspy._core's (the
# cost matrix takes spatial._distance_pybind).  Importing scipy.optimize or
# scipy.spatial instead would load sparse, linalg and special, whose import
# takes longer than the solves.
def linear_sum_assignment(cost: np.ndarray):
    """Optimal assignment for a square cost matrix.

    The compiled ``scipy.optimize._lsap.linear_sum_assignment``, the very
    object ``scipy.optimize`` exports, with its own input checks.
    """
    return _scipy_kernel("scipy.optimize._lsap").linear_sum_assignment(cost)


def linprog(h):
    """One solve of the transport LP's persistent HiGHS model h.

    Runs h from its current basis and returns (model status, solution).
    This is the LP's only solve route; it stays a module-level name so
    that each pricing round is one call a profiler can wrap, as
    bench/tracing.py does for the transport.lp span.
    """
    h.run()
    return h.getModelStatus(), h.getSolution()


def _is_uniform(mu: DiscreteMeasure) -> bool:
    return bool(np.allclose(mu.weights, 1.0 / mu.num_points, rtol=0, atol=1e-12))


# The restricted LP starts from each atom's CANDIDATES cheapest partners
# (per row and per column of the cost) and each pricing round adds each
# row's and column's PRICED most negative reduced costs.
CANDIDATES = 5
PRICED = 3


def _smallest_per_line(M: np.ndarray, k: int) -> np.ndarray:
    """Flat indices of the k smallest entries of every row and every column of M."""
    n, m = M.shape
    kr, kc = min(k, m), min(k, n)
    in_rows = np.argpartition(M, kr - 1, axis=1)[:, :kr] + m * np.arange(n)[:, None]
    in_cols = m * np.argpartition(M, kc - 1, axis=0)[:kc, :] + np.arange(m)
    return np.concatenate([in_rows.ravel(), in_cols.ravel()])


def _northwest_corner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Flat indices of the n + m - 1 pairs of the north-west-corner plan of a, b.

    The staircase walks from (0, 0) to (n - 1, m - 1), stepping to the next
    row when the row's cumulative weight runs out first and to the next
    column otherwise, so it carries a feasible plan for these marginals.
    """
    n, m = a.size, b.size
    breaks = np.concatenate([np.cumsum(b)[:-1], np.cumsum(a)[:-1]])
    down = np.argsort(breaks, kind="stable") >= m - 1
    rows = np.concatenate([[0], np.cumsum(down)])
    cols = np.concatenate([[0], np.cumsum(~down)])
    return rows * m + cols


def _transport_lp(C: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Optimal n x m plan of the transport LP, solved on a priced sparse support.

    Each round solves the LP restricted to a candidate set of pairs, which
    always holds the north-west-corner staircase and so stays feasible, and
    prices every pair with the round's duals u, v: R = C - u - v.  Pairs
    outside the set with R < -1e-12 max(1, max C) join it, a few per row and
    column; when there are none, the duals certify the restricted plan
    optimal over all n x m pairs.  Every round adds a pair, so the loop ends at
    the latest on the dense LP.

    All rounds share one HiGHS model: its marginal rows are added once and
    each round appends only the newly priced pairs as columns.  Appending
    columns keeps the last optimal basis, so every round after the first
    resumes from the previous optimum instead of solving from scratch.
    """
    highs = _scipy_kernel("scipy.optimize._highspy._core")
    n, m = C.shape
    tol = 1e-12 * max(1.0, float(C.max()))
    cost = C.ravel()
    h = highs._Highs()
    h.setOptionValue("output_flag", False)
    # HiGHS's default 1e-7 lets a marginal row end up to 1e-7 off its weight;
    # 1e-10 is its tightest setting and the plan check's bound
    h.setOptionValue("primal_feasibility_tolerance", 1e-10)
    # marginal constraints: source rows, then target rows; the final
    # (redundant) row is dropped for numerical hygiene and has dual 0
    rhs = np.concatenate([a, b])[:-1]
    h.addRows(n + m - 1, rhs, rhs, 0, [], [], [])
    inset = np.zeros(n * m, dtype=bool)
    cols = []  # per round, the flat pair indices of the columns it added
    new = np.concatenate([_smallest_per_line(C, CANDIDATES), _northwest_corner(a, b)])
    while True:
        new = np.unique(new)
        inset[new] = True
        cols.append(new)
        _add_pair_columns(h, new, cost[new], n, m)
        status, sol = linprog(h)
        if status != highs.HighsModelStatus.kOptimal:
            raise SolverFailure(
                f"transport LP failed with status {h.modelStatusToString(status)}")
        y = np.append(sol.row_dual, 0.0)
        if not np.isfinite(y).all():
            raise SolverFailure("transport LP returned non-finite duals")
        R = C - y[:n, None] - y[None, n:]
        R.ravel()[inset] = np.inf
        if not R.min() < -tol:
            break
        new = _smallest_per_line(R, PRICED)
        new = new[R.ravel()[new] < -tol]
    plan = np.zeros(n * m)
    plan[np.concatenate(cols)] = sol.col_value
    return plan.reshape(n, m)


def _add_pair_columns(h, pairs: np.ndarray, cost: np.ndarray, n: int, m: int) -> None:
    """Append one column per flat pair index to the HiGHS model h.

    Pair (i, j) has a 1 in source row i and in target row n + j, except
    that the dropped last target row (j = m - 1) takes no entry.
    """
    src, dst = np.divmod(pairs, m)
    index = np.column_stack([src, n + dst])
    kept = np.column_stack([np.ones(pairs.size, dtype=bool), dst < m - 1])
    starts = np.concatenate([[0], np.cumsum(kept.sum(axis=1))[:-1]])
    index = index[kept].astype(np.int32)
    h.addCols(pairs.size, cost, np.zeros(pairs.size), np.full(pairs.size, np.inf),
              index.size, starts.astype(np.int32), index, np.ones(index.size))


def wasserstein2_weighted(
    mu: DiscreteMeasure, nu: DiscreteMeasure, p: BlockProbabilities
) -> tuple[float, CouplingPlan]:
    """Exact weighted W2 distance and an optimal plan.

    Two equal-weight clouds of sizes n and m go through one assignment solve
    on L = lcm(n, m) atoms: each source atom repeated L/n times, each target
    atom L/m times.  The transportation polytope with integer marginals has
    integral vertices, so the optimal assignment is an optimal plan; it is
    folded back to n x m at weight 1/L per matched pair.  That route is taken
    when n == m or L <= ASSIGN_MAX_ATOMS; every other pair of measures solves
    the transport LP to optimality, on a priced sparse support of pairs whose
    duals are checked against all n x m pairs (see _transport_lp).  Raises
    BlocksplitError when a squared weighted distance overflows (finite
    supports far enough apart), and SolverFailure if the underlying solver
    reports anything but success.
    """
    if mu.layout.block_dims != nu.layout.block_dims:
        raise DimensionMismatch("measures live on different layouts")
    C = cost_matrix(mu, nu, p)
    if not C.max() < np.inf:  # also false for NaN, from overflowing scaled coordinates
        raise BlocksplitError(
            "transport cost is not finite: squared weighted distances between the "
            "supports overflow float64"
        )
    n, mth = mu.num_points, nu.num_points
    L = math.lcm(n, mth)
    if (n == mth or L <= ASSIGN_MAX_ATOMS) and _is_uniform(mu) and _is_uniform(nu):
        rep_mu, rep_nu = L // n, L // mth
        C_rep = C if n == mth else np.repeat(np.repeat(C, rep_mu, axis=0), rep_nu, axis=1)
        rows, cols = linear_sum_assignment(C_rep)
        val = float(C_rep[rows, cols].sum() / L)
        plan = np.zeros_like(C)
        np.add.at(plan, (rows // rep_mu, cols // rep_nu), 1.0 / L)
        return float(np.sqrt(max(val, 0.0))), CouplingPlan(plan, mu, nu)

    plan = _transport_lp(C, mu.weights, nu.weights)
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
    d2 = _sq_distances(mu.support, points, p).min(axis=1)
    return float(np.sqrt(np.sum(mu.weights * d2)))


# ---------------------------------------------------------------------------
# Measure files: JSON header line, then one CSV row per atom
# (weight, coordinates...), "%.17g" floats, "\r\n" row ends.  Every point
# cloud the package writes (final measures and run snapshots) is one.
# ---------------------------------------------------------------------------


def write_measure(path, mu: DiscreteMeasure) -> None:
    header = {
        "version": 1,
        "n": int(mu.num_points),
        "dim": int(mu.layout.total_dim),
        "block_dims": list(mu.layout.block_dims),
    }
    row = "%.17g" + ",%.17g" * mu.layout.total_dim + "\r\n"
    rows = np.column_stack((mu.weights, mu.support)).tolist()
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write("".join([row % tuple(r) for r in rows]))


def read_measure(path) -> DiscreteMeasure:
    with open(path, newline="") as fh:
        try:
            header = json.loads(fh.readline())
        except json.JSONDecodeError as e:
            raise DimensionMismatch(f"{path}: first line is not a JSON measure header: {e}")
        rows = list(csv.reader(fh))
    if not isinstance(header, dict) or "block_dims" not in header:
        raise DimensionMismatch(
            f"{path}: header {header!r} is not a measure header (missing block_dims)"
        )
    for key in ("n", "dim"):
        if key not in header:
            raise ValueError(f"measure header lacks {key!r}")
    dims = header["block_dims"]
    if not (isinstance(dims, list) and dims
            and all(type(v) is int and v > 0 for v in dims)):
        raise ValueError(f"measure header block_dims must be a non-empty list of "
                         f"positive integers, got {dims!r}")
    layout = BlockLayout(tuple(dims))
    for line, r in enumerate(rows, start=2):
        if len(r) != 1 + layout.total_dim:
            raise ValueError(f"line {line} has {len(r)} fields, expected "
                             f"{1 + layout.total_dim} (a weight and {layout.total_dim} coordinates)")
    body = np.array(rows, dtype=float).reshape(len(rows), 1 + layout.total_dim)
    weights, support = np.ascontiguousarray(body[:, 0]), np.ascontiguousarray(body[:, 1:])
    if support.shape != (header["n"], header["dim"]):
        raise ValueError(f"measure body {support.shape} does not match header {header}")
    return DiscreteMeasure(support, weights, layout)
