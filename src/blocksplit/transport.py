"""Exact weighted Wasserstein-2 distances between discrete measures.

Costs are squared selection-weighted norms: block j's coordinates carry
weight 1/p_j.  Two equal-weight clouds of sizes n and m are one assignment
problem on L = lcm(n, m) replicated atoms, solved as such while L is at
most ASSIGN_MAX_ATOMS (or n == m); every other pair of measures goes
through the transport LP.

Every assignment is warm-started from Gaussian Kantorovich potentials: it
is solved on the reduced cost C - u - v, u from the closed-form W2 map
between Gaussian fits of the two clouds and v the column minima of C - u.
That leaves the optimal assignments those of C and puts the optimal pairs
near reduced cost zero, so the solver's searches end early.  The reduced
cost overwrites C, so the solve holds one n x m array (or, for replicated
atoms, the L x L array it is copied into, the n x m one released first).
The distance is summed from the matched pairs' costs, re-evaluated by the
kernel that builds C and so bit for bit C's entries.  Where optimal
assignments tie, the solve can take another of them than a solve on C
would, and the distance can move in its last bit.  A cloud whose
covariance is singular or ill-conditioned is solved on C itself.

The LP is solved on a small support of candidate pairs, grown by pricing
until its duals leave none of the n x m pairs with a negative reduced
cost, which certifies the plan optimal for the full LP.  Its first round
takes each atom's cheapest partners under the same kind of reduced cost,
from Gaussian fits weighted by the atoms' weights (C itself where that fit
is singular or ill-conditioned), so it starts near the optimal plan.  All
pricing rounds of one LP share one HiGHS model, which each round extends by
the newly priced pairs and re-solves by primal simplex from the last
optimal basis.  Both routes are exact up to solver tolerance, no entropic
smoothing anywhere.  Either way the plan keeps only its nonzero entries
(CouplingPlan); its dense n x m matrix is built on request, for
``transport --plan``.

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
from importlib.machinery import PathFinder

import numpy as np

from .blockspace import BlockLayout, BlockProbabilities
from .errors import BlocksplitError, DimensionMismatch, SolverFailure

# Largest replicated size L = lcm(n, m) that two equal-weight clouds of
# different sizes solve as one L x L assignment; the gathered cost takes
# 8 L^2 bytes (32 MB at 2000).  Set against the LP on Gaussian clouds in d
# dimensions, both routes warm-started from Gaussian potentials, best
# process time of up to three solves (cost matrix included) on one core of
# a 2-core Xeon host, one BLAS thread:
#
#     n x m, d          L     warm LP   assignment
#     150 x 300, 50     300   0.054 s   0.011 s
#     300 x 200, 2      600   0.064 s   0.030 s
#     800 x 100, 2      800   0.256 s   0.118 s
#     1000 x 500, 2    1000   0.536 s   0.123 s
#     250 x 200, 2     1000   0.050 s   0.135 s
#     1200 x 100, 2    1200   0.268 s   0.263 s
#     600 x 400, 2     1200   0.224 s   0.231 s
#     1500 x 500, 2    1500   0.873 s   0.403 s
#     500 x 300, 2     1500   0.130 s   0.303 s
#     2000 x 1000, 2   2000   1.799 s   0.820 s
#     2000 x 10, 2     2000   0.616 s   1.076 s
#
# (one solve each for the rows with n >= 1500).  The LP wins where L is
# several times n and m, but at every L measured it loses where n = L and
# m is large, since it prices all n m pairs; so the cap stays at 2000.
# Equal sizes replicate nothing and take the assignment at any size.
ASSIGN_MAX_ATOMS = 2000


class DiscreteMeasure:
    """Finitely supported probability measure on the product space."""

    __slots__ = ("support", "weights", "layout")

    def __init__(self, support: np.ndarray, weights: np.ndarray, layout: BlockLayout):
        support = np.asarray(support, dtype=float)  # (n, dim)
        weights = np.asarray(weights, dtype=float)  # (n,)
        if support.ndim != 2:
            raise DimensionMismatch(f"support must be (n, dim), got {support.shape}")
        if support.shape[1] != layout.total_dim:
            raise DimensionMismatch(
                f"support dim {support.shape[1]} does not match layout {layout.total_dim}"
            )
        if weights.shape != (support.shape[0],):
            raise DimensionMismatch("one weight per support point required")
        if not np.isfinite(support).all():
            raise ValueError("support must be finite")
        if np.any(weights < -1e-15):
            raise ValueError("weights must be nonnegative")
        # a NaN or infinite weight makes the sum NaN or infinite, which fails here
        total = float(weights.sum())
        if not abs(total - 1.0) <= 1e-12:
            raise ValueError(f"weights sum to {total!r}, expected 1 within 1e-12")
        self.support = support
        self.weights = weights
        self.layout = layout

    @property
    def num_points(self) -> int:
        return self.support.shape[0]

    @classmethod
    def empirical(cls, states: np.ndarray, layout: BlockLayout) -> "DiscreteMeasure":
        """Equal-weight cloud from ensemble states."""
        states = np.asarray(states, dtype=float)
        n = states.shape[0]
        return cls(states, np.full(n, 1.0 / n), layout)


class CouplingPlan:
    """Transport plan between two discrete measures, stored by its nonzero entries.

    Entry k moves ``mass[k]`` from source atom ``rows[k]`` to target atom
    ``cols[k]``.  A pair may appear more than once (an assignment between
    replicated atoms matches it once per replica pair); its masses add.
    """

    __slots__ = ("rows", "cols", "mass", "source", "target")

    def __init__(self, rows: np.ndarray, cols: np.ndarray, mass: np.ndarray,
                 source: DiscreteMeasure, target: DiscreteMeasure):
        rows = np.asarray(rows, dtype=np.intp)  # (k,) source atom indices
        cols = np.asarray(cols, dtype=np.intp)  # (k,) target atom indices
        mass = np.asarray(mass, dtype=float)  # (k,)
        n, mth = source.num_points, target.num_points
        if not rows.ndim == 1 or not rows.shape == cols.shape == mass.shape:
            raise DimensionMismatch(
                f"plan entries have shapes {rows.shape}, {cols.shape}, {mass.shape}")
        if rows.size and not (0 <= rows.min() and rows.max() < n
                              and 0 <= cols.min() and cols.max() < mth):
            raise DimensionMismatch(f"plan entry outside the ({n}, {mth}) pairs")
        row_sums = np.bincount(rows, weights=mass, minlength=n)
        if np.max(np.abs(row_sums - source.weights)) > 1e-10:
            raise SolverFailure("plan row sums do not match source weights within 1e-10")
        col_sums = np.bincount(cols, weights=mass, minlength=mth)
        if np.max(np.abs(col_sums - target.weights)) > 1e-10:
            raise SolverFailure("plan column sums do not match target weights within 1e-10")
        self.rows, self.cols, self.mass = rows, cols, mass
        self.source, self.target = source, target

    @property
    def matrix(self) -> np.ndarray:
        """The dense (n_source, n_target) plan, built on each access."""
        plan = np.zeros((self.source.num_points, self.target.num_points))
        np.add.at(plan, (self.rows, self.cols), self.mass)
        return plan


def _scipy_kernel(name: str):
    """scipy's compiled module ``name``, loaded without running any package __init__.

    A module already in sys.modules is returned as it is.  Otherwise
    scipy's directory comes from its import spec, not from ``import
    scipy``; the extension is found in its subpackage's directory,
    executed, and only then registered under ``name`` (registering first
    fails pybind11's initialization), so a later ``import scipy.optimize``
    reuses this same module object; a parent package imported later does
    not get it as an attribute, but ``from``-imports, as scipy's own, still
    find it.  scipy itself is imported only to name its version when the
    module is missing, and once before a retry when loading the module
    raises ImportError: some wheels' package init sets up the shared
    libraries their extensions link against (delvewheel does, on Windows).
    """
    module = sys.modules.get(name)
    if module is not None:
        return module
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None:
        raise BlocksplitError("scipy is not installed; blocksplit needs scipy>=1.15")
    where = os.path.join(scipy_spec.submodule_search_locations[0], *name.split(".")[1:-1])
    spec = PathFinder.find_spec(name, [where])
    if spec is None:
        import scipy

        raise BlocksplitError(
            f"scipy {scipy.__version__} has no compiled module {name}; "
            "blocksplit needs scipy>=1.15")
    try:
        module = _load_extension(spec)
    except ImportError:
        import scipy  # noqa: F401

        module = _load_extension(spec)
    sys.modules[name] = module
    return module


def _load_extension(spec):
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, p: BlockProbabilities) -> np.ndarray:
    """Pairwise squared weighted distances between supports.

    Computed by the kernel ``cdist(x, y, "sqeuclidean")`` dispatches to, so
    bit for bit cdist's values.
    """
    kernel = _scipy_kernel("scipy.spatial._distance_pybind")
    scale = np.sqrt(p.coordinate_inverse())
    return kernel.cdist_sqeuclidean(mu.support * scale, nu.support * scale)


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


def _transport_lp(C: np.ndarray, a: np.ndarray, b: np.ndarray,
                  R0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Optimal plan of the n x m transport LP, solved on a priced sparse support.

    Returns the support's flat pair indices (i * m + j, each once) and the
    plan's mass on each of them; every other pair carries none.

    Each round solves the LP restricted to a candidate set of pairs, which
    always holds the north-west-corner staircase and so stays feasible, and
    prices every pair with the round's duals u, v: R = C - u - v.  Pairs
    outside the set with R < -1e-12 max(1, max C) join it, a few per row and
    column; when there are none, the duals certify the restricted plan
    optimal over all n x m pairs.  Every round adds a pair, so the loop ends at
    the latest on the dense LP.  The first round's candidates are the
    cheapest pairs of R0, a reduced cost of C (C itself will do): from
    Gaussian potentials, R0 puts the optimal pairs near its row and column
    minima, so that round's plan is close to optimal and few rounds follow.

    All rounds share one HiGHS model: its marginal rows are added once and
    each round appends only the newly priced pairs as columns.  Appending
    columns keeps the last optimal basis primal feasible, so every round
    after the first resumes from the previous optimum by primal simplex
    instead of solving from scratch.
    """
    highs = _scipy_kernel("scipy.optimize._highspy._core")
    n, m = C.shape
    tol = 1e-12 * max(1.0, float(C.max()))
    cost = C.ravel()
    h = highs._Highs()
    _set_option(h, highs, "output_flag", False)
    # HiGHS's default 1e-7 lets a marginal row end up to 1e-7 off its weight;
    # 1e-10 is its tightest setting and the plan check's bound
    _set_option(h, highs, "primal_feasibility_tolerance", 1e-10)
    # marginal constraints: source rows, then target rows; the final
    # (redundant) row is dropped for numerical hygiene and has dual 0
    rhs = np.concatenate([a, b])[:-1]
    h.addRows(n + m - 1, rhs, rhs, 0, [], [], [])
    inset = np.zeros(n * m, dtype=bool)
    cols = []  # per round, the flat pair indices of the columns it added
    new = np.concatenate([_smallest_per_line(R0, CANDIDATES), _northwest_corner(a, b)])
    while True:
        # sorted and each once, as np.unique gives them, which would load numpy.ma
        new = np.sort(new)
        new = new[np.diff(new, prepend=-1) != 0]
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
        if len(cols) == 1:
            _set_option(h, highs, "simplex_strategy", 4)  # primal simplex
    return np.concatenate(cols), np.asarray(sol.col_value)


def _set_option(h, highs, name: str, value) -> None:
    """Set HiGHS option ``name`` on h; SolverFailure if HiGHS rejects it."""
    if h.setOptionValue(name, value) != highs.HighsStatus.kOk:
        raise SolverFailure(f"HiGHS rejected option {name}={value!r}")


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


def _gaussian_potential(x: np.ndarray, y: np.ndarray, wx: np.ndarray,
                        wy: np.ndarray) -> np.ndarray | None:
    """Row potential u for the cost |x_i - y_j|^2, from Gaussian fits of the clouds.

    Fits means m, m' and covariances S, S' to the clouds x (n, d) and y
    (k, d) with the atom weights wx, wy (clipped at 0).  The W2 map between
    the two Gaussians is the gradient of the convex
    phi(x) = 1/2 (x - m)^T A (x - m) + m'^T x, with
    A = S^-1/2 (S^1/2 S' S^1/2)^1/2 S^-1/2, and u = |x|^2 - 2 phi(x) is its
    Kantorovich potential.  Its column partner is the c-transform
    v_j = min_i (|x_i - y_j|^2 - u_i), the largest v with u_i + v_j <= C_ij;
    the caller gets it by column-reducing C - u.  Where the clouds are near
    Gaussian images of each other, the optimal pairs then have reduced cost
    near zero.  u is evaluated in centred coordinates, a = x - m, without the
    |x|^2 terms that would cancel: u = a^T (I - A) a + 2 (m - m')^T a, which
    is |x|^2 - 2 phi(x) up to a constant (a constant changes no reduced cost).

    None is returned, and the assignment solved or the LP seeded on the
    cost itself, when S or S^1/2 S' S^1/2 has an eigenvalue at or below
    1e-8 of its largest (no more than d atoms with mass, a constant
    coordinate) or is not finite, or when u is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        wx, wy = np.maximum(wx, 0.0), np.maximum(wy, 0.0)
        wx, wy = wx / wx.sum(), wy / wy.sum()
        mx, my = wx @ x, wy @ y
        a, b = x - mx, y - my
        S, Sy = (a.T * wx) @ a, (b.T * wy) @ b
        if not np.isfinite(S).all():
            return None
        w, Q = np.linalg.eigh(S)
        if not w[0] > 1e-8 * w[-1]:
            return None
        root = np.sqrt(w)
        half, inv_half = (Q * root) @ Q.T, (Q / root) @ Q.T
        M = half @ Sy @ half
        if not np.isfinite(M).all():
            return None
        w, Q = np.linalg.eigh(M)
        if not w[0] > 1e-8 * w[-1]:
            return None
        A = inv_half @ ((Q * np.sqrt(w)) @ Q.T) @ inv_half
        u = ((a @ (np.eye(x.shape[1]) - A)) * a).sum(axis=1) + 2.0 * (a @ (mx - my))
    if not np.isfinite(u).all():
        return None
    return u


def _reduce(C: np.ndarray, u: np.ndarray) -> bool:
    """Overwrite C with C - u - v, v the column minima of C - u; False if that is not finite.

    Every optimal plan of C is one of the reduced cost and the other way
    round, since the potentials shift every plan's cost alike.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(C, u[:, None], out=C)
        C -= C.min(axis=0)
    return bool(C.max() < np.inf)  # also false for NaN


def _matched_costs(x: np.ndarray, y: np.ndarray, rows: np.ndarray,
                   cols: np.ndarray) -> np.ndarray:
    """|x[rows[k]] - y[cols[k]]|^2 for every k, bit for bit the cost matrix's entries.

    Each block of 64 matched pairs is one small call of the kernel that
    builds the cost matrix, whose diagonal is kept, so every value comes out
    of the same per-pair accumulation as C[rows[k], cols[k]].
    """
    kernel = _scipy_kernel("scipy.spatial._distance_pybind")
    out = np.empty(rows.size)
    for lo in range(0, rows.size, 64):
        pairs = slice(lo, lo + 64)
        out[pairs] = np.diagonal(kernel.cdist_sqeuclidean(x[rows[pairs]], y[cols[pairs]]))
    return out


def wasserstein2_weighted(
    mu: DiscreteMeasure, nu: DiscreteMeasure, p: BlockProbabilities
) -> tuple[float, CouplingPlan]:
    """Exact weighted W2 distance and an optimal plan.

    Two equal-weight clouds of sizes n and m go through one assignment solve
    on L = lcm(n, m) atoms: each source atom repeated L/n times, each target
    atom L/m times.  The transportation polytope with integer marginals has
    integral vertices, so the optimal assignment is an optimal plan; it is
    folded back to n x m at weight 1/L per matched pair.  The assignment is
    solved on the reduced cost C - u - v, warm-started: u is the Kantorovich
    potential of the W2 map between Gaussian fits of the two measures,
    weighted by their atoms' weights (see _gaussian_potential), and v the
    column minima of C - u.  Subtracting row and column potentials changes
    every assignment's cost by the same amount, so the optimal assignments
    stay those of C.  The reduced cost is built in C's buffer, and the
    distance is summed from the matched pairs' costs, re-evaluated bit for
    bit as C's entries (_matched_costs).  That route is taken when n == m or
    L <= ASSIGN_MAX_ATOMS; every other pair of measures solves the transport
    LP to optimality, on a priced sparse support of pairs whose duals are
    checked against all n x m pairs (see _transport_lp), its first round
    seeded from the same reduced cost.  Raises BlocksplitError when a
    squared weighted distance overflows (finite supports far enough apart),
    and SolverFailure if the underlying solver reports anything but success.
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
    scale = np.sqrt(p.coordinate_inverse())
    x, y = mu.support * scale, nu.support * scale
    u = _gaussian_potential(x, y, mu.weights, nu.weights)
    if (n == mth or L <= ASSIGN_MAX_ATOMS) and _is_uniform(mu) and _is_uniform(nu):
        # the solve runs in C's own buffer: C is reduced in place, or made
        # again from the supports where its reduction is not finite
        if u is not None and not _reduce(C, u):
            C = cost_matrix(mu, nu, p)
        rep_mu, rep_nu = L // n, L // mth
        if n != mth:
            # one L x L copy; the n x m buffer goes before the solve
            C = np.broadcast_to(C[:, None, :, None], (n, rep_mu, mth, rep_nu)).reshape(L, L)
        rows, cols = linear_sum_assignment(C)
        rows, cols = rows // rep_mu, cols // rep_nu
        val = float(_matched_costs(x, y, rows, cols).sum() / L)
        plan = CouplingPlan(rows, cols, np.full(L, 1.0 / L), mu, nu)
        return float(np.sqrt(max(val, 0.0))), plan

    # the LP prices every pair against C, so its seed reduces a copy
    R0 = C
    if u is not None:
        R0 = C.copy()
        if not _reduce(R0, u):
            R0 = C
    pairs, mass = _transport_lp(C, mu.weights, nu.weights, R0)
    # clean tiny negatives from the solver before validating marginals
    mass = np.where(np.abs(mass) < 1e-14, 0.0, mass)
    kept = mass != 0.0
    rows, cols = np.divmod(pairs[kept], mth)
    plan = CouplingPlan(rows, cols, mass[kept], mu, nu)
    # summed over the dense n x m product: a sum over the support alone
    # groups the terms differently and can round to another last bit
    val = float(np.sum(plan.matrix * C))
    return float(np.sqrt(max(val, 0.0))), plan


def distance_to_point_mass(mu: DiscreteMeasure, z: np.ndarray, p: BlockProbabilities) -> float:
    """Weighted W2 distance from mu to the point mass at z (closed form)."""
    return point_mass_distance(mu.support, mu.weights, np.asarray(z, dtype=float),
                               p.coordinate_inverse())


def point_mass_distance(support: np.ndarray, weights: np.ndarray, z: np.ndarray,
                        coordinate_inverse: np.ndarray) -> float:
    """``distance_to_point_mass`` on arrays: (n, dim) atoms, their weights, 1/p_j per coordinate.

    ``markov.run`` calls it at every step, with the weights built once.
    """
    d = support - z
    return float(np.sqrt(np.sum(weights * np.sum(coordinate_inverse * d * d, axis=-1))))


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
