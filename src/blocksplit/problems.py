"""Problem gallery: benchmark instances with declared structure.

Every instance states its layout, coupling, separable term, a sampling
region and at most one target point, the limit of the ``d_target``
column, so experiments and certifications can be assembled from a string
id plus parameters.  The full-block forward-backward map at the default
steps fixes the target (``splitting.require_fixed``).
"""

from __future__ import annotations

import numpy as np

from .blockspace import BlockLayout
from .config import BlockSubsetScheme, Region
from .errors import DimensionMismatch, UnsupportedSet
from .operators import (
    BlockFunction,
    SeparableTerm,
    SmoothCoupling,
    coupling_diagonal_indicator,
    coupling_diagonal_sqdist,
    coupling_quadratic,
    h_indicator_ball,
    h_indicator_box,
    h_indicator_point,
    h_l1,
    h_quadratic,
    h_zero,
)
from .splitting import SplittingMap, apply_full, require_fixed

# A set contains a point that its projection moves by at most this much.
CONTAINS_TOL = 1e-9


class ProblemSpec:
    """A gallery instance: ingredients plus declared ground truth."""

    __slots__ = ("layout", "coupling", "term", "default_steps", "region", "target_point")

    def __init__(self, layout: BlockLayout, coupling: SmoothCoupling, term: SeparableTerm,
                 default_steps: np.ndarray, region: Region, target_point: np.ndarray | None = None):
        self.layout = layout
        self.coupling = coupling
        self.term = term
        self.default_steps = default_steps
        self.region = region
        self.target_point = target_point  # (dim,) common fixed point, if known

    def build_map(self, flavor: str, scheme: BlockSubsetScheme, steps=None) -> SplittingMap:
        steps = self.default_steps if steps is None else steps
        return SplittingMap(flavor, self.coupling, self.term, steps, scheme, self.layout)


def _full_block_map(spec: ProblemSpec) -> SplittingMap:
    return spec.build_map("fb", BlockSubsetScheme((tuple(range(spec.layout.num_blocks)),), (1.0,)))


def _verify_declared_fixed_points(spec: ProblemSpec) -> None:
    if spec.target_point is not None:
        require_fixed(_full_block_map(spec), spec.target_point)


def counterexample2d(t: float = 0.25) -> ProblemSpec:
    """Two 1-D blocks, f = (x0 + x1)^2, h0 = 0, h1 = x1^2.

    Convex and fully smooth, yet no single-block forward-backward update is
    firmly nonexpansive in any degree on the whole plane; restricted to a
    horizontal line the block-0 update is alpha-fne with alpha = 1/2 for
    steps up to 1/2.  The only common fixed point is the origin; each line
    {x1 = z} has its own minimizer at (-z, z).
    """
    if t <= 0:
        raise ValueError(f"step must be positive, got {t}")
    layout = BlockLayout((1, 1))
    Q = 2.0 * np.ones((2, 2))
    coupling = coupling_quadratic(layout, Q)
    term = SeparableTerm(layout, [h_zero(), h_quadratic(1.0)])
    spec = ProblemSpec(
        layout=layout,
        coupling=coupling,
        term=term,
        default_steps=np.array([t, t]),
        region=Region(np.array([-10.0, -10.0]), np.array([10.0, 10.0])),
        target_point=np.array([0.0, 0.0]),
    )
    _verify_declared_fixed_points(spec)
    return spec


# ---------------------------------------------------------------------------
# Feasibility: find a point in the intersection of convex sets, recast on the
# product space with a coupling that ties the copies together.
# ---------------------------------------------------------------------------


class ConvexSet:
    """Descriptor of a convex set in R^d; its projection is the prox of its indicator."""

    __slots__ = ("kind", "params", "function")

    def __init__(self, kind: str, params: dict):
        self.kind = kind
        self.params = params
        self.function = self.block_function()

    def project(self, v: np.ndarray) -> np.ndarray:
        return self.function.prox(np.asarray(v, dtype=float), 1.0)

    def contains(self, v: np.ndarray) -> bool:
        v = np.asarray(v, dtype=float)
        return bool(np.linalg.norm(v - self.project(v)) <= CONTAINS_TOL)

    def block_function(self) -> BlockFunction:
        """The indicator's prox; raises on an unknown kind, a missing field or a bad value."""
        p = self.params
        try:
            if self.kind == "point":
                return h_indicator_point(p["point"])
            if self.kind == "box":
                return h_indicator_box(p["lo"], p["hi"])
            if self.kind == "ball":
                return h_indicator_ball(p["center"], p["radius"])
            if self.kind == "line":
                return _line_projection(p["point"], p["direction"])
        except KeyError as e:
            raise UnsupportedSet(f"{self.kind} set needs a {e.args[0]!r} field") from None
        raise UnsupportedSet(f"unsupported set kind {self.kind!r}")


def _line_projection(point, direction) -> BlockFunction:
    """Indicator of the line through ``point`` along ``direction``; prox projects onto it."""
    point = np.asarray(point, dtype=float)
    direction = np.asarray(direction, dtype=float)
    norm = np.linalg.norm(direction)
    if not 0 < norm < np.inf:
        raise ValueError(f"line direction must be finite and nonzero, got {direction.tolist()}")
    u = direction / norm

    def prox(v, lam):
        s = np.sum((v - point) * u, axis=-1, keepdims=True)
        return point + s * u

    return BlockFunction(prox=prox, tau=0.0, convex=True)


def make_set(kind: str, **params) -> ConvexSet:
    """A set descriptor, with its projection built here so that bad parameters raise here."""
    return ConvexSet(kind, params)


def _intersection_witness(a: ConvexSet, b: ConvexSet) -> np.ndarray | None:
    """A point of the intersection, or None when empty.

    Analytic for the supported pairs; raises UnsupportedSet for the
    line/box pair, whose exact test needs more machinery than the gallery
    carries.
    """
    kinds = {a.kind, b.kind}
    if a.kind == "point":
        return np.asarray(a.params["point"], float) if b.contains(a.params["point"]) else None
    if b.kind == "point":
        return np.asarray(b.params["point"], float) if a.contains(b.params["point"]) else None
    if kinds == {"ball"}:
        c1, r1 = np.asarray(a.params["center"], float), float(a.params["radius"])
        c2, r2 = np.asarray(b.params["center"], float), float(b.params["radius"])
        gap = np.linalg.norm(c2 - c1)
        if gap > r1 + r2:
            return None
        w = 0.5 if gap == 0 else (r1 + (gap - r1 - r2) / 2) / gap
        return c1 + np.clip(w, 0.0, 1.0) * (c2 - c1)
    if kinds == {"box"}:
        lo = np.maximum(np.asarray(a.params["lo"], float), np.asarray(b.params["lo"], float))
        hi = np.minimum(np.asarray(a.params["hi"], float), np.asarray(b.params["hi"], float))
        return 0.5 * (lo + hi) if np.all(lo <= hi) else None
    if kinds == {"line"}:
        p1 = np.asarray(a.params["point"], float)
        u1 = np.asarray(a.params["direction"], float)
        p2 = np.asarray(b.params["point"], float)
        u2 = np.asarray(b.params["direction"], float)
        # least-squares closest points; intersection iff they coincide
        A = np.stack([u1, -u2], axis=1)
        s, *_ = np.linalg.lstsq(A, p2 - p1, rcond=None)
        q1, q2 = p1 + s[0] * u1, p2 + s[1] * u2
        return 0.5 * (q1 + q2) if np.linalg.norm(q1 - q2) <= 1e-9 else None
    if kinds == {"ball", "box"}:
        ball, box = (a, b) if a.kind == "ball" else (b, a)
        c = np.asarray(ball.params["center"], float)
        nearest = np.clip(c, np.asarray(box.params["lo"], float), np.asarray(box.params["hi"], float))
        return nearest if np.linalg.norm(nearest - c) <= float(ball.params["radius"]) else None
    if kinds == {"ball", "line"}:
        ball, line = (a, b) if a.kind == "ball" else (b, a)
        c = np.asarray(ball.params["center"], float)
        q = line.project(c)
        return q if np.linalg.norm(q - c) <= float(ball.params["radius"]) else None
    raise UnsupportedSet(f"consistency test unsupported for pair {sorted(kinds)}")


def feasibility(sets: list[ConvexSet], coupling_kind: str = "sqdist") -> ProblemSpec:
    """Product-space feasibility for a family of convex sets.

    Block j carries a copy of the base space constrained to set j; the
    coupling pulls the copies toward the diagonal, either smoothly
    (``sqdist``: half the squared distance to the diagonal) or hard
    (``indicator``: reflection-based flavors only).
    """
    if len(sets) < 2:
        raise UnsupportedSet("feasibility needs at least two sets")
    dims = {_set_dim(s) for s in sets}
    if len(dims) != 1:
        raise DimensionMismatch(f"sets live in different dimensions: {sorted(dims)}")
    d = dims.pop()
    m = len(sets)
    layout = BlockLayout((d,) * m)
    if coupling_kind == "sqdist":
        coupling = coupling_diagonal_sqdist(layout)
    elif coupling_kind == "indicator":
        coupling = coupling_diagonal_indicator(layout)
    else:
        raise UnsupportedSet(f"unknown coupling kind {coupling_kind!r}")
    term = SeparableTerm(layout, [s.function for s in sets])

    # under sqdist the tiled intersection witness is fixed; the indicator coupling declares none
    witness = _intersection_witness(sets[0], sets[1]) if m == 2 else None
    target = None if witness is None or coupling_kind != "sqdist" else np.tile(witness, m)
    spec = ProblemSpec(
        layout=layout,
        coupling=coupling,
        term=term,
        default_steps=np.full(m, 0.5),
        region=Region(np.full(layout.total_dim, -5.0), np.full(layout.total_dim, 5.0)),
        target_point=target,
    )
    _verify_declared_fixed_points(spec)
    return spec


def _set_dim(s: ConvexSet) -> int:
    for key in ("point", "lo", "center"):
        if key in s.params:
            return np.asarray(s.params[key], dtype=float).shape[-1]
    raise UnsupportedSet(f"cannot infer dimension of set kind {s.kind!r}")


def quadratic_l1(
    Q: np.ndarray,
    b: np.ndarray,
    l1_weights: np.ndarray,
    block_dims: tuple[int, ...] | None = None,
    reference_iterations: int = 100_000,
) -> ProblemSpec:
    """f(x) = x'Qx/2 + b'x with per-block l1 terms; Q must be PSD.

    The minimizer is declared as the target.  It is computed here by a
    deterministic full-block forward-backward run at a conservative step
    that, once the run has identified the support and signs of the
    solution, solves the stationarity equations on that support and keeps
    the solution only if it is a fixed point of T1 (see _reference).
    """
    Q = np.asarray(Q, dtype=float)
    b = np.asarray(b, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ValueError(f"Q must be a square matrix, got shape {Q.shape}")
    d = Q.shape[0]
    layout = BlockLayout(block_dims if block_dims is not None else (1,) * d)
    if layout.total_dim != d:
        raise DimensionMismatch(f"block dims {layout.block_dims} do not sum to {d}")
    coupling = coupling_quadratic(layout, Q, b, convex=True)
    l1_weights = np.broadcast_to(np.asarray(l1_weights, dtype=float), (layout.num_blocks,))
    # one oracle per distinct weight, so equal-weight blocks share a batched prox
    weights = l1_weights.tolist()
    l1_terms = {w: h_l1(w) for w in weights}
    term = SeparableTerm(layout, [l1_terms[w] for w in weights])

    Lmax = coupling.lipschitz_max
    step = 0.9 / Lmax if Lmax > 0 else 1.0
    spec = ProblemSpec(
        layout=layout,
        coupling=coupling,
        term=term,
        default_steps=np.full(layout.num_blocks, step),
        region=Region(np.full(d, -5.0), np.full(d, 5.0)),
    )
    w = np.repeat(l1_weights, layout.block_dims)
    spec.target_point = _reference(_full_block_map(spec), np.zeros(d), reference_iterations,
                                   lambda v: _support_candidate(Q, b, w, v))
    _verify_declared_fixed_points(spec)
    return spec


# Steps between the candidates of _reference.
ACTIVE_SET_EVERY = 10
# Tolerance of the reference stop rule (see _settled).
REFERENCE_TOL = 1e-15


def _settled(x_next: np.ndarray, x: np.ndarray) -> bool:
    """The reference stop rule: one T1 step moved no coordinate by REFERENCE_TOL or more."""
    return bool(np.max(np.abs(x_next - x)) < REFERENCE_TOL)


def deterministic_reference(m: SplittingMap, x0: np.ndarray, iterations: int = 100_000) -> np.ndarray:
    """Long full-block run; the anchor for reference solutions."""
    return _reference(m, x0, iterations)


def _reference(m: SplittingMap, x0: np.ndarray, iterations: int, candidate=None) -> np.ndarray:
    """The full-block T1 run from x0 until the stop rule passes, cut short by ``candidate``.

    Every ACTIVE_SET_EVERY steps ``candidate`` maps the iterate to a guess
    at the limit, or None (quadratic_l1 passes _support_candidate).  A
    finite guess that passes the stop rule after one T1 step ends the run,
    and _settled_point picks its T1 image or the guess itself.  A missing
    or non-finite guess or a failed check leave the run untouched, so with
    every guess rejected the result is that of the plain run, bit for bit.
    """
    x = np.asarray(x0, dtype=float)
    for step in range(1, iterations + 1):
        x_next = apply_full(m, x)
        if _settled(x_next, x):
            return _settled_point(m, x, x_next)
        x = x_next
        if candidate is None or step % ACTIVE_SET_EVERY:
            continue
        z = candidate(x)
        if z is not None and np.isfinite(z).all():
            z_next = apply_full(m, z)
            if _settled(z_next, z):
                return _settled_point(m, z, z_next)
    return x


def _settled_point(m: SplittingMap, x: np.ndarray, x_next: np.ndarray) -> np.ndarray:
    """x_next = T1(x) if one more T1 step from it passes the stop rule, else x.

    The stop rule has passed from x, so the point returned is one that T1
    moves by less than REFERENCE_TOL in every coordinate.  Near |x| >= 4 one
    ulp is close to that tolerance, and x_next can itself move by two ulps.
    """
    return x_next if _settled(apply_full(m, x_next), x_next) else x


def _support_candidate(Q: np.ndarray, b: np.ndarray, w: np.ndarray,
                       x: np.ndarray) -> np.ndarray | None:
    """The point that solves the stationarity equations on the support and signs of x.

    On the support S with signs s the candidate solves
    Q_SS z_S = -(b_S + w_S s), with z = 0 off S.  When np.linalg.solve finds
    Q_SS singular, the objective restricted to the orthant of s is linear
    along a null vector v of Q_SS (Q is PSD, so Q_SS v = 0), with slope
    (b_S + w_S s)'v.  The point moves along v, in the direction that does
    not raise the objective, until its first coordinate reaches zero; that
    coordinate leaves S, and the equations are solved again on the smaller
    support.  None when no coordinate reaches zero in that direction.
    """
    S = np.flatnonzero(x)
    signs = np.sign(x)
    point = x.copy()
    while S.size:
        rhs = -(b[S] + w[S] * signs[S])
        Q_SS = Q[np.ix_(S, S)]
        try:
            z = np.zeros_like(x)
            z[S] = np.linalg.solve(Q_SS, rhs)
            return z
        except np.linalg.LinAlgError:
            pass
        v = np.linalg.eigh(Q_SS)[1][:, 0]
        if rhs @ v < 0:
            v = -v
        toward = v * point[S] < 0
        if not toward.any():
            return None
        t = np.where(toward, -point[S] / np.where(toward, v, 1.0), np.inf)
        j = int(np.argmin(t))
        point[S] += t[j] * v
        point[S[j]] = 0.0
        S = np.delete(S, j)
    return np.zeros_like(x)
