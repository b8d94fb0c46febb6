"""Problem gallery: benchmark instances with declared structure.

Every instance states its layout, coupling, separable term, convexity,
known common fixed points, and a sampling region, so experiments and
certifications can be assembled from a string id plus parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blockspace import BlockLayout, BlockSubsetScheme
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
from .regularity import Region
from .splitting import SplittingMap, apply_full


@dataclass
class ProblemSpec:
    """A gallery instance: ingredients plus declared ground truth."""

    problem_id: str
    layout: BlockLayout
    coupling: SmoothCoupling
    term: SeparableTerm
    default_steps: np.ndarray
    region: Region
    convex: bool
    consistent: bool | None
    fixed_points: np.ndarray | None = None  # (k, dim) common fixed points, if known
    target_point: np.ndarray | None = None  # distinguished limit for distance columns
    metadata: dict = field(default_factory=dict)

    def build_map(self, flavor: str, scheme: BlockSubsetScheme, steps=None) -> SplittingMap:
        steps = self.default_steps if steps is None else steps
        return SplittingMap(flavor, self.coupling, self.term, steps, scheme, self.layout)


def _verify_declared_fixed_points(spec: ProblemSpec, flavor: str, tol: float = 1e-10) -> None:
    if spec.fixed_points is None:
        return
    scheme = BlockSubsetScheme(
        tuple((j,) for j in range(spec.layout.num_blocks)),
        tuple(1.0 / spec.layout.num_blocks for _ in range(spec.layout.num_blocks)),
    )
    m = spec.build_map(flavor, scheme)
    for z in np.atleast_2d(spec.fixed_points):
        r = float(np.linalg.norm(z - apply_full(m, z)))
        if r > tol:
            raise ValueError(
                f"{spec.problem_id}: declared fixed point {z} has residual {r:.3e} > {tol}"
            )


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
        problem_id="counterexample2d",
        layout=layout,
        coupling=coupling,
        term=term,
        default_steps=np.array([t, t]),
        region=Region(np.array([-10.0, -10.0]), np.array([10.0, 10.0])),
        convex=True,
        consistent=True,
        fixed_points=np.array([[0.0, 0.0]]),
        target_point=np.array([0.0, 0.0]),
        metadata={"line_minimizer": "(-z, z) on each line {x1 = z}", "gradient_lipschitz": 4.0},
    )
    _verify_declared_fixed_points(spec, "fb")
    return spec


# ---------------------------------------------------------------------------
# Feasibility: find a point in the intersection of convex sets, recast on the
# product space with a coupling that ties the copies together.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvexSet:
    """Descriptor of a convex set in R^d with a projection oracle."""

    kind: str
    params: dict

    def project(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if self.kind == "point":
            z = np.asarray(self.params["point"], dtype=float)
            return np.broadcast_to(z, v.shape).copy()
        if self.kind == "box":
            return np.clip(v, np.asarray(self.params["lo"]), np.asarray(self.params["hi"]))
        if self.kind == "ball":
            c = np.asarray(self.params["center"], dtype=float)
            r = float(self.params["radius"])
            d = v - c
            nrm = np.linalg.norm(d, axis=-1, keepdims=True)
            scale = np.where(nrm > r, r / np.where(nrm == 0, 1.0, nrm), 1.0)
            return c + scale * d
        if self.kind == "line":
            pnt = np.asarray(self.params["point"], dtype=float)
            direction = np.asarray(self.params["direction"], dtype=float)
            u = direction / np.linalg.norm(direction)
            s = np.sum((v - pnt) * u, axis=-1, keepdims=True)
            return pnt + s * u
        raise UnsupportedSet(f"unknown set kind {self.kind!r}")

    def contains(self, v: np.ndarray, tol: float = 1e-9) -> bool:
        v = np.asarray(v, dtype=float)
        return bool(np.linalg.norm(v - self.project(v)) <= tol)

    def block_function(self) -> BlockFunction:
        if self.kind == "point":
            return h_indicator_point(self.params["point"])
        if self.kind == "box":
            return h_indicator_box(self.params["lo"], self.params["hi"])
        if self.kind == "ball":
            return h_indicator_ball(self.params["center"], self.params["radius"])
        prox = self.project
        return BlockFunction(prox=lambda v, lam: prox(v), tau=0.0, convex=True, kind=self.kind)


def make_set(kind: str, **params) -> ConvexSet:
    if kind not in ("point", "box", "ball", "line"):
        raise UnsupportedSet(f"unsupported set kind {kind!r}")
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


def _best_pair(a: ConvexSet, b: ConvexSet) -> tuple[np.ndarray, np.ndarray] | None:
    """Best approximation pair for the handled inconsistent cases."""
    if a.kind == "point":
        pa = np.asarray(a.params["point"], float)
        return pa, b.project(pa)
    if b.kind == "point":
        pb = np.asarray(b.params["point"], float)
        return a.project(pb), pb
    if {a.kind, b.kind} == {"ball"}:
        c1, r1 = np.asarray(a.params["center"], float), float(a.params["radius"])
        c2, r2 = np.asarray(b.params["center"], float), float(b.params["radius"])
        gap = np.linalg.norm(c2 - c1)
        if gap == 0:
            return None
        u = (c2 - c1) / gap
        return c1 + r1 * u, c2 - r2 * u
    return None


def feasibility(sets: list[ConvexSet], coupling_kind: str = "sqdist") -> ProblemSpec:
    """Product-space feasibility for a family of convex sets.

    Block j carries a copy of the base space constrained to set j; the
    coupling pulls the copies toward the diagonal, either smoothly
    (``sqdist``: half the squared distance to the diagonal) or hard
    (``indicator``: reflection-based flavors only).
    """
    if len(sets) < 2:
        raise UnsupportedSet("feasibility needs at least two sets")
    dims = set()
    for s in sets:
        probe = s.project(np.zeros(_set_dim(s)))
        dims.add(probe.shape[-1])
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
    term = SeparableTerm(layout, [s.block_function() for s in sets])

    consistent = None
    witness = None
    best_pair = None
    if m == 2:
        witness = _intersection_witness(sets[0], sets[1])
        consistent = witness is not None
        if not consistent:
            best_pair = _best_pair(sets[0], sets[1])
    fixed_points = None
    if witness is not None and coupling_kind == "sqdist":
        fixed_points = np.tile(witness, m)[None, :]

    spec = ProblemSpec(
        problem_id="feasibility",
        layout=layout,
        coupling=coupling,
        term=term,
        default_steps=np.full(m, 0.5),
        region=Region(np.full(layout.total_dim, -5.0), np.full(layout.total_dim, 5.0)),
        convex=True,
        consistent=consistent,
        fixed_points=fixed_points,
        target_point=None if fixed_points is None else fixed_points[0],
        metadata={
            "coupling_kind": coupling_kind,
            "num_sets": m,
            "best_pair": None if best_pair is None else [p.tolist() for p in best_pair],
        },
    )
    if fixed_points is not None:
        _verify_declared_fixed_points(spec, "fb")
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
    the solution only if it is a fixed point of T1 (see _support_reference).
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
        problem_id="quadratic_l1",
        layout=layout,
        coupling=coupling,
        term=term,
        default_steps=np.full(layout.num_blocks, step),
        region=Region(np.full(d, -5.0), np.full(d, 5.0)),
        convex=True,
        consistent=True,
        metadata={"l1_weights": weights},
    )
    full_block = BlockSubsetScheme((tuple(range(layout.num_blocks)),), (1.0,))
    w = np.repeat(l1_weights, layout.block_dims)
    x = _support_reference(spec.build_map("fb", full_block), Q, b, w, reference_iterations)
    spec.fixed_points = x[None, :]
    spec.target_point = x
    _verify_declared_fixed_points(spec, "fb")
    return spec


# Steps between the active-set candidates of _support_reference.
ACTIVE_SET_EVERY = 10
# Default tolerance of the reference stop rule (see _settled).
REFERENCE_TOL = 1e-15


def _settled(x_next: np.ndarray, x: np.ndarray, tol: float = REFERENCE_TOL) -> bool:
    """The reference stop rule: one T1 step moved no coordinate by tol or more."""
    return bool(np.max(np.abs(x_next - x)) < tol)


def deterministic_reference(m: SplittingMap, x0: np.ndarray, iterations: int = 100_000,
                            tol: float = REFERENCE_TOL) -> np.ndarray:
    """Long full-block run; the anchor for reference solutions."""
    x = np.asarray(x0, dtype=float)
    for _ in range(iterations):
        x_next = apply_full(m, x)
        if _settled(x_next, x, tol):
            return _settled_point(m, x, x_next, tol)
        x = x_next
    return x


def _settled_point(m: SplittingMap, x: np.ndarray, x_next: np.ndarray,
                   tol: float = REFERENCE_TOL) -> np.ndarray:
    """x_next = T1(x) if one more T1 step from it passes the stop rule, else x.

    The stop rule has passed from x, so the point returned is one that T1
    moves by less than tol in every coordinate.  Near |x| >= 4 one ulp is
    close to tol, and x_next can itself move by two ulps.
    """
    return x_next if _settled(apply_full(m, x_next), x_next, tol) else x


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


def _support_reference(m: SplittingMap, Q: np.ndarray, b: np.ndarray, w: np.ndarray,
                       iterations: int) -> np.ndarray:
    """deterministic_reference from 0 for x'Qx/2 + b'x + sum_i w_i |x_i|, cut short.

    Forward-backward steps identify the support S and signs s of the
    minimizer after finitely many iterations, and on (S, s) the minimizer
    solves Q_SS z_S = -(b_S + w_S s) with z = 0 off S.  Every
    ACTIVE_SET_EVERY steps that candidate is built from the current iterate
    (see _support_candidate); it is kept only if one T1 step from it passes
    the stop rule, and then _settled_point picks its T1 image or the
    candidate itself.  A missing or non-finite candidate or a failed check
    leave the run untouched, so with every candidate rejected the result is
    deterministic_reference's, bit for bit.
    """
    x = np.zeros(Q.shape[0])
    for step in range(1, iterations + 1):
        x_next = apply_full(m, x)
        if _settled(x_next, x):
            return _settled_point(m, x, x_next)
        x = x_next
        if step % ACTIVE_SET_EVERY:
            continue
        z = _support_candidate(Q, b, w, x)
        if z is not None and np.isfinite(z).all():
            z_next = apply_full(m, z)
            if _settled(z_next, z):
                return _settled_point(m, z, z_next)
    return x


PROBLEM_GALLERY = {
    "counterexample2d": counterexample2d,
    "feasibility": feasibility,
    "quadratic_l1": quadratic_l1,
}
