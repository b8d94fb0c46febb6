"""Smooth couplings, separable terms, resolvents, and step-size bounds.

A problem is min f(x) + sum_j h_j(x_j) where f couples the blocks smoothly
and each h_j acts on its own block through a proximal oracle.  Oracles are
vectorized: they accept a single vector or a batch with the vector on the
trailing axis.  The step-size bounds hold the blockwise gradient map to
one constant, ALPHA_BAR = 1/2: a firmly nonexpansive gradient step.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .blockspace import BlockLayout
from .errors import DimensionMismatch, EmptyResolvent, NotPSD


class SmoothCoupling:
    """Blockwise-smooth coupling term f.

    ``gradient`` maps (..., d) -> (..., d).  ``lipschitz[j]`` is a blockwise
    gradient Lipschitz constant: on any pair,
    sum_j ||grad_j f(x) - grad_j f(y)||^2 <= sum_j L_j^2 ||x_j - y_j||^2.
    ``hypomono[j]`` bounds how far the block-j partial functions sit from
    monotone (0 for convex f).

    Douglas-Rachford takes a coupling of one of two kinds.  A quadratic
    coupling has a ``gradient`` and a ``hessian_block`` returning the
    constant block-diagonal Hessian piece A_jj, so its partial resolvents
    solve in closed form.  Any other coupling supplies a
    ``partial_resolvent(x, r, blocks, lam)`` override, called once per
    update group: ``x`` is the input (..., dim), ``r`` holds the group's
    k blocks (..., k, d) and ``blocks`` their indices; row a of the
    (..., k, d) result is the block-``blocks[a]`` partial resolvent at x
    with that block replaced by ``r[..., a, :]``.  The diagonal-indicator
    coupling is of this kind; it has no gradient.
    """

    __slots__ = ("layout", "gradient", "lipschitz", "hypomono", "convex", "hessian_block",
                 "partial_resolvent")

    def __init__(
        self,
        layout: BlockLayout,
        gradient: Callable[[np.ndarray], np.ndarray] | None,
        lipschitz: np.ndarray,
        hypomono: np.ndarray,
        convex: bool,
        hessian_block: Callable[[int], np.ndarray] | None = None,
        partial_resolvent: Callable[[np.ndarray, np.ndarray, tuple[int, ...], float],
                                    np.ndarray] | None = None,
    ):
        self.layout = layout
        self.gradient = gradient
        self.lipschitz = lipschitz
        self.hypomono = hypomono
        self.convex = convex
        self.hessian_block = hessian_block
        self.partial_resolvent = partial_resolvent
        self.__post_init__()

    def __post_init__(self):
        """Broadcast and check the constants.

        A method of its own, which ``__init__`` calls: bench/tracing.py
        wraps it to count the gradient calls of every coupling built.
        """
        m = self.layout.num_blocks
        self.lipschitz = np.broadcast_to(np.asarray(self.lipschitz, dtype=float), (m,)).copy()
        self.hypomono = np.broadcast_to(np.asarray(self.hypomono, dtype=float), (m,)).copy()
        if np.any(self.lipschitz < 0) or np.any(self.hypomono < 0):
            raise ValueError("lipschitz and hypomono constants must be nonnegative")

    @property
    def tau_max(self) -> float:
        return float(np.max(self.hypomono))

    @property
    def lipschitz_max(self) -> float:
        return float(np.max(self.lipschitz))


class BlockFunction(NamedTuple):
    """One separable piece h_j with its proximal oracle.

    ``prox(v, lam)`` returns argmin_u h_j(u) + ||u - v||^2 / (2 lam),
    vectorized over leading axes of ``v``: splitting maps batch the k blocks
    sharing one oracle, step and dim into one call on ``v`` of shape (..., k, d).
    """

    prox: Callable[[np.ndarray, float], np.ndarray]
    tau: float = 0.0
    convex: bool = True


class SeparableTerm:
    """Blockwise separable term h(x) = sum_j h_j(x_j)."""

    __slots__ = ("layout", "blocks")

    def __init__(self, layout: BlockLayout, blocks: list[BlockFunction]):
        if len(blocks) != layout.num_blocks:
            raise DimensionMismatch(f"{len(blocks)} block functions for {layout.num_blocks} blocks")
        self.layout = layout
        self.blocks = blocks

    @property
    def tau_max(self) -> float:
        return max(b.tau for b in self.blocks)

    @property
    def convex(self) -> bool:
        return all(b.convex for b in self.blocks)


def resolvent_separable(term: SeparableTerm, j: int, v: np.ndarray, lam: float) -> np.ndarray:
    """Resolvent of lam * dh_j at v (the proximal point of h_j)."""
    if lam <= 0:
        raise ValueError(f"step must be positive, got {lam}")
    out = term.blocks[j].prox(np.asarray(v, dtype=float), float(lam))
    if out is None:
        raise EmptyResolvent(f"block {j} resolvent empty at given point")
    return np.asarray(out, dtype=float)


def reflector(resolved: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Reflection 2*J(x) - x given the already-resolved point J(x)."""
    return 2.0 * resolved - x


def resolvent_partial_smooth(coupling: SmoothCoupling, j: int, x: np.ndarray, lam: float) -> np.ndarray:
    """Resolvent of the block-j partial linearization of f.

    Solves y + lam * grad_j f(x with block j replaced by y) = x_j for y, by
    the coupling's ``partial_resolvent`` override at r = x_j, or in closed
    form from a constant block Hessian.  Raises EmptyResolvent for a
    coupling with neither.
    """
    if lam <= 0:
        raise ValueError(f"step must be positive, got {lam}")
    x = coupling.layout.check(x)
    sl = coupling.layout.slice_of(j)
    xj = x[..., sl]
    if coupling.partial_resolvent is not None:
        return coupling.partial_resolvent(x, xj[..., None, :], (j,), float(lam))[..., 0, :]
    if coupling.gradient is None or coupling.hessian_block is None:
        raise EmptyResolvent("partial resolvent needs a gradient with hessian_block, "
                             "or a partial_resolvent override")
    # grad_j at the modified point is gj + A_jj (y - x_j) exactly
    gj = coupling.layout.block(coupling.gradient(x), j)
    A = np.asarray(coupling.hessian_block(j), dtype=float)
    M = np.eye(coupling.layout.block_dims[j]) + lam * A
    rhs = xj - lam * (gj - xj @ A.T)
    return np.linalg.solve(M, rhs[..., None])[..., 0] if rhs.ndim > 1 else np.linalg.solve(M, rhs)


class StepBounds(NamedTuple):
    """Admissible blockwise step intervals (0, upper_j) for a target constant.

    ``global_convex``, for a convex coupling, also admits one common step t
    in (0, global_convex], where ``gd_violation_bound`` is zero.
    """

    per_block: tuple[float, ...]
    global_convex: float | None

    def admits(self, steps: np.ndarray) -> bool:
        steps = np.asarray(steps, dtype=float)
        common = self.global_convex is not None and np.all(steps == steps[0]) and steps[0] <= self.global_convex
        return bool(np.all(steps > 0) and (common or np.all(steps < np.asarray(self.per_block))))


# The target constant of the blockwise gradient map: a firmly nonexpansive
# step, alpha-bar = 1/2, which the forward-backward constants compose with
# the prox (``splitting.composite_constants``).
ALPHA_BAR = 0.5


def gd_step_bound(coupling: SmoothCoupling) -> StepBounds:
    """Step ranges making the blockwise gradient map a-alpha-fne with constant ALPHA_BAR.

    Per block the upper end is ALPHA_BAR (sqrt(tau_j^2 + L_j^2) - tau_j) / L_j^2.
    For convex couplings the classical global range t <= 2 ALPHA_BAR / L_max
    is also reported (no violation up to it).
    """
    uppers = []
    for tau, L in zip(coupling.hypomono, coupling.lipschitz):
        if L == 0:
            uppers.append(np.inf)
        else:
            uppers.append(float(ALPHA_BAR * (np.hypot(tau, L) - tau) / L**2))
    global_bound = None
    if coupling.convex:
        Lbar = coupling.lipschitz_max
        global_bound = np.inf if Lbar == 0 else float(2 * ALPHA_BAR / Lbar)
    return StepBounds(tuple(uppers), global_bound)


def gd_violation_bound(coupling: SmoothCoupling, steps: np.ndarray) -> float:
    """Worst-case a-alpha-fne violation of the blockwise gradient map at constant ALPHA_BAR.

    max_j (2 t_j tau_j + t_j^2 L_j^2 / ALPHA_BAR); zero for a convex
    coupling run at a common step t <= 2 ALPHA_BAR / L, where the gradient
    step is firmly nonexpansive (Baillon-Haddad: t <= 1 / L).
    """
    m = coupling.layout.num_blocks
    steps = np.broadcast_to(np.asarray(steps, dtype=float), (m,))
    if np.any(steps <= 0):
        raise ValueError(f"steps must be positive, got {steps}")
    if coupling.convex and np.all(steps == steps[0]):
        Lbar = coupling.lipschitz_max
        if Lbar == 0 or steps[0] <= 2 * ALPHA_BAR / Lbar:
            return 0.0
    per_block = 2 * steps * coupling.hypomono + steps**2 * coupling.lipschitz**2 / ALPHA_BAR
    return float(np.max(per_block))


# ---------------------------------------------------------------------------
# Separable-term gallery.  Constructors return BlockFunction instances; build
# a SeparableTerm by listing one per block.
# ---------------------------------------------------------------------------


def h_zero() -> BlockFunction:
    """h = 0; the resolvent is the identity."""
    return BlockFunction(prox=lambda v, lam: v, tau=0.0, convex=True)


def h_quadratic(coeff: float = 1.0) -> BlockFunction:
    """h(u) = coeff * ||u||^2 with coeff > 0; prox is a rescaling."""
    if coeff <= 0:
        raise NotPSD(f"quadratic block coefficient must be positive, got {coeff}")
    return BlockFunction(
        prox=lambda v, lam: v / (1.0 + 2.0 * lam * coeff),
        tau=0.0,
        convex=True,
    )


def h_l1(weight: float = 1.0) -> BlockFunction:
    """h(u) = weight * ||u||_1; prox is soft thresholding."""
    if weight < 0:
        raise ValueError(f"l1 weight must be nonnegative, got {weight}")

    def prox(v, lam):
        s = lam * weight
        return np.sign(v) * np.maximum(np.abs(v) - s, 0.0)

    return BlockFunction(prox=prox, tau=0.0, convex=True)


def h_indicator_box(lo, hi) -> BlockFunction:
    """Indicator of the box [lo, hi]; prox clips coordinatewise."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        raise ValueError("box lower bound exceeds upper bound")
    return BlockFunction(prox=lambda v, lam: np.clip(v, lo, hi), tau=0.0, convex=True)


def h_indicator_point(z) -> BlockFunction:
    """Indicator of the singleton {z}; prox is constant."""
    z = np.asarray(z, dtype=float)

    def prox(v, lam):
        out = np.empty(np.shape(v))
        out[...] = z
        return out

    return BlockFunction(prox=prox, tau=0.0, convex=True)


def h_indicator_ball(center, radius: float) -> BlockFunction:
    """Indicator of a Euclidean ball; prox is radial projection."""
    center = np.asarray(center, dtype=float)
    radius = float(radius)
    if not 0 <= radius < np.inf:
        raise ValueError(f"radius must be finite and nonnegative, got {radius}")

    def prox(v, lam):
        d = v - center
        nrm = np.linalg.norm(d, axis=-1, keepdims=True)
        scale = np.where(nrm > radius, radius / np.where(nrm == 0, 1.0, nrm), 1.0)
        return center + scale * d

    return BlockFunction(prox=prox, tau=0.0, convex=True)


# ---------------------------------------------------------------------------
# Coupling gallery.
# ---------------------------------------------------------------------------


def coupling_quadratic(layout: BlockLayout, Q: np.ndarray, b: np.ndarray | None = None,
                       convex: bool | None = None) -> SmoothCoupling:
    """f(x) = x'Qx/2 + b'x with symmetric Q.

    Blockwise Lipschitz constants: exact diagonal-block norms when Q is
    block diagonal for the layout, otherwise the global operator norm for
    every block (the blockwise inequality requires constants at least that
    strong for dense Q).  Hypomonotonicity is |most negative eigenvalue|.
    """
    Q = np.asarray(Q, dtype=float)
    d = layout.total_dim
    if Q.shape != (d, d):
        raise DimensionMismatch(f"Q has shape {Q.shape}, layout expects ({d}, {d})")
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ValueError("Q must be symmetric")
    b = np.zeros(d) if b is None else np.asarray(b, dtype=float)
    if b.shape != (d,):
        raise DimensionMismatch(f"b has shape {b.shape}, expected ({d},)")

    eigs = np.linalg.eigvalsh(Q)
    lam_min = float(eigs[0])
    is_psd = lam_min >= -1e-12
    if convex is None:
        convex = is_psd
    elif convex and not is_psd:
        raise NotPSD(f"Q declared convex but has eigenvalue {lam_min}")

    off_diag = Q.copy()
    for j in range(layout.num_blocks):
        sl = layout.slice_of(j)
        off_diag[sl, sl] = 0.0
    block_diagonal = np.allclose(off_diag, 0.0, atol=1e-14)
    if block_diagonal:
        L = np.array([
            np.linalg.norm(Q[layout.slice_of(j), layout.slice_of(j)], 2)
            for j in range(layout.num_blocks)
        ])
    else:
        L = np.full(layout.num_blocks, np.linalg.norm(Q, 2))
    tau = 0.0 if convex else max(0.0, -lam_min)

    def hessian_block(j):
        sl = layout.slice_of(j)
        return Q[sl, sl]

    return SmoothCoupling(
        layout=layout,
        gradient=lambda x: x @ Q.T + b,
        lipschitz=L,
        hypomono=np.full(layout.num_blocks, tau),
        convex=bool(convex),
        hessian_block=hessian_block,
    )


def coupling_diagonal_sqdist(layout: BlockLayout) -> SmoothCoupling:
    """f(x) = dist(x, diagonal)^2 / 2 on a product of m equal blocks.

    grad_j f(x) = x_j - mean_k x_k; convex with blockwise L_j = 1.
    """
    dims = set(layout.block_dims)
    if len(dims) != 1:
        raise DimensionMismatch(f"diagonal coupling needs equal block dims, got {layout.block_dims}")
    m = layout.num_blocks
    d = layout.block_dims[0]

    def gradient(x):
        blocks = x.reshape(x.shape[:-1] + (m, d))
        mean = np.add.reduce(blocks, axis=-2, keepdims=True) / m  # np.mean's arithmetic
        return (blocks - mean).reshape(x.shape)

    return SmoothCoupling(
        layout=layout,
        gradient=gradient,
        lipschitz=np.ones(m),
        hypomono=np.zeros(m),
        convex=True,
        hessian_block=lambda j: (1.0 - 1.0 / m) * np.eye(d),
    )


DIAGONAL_AGREEMENT_TOL = 1e-9


def coupling_diagonal_indicator(layout: BlockLayout) -> SmoothCoupling:
    """Indicator of the diagonal, for reflection-based updates only.

    The block-j partial resolvent forces block j to the common value of the
    remaining blocks; it is empty when those blocks disagree by more than
    DIAGONAL_AGREEMENT_TOL.  The override takes a whole update group and
    checks its blocks in group order; the error names the first block with
    a disagreeing batch row, and its first such row (in a run, the chain).
    There is no gradient oracle, so forward-backward flavors must reject
    this coupling.
    """
    dims = set(layout.block_dims)
    if len(dims) != 1:
        raise DimensionMismatch(f"diagonal coupling needs equal block dims, got {layout.block_dims}")
    m = layout.num_blocks
    d = layout.block_dims[0]

    def partial_resolvent(x, r, blocks, lam):
        xb = x.reshape(x.shape[:-1] + (m, d))
        js = np.asarray(blocks)
        # block j takes the first other block; the rest must agree with it
        ref = xb[..., np.where(js == 0, 1, 0), :]
        others = np.arange(m) != js[:, None]  # (k, m)
        gap = np.abs(xb[..., None, :, :] - ref[..., :, None, :]).max(axis=-1)  # (..., k, m)
        spread = np.where(others, gap, 0.0).max(axis=-1).reshape(-1, len(js))
        bad = spread > DIAGONAL_AGREEMENT_TOL
        if bad.any():
            a = int(np.flatnonzero(bad.any(axis=0))[0])
            row = int(np.flatnonzero(bad[:, a])[0])
            raise EmptyResolvent(
                f"diagonal partial resolvent of block {js[a]} empty at batch row {row}: "
                f"remaining blocks disagree by {spread[row, a]:.3e}"
            )
        return ref

    return SmoothCoupling(
        layout=layout,
        gradient=None,
        lipschitz=np.zeros(m),
        hypomono=np.zeros(m),
        convex=True,
        partial_resolvent=partial_resolvent,
    )
