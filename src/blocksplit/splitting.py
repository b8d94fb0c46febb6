"""Blockwise forward-backward and Douglas-Rachford maps and their constants.

A splitting map bundles the coupling f, the separable term h, blockwise
steps, and a subset scheme.  Applying outcome i updates exactly the blocks
in subset i, each computed from the unmodified input (all blocks of a
subset see the same x).  The full-block map T1 updates every block and is
the reference operator for residuals and certification regardless of
whether the scheme contains the full subset.

So each T_i is a block mask over T1, T_i x = where(mask_i, T1 x, x) bit for
bit.  The package evaluates outcome maps by that masked route: one
``apply_full`` per input, masked by ``outcome_masks``.  ``apply_T`` runs
outcome i's own update plan; it is the reference route, for checks that
must not read T1 and for certifying one outcome map alone.  Expectations
over the scheme in the selection-weighted norm need no outcome map at all:
they collapse onto T1 in closed form (``expected_weighted_terms``).

The same fact gives the package's one fixed-point rule (``require_fixed``):
a map fixes z when its full-block residual ||z - T1 z|| is at most
FIXED_POINT_TOL.  Since T_i z - z = where(mask_i, T1 z - z, 0), every
outcome map then moves z by no more, so the rule depends on the flavor and
the steps, which T1 depends on, and not on the scheme.

A plan lists the blocks a map updates, grouped by (prox oracle, step, block
dim), with its columns (a slice when they are contiguous), the step of
each column (one float when they are equal) and, for closed-form
Douglas-Rachford, the blocks' stacks.
Each map is one pass over the plan's columns: all the arithmetic is done
once over those columns, and only the oracles are called per group, each
on a view of its k blocks of dim d, shaped (..., k, d).  Forward-backward
takes one coupling gradient per call and one prox call per group on
x - t g.  Douglas-Rachford forms the reflection r = 2 prox(x) - x the same
way, then the partial resolvents by one of two kinds of coupling:

- a constant block Hessian A_jj (``hessian_block``): one gradient g per
  call, since the gradient at x with block j replaced by y is
  g_j + A_jj (y - x_j), so y = (I + t A_jj)^-1 (r_j - t (g_j - A_jj x_j))
  in closed form, with the stacked A_jj and (I + t A_jj)^-1 of the
  plan's blocks of each distinct dim in the plan, applied by one stacked
  matmul per dim; each block's product rounds as it does alone;
- a ``partial_resolvent(x, r, blocks, t)`` override, such as
  ``coupling_diagonal_indicator``: one call per group on r of shape
  (..., k, d), returning (..., k, d).

Both end on the average (reflect(y, r) + x) / 2 over all planned columns.
A coupling of neither kind has no Douglas-Rachford map.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .blockspace import BlockLayout, BlockProbabilities, block_probabilities
from .config import BlockSubsetScheme, Record
from .errors import DimensionMismatch, EmptyResolvent, InvalidFixedPoints
from .operators import (
    SeparableTerm,
    SmoothCoupling,
    reflector,
    resolvent_separable,
)

FLAVORS = ("fb", "dr")


class UpdateGroup(NamedTuple):
    """Blocks updated by one batched prox call: same oracle, step and dim."""

    blocks: tuple[int, ...]
    local: slice  # the group's columns within its plan's columns
    step: float
    dim: int


class DimStack(NamedTuple):
    """Closed-form Douglas-Rachford: a plan's blocks of one dim, stacked in plan order."""

    local: slice | np.ndarray  # their columns within the plan's columns
    hessian: np.ndarray  # (k, d, d) A_jj
    inverse: np.ndarray  # (k, d, d) (I + t_j A_jj)^-1


class UpdatePlan(NamedTuple):
    """The blocks a map updates, group after group, with what each pass needs of them."""

    groups: tuple[UpdateGroup, ...]
    cols: slice | np.ndarray  # the planned coordinate columns, group after group
    steps: float | np.ndarray  # the step of each planned column, one float if they are equal
    stacks: tuple[DimStack, ...]  # closed-form Douglas-Rachford only, one per distinct dim


def _columns(idx: np.ndarray) -> slice | np.ndarray:
    """Column indices as a slice when they are contiguous and ascending."""
    if idx.size and np.array_equal(idx, np.arange(idx[0], idx[0] + idx.size)):
        return slice(int(idx[0]), int(idx[0]) + idx.size)
    return idx


def _update_plan(layout: BlockLayout, term: SeparableTerm, steps: np.ndarray,
                 blocks: Iterable[int],
                 hessian_block: Callable[[int], np.ndarray] | None = None) -> UpdatePlan:
    groups: dict[tuple, list[int]] = {}
    for j in blocks:
        key = (id(term.blocks[j].prox), float(steps[j]), layout.block_dims[j])
        groups.setdefault(key, []).append(j)
    order = [j for js in groups.values() for j in js]  # the planned blocks, group after group
    dims = [layout.block_dims[j] for j in order]
    starts = list(accumulate(dims, initial=0))  # each planned block's first column in the plan
    plan, a = [], 0
    for (_, step, dim), js in groups.items():
        plan.append(UpdateGroup(tuple(js), slice(starts[a], starts[a + len(js)]), step, dim))
        a += len(js)
    stacks = []
    if hessian_block is not None:
        for dim in sorted(set(dims)):
            idx = [a for a, d in enumerate(dims) if d == dim]
            js = [order[a] for a in idx]
            hessian = np.stack([np.asarray(hessian_block(j), dtype=float) for j in js])
            inverse = np.linalg.inv(np.eye(dim) + steps[js][:, None, None] * hessian)
            local = np.concatenate([np.arange(starts[a], starts[a + 1]) for a in idx])
            stacks.append(DimStack(_columns(local), hessian, inverse))
    cols = np.concatenate([np.arange(layout.offsets[j], layout.offsets[j] + d)
                           for j, d in zip(order, dims)])
    col_steps = np.repeat(steps[order], dims)
    if np.all(col_steps == col_steps[0]):  # a scalar multiplies without broadcasting along rows
        col_steps = float(col_steps[0])
    return UpdatePlan(tuple(plan), _columns(cols), col_steps, tuple(stacks))


def _matvec(stack: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(k, d, d) matrices times (..., k, d) vectors, one product per block."""
    return (stack @ v[..., None])[..., 0]


def _blocks(v: np.ndarray, local: slice | np.ndarray, dim: int) -> np.ndarray:
    """Columns ``local`` of the plan-ordered ``v`` as (..., k, dim) blocks."""
    return v[..., local].reshape(v.shape[:-1] + (-1, dim))


class SplittingMap:
    """Stochastic blockwise splitting operator family {T_i}.

    It keeps a ``__dict__``, not ``__slots__``: the cached properties below
    store their values there.
    """

    def __init__(self, flavor: str, coupling: SmoothCoupling, term: SeparableTerm,
                 steps: np.ndarray, scheme: BlockSubsetScheme, layout: BlockLayout):
        if flavor not in FLAVORS:
            raise ValueError(f"flavor must be one of {FLAVORS}, got {flavor!r}")
        m = layout.num_blocks
        steps = np.broadcast_to(np.asarray(steps, dtype=float), (m,)).copy()
        if np.any(steps <= 0):
            raise ValueError(f"steps must be positive, got {steps}")
        if coupling.layout.block_dims != layout.block_dims:
            raise DimensionMismatch("coupling layout differs from map layout")
        if term.layout.block_dims != layout.block_dims:
            raise DimensionMismatch("term layout differs from map layout")
        if scheme.max_block_index() >= m:
            raise DimensionMismatch("scheme references blocks outside the layout")
        if flavor == "fb" and coupling.gradient is None:
            raise EmptyResolvent("forward-backward needs a coupling gradient oracle")
        if flavor == "dr" and coupling.partial_resolvent is None and (
                coupling.gradient is None or coupling.hessian_block is None):
            raise EmptyResolvent("Douglas-Rachford needs a coupling with a gradient and "
                                 "hessian_block, or a partial_resolvent override")
        self.flavor = flavor
        self.coupling = coupling
        self.term = term
        self.steps = steps
        self.scheme = scheme
        self.layout = layout
        self.full_plan: UpdatePlan = self._plan(range(m))

    def _plan(self, blocks: Iterable[int]) -> UpdatePlan:
        closed_form = self.flavor == "dr" and self.coupling.partial_resolvent is None
        return _update_plan(self.layout, self.term, self.steps, blocks,
                            self.coupling.hessian_block if closed_form else None)

    @cached_property
    def probabilities(self) -> BlockProbabilities:
        """Per-block selection probabilities, built on first use and kept."""
        return block_probabilities(self.scheme, self.layout)

    @cached_property
    def outcome_masks(self) -> np.ndarray:
        """(num_outcomes, dim) booleans: the coordinates outcome i updates."""
        masks = np.zeros((self.scheme.num_outcomes, self.layout.total_dim), dtype=bool)
        for mask, subset in zip(masks, self.scheme.subsets):
            for j in subset:
                mask[self.layout.slice_of(j)] = True
        return masks

    @cached_property
    def outcome_plans(self) -> tuple[UpdatePlan, ...]:
        """One update plan per outcome, for the reference route ``apply_T`` only."""
        return tuple(self._plan(s) for s in self.scheme.subsets)


def _apply_plan(m: SplittingMap, plan: UpdatePlan, x: np.ndarray) -> np.ndarray:
    """Update the planned blocks of x, every one from the unmodified x."""
    x = m.layout.check(x)
    override = m.coupling.partial_resolvent if m.flavor == "dr" else None
    g = m.coupling.gradient(x) if override is None else None
    xp = x[..., plan.cols]
    if m.flavor == "fb":
        new = _resolve(m, plan, xp - plan.steps * g[..., plan.cols])
    else:
        reflected = reflector(_resolve(m, plan, xp), xp)
        y = np.empty_like(reflected)
        if override is not None:
            for grp in plan.groups:
                y[..., grp.local] = override(x, _blocks(reflected, grp.local, grp.dim),
                                             grp.blocks, grp.step).reshape(xp.shape[:-1] + (-1,))
        else:
            hx = np.empty_like(xp)
            for s in plan.stacks:
                hx[..., s.local] = _matvec(s.hessian, _blocks(xp, s.local, s.hessian.shape[-1])
                                           ).reshape(xp.shape[:-1] + (-1,))
            rhs = reflected - plan.steps * (g[..., plan.cols] - hx)
            for s in plan.stacks:
                y[..., s.local] = _matvec(s.inverse, _blocks(rhs, s.local, s.inverse.shape[-1])
                                          ).reshape(xp.shape[:-1] + (-1,))
        new = 0.5 * (reflector(y, reflected) + xp)
    out = np.array(x, copy=True)
    out[..., plan.cols] = new
    return out


def _resolve(m: SplittingMap, plan: UpdatePlan, v: np.ndarray) -> np.ndarray:
    """Each group's prox at its blocks of the plan-ordered v, one call per group."""
    out = np.empty_like(v)
    for grp in plan.groups:
        out[..., grp.local] = resolvent_separable(
            m.term, grp.blocks[0], _blocks(v, grp.local, grp.dim), grp.step
        ).reshape(v.shape[:-1] + (-1,))
    return out


def apply_T(m: SplittingMap, i: int, x: np.ndarray) -> np.ndarray:
    """Apply outcome i by its own plan: update subset i's blocks, keep the rest.

    The reference route; elsewhere outcome i is where(outcome_masks[i], T1 x, x).
    """
    if not 0 <= i < m.scheme.num_outcomes:
        raise DimensionMismatch(f"outcome {i} out of range for {m.scheme.num_outcomes} subsets")
    return _apply_plan(m, m.outcome_plans[i], x)


def apply_full(m: SplittingMap, x: np.ndarray) -> np.ndarray:
    """The full-block map T1: every block updated from the same input."""
    return _apply_plan(m, m.full_plan, x)


def squared_residuals(states: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Squared full-block residual ||x - T1 x||^2 of each row, given full = T1 x."""
    r = states - full
    return np.add.reduce(r * r, axis=-1)  # np.sum's reduction, without its Python wrapper


# A map fixes a point that its full-block map T1 moves by at most this much.
FIXED_POINT_TOL = 1e-12


def require_fixed(m: SplittingMap, z: np.ndarray) -> None:
    """Raise InvalidFixedPoints unless T1 moves the point z by at most FIXED_POINT_TOL.

    ``z`` is one point, of shape (dim,); a stack of points raises DimensionMismatch.
    """
    z = m.layout.check(z)
    if z.ndim != 1:
        raise DimensionMismatch(f"expected one point of shape ({m.layout.total_dim},), got {z.shape}")
    move = float(np.sqrt(squared_residuals(z, apply_full(m, z))))
    if not move <= FIXED_POINT_TOL:
        raise InvalidFixedPoints(f"declared point {z} moves by {move:.3e} under T1")


def transport_discrepancy(x, y, Tx, Ty) -> float | np.ndarray:
    """Squared difference of displacements, ||(x - Tx) - (y - Ty)||^2.

    Algebraically equal to the six-term expansion
    ||Tx-x||^2 + ||Ty-y||^2 + ||Tx-Ty||^2 + ||x-y||^2 - ||Tx-y||^2 - ||x-Ty||^2.
    """
    x, y, Tx, Ty = (np.asarray(a, dtype=float) for a in (x, y, Tx, Ty))
    d = (x - Tx) - (y - Ty)
    val = np.sum(d * d, axis=-1)
    return float(val) if np.ndim(val) == 0 else val


class RegularityConstants(Record):
    """An almost-alpha-firmly-nonexpansive certificate (alpha, violation)."""

    __slots__ = _fields = ("alpha", "violation")

    def __init__(self, alpha: float, violation: float):
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must lie in (0,1), got {alpha}")
        if violation < 0:
            raise ValueError(f"violation must be nonnegative, got {violation}")
        self.alpha = alpha
        self.violation = violation


def composite_constants(m: SplittingMap) -> RegularityConstants:
    """Worst-case constants of the full-block map from the ingredient constants.

    Both flavors give alpha = 2/3 and violation tau_f + tau_h + tau_f tau_h,
    with tau_h the term's submonotonicity (zero when it is convex).  Under
    DR tau_f is the coupling's hypomonotonicity; under FB it is the
    violation of the gradient map at the constant ALPHA_BAR = 1/2
    (``gd_violation_bound``), whose composition with the prox gives
    2 / (1 + 1/ALPHA_BAR) = 2/3.
    """
    from .operators import gd_violation_bound

    tau_h = 0.0 if m.term.convex else m.term.tau_max
    if m.flavor == "dr":
        tau_f = 0.0 if m.coupling.convex else m.coupling.tau_max
    else:
        tau_f = gd_violation_bound(m.coupling, m.steps)
    return RegularityConstants(2.0 / 3.0, tau_f + tau_h + tau_f * tau_h)


def expectation_constants(c: RegularityConstants, p: BlockProbabilities) -> RegularityConstants:
    """Constants transferred to the induced expectation inequality: (alpha, p_max * eps)."""
    return RegularityConstants(c.alpha, p.p_max * c.violation)


def expected_weighted_terms(m: SplittingMap, x: np.ndarray, y: np.ndarray):
    """(E ||T_xi x - T_xi y||_p^2, E psi_p(x, y, T_xi x, T_xi y)) in closed form.

    Block j is updated with probability p_j and the p-norm weighs it by
    1/p_j, so both exact expectations over the scheme collapse onto T1:

        E ||T_xi x - T_xi y||_p^2 = ||T1 x - T1 y||^2 + ||x - y||_p^2 - ||x - y||^2,
        E psi_p = ||(x - T1 x) - (y - T1 y)||^2.

    One ``apply_full`` on the stacked batch (x; y) gives T1 x and T1 y.  The
    first sum is taken as ||T1 x - T1 y||^2 + sum_j (1/p_j - 1) ||x_j - y_j||^2,
    whose terms are all nonnegative, so nothing cancels.  The cost does not
    depend on the number of outcomes.
    """
    x, y = np.broadcast_arrays(m.layout.check(x), m.layout.check(y))
    stacked = np.stack((x, y))
    T1x, T1y = apply_full(m, stacked.reshape(-1, x.shape[-1])).reshape(stacked.shape)
    d0, d1 = x - y, T1x - T1y
    sq = np.sum(d1 * d1 + (m.probabilities.coordinate_inverse() - 1.0) * d0 * d0, axis=-1)
    psi = transport_discrepancy(x, y, T1x, T1y)
    return (float(sq) if np.ndim(sq) == 0 else sq), psi
