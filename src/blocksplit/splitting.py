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
they collapse onto T1 in closed form (``expected_weighted_terms``).  A map
fixes a point that each outcome map moves by at most FIXED_POINT_TOL
(``outcome_moves``), the package's one fixed-point rule.

A plan lists the blocks a map updates, grouped by (prox oracle, step,
block dim) with the group's coordinate columns.  Forward-backward takes
one coupling gradient per call and one prox call per group on (x - t g)
reshaped to (..., k, d).  Douglas-Rachford batches its reflection
r = 2 prox(x) - x through h the same way, then takes each group's partial
resolvents in one step, by one of two kinds of coupling:

- a constant block Hessian A_jj (``hessian_block``): one gradient g per
  call, since the gradient at x with block j replaced by y is
  g_j + A_jj (y - x_j), so y = (I + t A_jj)^-1 (r_j - t (g_j - A_jj x_j))
  in closed form, with each group's stacked A_jj and (I + t A_jj)^-1 in
  the plan;
- a ``partial_resolvent(x, r, blocks, t)`` override, such as
  ``coupling_diagonal_indicator``: one call per group on r of shape
  (..., k, d), returning (..., k, d).

A coupling of neither kind has no Douglas-Rachford map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .blockspace import (
    BlockLayout,
    BlockProbabilities,
    BlockSubsetScheme,
    block_probabilities,
    weighted_sq,
)
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
    cols: np.ndarray  # coordinate columns of the blocks, block after block
    step: float
    dim: int
    # closed-form Douglas-Rachford only: stacked (k, d, d) A_jj and (I + step A_jj)^-1
    hessian: np.ndarray | None = None
    inverse: np.ndarray | None = None


def _update_plan(layout: BlockLayout, term: SeparableTerm, steps: np.ndarray,
                 blocks: Iterable[int],
                 hessian_block: Callable[[int], np.ndarray] | None = None) -> tuple[UpdateGroup, ...]:
    groups: dict[tuple, list[int]] = {}
    for j in blocks:
        key = (id(term.blocks[j].prox), float(steps[j]), layout.block_dims[j])
        groups.setdefault(key, []).append(j)
    plan = []
    for (_, step, dim), js in groups.items():
        hessian = inverse = None
        if hessian_block is not None:
            hessian = np.stack([np.asarray(hessian_block(j), dtype=float) for j in js])
            inverse = np.linalg.inv(np.eye(dim) + step * hessian)
        cols = np.concatenate([np.arange(layout.offsets[j], layout.offsets[j] + dim) for j in js])
        plan.append(UpdateGroup(tuple(js), cols, step, dim, hessian, inverse))
    return tuple(plan)


def _matvec(stack: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(k, d, d) matrices times (..., k, d) vectors, one product per block."""
    return (stack @ v[..., None])[..., 0]


@dataclass
class SplittingMap:
    """Stochastic blockwise splitting operator family {T_i}."""

    flavor: str
    coupling: SmoothCoupling
    term: SeparableTerm
    steps: np.ndarray
    scheme: BlockSubsetScheme
    layout: BlockLayout
    full_plan: tuple[UpdateGroup, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ValueError(f"flavor must be one of {FLAVORS}, got {self.flavor!r}")
        m = self.layout.num_blocks
        self.steps = np.broadcast_to(np.asarray(self.steps, dtype=float), (m,)).copy()
        if np.any(self.steps <= 0):
            raise ValueError(f"steps must be positive, got {self.steps}")
        if self.coupling.layout.block_dims != self.layout.block_dims:
            raise DimensionMismatch("coupling layout differs from map layout")
        if self.term.layout.block_dims != self.layout.block_dims:
            raise DimensionMismatch("term layout differs from map layout")
        if self.scheme.max_block_index() >= m:
            raise DimensionMismatch("scheme references blocks outside the layout")
        c = self.coupling
        if self.flavor == "fb" and c.gradient is None:
            raise EmptyResolvent("forward-backward needs a coupling gradient oracle")
        if self.flavor == "dr" and c.partial_resolvent is None and (
                c.gradient is None or c.hessian_block is None):
            raise EmptyResolvent("Douglas-Rachford needs a coupling with a gradient and "
                                 "hessian_block, or a partial_resolvent override")
        self.full_plan = self._plan(range(m))

    def _plan(self, blocks: Iterable[int]) -> tuple[UpdateGroup, ...]:
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
    def outcome_plans(self) -> tuple[tuple[UpdateGroup, ...], ...]:
        """One update plan per outcome, for the reference route ``apply_T`` only."""
        return tuple(self._plan(s) for s in self.scheme.subsets)


def _apply_plan(m: SplittingMap, plan: tuple[UpdateGroup, ...], x: np.ndarray) -> np.ndarray:
    """Update the planned blocks of x, every one from the unmodified x."""
    x = m.layout.check(x)
    out = np.array(x, copy=True)
    override = m.coupling.partial_resolvent if m.flavor == "dr" else None
    g = m.coupling.gradient(x) if override is None else None
    for grp in plan:
        xg = x[..., grp.cols]
        shape = x.shape[:-1] + (len(grp.blocks), grp.dim)
        if m.flavor == "fb":
            v = xg - grp.step * g[..., grp.cols]
            resolved = resolvent_separable(m.term, grp.blocks[0], v.reshape(shape), grp.step)
            out[..., grp.cols] = resolved.reshape(xg.shape)
            continue
        xb = xg.reshape(shape)
        reflected = reflector(resolvent_separable(m.term, grp.blocks[0], xb, grp.step), xb)
        if override is not None:
            y = override(x, reflected, grp.blocks, grp.step)
        else:
            gb = g[..., grp.cols].reshape(shape)
            y = _matvec(grp.inverse, reflected - grp.step * (gb - _matvec(grp.hessian, xb)))
        out[..., grp.cols] = (0.5 * (reflector(y, reflected) + xb)).reshape(xg.shape)
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


# A map fixes a point that each of its outcome maps moves by at most this much.
FIXED_POINT_TOL = 1e-12


def outcome_moves(m: SplittingMap, points: np.ndarray) -> np.ndarray:
    """(k, num_outcomes) distances ||T_i z - z|| of k points z, from one T1 evaluation of all."""
    points = np.atleast_2d(m.layout.check(points))
    moved = np.where(m.outcome_masks, apply_full(m, points)[:, None, :], points[:, None, :])
    return np.linalg.norm(moved - points[:, None, :], axis=-1)


def require_fixed(m: SplittingMap, points: np.ndarray) -> None:
    """Raise InvalidFixedPoints at the first point that an outcome moves by over FIXED_POINT_TOL."""
    for z, moves in zip(np.atleast_2d(points), outcome_moves(m, points)):
        i = int(np.argmax(moves > FIXED_POINT_TOL))  # the first outcome moving z too far, if any
        if moves[i] > FIXED_POINT_TOL:
            raise InvalidFixedPoints(
                f"declared point {z} moves by {moves[i]:.3e} under outcome {i}")


def squared_residuals(states: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Squared full-block residual ||x - T1 x||^2 of each row, given full = T1 x."""
    r = states - full
    return np.sum(r * r, axis=-1)


def transport_discrepancy(x, y, Tx, Ty) -> float | np.ndarray:
    """Squared difference of displacements, ||(x - Tx) - (y - Ty)||^2.

    Algebraically equal to the six-term expansion
    ||Tx-x||^2 + ||Ty-y||^2 + ||Tx-Ty||^2 + ||x-y||^2 - ||Tx-y||^2 - ||x-Ty||^2.
    """
    x, y, Tx, Ty = (np.asarray(a, dtype=float) for a in (x, y, Tx, Ty))
    d = (x - Tx) - (y - Ty)
    val = np.sum(d * d, axis=-1)
    return float(val) if np.ndim(val) == 0 else val


def weighted_transport_discrepancy(x, y, Tx, Ty, p: BlockProbabilities) -> float | np.ndarray:
    """Transport discrepancy in the selection-weighted norm."""
    x, y, Tx, Ty = (np.asarray(a, dtype=float) for a in (x, y, Tx, Ty))
    return weighted_sq((x - Tx) - (y - Ty), p)


@dataclass(frozen=True)
class RegularityConstants:
    """An almost-alpha-firmly-nonexpansive certificate (alpha, violation)."""

    alpha: float
    violation: float

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError(f"alpha must lie in (0,1), got {self.alpha}")
        if self.violation < 0:
            raise ValueError(f"violation must be nonnegative, got {self.violation}")

    @property
    def transport_weight(self) -> float:
        """Coefficient (1 - alpha)/alpha multiplying the discrepancy term."""
        return (1.0 - self.alpha) / self.alpha


def composite_constants(m: SplittingMap, alpha_bar: float = 0.5) -> RegularityConstants:
    """Worst-case constants of the full-block map from the ingredient constants.

    DR: alpha = 2/3 and violation tau_f + tau_h + tau_f tau_h (zero when both
    ingredients are convex).  FB: alpha = 2 / (1 + 1/max(1/2, alpha_gd)) where
    alpha_gd = alpha_bar is the target constant of the gradient map, and the
    violation composes the gradient-map violation with the term's
    submonotonicity the same multiplicative way.
    """
    from .operators import gd_violation_bound

    tau_h = 0.0 if m.term.convex else m.term.tau_max
    if m.flavor == "dr":
        tau_f = 0.0 if m.coupling.convex else m.coupling.tau_max
        eps = tau_f + tau_h + tau_f * tau_h
        return RegularityConstants(2.0 / 3.0, eps)
    eps_gd = gd_violation_bound(m.coupling, m.steps, alpha_bar)
    alpha = 2.0 / (1.0 + 1.0 / max(0.5, alpha_bar))
    eps = eps_gd + tau_h + eps_gd * tau_h
    return RegularityConstants(alpha, eps)


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
