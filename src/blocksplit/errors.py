"""Exception types shared across the package."""

from __future__ import annotations


class BlocksplitError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(BlocksplitError):
    """Vector length or block count does not match the layout."""


class UncoveredBlock(BlocksplitError):
    """A sampling scheme leaves some block with zero selection probability."""


class EmptyResolvent(BlocksplitError):
    """The requested resolvent has empty value at this point."""


class Diverged(BlocksplitError):
    """A run went non-finite; names the iteration and what went non-finite.

    ``chain`` is the first chain with a non-finite state, or None when the
    states stayed finite but a recorded diagnostic did not.
    """

    def __init__(self, k: int, what: str, chain: int | None = None):
        super().__init__(f"run diverged: {what} at k={k}")
        self.k = k
        self.chain = chain


class NotPSD(BlocksplitError):
    """A matrix declared convex/PSD fails the eigenvalue check."""


class UnsupportedSet(BlocksplitError):
    """Set descriptor or descriptor pair outside the supported gallery."""


class CostOverflow(BlocksplitError):
    """Squared weighted distances between two finite supports overflow float64."""


class SolverFailure(BlocksplitError):
    """An exact transport solve returned a non-optimal status."""


class InvalidFixedPoints(BlocksplitError):
    """A declared fixed point is moved by the full-block map T1 by more than FIXED_POINT_TOL."""


class InadmissibleGauge(BlocksplitError):
    """Gauge parameters do not produce a contraction factor in (0, 1)."""


class DegenerateSequence(BlocksplitError):
    """Too few usable entries to fit a rate."""


class ConfigError(BlocksplitError):
    """Experiment configuration is malformed; message names the field."""
