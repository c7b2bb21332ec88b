"""Typed domain errors shared across the package.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured error objects and map them to exit codes. A batch function
returns one slot per chain, holding its result or the error it raises alone.
"""

from __future__ import annotations


class MixgapError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "ERROR"


def _value(slot):
    """The result in one chain's slot of a batch; raises it when it is an error."""
    if isinstance(slot, MixgapError):
        raise slot
    return slot


class ReducibleChainError(MixgapError):
    """The support digraph of the transition matrix is not strongly connected."""

    code = "REDUCIBLE"


class NotMixedByCapError(MixgapError):
    """Worst-case TV distance stayed above threshold up to the iteration cap."""

    code = "NOT_MIXED_BY_CAP"


class NonconvergentGapError(MixgapError):
    """The pseudo-spectral gap loop cannot certify its maxima.

    Raised for a periodic chain, whose per-skip gaps are all zero, and when no
    stopping certificate fires by the loop's k-cap.
    """

    code = "NONCONVERGENT"


class NoConvergenceError(MixgapError):
    """A numerical solve failed to reach its residual tolerance."""

    code = "NO_CONVERGENCE"


class TrajectoryTooShortError(MixgapError):
    """Trajectory does not contain a single transition at the requested skip."""

    code = "TRAJECTORY_TOO_SHORT"


class NoUsableKError(MixgapError):
    """Every skip rate in the prefix hit unvisited states."""

    code = "NO_USABLE_K"


class NoTriggerError(MixgapError):
    """The amplified estimator exhausted the trajectory before triggering."""

    code = "NO_TRIGGER"
