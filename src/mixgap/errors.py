"""Typed domain errors shared across the package.

Every error carries a stable machine-readable ``code`` so the CLI can emit
structured error objects and map them to exit codes.
"""

from __future__ import annotations


class MixgapError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "ERROR"


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


class NotSymmetricError(MixgapError):
    """A symmetric eigensolver was handed a non-symmetric matrix."""

    code = "NOT_SYMMETRIC"


class NoConvergenceError(MixgapError):
    """Iterative eigensolver failed to reach the requested residual tolerance."""

    code = "NO_CONVERGENCE"


class TrajectoryTooShortError(MixgapError):
    """Trajectory does not contain a single transition at the requested skip."""

    code = "TRAJECTORY_TOO_SHORT"


class UnvisitedStateError(MixgapError):
    """Some states have zero visits, so the unsmoothed estimator is undefined."""

    code = "UNVISITED_STATE"

    def __init__(self, states):
        self.states = sorted(int(s) for s in states)
        super().__init__(f"states never visited: {self.states}")


class NoUsableKError(MixgapError):
    """Every skip rate in the prefix hit unvisited states."""

    code = "NO_USABLE_K"


class NoTriggerError(MixgapError):
    """The amplified estimator exhausted the trajectory before triggering."""

    code = "NO_TRIGGER"
