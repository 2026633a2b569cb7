"""Exception and warning types shared across the toolkit."""


class DemonScatterError(Exception):
    """Base class for all toolkit errors."""


class GridError(DemonScatterError, ValueError):
    """Invalid grid specification (bad range or too few points)."""


class NegativeVelocityError(DemonScatterError, ValueError):
    """Velocity inputs must be non-negative."""


class NonPositiveEnergyError(DemonScatterError, ValueError):
    """Energy at or below the threshold an operation needs: E <= 0 for a
    kernel, or channel 0 (the incident channel) closed or lossy."""


class ShapeMismatchError(DemonScatterError, ValueError):
    """S-matrix blocks (or kernel matrices) have inconsistent shapes."""


class ChannelIndexError(DemonScatterError, IndexError):
    """Channel index out of range or refers to a closed channel."""


class ModelError(DemonScatterError, ValueError):
    """Local potential model violates its invariants."""


class SolverError(DemonScatterError, RuntimeError):
    """Numerical solve failed (singular or near-singular linear system)."""


class ThresholdSingularityError(DemonScatterError):
    """A channel exactly at its threshold, where the nonlocal kernel (q = 0) or
    a derivative with respect to a parameter that moves that threshold diverges."""


class InfeasiblePairError(DemonScatterError, ValueError):
    """(|T|^2, |Rt|^2) pair outside the feasible triangle for D = 0."""


class UnsupportedModelError(DemonScatterError, ValueError):
    """Operation restricted to the two-channel laser-coupling model family."""


class ConfigError(DemonScatterError, ValueError):
    """Invalid run configuration (unknown keys, missing files, bad values)."""


class ResolutionWarning(UserWarning):
    """Grid does not resolve the shortest open wavelength with >= 20 points."""
