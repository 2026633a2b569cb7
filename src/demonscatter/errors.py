"""Exception and warning types shared across the toolkit."""


class DemonScatterError(Exception):
    """Base class for all toolkit errors."""


class GridError(DemonScatterError, ValueError):
    """Invalid grid specification (bad range or too few points)."""


class NonPositiveEnergyError(DemonScatterError, ValueError):
    """Energy at or below the threshold an operation needs: E <= 0 for a
    kernel, or channel 0 (the incident channel) closed or lossy."""


class ChannelIndexError(DemonScatterError, IndexError):
    """Channel index out of range or refers to a closed channel."""


class ModelError(DemonScatterError, ValueError):
    """Local potential model violates its invariants, or lies outside the model
    family an operation supports."""


class SolverError(DemonScatterError, RuntimeError):
    """Numerical solve failed (singular or near-singular linear system)."""


class ThresholdSingularityError(DemonScatterError):
    """A channel exactly at its threshold, where the nonlocal kernel (q = 0) or
    a derivative with respect to a parameter that moves that threshold diverges."""


class ConfigError(DemonScatterError, ValueError):
    """Invalid run configuration (unknown keys, missing files, bad values)."""


class ResolutionWarning(UserWarning):
    """Grid does not resolve the shortest open wavelength with >= 20 points."""
