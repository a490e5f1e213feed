"""Exception types shared across the package: one class per exit code."""


class GeoscaleError(Exception):
    """Base class for all package errors."""


class ConfigError(GeoscaleError, ValueError):
    """Invalid run configuration (exit code 1)."""


class DataError(GeoscaleError, ValueError):
    """Unreadable or invalid input data, degenerate geometry, or an argument
    outside the domain of its operation (exit code 2)."""


class InsufficientDataError(GeoscaleError, ValueError):
    """Not enough data for the requested fit or statistic: too few points,
    zero variance in x, or a quantity absent from the input (exit code 3)."""
