"""Exception types shared across the package."""


class GeoscaleError(Exception):
    """Base class for all package errors."""


class DegenerateGeometryError(GeoscaleError, ValueError):
    """Geometry has too few distinct vertices, a non-finite vertex, or zero
    extent where extent is required."""


class InvariantViolationError(GeoscaleError, ValueError):
    """An internal invariant was violated (e.g. hole area exceeding outer area)."""


class InsufficientDataError(GeoscaleError, ValueError):
    """Not enough data points for the requested statistic or fit."""


class DegenerateFitError(GeoscaleError, ValueError):
    """Regression input has zero variance in the independent variable."""


class DomainError(GeoscaleError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class UnavailableError(GeoscaleError, ValueError):
    """Requested quantity is not present in the input data (e.g. no youth counts)."""


class ConfigError(GeoscaleError, ValueError):
    """Invalid run configuration."""


class DataError(GeoscaleError, ValueError):
    """Unreadable or structurally invalid input data."""
