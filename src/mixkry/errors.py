"""Exception types raised across the package."""


class MixkryError(Exception):
    """Base class for all package errors."""


class ArgumentError(MixkryError, ValueError):
    """Malformed or inconsistent arguments (shape mismatches, bad values)."""


class ParameterDomainError(ArgumentError):
    """A numeric parameter lies outside its admissible domain."""


class DefinitenessError(MixkryError, ValueError):
    """A matrix that must be positive definite is not."""


class DegenerateDataError(MixkryError, ValueError):
    """Input data is degenerate (zero right-hand side, empty sample set)."""


class RankError(MixkryError):
    """A factor or system is numerically rank deficient."""


class ConditioningError(MixkryError):
    """A linear solve failed due to conditioning or loss of definiteness."""


class BreakdownError(MixkryError):
    """The bidiagonalization broke down before a first iterate exists."""


class ConfigError(MixkryError):
    """A configuration file is malformed, incomplete, or inconsistent."""


class SearchError(MixkryError):
    """Parameter selection could not produce a finite minimizer."""


class FitError(MixkryError):
    """Covariance fitting failed to produce a usable result."""
