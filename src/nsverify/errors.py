"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid grid, trajectory, or scenario configuration."""


class GridMismatchError(ConfigurationError):
    """Operands live on different grids."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class HorizonError(DomainError):
    """Physical time at or beyond the similarity horizon T."""


class StepSizeError(ValueError):
    """Time step rejected (non-positive, above cap, or CFL violation)."""


class RescaleError(ValueError):
    """Dilation would push active frequencies outside the grid."""


class ResolutionError(RuntimeError):
    """Spectral content cannot be represented adequately on the grid."""


class EnergyIncreaseError(ResolutionError):
    """Kinetic energy rose between samples: the discrete run is not resolved."""


class NoRootError(DomainError):
    """Quadratic majorant has no real root (discriminant negative)."""


class FitError(ValueError):
    """Decay-rate fit impossible (nonpositive values or short window)."""
