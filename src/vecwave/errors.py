"""Exception types shared across the package."""


class VecwaveError(Exception):
    """Base class for all package-specific errors."""


class ResolutionError(VecwaveError):
    """A dyadic grid is too coarse for the requested operation."""


class DimensionError(VecwaveError):
    """Channel counts, grid steps, or array shapes do not line up."""


class SizeGuardError(VecwaveError):
    """A request would exceed a supported size: an enumeration, a sweep or a table."""


class NotOrthonormalError(VecwaveError):
    """A numerically checked Gram matrix deviates too far from identity."""


class FileFormatError(VecwaveError):
    """A file does not parse as the expected on-disk format."""


class CorruptionError(VecwaveError):
    """Structurally inconsistent decomposition data."""
