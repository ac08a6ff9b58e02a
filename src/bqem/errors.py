"""Exception types shared across the library."""


class BqemError(Exception):
    """Base class for all library-specific errors."""


class OriginSingularity(BqemError):
    """A kernel was evaluated at (or too close to) its singular point."""


class InadmissibleAlpha(BqemError):
    """The wavenumber has negative imaginary part; the kernel would grow at infinity."""


class ChiralResonance(BqemError):
    """1 + alpha*beta or 1 - alpha*beta vanishes; the split wavenumbers blow up."""


class GridTooSmall(BqemError):
    """The lattice has too few nodes for a central stencil, or leaves no valid interior."""


class LatticeMismatch(BqemError):
    """A field's shape does not match the lattice it is used on, or two lattices that must agree differ."""


class VanishingF(BqemError):
    """The particular solution f drops below the division-safety tolerance."""


class BaseOutOfGrid(BqemError):
    """The antiderivative base node is outside the valid interior of the grid."""


class DegenerateSample(BqemError):
    """A surface sample landed on a parametrization pole with no tangent frame."""


class SourceOnBoundary(BqemError):
    """A fundamental-solution source point coincides with an evaluation point."""


class SourceSingularity(BqemError):
    """A field evaluation point coincides with one of the solution's source points."""


class SingularMatrix(BqemError):
    """The triangular factor of a dense solve (U of LU, R of QR) has a zero or non-finite
    diagonal entry, or the solve through it gives non-finite coefficients."""


class NonPositiveMedium(BqemError):
    """Permittivity or permeability is not finite and strictly positive on the grid."""


class AchiralUnsupported(BqemError):
    """The chiral Green function is not defined for beta = 0."""


class ConfigError(BqemError):
    """An experiment configuration is missing or has an ill-typed field."""
