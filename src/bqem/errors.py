"""Exception types shared across the library."""


class BqemError(Exception):
    """Base class for all library-specific errors."""


class OriginSingularity(BqemError):
    """A kernel was evaluated at (or too close to) its singular point."""


# The two rules on a medium's wavenumbers are also ValueErrors: ChiralMedium
# and MfsProblem apply them when built, like every other check on a value.
class InadmissibleAlpha(BqemError, ValueError):
    """The wavenumber has negative imaginary part; the kernel would grow at infinity."""


class ChiralResonance(BqemError, ValueError):
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


class SourceSingularity(BqemError):
    """A collocation or field evaluation point lies within COINCIDENCE_TOL max_j |y_j| of a source point y_j."""


class SingularMatrix(BqemError):
    """The triangular factor of a dense solve (U of LU, R of QR) has a zero or non-finite
    diagonal entry, or the solve through it gives non-finite coefficients."""


class NonPositiveMedium(BqemError):
    """Permittivity or permeability is not finite and strictly positive on the grid."""


class AchiralUnsupported(BqemError):
    """The chiral Green function is not defined for beta = 0 (or beta^2 eps mu = 0 in double precision)."""


class ConfigError(BqemError):
    """An experiment configuration is missing or has an ill-typed field."""
