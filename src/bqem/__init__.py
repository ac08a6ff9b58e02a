"""Biquaternion electromagnetics.

Complex-quaternion algebra, closed-form fundamental solutions of the
perturbed Dirac operators, a method-of-fundamental-solutions solver for
Maxwell scattering in chiral and achiral media, the causal Green function
of the time-dependent chiral Maxwell operator, quaternionic forms of
Maxwell's equations in inhomogeneous media, and grid-based verification of
the operator factorizations connecting them.
"""

__version__ = "0.1.0"

from .algebra import (
    Biquaternion,
    I1,
    I2,
    I3,
    ONE,
    cross,
    dot,
)
from .chiral_time import (
    green_function,
    green_refinement,
    green_residual,
)
from .diffops import (
    PotentialSlot,
    antiderivative,
    coefficients_to_vekua,
    conductivity_factorization_residual,
    darboux_transform,
    dirac_residual,
    generating_quartet,
    helmholtz_factorization_residual,
    schrodinger_factorization_residual,
    vekua_coefficient_identity_residual,
    vekua_residual,
)
from .grids import (
    Lattice,
    SpaceTimeLattice,
)
from .inhomog import (
    EMState,
    MediumFields,
    build_medium,
    manufactured_state,
    maxwell_residuals,
    quaternionic_residual,
    static_residuals,
)
from .kernels import (
    ChiralMedium,
    chiral_wavenumbers,
    dipole_field,
    fundamental_solution,
    helmholtz_kernel,
)
from .scattering import (
    Ellipsoid,
    MfsProblem,
    MfsSolution,
    SurfaceSamples,
    assemble_system,
    evaluate_fields,
    run_benchmark,
    sample_surface,
    solve_dense,
    solve_problem,
)
