"""Method-of-fundamental-solutions solver for Maxwell boundary value
problems on ellipsoids, in chiral or achiral homogeneous media.

The approximate fields are right linear combinations of the Dirac-operator
kernels placed at N source points y_j on an auxiliary ellipsoid (shrunk
inside the surface for exterior problems, inflated outside for interior
ones):

    E_N(x) = 1/2    Vec( sum_j K(+alpha1)(x - y_j) a_j + K(-alpha2)(x - y_j) b_j )
    H_N(x) = 1/(2j) Vec( sum_j K(+alpha1)(x - y_j) a_j - K(-alpha2)(x - y_j) b_j )

with constant biquaternion coefficients a_j, b_j (8N complex unknowns).
Collocation at 2N surface points imposes, per point, the two tangential
components of E_N x n = f (or the impedance condition) plus the two scalar
constraints Sc(sum K a + sum K b) = 0 and Sc(sum K a - sum K b) = 0 that
keep the combinations purely vectorial, giving a square 8N x 8N complex
system.  Collocation and source points are laid out on a generalized
(golden-angle) spiral, which is quasi-uniform and never touches the
parametrization poles.

The magnetic-dipole exterior problem is the reference benchmark: solve
with boundary data from the known dipole field and report the maximum
componentwise error on an inflated evaluation ellipsoid for a sweep of N.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
import scipy.linalg

from .algebra import Biquaternion, _mul_components
from .errors import DegenerateSample, SingularMatrix, SourceOnBoundary, SourceSingularity
from .kernels import (
    ChiralMedium,
    dipole_field,
    fundamental_solution,
    vector_potential_curl,
    vector_potential_curl_curl,
)

GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))

# Collocation and source points closer than this are rejected outright.
COINCIDENCE_TOL = 1e-10

# Above this condition estimate a solve warns that one of the split
# wavenumbers may sit near a Dirichlet eigenvalue of the auxiliary domain
# (the completeness hypothesis); conditioning is the observable symptom.
# The estimate is LAPACK's 1-norm one, which runs 8-20 times the 2-norm
# condition number on the benchmark systems, so 1e18 flags a 2-norm
# condition of about 1e17, ten times the reciprocal of the unit roundoff.
CONDITION_WARN = 1e18


@dataclass(frozen=True)
class Ellipsoid:
    """Ellipsoid x1 = a cos(eta) sin(nu), x2 = b sin(eta) sin(nu), x3 = c cos(nu)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if min(self.a, self.b, self.c) <= 0.0:
            raise ValueError("semi-axes must be positive")

    def semi_axes(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c])


@dataclass(frozen=True)
class SurfaceSamples:
    """A batch of surface points with outward normals and tangent frames.

    normal = t1 x t2 with all three unit length and mutually orthogonal.
    """

    pos: np.ndarray
    normal: np.ndarray
    t1: np.ndarray
    t2: np.ndarray

    def __len__(self) -> int:
        return self.pos.shape[0]


def surface_frame(surface: Ellipsoid, eta, nu, scale: float = 1.0) -> SurfaceSamples:
    """Positions plus orthonormal frames at parameter values (eta, nu).

    Normals come from the cross product of the parameter derivatives,
    orientation-checked against the outward implicit-surface gradient;
    the tangent frame is Gram-Schmidt from the eta-derivative.
    """
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    nu = np.atleast_1d(np.asarray(nu, dtype=float))
    a, b, c = scale * surface.a, scale * surface.b, scale * surface.c
    sn, cn = np.sin(nu), np.cos(nu)
    se, ce = np.sin(eta), np.cos(eta)
    if np.any(np.abs(sn) < 1e-12):
        raise DegenerateSample("sample at a parametrization pole (nu = 0 or pi)")

    pos = np.stack([a * ce * sn, b * se * sn, c * cn], axis=-1)
    r_eta = np.stack([-a * se * sn, b * ce * sn, np.zeros_like(sn)], axis=-1)
    r_nu = np.stack([a * ce * cn, b * se * cn, -c * sn], axis=-1)

    n = np.cross(r_nu, r_eta)
    norm = np.linalg.norm(n, axis=-1, keepdims=True)
    if np.any(norm < 1e-14):
        raise DegenerateSample("vanishing normal (degenerate parameter point)")
    n = n / norm
    outward = np.stack([pos[..., 0] / a**2, pos[..., 1] / b**2, pos[..., 2] / c**2], axis=-1)
    flip = np.sum(n * outward, axis=-1) < 0.0
    n[flip] = -n[flip]

    t1 = r_eta / np.linalg.norm(r_eta, axis=-1, keepdims=True)
    t2 = np.cross(n, t1)
    return SurfaceSamples(pos=pos, normal=n, t1=t1, t2=t2)


def sample_surface(surface: Ellipsoid, count: int, scale: float = 1.0) -> SurfaceSamples:
    """Quasi-uniform golden-angle spiral of ``count`` samples on the scaled surface."""
    if count < 1:
        raise ValueError("count must be >= 1")
    k = np.arange(count)
    z = 1.0 - (2.0 * k + 1.0) / count
    nu = np.arccos(z)
    eta = np.mod(GOLDEN_ANGLE * k, 2.0 * np.pi)
    return surface_frame(surface, eta, nu, scale)


def parametric_grid(surface: Ellipsoid, n_eta: int, n_nu: int, scale: float = 1.0) -> SurfaceSamples:
    """Regular (eta, nu) evaluation grid, poles excluded."""
    eta = 2.0 * np.pi * np.arange(n_eta) / n_eta
    nu = np.pi * (np.arange(n_nu) + 0.5) / n_nu
    ee, nn = np.meshgrid(eta, nu, indexing="ij")
    return surface_frame(surface, ee.ravel(), nn.ravel(), scale)


@dataclass(frozen=True)
class MfsProblem:
    """One boundary value problem for the solver.

    ``boundary_data`` receives the collocation SurfaceSamples and returns
    the (n, 3) tangential datum f.  ``impedance`` None means a perfect
    conductor (E x n = f); a complex value xi switches the two tangential
    rows to E x n - xi [(H x n) x n] = f.  Exterior problems place sources
    on a shrunk copy of the surface (scale < 1), interior on an inflated
    one (scale > 1).  ``oversample`` > 1 collocates more than 2N points and
    solves in the least-squares sense.
    """

    surface: Ellipsoid
    medium: ChiralMedium
    n_sources: int
    source_scale: float
    side: str = "exterior"
    boundary_data: Callable[[SurfaceSamples], np.ndarray] | None = None
    impedance: complex | None = None
    oversample: float = 1.0

    def __post_init__(self):
        if self.side not in ("exterior", "interior"):
            raise ValueError("side must be 'exterior' or 'interior'")
        if self.n_sources < 1:
            raise ValueError("n_sources must be >= 1")
        if self.side == "exterior" and not 0.0 < self.source_scale < 1.0:
            raise ValueError("exterior problems need source_scale in (0, 1)")
        if self.side == "interior" and self.source_scale <= 1.0:
            raise ValueError("interior problems need source_scale > 1")
        if self.oversample < 1.0:
            raise ValueError("oversample must be >= 1")

    def n_collocation(self) -> int:
        return int(np.ceil(2 * self.n_sources * self.oversample))


def source_points(problem: MfsProblem) -> SurfaceSamples:
    return sample_surface(problem.surface, problem.n_sources, problem.source_scale)


def collocation_points(problem: MfsProblem) -> SurfaceSamples:
    return sample_surface(problem.surface, problem.n_collocation(), 1.0)


def _tangential_rows(out: np.ndarray, d: np.ndarray, k0: np.ndarray, kv: np.ndarray) -> None:
    """Write the coefficients of <d, Vec(K a)> over a = (a0, av) into ``out``.

    By the product rule of ``_mul_components``, Vec(K a) = a0 kv + k0 av +
    kv x av, so the row is [d.kv, k0 d + d x kv] for each collocation
    direction d (shape (C, 3)) against kernels K = (k0, kv) of shape (C, N).
    """
    d = d[:, None, :]
    out[..., 0] = np.sum(d * kv, axis=-1)
    out[..., 1:] = k0[..., None] * d + np.cross(d, kv)


def _assemble_rows(problem: MfsProblem, col: SurfaceSamples, src: SurfaceSamples):
    """Matrix and right-hand side rows for the given collocation batch."""
    dx = col.pos[:, None, :] - src.pos[None, :, :]
    if np.min(np.linalg.norm(dx, axis=-1)) < COINCIDENCE_TOL:
        raise SourceOnBoundary("a source point coincides with a collocation point")
    med = problem.medium
    n_col, n_src = len(col), len(src)

    # axes: collocation point, row kind, branch (a or b), source, component
    A = np.empty((n_col, 4, 2, n_src, 4), dtype=complex)
    for branch, (alpha, sign) in enumerate(((med.alpha1, 1), (med.alpha2, -1))):
        K = fundamental_solution(alpha, dx, sign=sign).components
        k0, kv = K[..., 0], K[..., 1:]
        # branch b enters H_N and the second scalar constraint with the
        # same sign it carries in K(sign * alpha)
        for m, t in enumerate((col.t1, col.t2)):
            # tangential projections of E_N x n reduce to dots with n x t; an
            # impedance xi adds +xi <H_N, t> since (H x n) x n = n<H,n> - H
            d = 0.5 * np.cross(col.normal, t)
            if problem.impedance is not None:
                d = d + sign * (complex(problem.impedance) / 2j) * t
            _tangential_rows(A[:, m, branch], d, k0, kv)
        A[:, 2, branch, :, 0] = k0
        A[:, 2, branch, :, 1:] = -kv
        A[:, 3, branch] = sign * A[:, 2, branch]

    rhs = np.zeros(4 * n_col, dtype=complex)
    if problem.boundary_data is not None:
        f = np.asarray(problem.boundary_data(col), dtype=complex)
        rhs[0::4] = np.einsum("ci,ci->c", f, col.t1.astype(complex))
        rhs[1::4] = np.einsum("ci,ci->c", f, col.t2.astype(complex))
    return A.reshape(4 * n_col, 8 * n_src), rhs


def assemble_system(problem: MfsProblem) -> tuple[np.ndarray, np.ndarray]:
    """Collocation matrix (4C x 8N) and right-hand side for the problem.

    Four rows per collocation point: two tangential boundary-condition
    components and the two scalar-part constraints.
    """
    return _assemble_rows(problem, collocation_points(problem), source_points(problem))


@dataclass(frozen=True)
class SolveResult:
    coeffs: np.ndarray
    cond: float
    residual: float


def _check_triangular(tri: np.ndarray) -> None:
    """The one failure rule: a zero or non-finite diagonal entry in U or R."""
    d = np.diag(tri)
    bad = np.flatnonzero(~np.isfinite(d) | (d == 0))
    if bad.size:
        raise SingularMatrix(f"triangular factor has diagonal entry {d[bad[0]]} at index {bad[0]}")


def solve_dense(matrix: np.ndarray, rhs: np.ndarray) -> SolveResult:
    """LU with partial pivoting (square) or economic QR least squares (tall).

    ``cond`` is LAPACK's 1-norm condition estimate on the triangular factor
    (``zgecon`` on the LU factors, ``ztrcon`` on R).  Conditioning rejects
    nothing, as an ill-conditioned MFS system can still fit accurately; the
    residual is reported instead.  SingularMatrix: U or R is not invertible.
    """
    matrix = np.asarray(matrix, dtype=complex)
    rhs = np.asarray(rhs, dtype=complex)
    m, n = matrix.shape
    if m == n:
        lu, piv = scipy.linalg.lu_factor(matrix, check_finite=False)
        _check_triangular(lu)
        x = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
        rcond, _ = scipy.linalg.lapack.zgecon(lu, np.linalg.norm(matrix, 1), norm="1")
    elif m > n:
        q, r = scipy.linalg.qr(matrix, mode="economic", check_finite=False)
        _check_triangular(r)
        x = scipy.linalg.solve_triangular(r, q.conj().T @ rhs, check_finite=False)
        rcond, _ = scipy.linalg.lapack.ztrcon(r, norm="1")
    else:
        raise ValueError("system has fewer rows than unknowns")
    res = float(np.linalg.norm(matrix @ x - rhs) / max(np.linalg.norm(rhs), 1e-300))
    return SolveResult(coeffs=x, cond=1.0 / rcond if rcond > 0.0 else np.inf, residual=res)


@dataclass(frozen=True)
class MfsSolution:
    """Source points and solved coefficients defining E_N, H_N."""

    sources: np.ndarray
    coeffs_a: Biquaternion
    coeffs_b: Biquaternion
    medium: ChiralMedium
    cond: float = np.nan
    residual: float = np.nan


def solve_problem(problem: MfsProblem) -> MfsSolution:
    A, rhs = assemble_system(problem)
    out = solve_dense(A, rhs)
    if out.cond > CONDITION_WARN:
        warnings.warn(
            f"condition estimate {out.cond:.2e}: a split wavenumber may be near a "
            "Dirichlet eigenvalue of the auxiliary domain",
            stacklevel=2,
        )
    n = problem.n_sources
    coeffs = out.coeffs.reshape(2 * n, 4)
    return MfsSolution(
        sources=source_points(problem).pos,
        coeffs_a=Biquaternion(coeffs[:n]),
        coeffs_b=Biquaternion(coeffs[n:]),
        medium=problem.medium,
        cond=out.cond,
        residual=out.residual,
    )


def evaluate_fields(sol: MfsSolution, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E_N, H_N and the scalar-part leak at points x (batched, (..., 3)).

    sc_leak is the larger modulus of the scalar parts of the two kernel
    combinations; it measures how well the purely-vectorial constraints
    carry over from the collocation points.
    """
    x = np.asarray(x, dtype=float)
    dx = x[..., None, :] - sol.sources
    if np.min(np.linalg.norm(dx, axis=-1)) < COINCIDENCE_TOL:
        raise SourceSingularity("evaluation point coincides with a source")
    Kp = fundamental_solution(sol.medium.alpha1, dx, sign=1)
    Km = fundamental_solution(sol.medium.alpha2, dx, sign=-1)
    terms_a = _mul_components(Kp.components, sol.coeffs_a.components)
    terms_b = _mul_components(Km.components, sol.coeffs_b.components)
    sum_a = terms_a.sum(axis=-2)
    sum_b = terms_b.sum(axis=-2)
    plus = sum_a + sum_b
    minus = sum_a - sum_b
    E = 0.5 * plus[..., 1:]
    H = minus[..., 1:] / 2j
    sc_leak = np.maximum(np.abs(plus[..., 0]), np.abs(minus[..., 0]))
    return E, H, sc_leak


Fields = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


def tangential_datum(reference: Fields) -> Callable[[SurfaceSamples], np.ndarray]:
    """Boundary datum f = E x n from a reference field, points -> (E, H)."""

    def f(samples: SurfaceSamples) -> np.ndarray:
        E, _ = reference(samples.pos)
        return np.cross(E, samples.normal)

    return f


def dipole_boundary_data(moment, medium: ChiralMedium) -> Callable[[SurfaceSamples], np.ndarray]:
    """Tangential datum f = E_dipole x n for the achiral reference problem."""
    return tangential_datum(partial(dipole_field, np.asarray(moment, dtype=float), medium.alpha))


def field_errors(sol: MfsSolution, reference: Fields, pts) -> tuple[float, float, float]:
    """Max |E_N - E| and max |H_N - H| over the points, and the largest scalar leak there."""
    E, H, leak = evaluate_fields(sol, pts)
    E_ref, H_ref = reference(pts)
    return float(np.max(np.abs(E - E_ref))), float(np.max(np.abs(H - H_ref))), float(np.max(leak))


def chiral_point_source(medium: ChiralMedium, y0, moment) -> Fields:
    """Exact exterior solution of the chiral Maxwell system from one point source.

    Both circular polarizations are excited: with u_i = theta_{alpha_i}
    centred at y0, the fields phi = curl(c u_1) - curl curl(c u_1)/alpha1
    and psi = curl(c u_2) + curl curl(c u_2)/alpha2 satisfy
    (D + alpha1) phi = 0 and (D - alpha2) psi = 0 away from y0 (they are
    divergence-free eigenfields of curl), and E = (phi + psi)/2,
    H = (phi - psi)/(2j) recover a Maxwell solution.
    """
    y0 = np.asarray(y0, dtype=float)
    moment = np.asarray(moment, dtype=float)
    a1, a2 = medium.alpha1, medium.alpha2

    def fields(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        d = np.asarray(pts, dtype=float) - y0
        phi = vector_potential_curl(a1, d, moment) - vector_potential_curl_curl(a1, d, moment) / a1
        psi = vector_potential_curl(a2, d, moment) + vector_potential_curl_curl(a2, d, moment) / a2
        E = 0.5 * (phi + psi)
        H = (phi - psi) / 2j
        return E, H

    return fields


@dataclass(frozen=True)
class ConvergenceReport:
    """One row per N of the benchmark sweep."""

    rows: list[dict] = field(default_factory=list)

    def column(self, name: str) -> np.ndarray:
        return np.array([row[name] for row in self.rows])


def run_benchmark(
    problem: MfsProblem,
    n_values,
    reference: Fields | None = None,
    moment=None,
    eval_scale: float = 5.0,
    eval_grid: tuple[int, int] = (24, 12),
    boundary_check_factor: int = 3,
) -> ConvergenceReport:
    """Solve the problem for each N and compare against the exact fields.

    ``reference`` maps points to the exact (E, H); when omitted, the
    achiral magnetic dipole with the given moment is used and the boundary
    data is derived from it.  Errors are the maximum componentwise complex
    modulus of the field difference over a (24 x 12) parametric grid on
    the surface scaled by ``eval_scale``; the boundary error is measured
    the same way on an offset spiral denser than the collocation set.
    """
    if reference is None:
        if moment is None:
            moment = np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0)
        reference = partial(dipole_field, moment, problem.medium.alpha)
    boundary_data = tangential_datum(reference)
    eval_pts = parametric_grid(problem.surface, *eval_grid, scale=eval_scale).pos

    report = ConvergenceReport()
    for n in n_values:
        prob_n = MfsProblem(
            surface=problem.surface,
            medium=problem.medium,
            n_sources=int(n),
            source_scale=problem.source_scale,
            side=problem.side,
            boundary_data=boundary_data,
            impedance=problem.impedance,
            oversample=problem.oversample,
        )
        t0 = time.perf_counter()
        sol = solve_problem(prob_n)
        wall_ms = 1e3 * (time.perf_counter() - t0)

        err_e, err_h, leak = field_errors(sol, reference, eval_pts)
        check = sample_surface(problem.surface, boundary_check_factor * prob_n.n_collocation() + 7, 1.0)
        err_b = max(field_errors(sol, reference, check.pos)[:2])

        report.rows.append(
            {
                "N": int(n),
                "errE": err_e,
                "errH": err_h,
                "errB": err_b,
                "cond": sol.cond,
                "sc_leak": leak,
                "wall_ms": wall_ms,
            }
        )
    return report


@dataclass(frozen=True)
class SelftestResult:
    boundary_error: float
    far_error: float


def chiral_selftest(
    medium: ChiralMedium,
    n_sources: int,
    surface: Ellipsoid = Ellipsoid(5.0, 3.0, 2.0),
    source_scale: float = 0.15,
    eval_scale: float = 5.0,
    y0=(0.05, -0.03, 0.04),
    moment=(0.577350269189626, 0.577350269189626, 0.577350269189626),
) -> SelftestResult:
    """Manufactured chiral exterior problem: solve against the exact
    point-source solution and report boundary and far-field errors.

    This is one ``run_benchmark`` row on the ``chiral_point_source``
    reference: ``errB`` is the boundary error and max(errE, errH) the far
    error.  The default source point sits near the centre of the auxiliary
    surface; pushing it toward the sources slows the geometric convergence
    of the boundary fit.
    """
    problem = MfsProblem(surface=surface, medium=medium, n_sources=n_sources, source_scale=source_scale)
    exact = chiral_point_source(medium, y0, moment)
    row = run_benchmark(problem, [n_sources], reference=exact, eval_scale=eval_scale).rows[0]
    return SelftestResult(boundary_error=row["errB"], far_error=max(row["errE"], row["errH"]))
