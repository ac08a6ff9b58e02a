from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import oracles

from bqem.algebra import Biquaternion, ONE
from bqem.errors import (
    ChiralResonance,
    DegenerateSample,
    SingularMatrix,
    SourceSingularity,
)
from bqem.kernels import ChiralMedium, dipole_field, fundamental_solution
from bqem.scattering import (
    COINCIDENCE_TOL,
    DIPOLE_MOMENT,
    EVAL_GRID,
    EVAL_SCALE,
    Ellipsoid,
    MAX_MATRIX_BYTES,
    MfsProblem,
    MfsSolution,
    SurfaceSamples,
    _assemble_rows,
    assemble_system,
    collocation_points,
    evaluate_fields,
    parametric_grid,
    run_benchmark,
    sample_surface,
    solve_dense,
    solve_problem,
    source_points,
    spiral_points,
    surface_frame,
)

SURFACE = Ellipsoid(5.0, 3.0, 2.0)
MEDIUM = ChiralMedium(beta=0.0, alpha=1 + 0.3j)
DIPOLE = np.array([1.0, 0.0, 0.0])


def minus_alpha_kernel(alpha, x):
    """K(-alpha): K(alpha) with its scalar part negated."""
    return Biquaternion(fundamental_solution(alpha, x).components * [-1.0, 1.0, 1.0, 1.0])


def dipole_problem(n, moment=(1.0, 0.0, 0.0), **kw):
    return MfsProblem(
        surface=SURFACE,
        medium=MEDIUM,
        n_sources=n,
        source_scale=0.15,
        reference=partial(dipole_field, np.asarray(moment, dtype=float), MEDIUM),
        **kw,
    )


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("axes", [(np.nan, 3.0, 2.0), (5.0, np.inf, 2.0), (5.0, 3.0, 0.0), (5.0, 3.0, -2.0)],
                         ids=["nan", "inf", "zero", "negative"])
def test_ellipsoid_rejects_semi_axes_outside_zero_to_inf(axes):
    with pytest.raises(ValueError, match="semi-axes must be positive and finite"):
        Ellipsoid(*axes)


def test_ellipsoid_accepts_finite_positive_semi_axes():
    assert Ellipsoid(1e-3, 3, 1e6) == Ellipsoid(a=1e-3, b=3.0, c=1e6)


def test_frame_on_symmetry_axis():
    s = surface_frame(SURFACE, 0.0, np.pi / 2)
    assert np.allclose(s.pos[0], [5.0, 0.0, 0.0])
    assert np.allclose(s.normal[0], [1.0, 0.0, 0.0])


def test_frame_orthonormal_right_handed():
    rng = np.random.default_rng(0)
    eta = rng.uniform(0, 2 * np.pi, 50)
    nu = rng.uniform(0.2, np.pi - 0.2, 50)
    s = surface_frame(SURFACE, eta, nu)
    for v in (s.normal, s.t1, s.t2):
        assert np.allclose(np.linalg.norm(v, axis=-1), 1.0)
    assert np.allclose(np.einsum("ij,ij->i", s.normal, s.t1), 0.0, atol=1e-14)
    assert np.allclose(np.einsum("ij,ij->i", s.normal, s.t2), 0.0, atol=1e-14)
    assert np.allclose(np.cross(s.t1, s.t2), s.normal)


def test_frame_pole_rejected():
    with pytest.raises(DegenerateSample):
        surface_frame(SURFACE, 0.0, 0.0)
    # beyond the pole sin(nu) < 0, and r_nu x r_eta would point inward
    with pytest.raises(DegenerateSample, match=r"\(0, pi\)"):
        surface_frame(SURFACE, 0.0, 1.5 * np.pi)


def outward_gradient(surface, eta, nu):
    """abc (x/a^2, y/b^2, z/c^2) at (eta, nu): the outward gradient, written
    so that no square of a semi-axis can underflow."""
    a, b, c = surface.a, surface.b, surface.c
    return np.stack(
        [b * c * np.cos(eta) * np.sin(nu), a * c * np.sin(eta) * np.sin(nu), a * b * np.cos(nu)], axis=-1
    )


def test_frame_normal_points_outward_on_any_ellipsoid():
    # log-uniform semi-axes in [e^-5, e^5]: r_nu x r_eta is outward by construction
    rng = np.random.default_rng(11)
    for _ in range(50):
        surface = Ellipsoid(*np.exp(rng.uniform(-5.0, 5.0, 3)))
        eta, nu = rng.uniform(0.0, 2 * np.pi, 200), rng.uniform(1e-3, np.pi - 1e-3, 200)
        s = surface_frame(surface, eta, nu)
        assert np.all(np.einsum("ij,ij->i", s.normal, outward_gradient(surface, eta, nu)) > 0.0)


def test_frame_on_a_tiny_semi_axis():
    # a**2 underflowed in the old orientation test and warned of a division by zero
    surface = Ellipsoid(1e-200, 3.0, 2.0)
    rng = np.random.default_rng(12)
    eta, nu = rng.uniform(0.0, 2 * np.pi, 100), rng.uniform(0.1, np.pi - 0.1, 100)
    s = surface_frame(surface, eta, nu)
    np.testing.assert_allclose(np.linalg.norm(s.normal, axis=-1), 1.0, rtol=1e-15)
    assert np.all(np.einsum("ij,ij->i", s.normal, outward_gradient(surface, eta, nu)) > 0.0)


def test_frame_rejects_a_normal_that_underflows():
    # every product of two semi-axes of 1e-170 underflows to 0
    with pytest.raises(DegenerateSample):
        surface_frame(Ellipsoid(1e-170, 1e-170, 1e-170), 0.3, 1.0)


def test_small_sphere_solves_as_the_unit_sphere():
    # the problem is scale-invariant in r alpha; an absolute normal floor
    # rejected the sphere of radius 1e-7
    def cond(r, alpha):
        sphere = Ellipsoid(r, r, r)
        return solve_problem(MfsProblem(sphere, ChiralMedium(alpha=alpha), n_sources=10, source_scale=0.5)).cond

    assert cond(1e-7, 1e7) == pytest.approx(cond(1.0, 1.0), rel=1e-6)


def test_spiral_scale_box():
    pos = spiral_points(SURFACE, 200, 0.15)
    assert np.all(np.abs(pos[:, 0]) <= 0.75 + 1e-12)
    assert np.all(np.abs(pos[:, 1]) <= 0.45 + 1e-12)
    assert np.all(np.abs(pos[:, 2]) <= 0.30 + 1e-12)
    # points lie on the scaled ellipsoid
    q = (pos[:, 0] / 0.75) ** 2 + (pos[:, 1] / 0.45) ** 2 + (pos[:, 2] / 0.30) ** 2
    assert np.allclose(q, 1.0)


def test_spiral_no_duplicates():
    s = sample_surface(SURFACE, 64)
    d = np.linalg.norm(s.pos[:, None, :] - s.pos[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 1e-3


@pytest.mark.parametrize("scale", [0.15, 1.0, 5.0])
@pytest.mark.parametrize("count", [1, 10, 217])
def test_spiral_points_are_the_sample_positions(count, scale):
    # one position formula: the positions-only spiral is sample_surface's on
    # the scaled ellipsoid, to the bit
    scaled = Ellipsoid(scale * SURFACE.a, scale * SURFACE.b, scale * SURFACE.c)
    assert np.array_equal(spiral_points(SURFACE, count, scale), sample_surface(scaled, count).pos)


def test_parametric_grid_excludes_poles():
    g = parametric_grid(SURFACE, 24, 12, scale=5.0)
    assert g.shape == (24 * 12, 3)
    assert np.min(np.abs(np.abs(g[:, 2]) - 10.0)) > 1e-3  # never exactly at a pole


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_system_shape():
    prob = MfsProblem(
        surface=SURFACE, medium=MEDIUM, n_sources=10, source_scale=0.15
    )
    A, b = assemble_system(prob)
    assert A.shape == (80, 80)
    assert b.shape == (80,)


def test_default_reference_follows_the_medium():
    # the default dipole is resolved when the rows are built, so a problem
    # copied into another medium matches that medium's dipole
    chiral = ChiralMedium(beta=0.1, alpha=1 + 0.3j)
    prob = replace(MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=4, source_scale=0.15), medium=chiral)
    explicit = replace(prob, reference=partial(dipole_field, DIPOLE_MOMENT, chiral))
    assert np.array_equal(assemble_system(prob)[1], assemble_system(explicit)[1])


@pytest.mark.parametrize(
    "medium, impedance",
    [
        (MEDIUM, 0.0),
        (MEDIUM, 0.5 + 0.1j),
        (ChiralMedium(beta=0.1, alpha=1 + 0.3j), 0.0),
    ],
    ids=["conductor", "impedance", "chiral"],
)
def test_matrix_entries_against_naive_oracle(medium, impedance):
    prob = MfsProblem(
        surface=SURFACE,
        medium=medium,
        n_sources=4,
        source_scale=0.15,
        impedance=impedance,
    )
    A, b = assemble_system(prob)
    col = collocation_points(prob)
    src = source_points(prob)
    # the right-hand side: the boundary functional of the default reference
    # dipole, written out with np.cross, and zero on the scalar rows
    E, H = dipole_field(DIPOLE_MOMENT, medium, col.pos)
    datum = np.cross(E, col.normal) - impedance * np.cross(np.cross(H, col.normal), col.normal)
    expected_b = np.zeros((len(col), 4), dtype=complex)
    expected_b[:, 0] = np.einsum("ci,ci->c", datum, col.t1)
    expected_b[:, 1] = np.einsum("ci,ci->c", datum, col.t2)
    np.testing.assert_allclose(b, expected_b.ravel(), rtol=0, atol=1e-14 * np.max(np.abs(b)))
    rng = np.random.default_rng(1)
    units = np.eye(4)
    for _ in range(24):
        i = rng.integers(0, len(col))
        jj = rng.integers(0, 8 * len(src))
        branch, rest = divmod(jj, 4 * len(src))
        j, comp = divmod(rest, 4)
        coeff = Biquaternion(units[comp])
        d = col.pos[i] - src[j]
        if branch == 0:
            K = fundamental_solution(medium.alpha1, d)
            plus_term = (K * coeff).components
            minus_term = plus_term
        else:
            K = minus_alpha_kernel(medium.alpha2, d)
            plus_term = (K * coeff).components
            minus_term = -plus_term
        E_contrib = 0.5 * plus_term[1:]
        H_contrib = minus_term[1:] / 2j
        for r, expected in (
            (0, np.dot(np.cross(E_contrib, col.normal[i]), col.t1[i]) + impedance * np.dot(H_contrib, col.t1[i])),
            (1, np.dot(np.cross(E_contrib, col.normal[i]), col.t2[i]) + impedance * np.dot(H_contrib, col.t2[i])),
            (2, plus_term[0]),
            (3, minus_term[0]),
        ):
            assert A[4 * i + r, jj] == pytest.approx(expected, abs=1e-14)


@pytest.mark.parametrize(
    "medium, impedance",
    [
        (MEDIUM, 0.0),
        (MEDIUM, 0.5 + 0.1j),
        (ChiralMedium(beta=0.1, alpha=1 + 0.3j), 0.5 + 0.1j),
    ],
    ids=["conductor", "impedance", "chiral"],
)
def test_row_operator_matches_quaternion_products(monkeypatch, medium, impedance):
    # the constant row tensor against each point's products X e_i, to the
    # bit, in one block and in blocks of 3 points with a short last one
    prob = MfsProblem(surface=SURFACE, medium=medium, n_sources=10, source_scale=0.15, impedance=impedance)
    col, src = collocation_points(prob), source_points(prob)
    expected = oracles.assemble_rows(prob, col, src)
    assert np.array_equal(_assemble_rows(prob, col, src)[0], expected)
    small_blocks(monkeypatch, 3, 10)
    assert np.array_equal(_assemble_rows(prob, col, src)[0], expected)


def test_source_on_boundary_guard():
    prob = dipole_problem(3)
    frames = sample_surface(SURFACE, 3)
    src = frames.pos
    col = SurfaceSamples(
        pos=src.copy(), normal=frames.normal, t1=frames.t1, t2=frames.t2
    )
    with pytest.raises(SourceSingularity):
        _assemble_rows(prob, col, src)


def small_blocks(monkeypatch, points_per_block, n_src):
    """Blocks of ``points_per_block`` points against ``n_src`` sources."""
    import bqem.scattering as scattering

    monkeypatch.setattr(scattering, "_BLOCK_ENTRIES", points_per_block * n_src)


@pytest.mark.parametrize("beta", [0.0, 0.1], ids=["shared_kernel", "chiral"])
def test_blocked_assembly_matches_one_block(monkeypatch, beta):
    # 20 collocation points in blocks of 3: the last block is short
    prob = replace(dipole_problem(10), medium=ChiralMedium(beta=beta, alpha=1 + 0.3j), impedance=0.5 + 0.1j)
    A1, b1 = assemble_system(prob)
    small_blocks(monkeypatch, 3, 10)
    A, b = assemble_system(prob)
    np.testing.assert_allclose(A, A1, rtol=0, atol=1e-14 * np.max(np.abs(A1)))
    assert np.array_equal(b, b1)


def test_source_on_boundary_guard_in_last_block(monkeypatch):
    prob = dipole_problem(3)
    src = spiral_points(SURFACE, 3, 0.15)
    col = sample_surface(SURFACE, 7)
    col.pos[-1] = src[1]
    small_blocks(monkeypatch, 2, 3)
    with pytest.raises(SourceSingularity):
        _assemble_rows(prob, col, src)


@pytest.mark.parametrize("short_last_block", [False, True], ids=["one_block", "short_last_block"])
@pytest.mark.parametrize("tols, rejected", [(0.5, True), (2.0, False)], ids=["inside", "outside"])
def test_coincidence_guard_at_the_tolerance(monkeypatch, short_last_block, tols, rejected):
    # a point tols * COINCIDENCE_TOL max_j |y_j| from a source, collocated and evaluated
    prob = dipole_problem(3)
    src = spiral_points(SURFACE, 3, 0.15)
    col = sample_surface(SURFACE, 7)
    scale = np.max(np.linalg.norm(src, axis=-1))
    col.pos[-1] = src[1] + tols * COINCIDENCE_TOL * scale * np.array([0.6, 0.0, -0.8])
    coeffs = Biquaternion(np.ones((3, 4)))
    sol = MfsSolution(sources=src, coeffs_a=coeffs, coeffs_b=coeffs, medium=MEDIUM)
    if short_last_block:
        small_blocks(monkeypatch, 2, 3)  # 7 points in blocks of 2: the last holds the near one alone
    if rejected:
        with pytest.raises(SourceSingularity):
            _assemble_rows(prob, col, src)
        with pytest.raises(SourceSingularity):
            evaluate_fields(sol, col.pos)
    else:
        A, _ = _assemble_rows(prob, col, src)
        assert np.all(np.isfinite(A))
        assert all(np.all(np.isfinite(a)) for a in evaluate_fields(sol, col.pos))


def test_coincidence_guard_scales_with_the_sources():
    # a sphere of radius r at alpha = 1/r is the unit sphere's problem in
    # r alpha: it solves alike, since the guard is relative to the sources'
    # size and the kernel's origin guard holds no length either
    def cond(r):
        medium = ChiralMedium(alpha=1.0 / r)
        return solve_problem(MfsProblem(surface=Ellipsoid(r, r, r), medium=medium, n_sources=10, source_scale=0.5)).cond

    unit = cond(1.0)
    for r in (1e-9, 1e-10, 1e-12, 1e-13, 1e-30):
        assert cond(r) == pytest.approx(unit, rel=1e-9)


@pytest.mark.parametrize("beta", [0.0, 0.1])
def test_benchmark_is_scale_invariant(beta):
    # semi-axes (5, 3, 2) lambda at alpha / lambda and beta lambda is the
    # problem at lambda = 1 in units of lambda: alpha beta is unchanged, the
    # fields scale as lambda^-2, and the relative errors and cond stay put
    def rows(lam):
        medium = ChiralMedium(beta=beta * lam, alpha=(1 + 0.3j) / lam)
        surface = Ellipsoid(5 * lam, 3 * lam, 2 * lam)
        problem = MfsProblem(surface=surface, medium=medium, n_sources=20, source_scale=0.15)
        E, H = problem.reference_fields()(parametric_grid(problem.surface, *EVAL_GRID, scale=EVAL_SCALE))
        (row,) = run_benchmark(problem, [20])
        return row["errE"] / np.max(np.abs(E)), row["errH"] / np.max(np.abs(H)), row["cond"]

    unit = rows(1.0)
    for k in (-60, -40, -20, -14, -13, -6, 6, 12, 20, 40, 60, 64, 70, 76):
        assert rows(10.0**k) == pytest.approx(unit, rel=1e-7), k


def test_assembly_working_set_is_the_matrix(traced_peak):
    # the kernels of one block of points, not of every (point, source) pair:
    # about 0.4 MB per 100 points at N = 200 otherwise
    prob = MfsProblem(surface=SURFACE, medium=ChiralMedium(beta=0.1, alpha=1 + 0.3j), n_sources=200, source_scale=0.5)
    (A, _), peak = traced_peak(lambda: assemble_system(prob))
    assert peak <= A.nbytes + 5e6


def test_problem_rejects_zero_wavenumber():
    # H = -curl E/(i alpha) divides by alpha; a tiny alpha is still a wavenumber
    with pytest.raises(ValueError, match="alpha must be non-zero"):
        MfsProblem(surface=SURFACE, medium=ChiralMedium(alpha=0.0), n_sources=4, source_scale=0.15)
    MfsProblem(surface=SURFACE, medium=ChiralMedium(alpha=1e-9), n_sources=4, source_scale=0.15)


def test_chiral_resonance_propagates():
    med = ChiralMedium(beta=0.5, alpha=2.0)  # 1 - alpha*beta = 0
    # the problem is refused when it is built, before any kernel is evaluated
    with pytest.raises(ChiralResonance):
        MfsProblem(surface=SURFACE, medium=med, n_sources=4, source_scale=0.15)


# ---------------------------------------------------------------------------
# dense solve
# ---------------------------------------------------------------------------


def test_solve_identity():
    e1 = np.zeros(8, dtype=complex)
    e1[0] = 1.0
    out = solve_dense(np.eye(8, dtype=complex), e1)
    assert np.allclose(out.coeffs, e1)
    assert out.cond == pytest.approx(1.0)


def test_solve_random_residual():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    b = rng.normal(size=16) + 1j * rng.normal(size=16)
    out = solve_dense(A, b)
    assert out.residual <= 1e-12


def _singular(shape):
    if shape[0] == shape[1]:
        A = np.eye(shape[1], dtype=complex)
        A[3] = A[2]  # duplicated row
    else:
        rng = np.random.default_rng(2)
        A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        A[:, 2] = 0.0  # zero column
    return A


@pytest.mark.parametrize("A", [_singular((6, 6)), _singular((9, 6))], ids=["square", "tall"])
def test_solve_singular(A):
    # U or R has an exact zero on its diagonal; the error comes with no
    # LinAlgWarning first, which the suite's filter would turn into the error
    with pytest.raises(SingularMatrix, match="diagonal entry 0j"):
        solve_dense(A, np.ones(A.shape[0], dtype=complex))


@pytest.mark.parametrize("shape", [(6, 6), (9, 6)], ids=["square", "tall"])
def test_solve_non_finite_entry(shape):
    rng = np.random.default_rng(2)
    A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    A[2, 3] = np.nan
    with pytest.raises(SingularMatrix):
        solve_dense(A, np.ones(shape[0], dtype=complex))


@pytest.mark.parametrize(
    "A",
    [np.diag([1.0, 1e-310]), np.array([[1.0, 0.0], [0.0, 1e-310], [0.0, 0.0]])],
    ids=["square", "tall"],
)
def test_solve_subnormal_pivot_overflows_to_singular(A):
    # the pivot passes the zero/non-finite diagonal rule, but 1/1e-310 overflows
    with pytest.raises(SingularMatrix, match="non-finite coefficients"):
        solve_dense(A, np.ones(A.shape[0], dtype=complex))


def test_solve_least_squares():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(24, 12)) + 1j * rng.normal(size=(24, 12))
    x_true = rng.normal(size=12) + 1j * rng.normal(size=12)
    out = solve_dense(A, A @ x_true)
    assert np.allclose(out.coeffs, x_true)


def random_complex(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@pytest.mark.parametrize("shape", [(12, 12), (20, 12)], ids=["square", "tall"])
def test_solve_leaves_inputs_untouched(shape):
    rng = np.random.default_rng(4)
    A, b = random_complex(rng, shape), random_complex(rng, shape[0])
    A0, b0 = A.copy(), b.copy()
    solve_dense(A, b)
    assert np.array_equal(A, A0) and np.array_equal(b, b0)


def test_solve_square_peak_is_one_lu_copy(monkeypatch, traced_peak):
    # the 1-norm is taken a block of rows at a time, so no |A| (half a
    # matrix) is held before lu_factor copies the matrix
    import tracemalloc

    import scipy.linalg

    lu_factor, before_factor = scipy.linalg.lu_factor, []

    def recorded(*args, **kwargs):
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            before_factor.append(peak - current)
        return lu_factor(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "lu_factor", recorded)
    rng = np.random.default_rng(6)
    A, b = random_complex(rng, (400, 400)), random_complex(rng, 400)
    _, peak = traced_peak(lambda: solve_dense(A, b))
    assert peak <= 1.05 * A.nbytes
    assert before_factor and before_factor[0] <= 0.2 * A.nbytes  # |A| is 0.5


def test_solve_tall_peak_is_one_qr_copy(traced_peak):
    # R is read from the QR factor in place: np.triu(qr[:n]) and the
    # Fortran copies of it were two more n x n arrays
    rng = np.random.default_rng(6)
    A, b = random_complex(rng, (600, 400)), random_complex(rng, 600)
    _, peak = traced_peak(lambda: solve_dense(A, b))
    assert peak <= 1.1 * A.nbytes


def test_one_norm_is_numpys():
    # to the bit, over several row blocks, a single one and blocks of one row
    from bqem.scattering import _norm1

    rng = np.random.default_rng(7)
    for shape in ((300, 300), (5000, 7), (5, 400), (3, 20000)):
        A = random_complex(rng, shape)
        assert _norm1(A) == np.linalg.norm(A, 1)


@pytest.mark.parametrize("shape", [(12, 12), (20, 12)], ids=["square", "tall"])
def test_residual_keeps_its_bits_under_power_of_two_scaling(shape):
    # Ax - b and b are scaled by a power of two before the norms, so |b|^2
    # neither overflows (nan at 2^900) nor underflows (2^-900) on the way
    rng = np.random.default_rng(10)
    A, b = random_complex(rng, shape), random_complex(rng, shape[0])
    ref = solve_dense(A, b).residual
    assert 0.0 < ref < np.inf  # the tall system's least-squares residual is O(1)
    for p in (-900, -40, 40, 900):
        assert solve_dense(A, b * 2.0**p).residual == ref
    # a subnormal right-hand side: the scale stays finite
    assert solve_dense(np.eye(4), np.full(4, 1e-310 + 0j)).residual == 0.0


def test_solve_tall_matches_lstsq_and_qr_condition():
    # complex data: applying Q^T instead of Q^H would not go unnoticed
    import scipy.linalg

    rng = np.random.default_rng(5)
    A, b = random_complex(rng, (30, 16)), random_complex(rng, 30)
    out = solve_dense(A, b)
    x_ref = scipy.linalg.lstsq(A, b)[0]
    np.testing.assert_allclose(out.coeffs, x_ref, rtol=1e-12, atol=0)
    r = scipy.linalg.qr(A, mode="economic")[1]
    rcond, _ = scipy.linalg.lapack.ztrcon(r, norm="1")
    assert out.cond == pytest.approx(1.0 / rcond, rel=1e-10)


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------


def test_evaluate_zero_coefficients():
    sol_zero = solve_problem(dipole_problem(4))
    zeroed = type(sol_zero)(
        sources=sol_zero.sources,
        coeffs_a=Biquaternion(np.zeros((4, 4))),
        coeffs_b=Biquaternion(np.zeros((4, 4))),
        medium=MEDIUM,
    )
    E, H, leak = evaluate_fields(zeroed, [10.0, 0.0, 0.0])
    assert np.all(E == 0) and np.all(H == 0) and np.all(leak == 0)


def test_evaluate_single_source_definition():
    src = np.array([[0.1, -0.05, 0.2]])
    sol = type(solve_problem(dipole_problem(4)))(
        sources=src,
        coeffs_a=Biquaternion(ONE.components[None, :]),
        coeffs_b=Biquaternion(np.zeros((1, 4))),
        medium=MEDIUM,
    )
    x = np.array([4.0, 1.0, -2.0])
    E, H, leak = evaluate_fields(sol, x)
    K = fundamental_solution(MEDIUM.alpha1, x - src[0])
    assert np.allclose(E, 0.5 * K.vector)
    assert np.allclose(H, K.vector / 2j)
    assert leak == pytest.approx(abs(K.scalar))


@pytest.mark.parametrize(
    "shape, beta",
    [((3,), 0.1), ((2, 3, 3), 0.1), ((3,), 0.0), ((2, 3, 3), 0.0)],
    ids=["one_point", "batch", "one_point_shared_kernel", "batch_shared_kernel"],
)
def test_evaluate_fields_against_naive_sum(shape, beta):
    # the per-source sum of Biquaternion products, both branches non-zero
    med = ChiralMedium(beta=beta, alpha=1 + 0.3j)
    rng = np.random.default_rng(3)
    n = 5
    sources = spiral_points(SURFACE, n, 0.15)

    def random_coeffs():
        return Biquaternion(rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4)))

    sol = MfsSolution(sources=sources, coeffs_a=random_coeffs(), coeffs_b=random_coeffs(), medium=med)
    x = rng.uniform(2.0, 6.0, size=shape)
    E, H, leak = evaluate_fields(sol, x)

    sum_a = sum_b = Biquaternion(np.zeros(shape[:-1] + (4,)))
    for y, a, b in zip(sources, sol.coeffs_a, sol.coeffs_b):
        sum_a = sum_a + fundamental_solution(med.alpha1, x - y) * a
        sum_b = sum_b + minus_alpha_kernel(med.alpha2, x - y) * b
    plus, minus = sum_a + sum_b, sum_a - sum_b
    E_ref, H_ref = 0.5 * plus.vector, minus.vector / 2j
    leak_ref = np.maximum(np.abs(plus.scalar), np.abs(minus.scalar))
    for ours, ref in ((E, E_ref), (H, H_ref), (leak, leak_ref)):
        assert ours.shape == ref.shape
        np.testing.assert_allclose(ours, ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("shape", [(7, 3), (2, 3, 3)], ids=["points", "batch"])
def test_blocked_evaluation_matches_one_block(monkeypatch, shape):
    # blocks of 4 points: the last block is short
    med = ChiralMedium(beta=0.1, alpha=1 + 0.3j)
    rng = np.random.default_rng(8)
    coeffs = [Biquaternion(rng.normal(size=(5, 4)) + 1j * rng.normal(size=(5, 4))) for _ in range(2)]
    sol = MfsSolution(spiral_points(SURFACE, 5, 0.15), *coeffs, medium=med)
    x = rng.uniform(2.0, 6.0, size=shape)
    one_block = evaluate_fields(sol, x)
    small_blocks(monkeypatch, 4, 5)
    for ours, ref in zip(evaluate_fields(sol, x), one_block):
        assert ours.shape == ref.shape and ours.shape[: len(shape) - 1] == shape[:-1]
        np.testing.assert_allclose(ours, ref, rtol=0, atol=1e-14 * np.max(np.abs(ref)))


def test_evaluate_fields_working_set(traced_peak):
    # the kernels of one block of points: all 4000 x 200 pairs at once took 167 MB
    med = ChiralMedium(beta=0.1, alpha=1 + 0.3j)
    rng = np.random.default_rng(9)
    coeffs = [Biquaternion(rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))) for _ in range(2)]
    sol = MfsSolution(spiral_points(SURFACE, 200, 0.15), *coeffs, medium=med)
    x = spiral_points(SURFACE, 4000, 2.0)
    out, peak = traced_peak(lambda: evaluate_fields(sol, x))
    assert peak <= sum(a.nbytes for a in out) + 5e6


@pytest.mark.parametrize("beta, calls", [(0.0, 1), (0.1, 2)], ids=["shared_kernel", "chiral"])
def test_one_kernel_evaluation_per_wavenumber(monkeypatch, beta, calls):
    # alpha1 == alpha2 at beta = 0: both branches share one K(alpha)
    import bqem.scattering as scattering

    alphas = []

    def counted(alpha, x):
        alphas.append(alpha)
        return fundamental_solution(alpha, x)

    monkeypatch.setattr(scattering, "fundamental_solution", counted)
    med = ChiralMedium(beta=beta, alpha=1 + 0.3j)
    assemble_system(MfsProblem(surface=SURFACE, medium=med, n_sources=4, source_scale=0.15))
    assert len(alphas) == calls
    alphas.clear()
    coeffs = Biquaternion(np.ones((4, 4)))
    sol = MfsSolution(sources=spiral_points(SURFACE, 4, 0.15), coeffs_a=coeffs, coeffs_b=coeffs, medium=med)
    evaluate_fields(sol, np.array([[6.0, 0.0, 0.0]]))
    assert len(alphas) == calls
    # per block: 8 collocation points, and 5 evaluation points, in blocks of 3
    small_blocks(monkeypatch, 3, 4)
    alphas.clear()
    assemble_system(MfsProblem(surface=SURFACE, medium=med, n_sources=4, source_scale=0.15))
    assert len(alphas) == 3 * calls
    alphas.clear()
    evaluate_fields(sol, np.linspace(6.0, 7.0, 15).reshape(5, 3))
    assert len(alphas) == 2 * calls


def test_evaluate_at_source_rejected():
    sol = solve_problem(dipole_problem(4))
    with pytest.raises(SourceSingularity):
        evaluate_fields(sol, sol.sources[0])


def test_evaluate_at_source_in_last_block_rejected(monkeypatch):
    sol = solve_problem(dipole_problem(4))
    x = np.vstack([parametric_grid(SURFACE, 3, 3, scale=2.0), sol.sources[2]])
    small_blocks(monkeypatch, 4, 4)
    with pytest.raises(SourceSingularity):
        evaluate_fields(sol, x)


# ---------------------------------------------------------------------------
# solves
# ---------------------------------------------------------------------------


def test_scalar_constraint_leak_invariant():
    prob = dipole_problem(12)
    sol = solve_problem(prob)
    from bqem.scattering import collocation_points

    col = collocation_points(prob)
    E, H, leak = evaluate_fields(sol, col.pos)
    field_scale = max(np.max(np.abs(E)), np.max(np.abs(H)))
    assert np.max(leak) <= 1e-10 * field_scale


def test_solution_matches_dipole_on_eval_surface():
    moment = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    prob = dipole_problem(16, moment=moment)
    sol = solve_problem(prob)
    pts = parametric_grid(SURFACE, 12, 6, scale=5.0)
    E, H, _ = evaluate_fields(sol, pts)
    E_ref, H_ref = dipole_field(moment, MEDIUM, pts)
    assert np.max(np.abs(E - E_ref)) < 1e-5
    assert np.max(np.abs(H - H_ref)) < 1e-5


def test_solved_field_satisfies_maxwell_pointwise():
    # the curl relations hold up to stencil error plus the scalar-part
    # leak (the purely-vectorial constraints bind only at collocation),
    # and the leak floor falls rapidly with N
    x0 = np.array([7.0, 2.0, -3.0])
    h = 1e-2

    def maxwell_residual(n):
        sol = solve_problem(dipole_problem(n))

        def rot_of(component):
            def partial(i, j):
                e = np.zeros(3)
                e[i] = h
                return (
                    evaluate_fields(sol, x0 + e)[component][j]
                    - evaluate_fields(sol, x0 - e)[component][j]
                ) / (2 * h)

            return np.array(
                [
                    partial(1, 2) - partial(2, 1),
                    partial(2, 0) - partial(0, 2),
                    partial(0, 1) - partial(1, 0),
                ]
            )

        E0, H0, leak = evaluate_fields(sol, x0)
        scale = max(np.max(np.abs(E0)), np.max(np.abs(H0)))
        r = max(
            np.max(np.abs(rot_of(0) + 1j * MEDIUM.alpha * H0)),
            np.max(np.abs(rot_of(1) - 1j * MEDIUM.alpha * E0)),
        )
        return r / scale, float(leak) / scale

    rel12, leak12 = maxwell_residual(12)
    rel20, leak20 = maxwell_residual(20)
    assert rel20 < 5e-3
    assert rel12 / rel20 > 3.0  # residual floor tracks the shrinking leak
    assert rel20 < 3.0 * leak20 + 1e-6


def test_impedance_condition():
    moment = np.array([1.0, 0.5, -0.2])
    xi = 0.4 + 0.1j
    prob = MfsProblem(
        surface=SURFACE,
        medium=MEDIUM,
        n_sources=16,
        source_scale=0.15,
        reference=partial(dipole_field, moment, MEDIUM),
        impedance=xi,
    )
    sol = solve_problem(prob)
    pts = parametric_grid(SURFACE, 12, 6, scale=5.0)
    E, H, _ = evaluate_fields(sol, pts)
    E_ref, H_ref = dipole_field(moment, MEDIUM, pts)
    assert np.max(np.abs(E - E_ref)) < 1e-5
    assert np.max(np.abs(H - H_ref)) < 1e-5


def test_problem_validation():
    # the sources lie inside the surface: only scales in (0, 1) are accepted
    for source_scale in (0.0, 1.0, -0.5, 2.5, np.nan):
        with pytest.raises(ValueError, match="source_scale"):
            MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=4, source_scale=source_scale)
    # a semi-axis whose distances on the EVAL_SCALE surface overflow is
    # refused; at 1e20 they are finite, and the solve decides
    with pytest.raises(ValueError, match="too large"):
        MfsProblem(surface=Ellipsoid(1e200, 3.0, 2.0), medium=MEDIUM, n_sources=4, source_scale=0.15)
    MfsProblem(surface=Ellipsoid(1e20, 3.0, 2.0), medium=MEDIUM, n_sources=4, source_scale=0.15)
    with pytest.raises(ValueError):
        MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=0, source_scale=0.15)
    # oversample must be >= 1, and the 4C x 8N matrix must stay under the
    # ceiling; a problem allocates nothing, so each case is cheap
    for oversample in (np.nan, 1e300, np.inf):
        with pytest.raises(ValueError):
            MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=4, source_scale=0.15, oversample=oversample)
    for n, oversample in ((10**30, 1.0), (10**400, 1.0), (35, 1e8), (1449, 1.0), (1183, 1.5)):
        with pytest.raises(ValueError, match="GiB ceiling"):
            MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=n, source_scale=0.15, oversample=oversample)
    # the largest square system under MAX_MATRIX_BYTES = 2^31 is 64 N^2 x 16 bytes at N = 1448
    assert 64 * 1448**2 * 16 <= MAX_MATRIX_BYTES < 64 * 1449**2 * 16
    MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=1448, source_scale=0.15)
    MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=1182, source_scale=0.15, oversample=1.5)


def test_impedance_must_be_a_finite_number():
    # a perfect conductor is xi = 0; anything but a finite number is a
    # config error at construction, not a singular or failed solve later
    for impedance in (complex("nan"), complex("inf"), float("nan"), None, "abc"):
        with pytest.raises(ValueError, match="0 for a perfect conductor"):
            MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=4, source_scale=0.15, impedance=impedance)
    for impedance in (0, 0.5 + 0.1j):
        MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=4, source_scale=0.15, impedance=impedance)


def test_oversampled_least_squares_solve():
    prob = dipole_problem(8, oversample=1.5)
    sol = solve_problem(prob)
    pts = parametric_grid(SURFACE, 8, 4, scale=5.0)
    E, H, _ = evaluate_fields(sol, pts)
    E_ref, H_ref = dipole_field(np.array([1.0, 0, 0]), MEDIUM, pts)
    assert np.max(np.abs(E - E_ref)) < 1e-4


@pytest.mark.parametrize("oversample", [1.0, 1.5], ids=["square", "oversampled"])
def test_ill_conditioned_system_gives_accurate_field(oversample):
    # N = 100 with sources at 0.15: the condition estimate is near 1e19 on
    # the square system, yet the fitted field is accurate to 1e-12
    sol = solve_problem(dipole_problem(100, oversample=oversample))
    pts = parametric_grid(SURFACE, 24, 12, scale=5.0)
    E, _, _ = evaluate_fields(sol, pts)
    E_ref, _ = dipole_field(np.array([1.0, 0, 0]), MEDIUM, pts)
    assert sol.residual < 1e-10
    assert np.max(np.abs(E - E_ref)) <= 1e-12


def test_determinism():
    a = solve_problem(dipole_problem(8))
    b = solve_problem(dipole_problem(8))
    assert np.array_equal(a.coeffs_a.components, b.coeffs_a.components)
    assert np.array_equal(a.coeffs_b.components, b.coeffs_b.components)


# ---------------------------------------------------------------------------
# benchmark, achiral and chiral
# ---------------------------------------------------------------------------


def test_benchmark_trend_and_stability():
    prob = MfsProblem(
        surface=SURFACE, medium=MEDIUM, n_sources=6, source_scale=0.15
    )
    ns = [6, 10, 14, 18]
    rows = run_benchmark(prob, ns)
    err_e, err_h, err_b = (np.array([row[name] for row in rows]) for name in ("errE", "errH", "errB"))

    # log-error regression slope is negative for both fields
    for err in (err_e, err_h):
        slope = np.polyfit(ns, np.log(err), 1)[0]
        assert slope < 0.0

    # far-field error tracks the boundary error with one common constant
    ratios = np.maximum(err_e, err_h) / err_b
    k_fit = float(np.exp(np.mean(np.log(ratios))))
    assert np.all(np.maximum(err_e, err_h) <= 10.0 * k_fit * err_b)


def test_sweep_does_only_the_work_its_rows_read(monkeypatch):
    # per N, frames for the collocation set only and one field evaluation
    # over the grid and the check spiral stacked; the grid is positions
    # only, and no cross product goes through np.cross
    import bqem.scattering as scattering

    calls = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("surface_frame", "evaluate_fields"):
        monkeypatch.setattr(scattering, name, logged(name, getattr(scattering, name)))
    monkeypatch.setattr(np, "cross", logged("np.cross", np.cross))
    prob = MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=15, source_scale=0.15)
    run_benchmark(prob, [10, 15])
    assert calls == ["surface_frame", "evaluate_fields"] * 2


def test_benchmark_evaluates_the_fixed_grid_reference_once():
    from bqem.scattering import EVAL_GRID

    grid_calls = []

    def reference(x):
        grid_calls.append(len(x) == EVAL_GRID[0] * EVAL_GRID[1])
        return dipole_field(DIPOLE, MEDIUM, x)

    prob = MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=6, source_scale=0.15, reference=reference)
    run_benchmark(prob, [6, 8, 10])
    assert sum(grid_calls) == 1


def test_readme_benchmark_table():
    # the README's scattering table, to its printed 4 significant figures
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = {}
    for line in readme.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3 and cells[0].isdigit():
            table[int(cells[0])] = (cells[1], cells[2])
    assert sorted(table) == [10, 15, 20, 25, 30, 35]

    prob = MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=10, source_scale=0.15)
    rows = run_benchmark(prob, sorted(table))
    assert {row["N"]: (f"{row['errE']:.3e}", f"{row['errH']:.3e}") for row in rows} == table


def test_error_metric_stable_under_grid_doubling():
    moment = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    sol = solve_problem(dipole_problem(20, moment=moment))

    def max_err(grid):
        pts = parametric_grid(SURFACE, *grid, scale=5.0)
        E, H, _ = evaluate_fields(sol, pts)
        E_ref, H_ref = dipole_field(moment, MEDIUM, pts)
        return max(np.max(np.abs(E - E_ref)), np.max(np.abs(H - H_ref)))

    coarse, fine = max_err((24, 12)), max_err((48, 24))
    assert abs(fine - coarse) <= 0.05 * fine


def test_chiral_point_source_solves_chiral_maxwell():
    med = ChiralMedium(beta=0.1, alpha=1 + 0.3j)
    y0 = np.array([0.05, -0.03, 0.04])
    exact = lambda x: dipole_field((0.5, 0.5, 0.7), med, x - y0)
    x0 = np.array([3.0, 1.0, 0.5])
    h = 1e-3

    def rot_of(component):
        def partial(i, j):
            e = np.zeros(3)
            e[i] = h
            return (exact(x0 + e)[component][j] - exact(x0 - e)[component][j]) / (2 * h)

        return np.array(
            [
                partial(1, 2) - partial(2, 1),
                partial(2, 0) - partial(0, 2),
                partial(0, 1) - partial(1, 0),
            ]
        )

    E0, H0 = exact(x0)
    a, b = med.alpha, med.beta
    scale = max(np.max(np.abs(E0)), np.max(np.abs(H0)))
    assert np.max(np.abs(rot_of(0) + 1j * a * (H0 + b * rot_of(1)))) < 1e-5 * scale
    assert np.max(np.abs(rot_of(1) - 1j * a * (E0 + b * rot_of(0)))) < 1e-5 * scale


def test_chiral_selftest_converges():
    # the benchmark rows in a chiral medium, against its two-polarization dipole
    prob = MfsProblem(surface=SURFACE, medium=ChiralMedium(beta=0.1, alpha=1 + 0.3j), n_sources=8, source_scale=0.15)
    small, big = run_benchmark(prob, [8, 20])
    assert max(big["errE"], big["errH"]) < max(small["errE"], small["errH"]) / 10
    assert big["errB"] < small["errB"]
