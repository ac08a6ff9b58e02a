import numpy as np
import pytest

from bqem.algebra import Biquaternion, ONE
from bqem.errors import (
    ChiralResonance,
    DegenerateSample,
    SingularMatrix,
    SourceOnBoundary,
    SourceSingularity,
)
from bqem.kernels import ChiralMedium, dipole_field, fundamental_solution
from bqem.scattering import (
    Ellipsoid,
    MfsProblem,
    SurfaceSamples,
    _assemble_rows,
    assemble_system,
    chiral_point_source,
    chiral_selftest,
    dipole_boundary_data,
    evaluate_fields,
    parametric_grid,
    run_benchmark,
    sample_surface,
    solve_dense,
    solve_problem,
    surface_frame,
)

SURFACE = Ellipsoid(5.0, 3.0, 2.0)
MEDIUM = ChiralMedium(beta=0.0, alpha=1 + 0.3j)


def dipole_problem(n, moment=(1.0, 0.0, 0.0), **kw):
    return MfsProblem(
        surface=SURFACE,
        medium=MEDIUM,
        n_sources=n,
        source_scale=0.15,
        side="exterior",
        boundary_data=dipole_boundary_data(np.asarray(moment), MEDIUM),
        **kw,
    )


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------


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


def test_spiral_scale_box():
    s = sample_surface(SURFACE, 200, scale=0.15)
    assert np.all(np.abs(s.pos[:, 0]) <= 0.75 + 1e-12)
    assert np.all(np.abs(s.pos[:, 1]) <= 0.45 + 1e-12)
    assert np.all(np.abs(s.pos[:, 2]) <= 0.30 + 1e-12)
    # points lie on the scaled ellipsoid
    q = (s.pos[:, 0] / 0.75) ** 2 + (s.pos[:, 1] / 0.45) ** 2 + (s.pos[:, 2] / 0.30) ** 2
    assert np.allclose(q, 1.0)


def test_spiral_no_duplicates():
    s = sample_surface(SURFACE, 64)
    d = np.linalg.norm(s.pos[:, None, :] - s.pos[None, :, :], axis=-1)
    np.fill_diagonal(d, np.inf)
    assert d.min() > 1e-3


def test_parametric_grid_excludes_poles():
    g = parametric_grid(SURFACE, 24, 12, scale=5.0)
    assert len(g) == 24 * 12
    assert np.min(np.abs(np.abs(g.pos[:, 2]) - 10.0)) > 1e-3  # never exactly at a pole


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------


def test_system_shape_and_zero_rhs():
    prob = MfsProblem(
        surface=SURFACE, medium=MEDIUM, n_sources=10, source_scale=0.15, side="exterior"
    )
    A, b = assemble_system(prob)
    assert A.shape == (80, 80)
    assert np.all(b == 0.0)  # no boundary data given


@pytest.mark.parametrize(
    "medium, impedance",
    [
        (MEDIUM, None),
        (MEDIUM, 0.5 + 0.1j),
        (ChiralMedium(beta=0.1, alpha=1 + 0.3j), None),
    ],
    ids=["conductor", "impedance", "chiral"],
)
def test_matrix_entries_against_naive_oracle(medium, impedance):
    prob = MfsProblem(
        surface=SURFACE,
        medium=medium,
        n_sources=4,
        source_scale=0.15,
        side="exterior",
        impedance=impedance,
    )
    A, b = assemble_system(prob)
    from bqem.scattering import collocation_points, source_points

    col = collocation_points(prob)
    src = source_points(prob)
    rng = np.random.default_rng(1)
    units = np.eye(4)
    for _ in range(24):
        i = rng.integers(0, len(col))
        jj = rng.integers(0, 8 * len(src))
        branch, rest = divmod(jj, 4 * len(src))
        j, comp = divmod(rest, 4)
        coeff = Biquaternion(units[comp])
        d = col.pos[i] - src.pos[j]
        if branch == 0:
            K = fundamental_solution(medium.alpha1, d, sign=1)
            plus_term = (K * coeff).components
            minus_term = plus_term
        else:
            K = fundamental_solution(medium.alpha2, d, sign=-1)
            plus_term = (K * coeff).components
            minus_term = -plus_term
        E_contrib = 0.5 * plus_term[1:]
        H_contrib = minus_term[1:] / 2j
        xi = 0.0 if impedance is None else impedance
        for r, expected in (
            (0, np.dot(np.cross(E_contrib, col.normal[i]), col.t1[i]) + xi * np.dot(H_contrib, col.t1[i])),
            (1, np.dot(np.cross(E_contrib, col.normal[i]), col.t2[i]) + xi * np.dot(H_contrib, col.t2[i])),
            (2, plus_term[0]),
            (3, minus_term[0]),
        ):
            assert A[4 * i + r, jj] == pytest.approx(expected, abs=1e-14)


def test_source_on_boundary_guard():
    prob = dipole_problem(3)
    src = sample_surface(SURFACE, 3, 0.15)
    col = SurfaceSamples(
        pos=src.pos.copy(), normal=src.normal, t1=src.t1, t2=src.t2
    )
    with pytest.raises(SourceOnBoundary):
        _assemble_rows(prob, col, src)


def test_chiral_resonance_propagates():
    med = ChiralMedium(beta=0.5, alpha=2.0)  # 1 - alpha*beta = 0
    prob = MfsProblem(
        surface=SURFACE, medium=med, n_sources=4, source_scale=0.15, side="exterior"
    )
    with pytest.raises(ChiralResonance):
        assemble_system(prob)


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


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_solve_singular():
    A = np.eye(6, dtype=complex)
    A[3] = A[2]  # duplicated row
    with pytest.raises(SingularMatrix):
        solve_dense(A, np.ones(6, dtype=complex))


@pytest.mark.parametrize("shape", [(6, 6), (9, 6)], ids=["square", "tall"])
def test_solve_non_finite_entry(shape):
    rng = np.random.default_rng(2)
    A = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    A[2, 3] = np.nan
    with pytest.raises(SingularMatrix):
        solve_dense(A, np.ones(shape[0], dtype=complex))


def test_solve_least_squares():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(24, 12)) + 1j * rng.normal(size=(24, 12))
    x_true = rng.normal(size=12) + 1j * rng.normal(size=12)
    out = solve_dense(A, A @ x_true)
    assert np.allclose(out.coeffs, x_true)


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
    K = fundamental_solution(MEDIUM.alpha1, x - src[0], sign=1)
    assert np.allclose(E, 0.5 * K.vector)
    assert np.allclose(H, K.vector / 2j)
    assert leak == pytest.approx(abs(K.scalar))


def test_evaluate_at_source_rejected():
    sol = solve_problem(dipole_problem(4))
    with pytest.raises(SourceSingularity):
        evaluate_fields(sol, sol.sources[0])


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
    pts = parametric_grid(SURFACE, 12, 6, scale=5.0).pos
    E, H, _ = evaluate_fields(sol, pts)
    E_ref, H_ref = dipole_field(moment, MEDIUM.alpha, pts)
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


def test_interior_problem():
    # singularity well outside the inflated source surface; fields analytic inside
    moment = np.array([0.2, 1.0, -0.4])
    center = np.array([18.0, 2.0, 1.0])

    def reference(pts):
        return dipole_field(moment, MEDIUM.alpha, np.asarray(pts) - center)

    def boundary_data(samples):
        E, _ = reference(samples.pos)
        return np.cross(E, samples.normal)

    prob = MfsProblem(
        surface=SURFACE,
        medium=MEDIUM,
        n_sources=48,
        source_scale=2.5,
        side="interior",
        boundary_data=boundary_data,
    )
    sol = solve_problem(prob)
    pts = parametric_grid(SURFACE, 10, 5, scale=0.5).pos
    E, H, _ = evaluate_fields(sol, pts)
    E_ref, H_ref = reference(pts)
    scale = np.max(np.abs(E_ref))
    assert np.max(np.abs(E - E_ref)) < 1e-3 * max(scale, 1e-30)


def test_impedance_condition():
    moment = np.array([1.0, 0.5, -0.2])
    xi = 0.4 + 0.1j

    def boundary_data(samples):
        E, H = dipole_field(moment, MEDIUM.alpha, samples.pos)
        hxn = np.cross(H, samples.normal)
        return np.cross(E, samples.normal) - xi * np.cross(hxn, samples.normal)

    prob = MfsProblem(
        surface=SURFACE,
        medium=MEDIUM,
        n_sources=16,
        source_scale=0.15,
        side="exterior",
        boundary_data=boundary_data,
        impedance=xi,
    )
    sol = solve_problem(prob)
    pts = parametric_grid(SURFACE, 12, 6, scale=5.0).pos
    E, H, _ = evaluate_fields(sol, pts)
    E_ref, H_ref = dipole_field(moment, MEDIUM.alpha, pts)
    assert np.max(np.abs(E - E_ref)) < 1e-5
    assert np.max(np.abs(H - H_ref)) < 1e-5


def test_problem_validation():
    with pytest.raises(ValueError):
        MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=4, source_scale=1.2, side="exterior")
    with pytest.raises(ValueError):
        MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=4, source_scale=0.5, side="interior")
    with pytest.raises(ValueError):
        MfsProblem(surface=SURFACE, medium=MEDIUM, n_sources=0, source_scale=0.15, side="exterior")


def test_oversampled_least_squares_solve():
    prob = dipole_problem(8, oversample=1.5)
    sol = solve_problem(prob)
    pts = parametric_grid(SURFACE, 8, 4, scale=5.0).pos
    E, H, _ = evaluate_fields(sol, pts)
    E_ref, H_ref = dipole_field(np.array([1.0, 0, 0]), MEDIUM.alpha, pts)
    assert np.max(np.abs(E - E_ref)) < 1e-4


@pytest.mark.filterwarnings("ignore:condition estimate")
@pytest.mark.parametrize("oversample", [1.0, 1.5], ids=["square", "oversampled"])
def test_ill_conditioned_system_gives_accurate_field(oversample):
    # N = 100 with sources at 0.15: the condition estimate is near 1e19 on
    # the square system, yet the fitted field is accurate to 1e-12
    sol = solve_problem(dipole_problem(100, oversample=oversample))
    pts = parametric_grid(SURFACE, 24, 12, scale=5.0).pos
    E, _, _ = evaluate_fields(sol, pts)
    E_ref, _ = dipole_field(np.array([1.0, 0, 0]), MEDIUM.alpha, pts)
    assert sol.residual < 1e-10
    assert np.max(np.abs(E - E_ref)) <= 1e-12


def test_determinism():
    a = solve_problem(dipole_problem(8))
    b = solve_problem(dipole_problem(8))
    assert np.array_equal(a.coeffs_a.components, b.coeffs_a.components)
    assert np.array_equal(a.coeffs_b.components, b.coeffs_b.components)


def test_condition_warning_names_resonance(monkeypatch):
    import bqem.scattering as sc

    monkeypatch.setattr(sc, "CONDITION_WARN", 1.0)
    with pytest.warns(UserWarning, match="Dirichlet eigenvalue"):
        solve_problem(dipole_problem(6))


# ---------------------------------------------------------------------------
# benchmark and chiral self-test
# ---------------------------------------------------------------------------


def test_benchmark_trend_and_stability():
    prob = MfsProblem(
        surface=SURFACE, medium=MEDIUM, n_sources=6, source_scale=0.15, side="exterior"
    )
    ns = [6, 10, 14, 18]
    rep = run_benchmark(prob, ns)
    err_e = rep.column("errE")
    err_h = rep.column("errH")
    err_b = rep.column("errB")

    # log-error regression slope is negative for both fields
    for err in (err_e, err_h):
        slope = np.polyfit(ns, np.log(err), 1)[0]
        assert slope < 0.0

    # far-field error tracks the boundary error with one common constant
    ratios = np.maximum(err_e, err_h) / err_b
    k_fit = float(np.exp(np.mean(np.log(ratios))))
    assert np.all(np.maximum(err_e, err_h) <= 10.0 * k_fit * err_b)


def test_error_metric_stable_under_grid_doubling():
    moment = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
    sol = solve_problem(dipole_problem(20, moment=moment))

    def max_err(grid):
        pts = parametric_grid(SURFACE, *grid, scale=5.0).pos
        E, H, _ = evaluate_fields(sol, pts)
        E_ref, H_ref = dipole_field(moment, MEDIUM.alpha, pts)
        return max(np.max(np.abs(E - E_ref)), np.max(np.abs(H - H_ref)))

    coarse, fine = max_err((24, 12)), max_err((48, 24))
    assert abs(fine - coarse) <= 0.05 * fine


def test_chiral_point_source_solves_chiral_maxwell():
    med = ChiralMedium(beta=0.1, alpha=1 + 0.3j)
    exact = chiral_point_source(med, (0.05, -0.03, 0.04), (0.5, 0.5, 0.7))
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
    med = ChiralMedium(beta=0.1, alpha=1 + 0.3j)
    r_small = chiral_selftest(med, 8)
    r_big = chiral_selftest(med, 20)
    assert r_big.far_error < r_small.far_error / 10
    assert r_big.boundary_error < r_small.boundary_error
