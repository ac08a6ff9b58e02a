import numpy as np
import pytest

from bqem import diffops
from bqem.algebra import I1, I2, I3, ONE
from bqem.errors import BaseOutOfGrid, GridTooSmall, LatticeMismatch, VanishingF
from bqem.grids import (
    Lattice,
    QuaternionGrid,
    ScalarGrid,
    diff,
    dirac,
    div,
    grad,
    laplacian,
    max_abs_interior,
    rot,
)
from bqem.kernels import fundamental_solution, helmholtz_kernel

ALPHA = 1 + 0.3j
K_UNIT = np.array([0.36, 0.48, 0.8])  # |k| = 1


def cube(n, center=(0.4, 0.5, 0.6), side=0.5):
    return Lattice.cube(center, side, n)


def exp_slot(n, k=K_UNIT, **cube_kw):
    lat = cube(n, **cube_kw)
    f = ScalarGrid.from_function(lat, lambda p: np.exp(p @ k))
    return diffops.PotentialSlot.from_particular_solution(f), lat


def trig_slot(n, **cube_kw):
    # non-exponential f: exponentials are exact eigenfunctions of the
    # stencils and would hide the O(h^2) behaviour
    lat = cube(n, **cube_kw)
    f = ScalarGrid.from_function(
        lat, lambda p: 2.0 + np.sin(p[..., 0]) * np.cos(p[..., 1]) + 0.2 * p[..., 2] ** 2
    )
    return diffops.PotentialSlot.from_particular_solution(f), lat


# ---------------------------------------------------------------------------
# apply_D and multiplication operators
# ---------------------------------------------------------------------------


def test_apply_D_position_field():
    lat = cube(9)
    field = QuaternionGrid.from_function(
        lat, lambda p: np.concatenate([np.zeros(p.shape[:-1] + (1,)), p], axis=-1)
    )
    out = diffops.apply_D(field)
    inner = out.values[1:-1, 1:-1, 1:-1]
    assert np.allclose(inner[..., 0], -3.0)
    assert np.max(np.abs(inner[..., 1:])) == 0.0


def test_apply_D_constant_field():
    lat = cube(7)
    field = QuaternionGrid.from_function(
        lat, lambda p: np.broadcast_to(np.array([1.0, 2.0, -1.0, 0.5]), p.shape[:-1] + (4,))
    )
    out = diffops.apply_D(field)
    assert max_abs_interior(out.values, out.margin) == 0.0


def test_apply_D_on_theta_matches_kernel():
    # (D - alpha) theta_alpha = -K_alpha away from the origin
    def residual(n, margin):
        lat = Lattice.cube((2.0, 0.5, 1.0), 0.4, n)
        theta = ScalarGrid.from_function(lat, lambda p: helmholtz_kernel(ALPHA, p))
        lhs = diffops.apply_D_shifted(diffops.embed_scalar(theta), -ALPHA)
        K = QuaternionGrid.from_function(
            lat, lambda p: fundamental_solution(ALPHA, p).components
        )
        return max_abs_interior(lhs.values + K.values, margin)

    r1, r2 = residual(11, 1), residual(21, 2)
    assert 3.2 <= r1 / r2 <= 4.8


def test_grid_too_small():
    with pytest.raises(GridTooSmall):
        Lattice((0, 0, 0), 0.1, (4, 9, 9))


STENCIL_SHAPE = (5, 6, 7, 8)
STENCIL_H = 0.25


def _stencil_case(name, axes):
    """(input, operator, exact result, stencil axes) on a 4D array whose
    space axes are ``axes``; the fourth axis is a spectator.  Each input is
    a polynomial of the degree the operator differentiates exactly."""
    x = np.meshgrid(*(STENCIL_H * np.arange(n) for n in STENCIL_SHAPE), indexing="ij")
    s0, s1, s2 = (x[a] for a in axes)
    t = x[({0, 1, 2, 3} - set(axes)).pop()]
    c = 1.0 - 0.5j
    h = STENCIL_H
    if name == "diff":
        return c * (s0**2 + t * s0 + s1 * s2), lambda v: diff(v, axes[0], h), c * (2 * s0 + t), (axes[0],)
    if name == "grad":
        f = c * (s0**2 + s0 * s1 + t * s2**2)
        exact = c * np.stack([2 * s0 + s1, s0, 2 * t * s2], axis=-1)
        return f, lambda v: grad(v, h, axes), exact, axes
    if name == "div":
        v = c * np.stack([s0**2, s0 * s1, t * s2**2], axis=-1)
        return v, lambda v: div(v, h, axes), c * (3 * s0 + 2 * t * s2), axes
    if name == "rot":
        v = c * np.stack([s1 * s2, t * s2**2, s0 * s1], axis=-1)
        exact = c * np.stack([s0 - 2 * t * s2, 0 * s0, -s2], axis=-1)
        return v, lambda v: rot(v, h, axes), exact, axes
    if name == "laplacian":
        f = c * (s0**3 + s1**2 * s2 + t * s2**3)
        return f, lambda v: laplacian(v, h, axes), c * (6 * s0 + 2 * s2 + 6 * t * s2), axes
    # dirac of a linear field: -div fv = -8, grad f0 + rot fv = (2, -1, 0) + (5, 3, 0)
    q = c * np.stack([2 * s0 - s1 + t, s0 + 3 * s2, 2 * s1 - s2 + t, 4 * s1 + 5 * s2], axis=-1)
    return q, lambda v: dirac(v, h, axes), c * np.array([-8.0, 7.0, 2.0, 0.0]), axes


@pytest.mark.parametrize("axes", [(0, 1, 2), (1, 2, 3)])
@pytest.mark.parametrize("name", ["diff", "grad", "div", "rot", "laplacian", "dirac"])
def test_stencil_faces_margin_and_exactness(name, axes):
    values, op, exact, stencil_axes = _stencil_case(name, axes)
    out = op(values)

    # NaN on exactly the face layer of each stencil axis, whole nodes at a
    # time; so with axes=(1, 2, 3) the faces of axis 0 (time) stay finite
    idx = np.indices(STENCIL_SHAPE)
    face = np.zeros(STENCIL_SHAPE, dtype=bool)
    for ax in stencil_axes:
        face |= (idx[ax] == 0) | (idx[ax] == STENCIL_SHAPE[ax] - 1)
    nan = np.isnan(out).reshape(STENCIL_SHAPE + (-1,))
    assert np.array_equal(nan.any(axis=-1), face)
    assert np.array_equal(nan.all(axis=-1), face)
    assert np.all(np.isfinite(out[~face]))

    # exact on the polynomial in the whole interior
    exact = np.broadcast_to(exact, out.shape)
    assert np.max(np.abs(out[~face] - exact[~face])) <= 1e-12 * np.max(np.abs(exact))

    # an under-declared margin is caught; the one-node margin is enough
    margin_t = 0 if axes == (1, 2, 3) else None
    with pytest.raises(ValueError):
        max_abs_interior(out, 0, margin_t)
    assert np.isfinite(max_abs_interior(out, 1, margin_t))

    with pytest.raises(GridTooSmall):
        op(values.take([0, 1], axis=stencil_axes[0]))


def test_right_mult_identity_and_table():
    lat = cube(5)
    field = QuaternionGrid.from_function(
        lat, lambda p: np.stack([p[..., 0], p[..., 1], p[..., 2], p[..., 0] * 0 + 1], axis=-1)
    )
    assert np.allclose(diffops.right_mult(ONE)(field).values, field.values)

    i2_field = QuaternionGrid.from_function(
        lat, lambda p: np.broadcast_to(I2.components, p.shape[:-1] + (4,))
    )
    out = diffops.right_mult(I1)(i2_field)
    assert np.allclose(out.values, np.broadcast_to((-I3).components, out.values.shape))
    left = diffops.left_mult(I1)(i2_field)
    assert np.allclose(left.values, np.broadcast_to(I3.components, left.values.shape))


def test_scalar_product_identity():
    # <p, q> = -((pM + M^p) q)/2 for purely vectorial p, q, exactly
    rng = np.random.default_rng(2)
    lat = cube(5)
    pv = rng.uniform(-1, 1, lat.dims + (3,)) + 1j * rng.uniform(-1, 1, lat.dims + (3,))
    qv = rng.uniform(-1, 1, lat.dims + (3,)) + 1j * rng.uniform(-1, 1, lat.dims + (3,))
    p = QuaternionGrid.from_vector_values(lat, pv)
    q = QuaternionGrid.from_vector_values(lat, qv)
    combo = diffops.left_mult(p)(q) + diffops.right_mult(p)(q)
    lhs = -0.5 * combo.values[..., 0]
    assert np.max(np.abs(lhs - np.sum(pv * qv, axis=-1))) <= 1e-12
    assert np.max(np.abs(combo.values[..., 1:])) <= 1e-12  # vector parts cancel


def test_lattice_mismatch():
    a = QuaternionGrid.from_vector_values(cube(5), np.zeros((5, 5, 5, 3)))
    b = QuaternionGrid.from_vector_values(cube(7), np.zeros((7, 7, 7, 3)))
    with pytest.raises(LatticeMismatch):
        diffops.right_mult(a)(b)


# ---------------------------------------------------------------------------
# factorization identities
# ---------------------------------------------------------------------------


def test_helmholtz_factorization_order():
    def res(n, margin):
        g = ScalarGrid.from_function(cube(n, (1, 1, 1)), lambda p: np.exp(1j * ALPHA * p[..., 0]))
        return diffops.helmholtz_factorization_residual(ALPHA, g, margin=margin)

    r1, r2 = res(11, 2), res(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8


def test_helmholtz_factorization_trivial_and_orderings():
    g = ScalarGrid.from_function(cube(9), lambda p: np.ones(p.shape[:-1]))
    assert diffops.helmholtz_factorization_residual(0.0, g) == 0.0

    # both operator orderings agree: swap the shift signs
    g = ScalarGrid.from_function(cube(11), lambda p: p[..., 0] ** 3 + p[..., 1] * p[..., 2])
    qg = diffops.embed_scalar(g)
    one = diffops.apply_D_shifted(diffops.apply_D_shifted(qg, -ALPHA), ALPHA)
    two = diffops.apply_D_shifted(diffops.apply_D_shifted(qg, ALPHA), -ALPHA)
    assert max_abs_interior(one.values - two.values, 2) <= 1e-12


def test_schrodinger_factorization_order():
    def res(n, margin):
        slot, lat = exp_slot(n)
        g = ScalarGrid.from_function(lat, lambda p: p[..., 0] ** 2 * p[..., 1])
        return diffops.schrodinger_factorization_residual(slot, g, margin=margin)

    r1, r2 = res(11, 2), res(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8


def test_schrodinger_laplace_case_exact():
    # f = 1 (nu = 0) with a harmonic quadratic: both sides identically zero
    lat = cube(9)
    f = ScalarGrid.from_function(lat, lambda p: np.ones(p.shape[:-1]))
    slot = diffops.PotentialSlot.from_particular_solution(f)
    g = ScalarGrid.from_function(lat, lambda p: p[..., 0] ** 2 - p[..., 1] ** 2)
    assert diffops.schrodinger_factorization_residual(slot, g) <= 1e-13


def test_schrodinger_g_equals_f_exact():
    # right factor (D - M^w) f = 0 nodewise; the residual is (  -Lap + nu) f = 0
    slot, _ = exp_slot(11)
    assert diffops.schrodinger_factorization_residual(slot, slot.f) <= 1e-12


def test_vanishing_f_rejected():
    lat = cube(7)
    f = ScalarGrid.from_function(lat, lambda p: p[..., 0] - 0.4)  # crosses zero
    with pytest.raises(VanishingF):
        diffops.PotentialSlot.from_particular_solution(f)


def test_conductivity_reduces_to_schrodinger():
    # p = 1, q = -|k|^2, u0 = exp(k.x) is the plain Schrodinger case
    lat = cube(11)
    p = ScalarGrid.from_function(lat, lambda q: np.ones(q.shape[:-1]))
    q = ScalarGrid.from_function(lat, lambda q: -np.ones(q.shape[:-1]))
    u0 = ScalarGrid.from_function(lat, lambda q: np.exp(q @ K_UNIT))
    slot = diffops.PotentialSlot.from_conductivity(p, q, u0)
    phi = ScalarGrid.from_function(lat, lambda q: q[..., 0] ** 2 * q[..., 1])
    cond = diffops.conductivity_factorization_residual(slot, phi)

    schro_slot = diffops.PotentialSlot.from_particular_solution(u0)
    schro = diffops.schrodinger_factorization_residual(schro_slot, phi)
    assert cond <= 3 * schro + 1e-12


def conductivity_residual(n, margin, u0_sign=-1.0):
    # u0 = exp(-x1) solves (div p grad + q) u = 0 for p = 1+x1^2, q = -(1-x1)^2
    lat = cube(n)
    p = ScalarGrid.from_function(lat, lambda q: 1.0 + q[..., 0] ** 2)
    q = ScalarGrid.from_function(lat, lambda q: -((1.0 - q[..., 0]) ** 2))
    u0 = ScalarGrid.from_function(lat, lambda q: np.exp(u0_sign * q[..., 0]))
    slot = diffops.PotentialSlot.from_conductivity(p, q, u0)
    phi = ScalarGrid.from_function(lat, lambda q: np.sin(q[..., 0]) * q[..., 2])
    return diffops.conductivity_factorization_residual(slot, phi, margin=margin)


def test_conductivity_factorization_order():
    r1, r2 = conductivity_residual(11, 2), conductivity_residual(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8


def test_conductivity_negative_control():
    # u0 = exp(+x1) violates the equation; the residual must not refine away
    good = conductivity_residual(21, 4)
    bad = conductivity_residual(21, 4, u0_sign=+1.0)
    assert bad > 10 * good
    assert conductivity_residual(11, 2, u0_sign=+1.0) / bad < 2.0  # stuck, not O(h^2)


def test_conductivity_exponential_p_exact():
    # exponentials are eigenfunctions of the central stencils, so the
    # discrete identity holds to machine precision for p = exp(x1)
    lat = cube(11)
    p = ScalarGrid.from_function(lat, lambda q: np.exp(q[..., 0]))
    q = ScalarGrid.from_function(lat, lambda q: np.zeros(q.shape[:-1]))
    u0 = ScalarGrid.from_function(lat, lambda q: np.exp(-q[..., 0]))
    slot = diffops.PotentialSlot.from_conductivity(p, q, u0)
    phi = ScalarGrid.from_function(lat, lambda q: np.sin(q[..., 0]) * q[..., 2])
    assert diffops.conductivity_factorization_residual(slot, phi) <= 1e-12


# ---------------------------------------------------------------------------
# first-order reduction, antiderivative, round trip
# ---------------------------------------------------------------------------


def test_darboux_g_equals_f_is_zero():
    slot, _ = exp_slot(9)
    F = diffops.darboux_transform(slot, slot.f)
    assert max_abs_interior(F.values, F.margin) <= 1e-13


def test_darboux_closed_form():
    # f = exp(k.x), g = exp(-k.x): F = f grad(f^-1 g) = -2 k exp(-k.x)
    slot, lat = exp_slot(17)
    g = ScalarGrid.from_function(lat, lambda p: np.exp(-(p @ K_UNIT)))
    F = diffops.darboux_transform(slot, g)
    closed = QuaternionGrid.from_function(
        lat,
        lambda p: np.concatenate(
            [
                np.zeros(p.shape[:-1] + (1,)),
                -2.0 * np.exp(-(p @ K_UNIT))[..., None] * np.broadcast_to(K_UNIT, p.shape),
            ],
            axis=-1,
        ),
    )
    assert max_abs_interior((F - closed).values, F.margin) <= 5e-3
    # and F solves the shifted Dirac equation at second order
    def dres(n, margin):
        slot_n, lat_n = exp_slot(n)
        g_n = ScalarGrid.from_function(lat_n, lambda p: np.exp(-(p @ K_UNIT)))
        return diffops.dirac_residual(slot_n, diffops.darboux_transform(slot_n, g_n), margin=margin)

    r1, r2 = dres(11, 2), dres(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8


def test_operator_identity_reduction():
    # (D - M^{Df/f}) g = f D(f^-1 g) nodewise at second order for scalar g
    def res(n, margin):
        slot, lat = exp_slot(n)
        g = ScalarGrid.from_function(lat, lambda p: np.sin(p[..., 0]) + p[..., 1] ** 2)
        mw = diffops.right_mult(slot.df_over_f())
        lhs = diffops.apply_D(diffops.embed_scalar(g)) - mw(diffops.embed_scalar(g))
        rhs = diffops.darboux_transform(slot, g)
        return max_abs_interior(lhs.values - rhs.values, margin)

    r1, r2 = res(11, 2), res(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8


def test_antiderivative_zero():
    lat = cube(7)
    G = QuaternionGrid.from_vector_values(lat, np.zeros(lat.dims + (3,)))
    out = diffops.antiderivative(G, (3, 3, 3))
    assert np.max(np.abs(out.values)) == 0.0


def test_antiderivative_exact_on_cubic_gradient():
    # grad(x1 x2 x3) legs are quadratic at most: Simpson integrates exactly
    lat = cube(9)
    pts = lat.points()
    G = QuaternionGrid.from_vector_values(
        lat,
        np.stack([pts[..., 1] * pts[..., 2], pts[..., 0] * pts[..., 2], pts[..., 0] * pts[..., 1]], axis=-1),
    )
    out = diffops.antiderivative(G, (4, 4, 4))
    target = pts[..., 0] * pts[..., 1] * pts[..., 2]
    target = target - target[4, 4, 4]
    assert np.max(np.abs(out.values - target)) <= 1e-13


def test_antiderivative_quadrature_order():
    # a quartic potential shows the h^4 quadrature error of Simpson
    def res(n):
        lat = cube(n)
        pts = lat.points()
        G = QuaternionGrid.from_vector_values(
            lat,
            np.stack(
                [4 * pts[..., 0] ** 3, 4 * pts[..., 1] ** 3, 4 * pts[..., 2] ** 3], axis=-1
            ),
        )
        base = (n // 2, n // 2, n // 2)
        out = diffops.antiderivative(G, base)
        target = pts[..., 0] ** 4 + pts[..., 1] ** 4 + pts[..., 2] ** 4
        target = target - target[base]
        return np.max(np.abs(out.values - target))

    r1, r2 = res(11), res(21)
    assert 10.0 <= r1 / r2 <= 22.0  # nominal 16


def test_antiderivative_guards():
    lat = cube(7)
    G = QuaternionGrid.from_vector_values(lat, np.zeros(lat.dims + (3,)), margin=1)
    with pytest.raises(BaseOutOfGrid):
        diffops.antiderivative(G, (0, 3, 3))
    bad = QuaternionGrid.from_function(lat, lambda p: np.ones(p.shape[:-1] + (4,)))
    with pytest.raises(ValueError):
        diffops.antiderivative(bad, (3, 3, 3))


def test_round_trip_recovers_solution():
    # g -> F = f D(f^-1 g) -> g' = f A[f^-1 F]; g' - g is a multiple of f
    def roundtrip(n):
        slot, lat = exp_slot(n)
        g = ScalarGrid.from_function(lat, lambda p: np.exp(-(p @ K_UNIT)))
        F = diffops.darboux_transform(slot, g)
        ratio = QuaternionGrid(lat, F.values / slot.f.values[..., None], F.margin)
        base = (n // 2, n // 2, n // 2)
        g_back = diffops.antiderivative(ratio, base)
        g_prime = g_back.values * slot.f.values

        box = tuple(slice(F.margin, d - F.margin) for d in lat.dims)
        diffs = (g_prime - g.values)[box]
        fs = slot.f.values[box]
        lam = np.vdot(fs, diffs) / np.vdot(fs, fs)
        prop_residual = np.max(np.abs(diffs - lam * fs))

        # g' again solves the Schrodinger equation with nu = Lap f / f
        gp = ScalarGrid(lat, np.where(np.isfinite(g_prime), g_prime, 0.0), F.margin)
        h = lat.spacing
        from bqem.grids import laplacian

        schro = -laplacian(gp.values, h) + slot.nu.values * gp.values
        schro_res = max_abs_interior(schro, F.margin + 1)
        return prop_residual, schro_res

    p1, s1 = roundtrip(11)
    p2, s2 = roundtrip(21)
    assert p2 < p1 and 2.5 <= p1 / p2 <= 6.0
    assert 2.5 <= s1 / s2 <= 6.0


# ---------------------------------------------------------------------------
# Vekua equation and its consequences
# ---------------------------------------------------------------------------


def test_vekua_quartet_exponential_f_exact():
    # for exponential f all four members satisfy the discrete equation
    # to machine precision
    slot, _ = exp_slot(17)
    for W in diffops.generating_quartet(slot):
        assert diffops.vekua_residual(slot, W) <= 1e-13


def test_vekua_quartet_order():
    slot, _ = trig_slot(17)
    quartet = diffops.generating_quartet(slot)
    assert diffops.vekua_residual(slot, quartet[0]) <= 1e-13  # F0 = f always exact
    for W in quartet[1:]:
        assert diffops.vekua_residual(slot, W) < 0.05

    def res(n, margin):
        slot_n, _ = trig_slot(n)
        q = diffops.generating_quartet(slot_n)
        return max(diffops.vekua_residual(slot_n, W, margin=margin) for W in q[1:])

    r1, r2 = res(11, 2), res(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8


def test_vekua_constant_combination():
    # W = sum phi_j F_j with constant phi_j stays a solution
    coeffs = (0.5 + 0.1j, -1.0, 0.3j, 2.0)

    def res(n, margin):
        slot_n, lat_n = trig_slot(n)
        q_n = diffops.generating_quartet(slot_n)
        W_n = QuaternionGrid(lat_n, sum(c * q.values for c, q in zip(coeffs, q_n)), 0)
        return diffops.vekua_residual(slot_n, W_n, margin=margin)

    r1, r2 = res(11, 2), res(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8


def test_vekua_negative_control():
    slot, lat = exp_slot(11)
    rng = np.random.default_rng(4)
    Wbad = QuaternionGrid(lat, rng.uniform(-1, 1, lat.dims + (4,)) + 0j)
    good = max(diffops.vekua_residual(slot, W) for W in diffops.generating_quartet(slot))
    bad = diffops.vekua_residual(slot, Wbad)
    assert bad > 10 * good

    slot2, lat2 = exp_slot(21)
    rng2 = np.random.default_rng(4)
    # smooth non-solution: residual stays away from zero under refinement
    Wsmooth = QuaternionGrid.from_function(
        lat2, lambda p: np.stack([np.sin(p[..., 0]), p[..., 1], 0 * p[..., 0], p[..., 2] ** 2], axis=-1)
    )
    Wsmooth_c = QuaternionGrid.from_function(
        exp_slot(11)[1], lambda p: np.stack([np.sin(p[..., 0]), p[..., 1], 0 * p[..., 0], p[..., 2] ** 2], axis=-1)
    )
    rc = diffops.vekua_residual(exp_slot(11)[0], Wsmooth_c)
    rf = diffops.vekua_residual(slot2, Wsmooth)
    assert rf > 0.5 * rc  # no second-order decay


def test_vekua_consequences_quartet_exact():
    slot, _ = exp_slot(13)
    quartet = diffops.generating_quartet(slot)
    scale = 1.0 / np.min(np.abs(slot.f.values))
    for W in quartet:
        r_schr, r_sc, r_vec = diffops.vekua_consequences(slot, W)
        assert r_schr <= 1e-11 * scale
        assert r_sc <= 1e-11 * scale
        assert r_vec <= 1e-11 * scale


def test_vekua_consequences_detect_non_solution():
    slot, lat = exp_slot(13)
    W = QuaternionGrid.from_function(
        lat, lambda p: np.stack([np.sin(2 * p[..., 0]) * p[..., 1], p[..., 2], p[..., 0], p[..., 1] ** 2], axis=-1)
    )
    r_schr, r_sc, r_vec = diffops.vekua_consequences(slot, W)
    assert r_schr > 0.1 and r_sc > 0.1 and r_vec > 0.1


def test_vekua_coefficient_identity():
    # the coefficient form D w = ((1-f^2)/(1+f^2)) D C_H(w) reproduces the
    # Vekua residual of W = phi0 f + sum phi_k i_k / f at stencil order
    def w_at(lat):
        return QuaternionGrid.from_function(
            lat,
            lambda p: np.stack(
                [
                    np.sin(p[..., 0]) * p[..., 1],
                    p[..., 2] ** 2,
                    np.cos(p[..., 1]),
                    p[..., 0] * p[..., 2],
                ],
                axis=-1,
            ),
        )

    def res(n, margin):
        slot, lat = trig_slot(n)
        return diffops.vekua_coefficient_identity_residual(slot, w_at(lat), margin=margin)

    r1, r2 = res(11, 2), res(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8

    # established only for real positive f; complex f is refused
    lat = cube(9)
    fbad = ScalarGrid.from_function(lat, lambda p: 2.0 + 1j * p[..., 0])
    slot_bad = diffops.PotentialSlot.from_particular_solution(fbad)
    with pytest.raises(ValueError):
        diffops.vekua_coefficient_identity_residual(slot_bad, w_at(lat))


def test_coefficients_to_vekua_roundtrip():
    slot, lat = trig_slot(9)
    rng = np.random.default_rng(8)
    w = QuaternionGrid(lat, rng.normal(size=lat.dims + (4,)) + 0j)
    W = diffops.coefficients_to_vekua(slot, w)
    f = slot.f.values
    assert np.allclose(W.values[..., 0], w.values[..., 0] * f)
    assert np.allclose(W.values[..., 1:], w.values[..., 1:] / f[..., None])


def test_negative_control_kinked_grid():
    # a non-smooth g breaks every second-order refinement argument
    def kink(p):
        return np.abs(p[..., 0] - 1.0)

    def helm(n, margin, kinked):
        lat = cube(n, (1, 1, 1))
        fn = kink if kinked else (lambda p: np.exp(1j * ALPHA * p[..., 0]))
        g = ScalarGrid.from_function(lat, fn)
        return diffops.helmholtz_factorization_residual(ALPHA, g, margin=margin)

    smooth = helm(21, 4, False)
    kinked = helm(21, 4, True)
    assert kinked > 10 * smooth

    def schro(n, margin, kinked):
        lat = cube(n, (1, 1, 1))
        slot = diffops.PotentialSlot.from_particular_solution(
            ScalarGrid.from_function(lat, lambda p: np.exp(p @ K_UNIT))
        )
        fn = kink if kinked else (lambda p: p[..., 0] ** 2 * p[..., 1])
        g = ScalarGrid.from_function(lat, fn)
        return diffops.schrodinger_factorization_residual(slot, g, margin=margin)

    assert schro(21, 4, True) > 10 * schro(21, 4, False)
