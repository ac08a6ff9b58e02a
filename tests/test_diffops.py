import numpy as np
import oracles
import pytest

from bqem import diffops, grids
from bqem.algebra import Biquaternion, _components, _cross, _mul_components, dot
from bqem.chiral_time import green_function
from bqem.errors import BaseOutOfGrid, GridTooSmall, LatticeMismatch, VanishingF
from bqem.grids import (
    Lattice,
    SpaceTimeLattice,
    _time_diff,
    dirac,
    div,
    grad,
    laplacian,
    max_abs_interior,
    rot,
)
from bqem.inhomog import MediumFields, manufactured_state
from bqem.kernels import ChiralMedium, fundamental_solution, helmholtz_kernel

ALPHA = 1 + 0.3j
K_UNIT = np.array([0.36, 0.48, 0.8])  # |k| = 1


def cube(n, center=(0.4, 0.5, 0.6), side=0.5):
    return Lattice.cube(center, side, n)


def exp_slot(n, k=K_UNIT, **cube_kw):
    lat = cube(n, **cube_kw)
    return diffops.PotentialSlot(lat, np.exp(lat.points() @ k)), lat


def trig_slot(n, **cube_kw):
    # non-exponential f: exponentials are exact eigenfunctions of the
    # stencils and would hide the O(h^2) behaviour
    lat = cube(n, **cube_kw)
    p = lat.points()
    f = 2.0 + np.sin(p[..., 0]) * np.cos(p[..., 1]) + 0.2 * p[..., 2] ** 2
    return diffops.PotentialSlot(lat, f), lat


# ---------------------------------------------------------------------------
# the Dirac operator D
# ---------------------------------------------------------------------------


def test_apply_D_position_field():
    lat = cube(9)
    p = lat.points()
    field = np.concatenate([np.zeros(p.shape[:-1] + (1,)), p], axis=-1)
    out = dirac(field, lat.spacing)
    inner = out[1:-1, 1:-1, 1:-1]
    assert np.allclose(inner[..., 0], -3.0)
    assert np.max(np.abs(inner[..., 1:])) == 0.0


def test_apply_D_constant_field():
    lat = cube(7)
    field = np.broadcast_to(np.array([1.0, 2.0, -1.0, 0.5]), lat.dims + (4,))
    out = dirac(field, lat.spacing)
    assert max_abs_interior(out) == 0.0


def test_apply_D_on_theta_matches_kernel():
    # (D - alpha) theta_alpha = -K_alpha away from the origin
    def residual(n, margin):
        lat = Lattice.cube((2.0, 0.5, 1.0), 0.4, n)
        theta = Biquaternion.from_scalar(helmholtz_kernel(ALPHA, lat.points())).components
        lhs = dirac(theta, lat.spacing) - ALPHA * theta
        K = fundamental_solution(ALPHA, lat.points()).components
        return max_abs_interior(lhs + K, margin)

    r1, r2 = residual(11, 1), residual(21, 2)
    assert 3.2 <= r1 / r2 <= 4.8


def test_grid_too_small():
    with pytest.raises(GridTooSmall):
        Lattice((0, 0, 0), 0.1, (4, 9, 9))


STENCIL_SPACE = (6, 7, 8)
STENCIL_NT = 5
STENCIL_H = 0.25
# The two field layouts, named by the array axes that hold space: a spatial
# field, and a space-time field with a leading time axis.  The operators are
# not told which: they read it from the layout.
SPACE, SPACE_TIME = (0, 1, 2), (1, 2, 3)


def _stencil_case(name, axes):
    """(input, operator, exact result, lattice shape, stencil axes) for the
    layout whose space axes are ``axes``.  Each input is a polynomial of the
    degree the operator differentiates exactly, and on a space-time field
    its coefficients vary in time."""
    shape = STENCIL_SPACE if axes == SPACE else (STENCIL_NT,) + STENCIL_SPACE
    x = np.meshgrid(*(STENCIL_H * np.arange(n) for n in shape), indexing="ij")
    s0, s1, s2 = (x[a] for a in axes)
    t = 0.75 if axes == SPACE else x[0]
    c = 1.0 - 0.5j
    h = STENCIL_H
    if name == "diff":
        # the whole-array time difference the tests compare streamed residuals with
        f = c * (s0**2 + t * s0 + s1 * s2)
        return f, lambda v: oracles.diff(v, v.ndim - 3, h), c * (2 * s0 + t), shape, axes[:1]
    if name == "grad":
        f = c * (s0**2 + s0 * s1 + t * s2**2)
        exact = c * np.stack([2 * s0 + s1, s0, 2 * t * s2], axis=-1)
        return f, lambda v: grad(v, h), exact, shape, axes
    if name == "div":
        v = c * np.stack([s0**2, s0 * s1, t * s2**2], axis=-1)
        return v, lambda v: div(v, h), c * (3 * s0 + 2 * t * s2), shape, axes
    if name == "rot":
        v = c * np.stack([s1 * s2, t * s2**2, s0 * s1], axis=-1)
        exact = c * np.stack([s0 - 2 * t * s2, 0 * s0, -s2], axis=-1)
        return v, lambda v: rot(v, h), exact, shape, axes
    if name == "laplacian":
        f = c * (s0**3 + s1**2 * s2 + t * s2**3)
        return f, lambda v: laplacian(v, h), c * (6 * s0 + 2 * s2 + 6 * t * s2), shape, axes
    # dirac of a linear field: -div fv = -8, grad f0 + rot fv = (2, -1, 0) + (5, 3, 0)
    q = c * np.stack([2 * s0 - s1 + t, s0 + 3 * s2, 2 * s1 - s2 + t, 4 * s1 + 5 * s2], axis=-1)
    return q, lambda v: dirac(v, h), c * np.array([-8.0, 7.0, 2.0, 0.0]), shape, axes


def test_negative_margin_is_an_input_error():
    v = np.random.default_rng(4).normal(size=(7, 7, 7, 4)) + 0j
    Dv = dirac(v, 0.1)
    assert max_abs_interior(Dv, 0) == max_abs_interior(Dv) > 0.0
    with pytest.raises(ValueError, match="margin"):
        max_abs_interior(Dv, -1)


STENCIL_NAMES = ["diff", "grad", "div", "rot", "laplacian", "dirac"]


@pytest.mark.parametrize("axes", [SPACE, SPACE_TIME])
@pytest.mark.parametrize("name", STENCIL_NAMES)
def test_stencil_faces_margin_and_exactness(name, axes):
    values, op, exact, shape, stencil_axes = _stencil_case(name, axes)
    out = op(values)

    # NaN on exactly the face layer of each stencil axis, whole nodes at a
    # time; so on a space-time field the faces of axis 0 (time) stay finite
    idx = np.indices(shape)
    face = np.zeros(shape, dtype=bool)
    for ax in stencil_axes:
        face |= (idx[ax] == 0) | (idx[ax] == shape[ax] - 1)
    nan = np.isnan(out).reshape(shape + (-1,))
    assert np.array_equal(nan.any(axis=-1), face)
    assert np.array_equal(nan.all(axis=-1), face)
    assert np.all(np.isfinite(out[~face]))

    # exact on the polynomial in the whole interior
    exact = np.broadcast_to(exact, out.shape)
    assert np.max(np.abs(out[~face] - exact[~face])) <= 1e-12 * np.max(np.abs(exact))

    # the valid interior is read from the NaN faces; a space-time field's
    # norm, whose axis 0 (time) is a lattice axis too, is the test-side one
    norm = max_abs_interior if axes == SPACE else oracles.max_abs_interior
    k = len(shape)
    assert norm(out) == np.max(np.abs(out[~face]))

    # a non-finite node inside the interior raises, NaN, +inf or an infinite
    # imaginary part alike, and so does a face layer that is only partly
    # non-finite, whether its centre node or another is valid
    for bad in (np.nan, np.inf, complex(0.0, np.inf)):  # 1j * np.inf would be nan + infj
        inside = out.copy()
        inside[(2,) * k] = bad
        with pytest.raises(ValueError, match="non-finite"):
            norm(inside)
    layer_dims = np.delete(shape, stencil_axes[0])  # lattice axes of a face layer
    for node in ((1,) * (k - 1), tuple(layer_dims // 2)):
        partial = out.copy()
        np.moveaxis(partial, stencil_axes[0], 0)[0][node] = 0.0
        with pytest.raises(ValueError, match="non-finite"):
            norm(partial)

    # an empty interior raises, whether the faces or the margin empty it
    with pytest.raises(GridTooSmall):
        norm(np.full_like(out, np.nan))
    with pytest.raises(GridTooSmall):
        norm(out, 3)
    with pytest.raises(GridTooSmall):
        op(values.take([0, 1], axis=stencil_axes[0]))

    # composed stencils: two whole-node NaN layers, and the interior is [2:-2]
    if name == "dirac":
        twice = op(out)
        box = tuple(slice(2, -2) if ax in stencil_axes else slice(None) for ax in range(k))
        face2 = np.ones(shape, dtype=bool)
        face2[box] = False
        nan2 = np.isnan(twice).reshape(shape + (-1,))
        assert np.array_equal(nan2.any(axis=-1), face2)
        assert np.array_equal(nan2.all(axis=-1), face2)
        assert norm(twice) == np.max(np.abs(twice[box]))


@pytest.mark.parametrize("name", STENCIL_NAMES)
def test_stencil_on_space_time_field_is_slab_by_slab(name):
    # the leading time axis is carried along: each time slab of the result is
    # the operator on that slab alone, bit for bit, NaN faces included
    values, op, _, _, _ = _stencil_case(name, SPACE_TIME)
    values = values + np.random.default_rng(5).normal(size=values.shape)
    slabs = np.stack([op(slab) for slab in values])
    assert np.array_equal(op(values), slabs, equal_nan=True)


# the component count each stencil reads (0: a scalar field), and the
# stencil whose output of that layout has NaN faces
STENCIL_INPUTS = {"grad": 0, "div": 3, "rot": 3, "laplacian": 0, "dirac": 4}
NAN_FACED = {0: laplacian, 3: rot, 4: dirac}


@pytest.mark.parametrize("name", list(STENCIL_INPUTS))
def test_dirac_matches_strided_oracle(name):
    # one flat shifted difference per derivative keeps the bits of the
    # differences of strided interior boxes, on a spatial field, a
    # space-time field, a real field and a stencil output with NaN faces
    op, ref, k = getattr(grids, name), getattr(oracles, name), STENCIL_INPUTS[name]
    rng = np.random.default_rng(13)
    shape = (5,) + STENCIL_SPACE + ((k,) if k else ())
    spacetime = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    h = 0.1  # not a power of two, so that a changed division rounds differently
    real = rng.normal(size=shape[1:])
    for v in (spacetime[2], spacetime, real, NAN_FACED[k](spacetime[2], h)):
        assert np.array_equal(op(v, h), ref(v, h), equal_nan=True)


@pytest.mark.parametrize("name", ["grad", "div", "rot", "laplacian"])
def test_stencil_reads_an_infinite_face_quietly(name):
    # the face nodes inside the flat span are junk, and so are their
    # floating-point exceptions: a real field with an infinite face gives the
    # box form's result and no more warnings than it (the suite makes them errors)
    k = STENCIL_INPUTS[name]
    v = np.random.default_rng(19).normal(size=STENCIL_SPACE + ((k,) if k else ()))
    v[:, 0] = np.inf
    assert np.array_equal(getattr(grids, name)(v, 0.1), getattr(oracles, name)(v, 0.1), equal_nan=True)


def test_stencil_divisions_keep_their_bits():
    # complex data is scaled by the reciprocal of the step, which is how numpy
    # divides a complex array by a real scalar; real data keeps the true
    # division, whose last bit the reciprocal changes
    rng = np.random.default_rng(17)
    h = dt = 0.1
    slab = rng.normal(size=STENCIL_SPACE + (4,)) + 1j * rng.normal(size=STENCIL_SPACE + (4,))
    later = rng.normal(size=slab.shape) + 1j * rng.normal(size=slab.shape)
    for prev, nxt in ((slab, later), (slab.real, later.real)):
        assert np.array_equal(_time_diff(prev, nxt, dt), ((nxt - prev) / (2.0 * dt)).astype(complex))
    for f in (slab[..., 0], slab[..., 0].real):
        assert np.array_equal(laplacian(f, h), oracles.laplacian(f, h), equal_nan=True)
    # the reciprocal differs from the real division in some last bits
    assert not np.array_equal(later.real * (1.0 / (2.0 * dt)), later.real / (2.0 * dt))


@pytest.mark.parametrize(
    "name, shape",
    [("dirac", (20, 20, 20, 5)), ("dirac", (9, 20, 20, 20)), ("dirac", (20, 20, 20)),
     ("div", (20, 20, 20, 4)), ("rot", (20, 20, 20, 4)), ("grad", (200, 200))],
)
def test_stencil_rejects_a_wrong_component_axis(traced_peak, name, shape):
    # the trailing axis is checked before anything is allocated: an output
    # would take at least 256 kB here
    op, k = getattr(grids, name), STENCIL_INPUTS[name]
    values = np.ones(shape)

    def call():
        with pytest.raises(ValueError, match=rf"\(\.\.\., {k}\)" if k else "three lattice axes"):
            op(values, 0.1)

    _, peak = traced_peak(call)
    assert peak < 2**14
    # the layout it names is accepted
    lattice = (5, 6, 7)
    out_components = {"grad": (3,), "div": (), "rot": (3,), "dirac": (4,)}[name]
    assert op(np.ones(lattice + ((k,) if k else ())), 0.1).shape == lattice + out_components


def test_fields_are_stored_component_major():
    # every (..., k) field bqem builds is one C-contiguous block per component
    # behind its (..., k) shape, so the stencils read it without a copy
    lat = cube(7)
    h = lat.spacing
    pts = lat.points()
    q = _components(pts[..., 0], pts)
    state = manufactured_state(5)
    scalar = np.exp(pts @ K_UNIT)
    times = np.array([0.5, 1.0])[:, None, None, None]
    fields = [
        ("points", pts, 3),
        ("_components", q, 4),
        ("_mul_components", _mul_components(q, q), 4),
        ("_cross", _cross(pts, pts[::-1]), 3),
        ("E", state.E, 3),
        ("H", state.H, 3),
        ("j", state.j, 3),
        ("grad", grad(scalar, h), 3),
        ("div", div(pts, h), 0),
        ("rot", rot(pts, h), 3),
        ("laplacian", laplacian(scalar, h), 0),
        ("dirac", dirac(q, h), 4),
        ("green_function", green_function(times, pts, ChiralMedium(beta=1.0)).components, 4),
    ]
    for name, field, k in fields:
        assert (np.moveaxis(field, -1, 0) if k else field).flags.c_contiguous, name
        assert np.shares_memory(grids._component_major(field, k, name), field), name
    # a time slab of a space-time field is one contiguous block per component too
    assert np.shares_memory(grids._component_major(state.E[2], 3, "rot"), state.E)


def test_time_diff_exact_on_quadratic_in_t():
    # the central time difference of the slabs around t = 0.75 differentiates
    # a quadratic in t exactly, and a real input gives a complex result
    x = np.meshgrid(*(STENCIL_H * np.arange(n) for n in STENCIL_SPACE), indexing="ij")
    dt = 0.125

    def f(t):
        return 2.0 * t**2 + t * x[0] - 3.0 * x[1] * x[2]

    out = _time_diff(f(0.75 - dt), f(0.75 + dt), dt)
    exact = 3.0 + x[0]
    assert out.dtype == complex and out.shape == STENCIL_SPACE
    assert np.max(np.abs(out - exact)) <= 1e-12 * np.max(np.abs(exact))


def test_scalar_product_identity():
    # <p, q> = -(p q + q p)/2 for purely vectorial p, q, exactly
    rng = np.random.default_rng(2)
    shape = (5, 5, 5, 3)
    p = Biquaternion.from_vector(rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    q = Biquaternion.from_vector(rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape))
    combo = p * q + q * p
    assert np.max(np.abs(-0.5 * combo.scalar - dot(p, q))) <= 1e-12
    assert np.max(np.abs(combo.vector)) <= 1e-12  # vector parts cancel


def test_lattice_mismatch():
    slot, lat = exp_slot(7)
    with pytest.raises(LatticeMismatch):
        diffops.schrodinger_factorization_residual(slot, np.ones((5, 5, 5)))
    # a scalar array where a quaternion field belongs: the component axis counts
    with pytest.raises(LatticeMismatch):
        diffops.vekua_residual(slot, np.ones(lat.dims))
    with pytest.raises(LatticeMismatch):
        MediumFields(lat, np.ones(lat.dims), np.ones((7, 7, 6)))
    with pytest.raises(LatticeMismatch):
        diffops.PotentialSlot(lat, np.ones((5, 5, 5)))


def test_lattice_guards():
    # a NaN or infinite spacing or time step is no lattice: caught at
    # construction, not as an empty interior or a zero residual later
    for h in (0.0, -0.1, np.nan, np.inf):
        with pytest.raises(ValueError, match="spacing"):
            Lattice((0, 0, 0), h, (9, 9, 9))
    lat = Lattice((0, 0, 0), 0.1, (9, 9, 9))
    assert diffops.helmholtz_factorization_residual(1.0, np.ones(lat.dims), lat) == 0.0
    for dt in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="dt"):
            SpaceTimeLattice(lat, 0.0, dt, 3)
    assert np.all(np.isfinite(SpaceTimeLattice(lat, 0.0, 0.1, 3).times()))
    # too few nodes is GridTooSmall, also where the spacing would divide by n - 1 = 0
    for n in (1, 4):
        with pytest.raises(GridTooSmall):
            Lattice.cube((0, 0, 0), 1.0, n)
    assert Lattice.cube((0, 0, 0), 1.0, 5).spacing == 0.25


# ---------------------------------------------------------------------------
# factorization identities
# ---------------------------------------------------------------------------


def test_helmholtz_factorization_order():
    def res(n, margin):
        lat = cube(n, (1, 1, 1))
        g = np.exp(1j * ALPHA * lat.points()[..., 0])
        return diffops.helmholtz_factorization_residual(ALPHA, g, lat, margin=margin)

    r1, r2 = res(11, 2), res(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8


def test_helmholtz_factorization_trivial_and_orderings():
    lat = cube(9)
    assert diffops.helmholtz_factorization_residual(0.0, np.ones(lat.dims), lat) == 0.0

    # both operator orderings agree: swap the shift signs
    lat = cube(11)
    p = lat.points()
    qg = Biquaternion.from_scalar(p[..., 0] ** 3 + p[..., 1] * p[..., 2]).components

    def shifted(v, a):  # (D + a) v
        return dirac(v, lat.spacing) + a * v

    one = shifted(shifted(qg, -ALPHA), ALPHA)
    two = shifted(shifted(qg, ALPHA), -ALPHA)
    assert max_abs_interior(one - two, 2) <= 1e-12


def test_schrodinger_factorization_order():
    def res(n, margin):
        slot, lat = exp_slot(n)
        p = lat.points()
        return diffops.schrodinger_factorization_residual(slot, p[..., 0] ** 2 * p[..., 1], margin=margin)

    r1, r2 = res(11, 2), res(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8


def test_schrodinger_laplace_case_exact():
    # f = 1 (nu = 0) with a harmonic quadratic: both sides identically zero
    lat = cube(9)
    slot = diffops.PotentialSlot(lat, np.ones(lat.dims))
    p = lat.points()
    g = p[..., 0] ** 2 - p[..., 1] ** 2
    assert diffops.schrodinger_factorization_residual(slot, g) <= 1e-13


def test_schrodinger_g_equals_f_exact():
    # right factor (D - M^w) f = 0 nodewise; the residual is (  -Lap + nu) f = 0
    slot, _ = exp_slot(11)
    assert diffops.schrodinger_factorization_residual(slot, slot.f) <= 1e-12


def test_vanishing_f_rejected():
    lat = cube(7)
    f = lat.points()[..., 0] - 0.4  # crosses zero
    with pytest.raises(VanishingF):
        diffops.PotentialSlot(lat, f)

    # the NaN faces a stencil leaves are not nodes of f: a zero inside is
    # still caught, and an f bounded away from 0 is still accepted
    faced = np.ones(lat.dims, dtype=complex)
    faced[0] = np.nan
    slot = diffops.PotentialSlot(lat, faced)
    assert np.all(np.isfinite(slot.f[1:]))
    faced[3, 3, 3] = 0.0
    with pytest.raises(VanishingF):
        diffops.PotentialSlot(lat, faced)


def test_conductivity_reduces_to_schrodinger():
    # p = 1, q = -|k|^2, u0 = exp(k.x) is the plain Schrodinger case
    lat = cube(11)
    x = lat.points()
    u0 = np.exp(x @ K_UNIT)
    phi = x[..., 0] ** 2 * x[..., 1]
    cond = diffops.conductivity_factorization_residual(lat, np.ones(lat.dims), -np.ones(lat.dims), u0, phi)

    schro_slot = diffops.PotentialSlot(lat, u0)
    schro = diffops.schrodinger_factorization_residual(schro_slot, phi)
    assert cond <= 3 * schro + 1e-12


def conductivity_residual(n, margin, u0_sign=-1.0):
    # u0 = exp(-x1) solves (div p grad + q) u = 0 for p = 1+x1^2, q = -(1-x1)^2
    lat = cube(n)
    x = lat.points()
    p = 1.0 + x[..., 0] ** 2
    q = -((1.0 - x[..., 0]) ** 2)
    u0 = np.exp(u0_sign * x[..., 0])
    phi = np.sin(x[..., 0]) * x[..., 2]
    return diffops.conductivity_factorization_residual(lat, p, q, u0, phi, margin=margin)


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
    x = lat.points()
    phi = np.sin(x[..., 0]) * x[..., 2]
    p, q, u0 = np.exp(x[..., 0]), np.zeros(lat.dims), np.exp(-x[..., 0])
    assert diffops.conductivity_factorization_residual(lat, p, q, u0, phi) <= 1e-12


def test_conductivity_guards():
    # p, q, u0 and phi must lie on the lattice, and neither p nor u0 may
    # vanish: f = sqrt(p) u0 divides every term
    lat = cube(9)
    x = lat.points()
    p, q, u0, phi = 1.0 + x[..., 0] ** 2, np.zeros(lat.dims), np.exp(-x[..., 0]), x[..., 2]
    assert np.isfinite(diffops.conductivity_factorization_residual(lat, p, q, u0, phi))
    with pytest.raises(LatticeMismatch, match="p has shape"):
        diffops.conductivity_factorization_residual(lat, p[:-1], q, u0, phi)
    with pytest.raises(LatticeMismatch, match="phi has shape"):
        diffops.conductivity_factorization_residual(lat, p, q, u0, phi[..., None])
    crossing = x[..., 0] - 0.4
    with pytest.raises(VanishingF, match=r"\|p\|"):
        diffops.conductivity_factorization_residual(lat, crossing, q, u0, phi)
    with pytest.raises(VanishingF, match=r"\|u0\|"):
        diffops.conductivity_factorization_residual(lat, p, q, crossing, phi)


# ---------------------------------------------------------------------------
# first-order reduction, antiderivative, round trip
# ---------------------------------------------------------------------------


def test_darboux_g_equals_f_is_zero():
    slot, _ = exp_slot(9)
    F = diffops.darboux_transform(slot, slot.f)
    assert max_abs_interior(F) <= 1e-13


def test_darboux_closed_form():
    # f = exp(k.x), g = exp(-k.x): F = f grad(f^-1 g) = -2 k exp(-k.x)
    slot, lat = exp_slot(17)
    p = lat.points()
    F = diffops.darboux_transform(slot, np.exp(-(p @ K_UNIT)))
    closed = np.concatenate(
        [
            np.zeros(p.shape[:-1] + (1,)),
            -2.0 * np.exp(-(p @ K_UNIT))[..., None] * np.broadcast_to(K_UNIT, p.shape),
        ],
        axis=-1,
    )
    assert max_abs_interior(F - closed) <= 5e-3
    # and F solves the shifted Dirac equation at second order
    def dres(n, margin):
        slot_n, lat_n = exp_slot(n)
        g_n = np.exp(-(lat_n.points() @ K_UNIT))
        return diffops.dirac_residual(slot_n, diffops.darboux_transform(slot_n, g_n), margin=margin)

    r1, r2 = dres(11, 2), dres(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8


def test_operator_identity_reduction():
    # (D - M^{Df/f}) g = f D(f^-1 g) nodewise at second order for scalar g
    def res(n, margin):
        slot, lat = exp_slot(n)
        p = lat.points()
        g = np.sin(p[..., 0]) + p[..., 1] ** 2
        qg = Biquaternion.from_scalar(g).components
        lhs = dirac(qg, lat.spacing) - _mul_components(qg, slot.df_over_f())
        rhs = diffops.darboux_transform(slot, g)
        return max_abs_interior(lhs - rhs, margin)

    r1, r2 = res(11, 2), res(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8


def test_antiderivative_zero():
    lat = cube(7)
    out = diffops.antiderivative(np.zeros(lat.dims + (4,)), lat, (3, 3, 3))
    assert np.max(np.abs(out)) == 0.0


def test_antiderivative_exact_on_cubic_gradient():
    # grad(x1 x2 x3) legs are quadratic at most: Simpson integrates exactly
    lat = cube(9)
    pts = lat.points()
    G = Biquaternion.from_vector(
        np.stack([pts[..., 1] * pts[..., 2], pts[..., 0] * pts[..., 2], pts[..., 0] * pts[..., 1]], axis=-1)
    ).components
    out = diffops.antiderivative(G, lat, (4, 4, 4))
    target = pts[..., 0] * pts[..., 1] * pts[..., 2]
    target = target - target[4, 4, 4]
    assert np.max(np.abs(out - target)) <= 1e-13


def test_antiderivative_quadrature_order():
    # a quartic potential shows the h^4 quadrature error of Simpson
    def res(n):
        lat = cube(n)
        pts = lat.points()
        G = Biquaternion.from_vector(
            np.stack([4 * pts[..., 0] ** 3, 4 * pts[..., 1] ** 3, 4 * pts[..., 2] ** 3], axis=-1)
        ).components
        base = (n // 2, n // 2, n // 2)
        out = diffops.antiderivative(G, lat, base)
        target = pts[..., 0] ** 4 + pts[..., 1] ** 4 + pts[..., 2] ** 4
        target = target - target[base]
        return np.max(np.abs(out - target))

    r1, r2 = res(11), res(21)
    assert 10.0 <= r1 / r2 <= 22.0  # nominal 16


def test_antiderivative_guards():
    lat = cube(7)
    # D of a constant is purely vectorial zero inside one NaN face layer
    G = dirac(Biquaternion.from_scalar(np.ones(lat.dims)).components, lat.spacing)
    assert np.max(np.abs(diffops.antiderivative(G, lat, (1, 3, 5))[1:-1, 1:-1, 1:-1])) == 0.0
    for base in ((0, 3, 3), (3, 6, 3), (3, 3, 7)):
        with pytest.raises(BaseOutOfGrid):
            diffops.antiderivative(G, lat, base)
    with pytest.raises(ValueError):
        diffops.antiderivative(np.ones(lat.dims + (4,)), lat, (3, 3, 3))


def test_round_trip_recovers_solution():
    # g -> F = f D(f^-1 g) -> g' = f A[f^-1 F]; g' - g is a multiple of f
    def roundtrip(n):
        slot, lat = exp_slot(n)
        g = np.exp(-(lat.points() @ K_UNIT))
        F = diffops.darboux_transform(slot, g)
        base = (n // 2, n // 2, n // 2)
        g_prime = diffops.antiderivative(F / slot.f[..., None], lat, base) * slot.f

        valid = np.isfinite(g_prime)  # g' is NaN on the faces of F
        diffs = (g_prime - g)[valid]
        fs = slot.f[valid]
        lam = np.vdot(fs, diffs) / np.vdot(fs, fs)
        prop_residual = np.max(np.abs(diffs - lam * fs))

        # g' again solves the Schrodinger equation with nu = Lap f / f; its
        # NaN faces widen by one under the Laplacian
        schro = -laplacian(g_prime, lat.spacing) + slot.nu() * g_prime
        schro_res = max_abs_interior(schro)
        return prop_residual, schro_res

    p1, s1 = roundtrip(11)
    p2, s2 = roundtrip(21)
    assert p2 < p1 and 2.5 <= p1 / p2 <= 6.0
    assert 2.5 <= s1 / s2 <= 6.0


# ---------------------------------------------------------------------------
# Vekua equation
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
        slot_n, _ = trig_slot(n)
        W_n = sum(c * q for c, q in zip(coeffs, diffops.generating_quartet(slot_n)))
        return diffops.vekua_residual(slot_n, W_n, margin=margin)

    r1, r2 = res(11, 2), res(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8


def test_vekua_negative_control():
    slot, lat = exp_slot(11)
    rng = np.random.default_rng(4)
    Wbad = rng.uniform(-1, 1, lat.dims + (4,))
    good = max(diffops.vekua_residual(slot, W) for W in diffops.generating_quartet(slot))
    bad = diffops.vekua_residual(slot, Wbad)
    assert bad > 10 * good

    # smooth non-solution: residual stays away from zero under refinement
    def smooth(lat):
        p = lat.points()
        return np.stack([np.sin(p[..., 0]), p[..., 1], 0 * p[..., 0], p[..., 2] ** 2], axis=-1)

    slot2, lat2 = exp_slot(21)
    rc = diffops.vekua_residual(slot, smooth(lat))
    rf = diffops.vekua_residual(slot2, smooth(lat2))
    assert rf > 0.5 * rc  # no second-order decay


def test_vekua_coefficient_identity():
    # the coefficient form D w = ((1-f^2)/(1+f^2)) D C_H(w) reproduces the
    # Vekua residual of W = phi0 f + sum phi_k i_k / f at stencil order
    def w_at(lat):
        p = lat.points()
        return np.stack(
            [
                np.sin(p[..., 0]) * p[..., 1],
                p[..., 2] ** 2,
                np.cos(p[..., 1]),
                p[..., 0] * p[..., 2],
            ],
            axis=-1,
        )

    def res(n, margin):
        slot, lat = trig_slot(n)
        return diffops.vekua_coefficient_identity_residual(slot, w_at(lat), margin=margin)

    r1, r2 = res(11, 2), res(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8

    # established only for real positive f; complex f is refused
    lat = cube(9)
    fbad = 2.0 + 1j * lat.points()[..., 0]
    slot_bad = diffops.PotentialSlot(lat, fbad)
    with pytest.raises(ValueError):
        diffops.vekua_coefficient_identity_residual(slot_bad, w_at(lat))


def test_vekua_coefficient_identity_guard_skips_nan_faces():
    # the real-positive test reads the finite nodes only: a NaN face layer
    # neither hides a negative node nor rejects an admissible f
    lat = cube(7)
    w = np.ones(lat.dims + (4,))
    f = np.full(lat.dims, 2.0)
    f[0] = np.nan
    # the NaN face divides through the slot's fields on purpose
    with np.errstate(invalid="ignore"):
        ok = diffops.PotentialSlot(lat, f)
        assert np.isfinite(diffops.vekua_coefficient_identity_residual(ok, w))
        f[3, 3, 3] = -1.0
        bad = diffops.PotentialSlot(lat, f)
        with pytest.raises(ValueError, match="real positive f"):
            diffops.vekua_coefficient_identity_residual(bad, w)


def test_coefficients_to_vekua_roundtrip():
    slot, lat = trig_slot(9)
    rng = np.random.default_rng(8)
    w = rng.normal(size=lat.dims + (4,))
    W = diffops.coefficients_to_vekua(slot, w)
    f = slot.f
    assert np.allclose(W[..., 0], w[..., 0] * f)
    assert np.allclose(W[..., 1:], w[..., 1:] / f[..., None])


def test_negative_control_kinked_grid():
    # a non-smooth g breaks every second-order refinement argument
    def kink(p):
        return np.abs(p[..., 0] - 1.0)

    def helm(n, margin, kinked):
        lat = cube(n, (1, 1, 1))
        fn = kink if kinked else (lambda p: np.exp(1j * ALPHA * p[..., 0]))
        return diffops.helmholtz_factorization_residual(ALPHA, fn(lat.points()), lat, margin=margin)

    smooth = helm(21, 4, False)
    kinked = helm(21, 4, True)
    assert kinked > 10 * smooth

    def schro(n, margin, kinked):
        lat = cube(n, (1, 1, 1))
        slot = diffops.PotentialSlot(lat, np.exp(lat.points() @ K_UNIT))
        fn = kink if kinked else (lambda p: p[..., 0] ** 2 * p[..., 1])
        return diffops.schrodinger_factorization_residual(slot, fn(lat.points()), margin=margin)

    assert schro(21, 4, True) > 10 * schro(21, 4, False)
