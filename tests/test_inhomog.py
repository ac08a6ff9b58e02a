import warnings
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import oracles
import pytest
import sympy as sp
from oracles import T, X1, X2, X3, sympy_state

from bqem import diffops
from bqem.algebra import _components, _mul_components
from bqem.errors import GridTooSmall, LatticeMismatch, NonPositiveMedium
from bqem.grids import Lattice, SpaceTimeLattice, dirac, div, max_abs_interior, rot
from bqem.inhomog import (
    EMState,
    build_medium,
    manufactured_state,
    maxwell_residuals,
    quaternionic_residual,
    static_residuals,
)

EPS_EXPR = 1 + sp.Rational(3, 10) * sp.exp(-(X1**2 + X2**2 + X3**2))
MU_EXPR = 1 + sp.Rational(1, 10) * X1**2
WAVE_POTENTIAL = (0, 0, sp.sin(X1) * sp.cos(T))


def smooth_medium(lat):
    """The medium of EPS_EXPR and MU_EXPR, sampled with numpy."""
    x = lat.points()
    return build_medium(lat, 1 + 0.3 * np.exp(-np.sum(x * x, axis=-1)), 1 + 0.1 * x[..., 0] ** 2)


# ---------------------------------------------------------------------------
# medium construction
# ---------------------------------------------------------------------------


def test_constant_medium_has_zero_log_derivatives():
    lat = Lattice.cube((0, 0, 0), 1.0, 7)
    one = np.ones(lat.dims)
    med = build_medium(lat, 2.0 * one, 0.5 * one)
    for field in (med.epsvec, med.muvec, med.cvec, med.Wvec):
        assert max_abs_interior(field, 1) == 0.0
    assert np.allclose(med.c, 1.0)


def test_exponential_eps_log_derivative():
    # eps = exp(2 x1): grad(sqrt(eps))/sqrt(eps) = (1, 0, 0) at second order
    def err(n):
        lat = Lattice.cube((0, 0, 0), 1.0, n)
        med = build_medium(lat, np.exp(2 * lat.points()[..., 0]), np.ones(lat.dims))
        inner = med.epsvec[1:-1, 1:-1, 1:-1]
        assert np.max(np.abs(inner[..., 2])) == 0.0
        assert np.max(np.abs(inner[..., 3])) == 0.0
        return np.max(np.abs(inner[..., 1] - 1.0))

    e9, e17 = err(9), err(17)
    assert e17 < 5e-3
    assert 3.2 <= e9 / e17 <= 4.8


def test_log_derivatives_are_df_over_f_of_the_square_root():
    # epsvec and muvec are Df/f of the slot f = sqrt(eps), sqrt(mu): one
    # routine, one difference, so the arrays agree bit for bit
    lat = Lattice.cube((0, 0, 0), 1.0, 13)
    med = smooth_medium(lat)
    for field, s in ((med.epsvec, med.eps), (med.muvec, med.mu)):
        slot = diffops.PotentialSlot(lat, np.sqrt(s))
        assert np.array_equal(field, slot.df_over_f(), equal_nan=True)


def gradient_identities(med):
    """Interior norms of epsvec + muvec + 2 cvec and epsvec - muvec + 2 Wvec."""
    return (
        max_abs_interior(med.epsvec + med.muvec + 2.0 * med.cvec),
        max_abs_interior(med.epsvec - med.muvec + 2.0 * med.Wvec),
    )


def test_gradient_identities_order():
    def worst(n):
        return max(gradient_identities(smooth_medium(Lattice.cube((0, 0, 0), 1.0, n))))

    r1, r2 = worst(9), worst(17)
    assert 2.5 <= r1 / r2 <= 6.0


def test_non_positive_medium_rejected():
    lat = Lattice.cube((0, 0, 0), 1.0, 7)
    mu = np.ones(lat.dims)
    with pytest.raises(NonPositiveMedium):
        build_medium(lat, lat.points()[..., 0], mu)  # crosses zero
    # one non-finite node fails the guard too, not a later norm
    for bad in (np.nan, np.inf):
        eps = np.ones(lat.dims)
        eps[3, 2, 4] = bad
        with pytest.raises(NonPositiveMedium):
            build_medium(lat, eps, mu)
    assert gradient_identities(build_medium(lat, 2.0 * mu, mu)) == (0.0, 0.0)


def test_complex_medium_rejected():
    # a lossy eps or mu is outside the real-field equivalence: its imaginary
    # part is refused, not dropped
    lat = Lattice.cube((0, 0, 0), 1.0, 7)
    one = np.ones(lat.dims)
    for eps, mu in ((2 + 5j, 1), (2, 1 + 1e-12j), (2, complex(1, np.nan))):
        with pytest.raises(NonPositiveMedium, match="real"):
            build_medium(lat, eps * one, mu * one)
    # a complex dtype with zero imaginary part is a real medium, stored real
    med = build_medium(lat, (2 + 0j) * one, one)
    for field in (med.eps, med.mu, med.c):
        assert field.dtype == float
    assert np.allclose(med.c, np.sqrt(0.5))


# ---------------------------------------------------------------------------
# manufactured solutions and residuals
# ---------------------------------------------------------------------------


def test_zero_potentials_give_zero_state():
    st = SpaceTimeLattice(Lattice.cube((0, 0, 0), 1.0, 7), 0.0, 0.1, 7)
    med, state = sympy_state((0, 0, 0), 5, EPS_EXPR, MU_EXPR, st)  # constant potential
    for arr in (state.E, state.H, state.rho, state.j):
        assert np.max(np.abs(arr)) == 0.0
    assert maxwell_residuals(state, med) == (0.0, 0.0, 0.0, 0.0)
    assert quaternionic_residual(state, med) == 0.0


def test_standard_wave_residuals_refine():
    med9, st9 = manufactured_state(9)
    med17, st17 = manufactured_state(17)
    m9 = maxwell_residuals(st9, med9, margin=1)
    m17 = maxwell_residuals(st17, med17, margin=2)
    for i in range(3):
        assert 3.2 <= m9[i] / m17[i] <= 4.8
    # the fourth equation is satisfied exactly for this potential
    assert m17[3] <= 1e-13


def test_quaternionic_residual_refines():
    med9, st9 = manufactured_state(9)
    med17, st17 = manufactured_state(17)
    r9 = quaternionic_residual(st9, med9, margin=1)
    r17 = quaternionic_residual(st17, med17, margin=2)
    assert 3.2 <= r9 / r17 <= 4.8


def _same_state(med, state, ref_med, ref):
    """The medium fields, E and H equal on finite nodes; rho and j within
    1e-14 of the reference's max."""
    fields = ("eps", "mu", "epsvec", "muvec", "cvec", "Wvec")
    return (
        state.st == ref.st
        and all(np.array_equal(getattr(med, f), getattr(ref_med, f), equal_nan=True) for f in fields)
        and np.array_equal(state.E, ref.E)
        and np.array_equal(state.H, ref.H)
        and all(
            np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(b)) for a, b in ((state.rho, ref.rho), (state.j, ref.j))
        )
    )


@pytest.mark.parametrize("n", [9, 17])
def test_check_suite_state_is_the_sympy_manufactured_solution(n):
    # the inhomog check suite builds its state in closed form, without sympy
    med, state = manufactured_state(n)
    st = SpaceTimeLattice(Lattice.cube((0, 0, 0), 1.0, n), 0.0, 0.8 / (n - 1), n)
    ref_med, ref = sympy_state(WAVE_POTENTIAL, 0, EPS_EXPR, MU_EXPR, st)
    assert _same_state(med, state, ref_med, ref)
    # negative control: drop the d(1/mu)/dx1 term 0.2 x1 cos x1 cos t / mu^2 from j
    x1 = state.st.space.points()[..., 0]
    t = state.st.times()[:, None, None, None]
    term = 0.2 * x1 * np.cos(x1) * np.cos(t) / med.mu**2
    broken = replace(state, j=state.j - term[..., None] * (0.0, 0.0, 1.0))
    assert not _same_state(med, broken, ref_med, ref)


def test_constant_medium_plane_wave():
    # reduces to the constant-coefficient quaternionic form; sources vanish
    st = SpaceTimeLattice(Lattice.cube((0, 0, 0), 1.0, 9), 0.0, 0.1, 9)
    med, state = sympy_state((0, 0, sp.sin(X1 - T)), 0, 1, 1, st)
    assert np.max(np.abs(state.rho)) == 0.0
    assert np.max(np.abs(state.j)) == 0.0
    assert quaternionic_residual(state, med) < 2e-3


def test_single_violations_detected():
    med, state = manufactured_state(9)
    base = quaternionic_residual(state, med, margin=1)
    pts = state.st.space.points()
    bump = np.exp(-np.sum(pts * pts, axis=-1))
    gradbump = -2.0 * pts * bump[..., None]
    curlbump = np.cross(np.array([1.0, 0.5, -0.3]), gradbump)

    cases = {
        "gauss_E": replace(state, E=state.E + 0.3 * gradbump[None]),
        "gauss_H": replace(state, H=state.H + 0.3 * gradbump[None]),
        "ampere_j": replace(state, j=state.j + 0.3 * curlbump[None]),
        "charge_rho": replace(state, rho=state.rho + 0.3 * bump[None]),
    }
    for name, bad in cases.items():
        r = quaternionic_residual(bad, med, margin=1)
        assert r > 10 * base, name


def test_scalar_part_tracks_divergence_content():
    # dropping rho moves both the scalar part of the quaternionic equation
    # and the divergence residual by the same order
    med, state = manufactured_state(9)
    m0 = maxwell_residuals(state, med, margin=1)
    q0 = quaternionic_residual(state, med, margin=1)
    no_rho = replace(state, rho=np.zeros_like(state.rho))
    m1 = maxwell_residuals(no_rho, med, margin=1)
    q1 = quaternionic_residual(no_rho, med, margin=1)
    rho_scale = np.max(np.abs(state.rho))
    assert m1[2] > 10 * m0[2]
    assert q1 > 5 * q0
    assert q1 == pytest.approx(m1[2], rel=2.0)  # same driving term, rho-sized
    assert m1[2] == pytest.approx(rho_scale, rel=0.5)


def test_complex_state_warns():
    st = SpaceTimeLattice(Lattice.cube((0, 0, 0), 1.0, 7), 0.0, 0.1, 7)
    med, state = sympy_state((0, 0, sp.exp(sp.I * (X1 - T))), 0, 1, 1, st)
    with pytest.warns(UserWarning, match="complex"):
        quaternionic_residual(state, med)


def test_real_state_does_not_warn():
    med, state = manufactured_state(9)
    cplx = replace(state, E=state.E + 0j, H=state.H + 0j)  # complex dtype, zero imaginary part
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (state, cplx):
            quaternionic_residual(s, med, margin=1)
    H = cplx.H.copy()
    H[4, 4, 4, 4, 1] += complex(0.0, np.nan)  # a NaN imaginary part still warns, then fails the norm
    with pytest.warns(UserWarning, match="complex"), pytest.raises(ValueError, match="non-finite"):
        quaternionic_residual(replace(cplx, H=H), med, margin=1)


# ---------------------------------------------------------------------------
# streamed residuals against the whole-array expressions
# ---------------------------------------------------------------------------


def random_setup(nt, dims=(9, 11, 8), seed=0):
    """A smooth medium and a random real state on a non-cubic lattice."""
    lat = Lattice((0.1, -0.2, 0.05), 0.07, dims)
    med = smooth_medium(lat)
    rng = np.random.default_rng(seed)
    shape = (nt,) + lat.dims
    E, H, j = (rng.normal(size=shape + (3,)) for _ in range(3))
    return med, EMState(SpaceTimeLattice(lat, 0.0, 0.05, nt), E, H, rng.normal(size=shape), j)


def whole_array_residuals(state, med, margin):
    """(maxwell, quaternionic) residuals with every term built as a whole
    (nt,) + dims array, in the streamed routines' order of operations."""
    h, ht = state.st.space.spacing, state.st.dt
    ev, mv, c = med.eps[..., None], med.mu[..., None], med.c[..., None]

    def norm(r):
        return oracles.max_abs_interior(r, margin)

    maxwell = tuple(
        norm(r)
        for r in (
            rot(state.H, h) - ev * oracles.diff(state.E, 0, ht) - state.j,
            rot(state.E, h) + mv * oracles.diff(state.H, 0, ht),
            div(ev * state.E, h) - state.rho,
            div(mv * state.H, h),
        )
    )
    calE, calH = np.sqrt(med.eps)[..., None] * state.E, np.sqrt(med.mu)[..., None] * state.H
    V = _components(vector=calE + 1j * calH)
    lhs = (
        oracles.diff(V, 0, ht) / c
        + 1j * dirac(V, h)
        - _mul_components(V, 1j * med.cvec)
        - _mul_components(np.conj(V), 1j * med.Wvec)
    )
    rhs = _components(-1j * state.rho / np.sqrt(med.eps), -np.sqrt(med.mu)[..., None] * state.j)
    return maxwell, norm(lhs - rhs)


def streamed_residuals(state, med, margin):
    return maxwell_residuals(state, med, margin), quaternionic_residual(state, med, margin)


@pytest.mark.parametrize("margin", [0, 1, 2, 3])
def test_streamed_residuals_equal_whole_array_expressions(margin):
    # bit for bit, on a non-cubic lattice with nt != n; margin 3 leaves 2
    # nodes on the short axis, and at margin 0 the divergence equations keep
    # the first and last time nodes
    med, state = random_setup(13)
    want = whole_array_residuals(state, med, margin)
    assert streamed_residuals(state, med, margin) == want
    assert all(np.all(np.array(r) > 0.0) for r in (want[0][:3], want[1]))


@pytest.mark.parametrize("nt", [1, 2, 3, 4, 5, 7])
def test_streamed_residuals_raise_where_whole_array_path_does(nt):
    med, state = random_setup(nt)
    for margin in range(-1, 6):
        try:
            want = whole_array_residuals(state, med, margin)
        except (GridTooSmall, ValueError) as exc:
            for routine in (maxwell_residuals, quaternionic_residual):
                with pytest.raises(type(exc)):
                    routine(state, med, margin)
        else:
            assert streamed_residuals(state, med, margin) == want


def test_non_finite_value_in_kept_box_raises():
    med, state = random_setup(13)
    E = state.E.copy()
    E[6, 4, 5, 4, 1] = np.nan  # inside the box margin 3 keeps
    for margin in range(4):
        for routine in (maxwell_residuals, quaternionic_residual):
            with pytest.raises(ValueError, match="non-finite"):
                routine(replace(state, E=E), med, margin)


@pytest.mark.parametrize("routine", [maxwell_residuals, quaternionic_residual])
def test_streamed_residuals_hold_a_few_slabs(traced_peak, routine):
    # no term is built as a whole (nt,) + dims array: the peak does not grow
    # with the number of time nodes
    def peak(nt):
        med, state = random_setup(nt, dims=(17, 17, 17))
        return traced_peak(lambda: routine(state, med, margin=2))[1]

    short, long = peak(9), peak(33)
    slab_bytes = 17**3 * 4 * np.dtype(complex).itemsize
    assert long <= 12 * slab_bytes
    assert abs(long - short) <= 0.1 * short


# ---------------------------------------------------------------------------
# static case
# ---------------------------------------------------------------------------


def test_static_zero_state():
    st = SpaceTimeLattice(Lattice.cube((0, 0, 0), 1.0, 7), 0.0, 0.1, 1)
    med, state = sympy_state((0, 0, 0), 0, EPS_EXPR, MU_EXPR, st)
    assert static_residuals(state, med) == (0.0, 0.0)


def test_electrostatic_state_refines():
    # E = grad(phi), H = 0: rho is defined to satisfy the divergence law
    def res(n, margin):
        st = SpaceTimeLattice(Lattice.cube((0, 0, 0), 1.0, n), 0.0, 0.1, 1)
        med, state = sympy_state((0, 0, 0), sp.sin(X1) * X2, EPS_EXPR, MU_EXPR, st)
        return static_residuals(state, med, margin=margin)

    r9 = res(9, 1)
    r17 = res(17, 2)
    assert 3.2 <= r9[0] / r17[0] <= 4.8
    assert r17[1] <= 1e-13  # H = 0 and j = 0


def test_static_darboux_cross_link():
    # F = f D(f^-1 g) with f = sqrt(eps) gives a sourceless static state:
    # calE = F solves (D + M^epsvec) calE = 0 at stencil order
    k = np.array([0.36, 0.48, 0.8])

    def res(n, margin):
        lat = Lattice.cube((0.2, 0.3, 0.1), 0.5, n)
        p = lat.points()
        med = build_medium(lat, np.exp(2 * (p @ k)), np.ones(lat.dims))
        slot = diffops.PotentialSlot(lat, np.exp(p @ k))
        F = diffops.darboux_transform(slot, np.exp(-(p @ k)))

        st = SpaceTimeLattice(lat, 0.0, 0.1, 1)
        E = np.real(F[None, ..., 1:]) / np.sqrt(np.real(med.eps))[None, ..., None]
        zero = np.zeros_like(E)
        state = EMState(st, E, zero, np.zeros(E.shape[:-1]), zero)
        return static_residuals(state, med, margin=margin)[0]

    r1, r2 = res(11, 2), res(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8


@pytest.mark.parametrize(
    "routine", [maxwell_residuals, quaternionic_residual, static_residuals]
)
def test_medium_on_another_lattice_rejected(routine):
    # same dims, side 2 instead of 1: the nodes differ, so the medium's
    # fields do not belong to the state's nodes
    med, state = manufactured_state(9)
    other = smooth_medium(Lattice.cube((0, 0, 0), 2.0, 9))
    with pytest.warns(UserWarning, match="time-independent") if routine is static_residuals else nullcontext():
        assert np.all(np.isfinite(routine(state, med, margin=1)))
    with pytest.raises(LatticeMismatch):
        routine(state, other, margin=1)


@pytest.mark.parametrize("nt_arrays", [12, 5])
def test_state_arrays_off_the_lattice_rejected(nt_arrays):
    # 12 time nodes on an nt = 9 lattice used to give residuals of the first
    # slabs only, and 5 an IndexError
    st = SpaceTimeLattice(Lattice.cube((0, 0, 0), 1.0, 9), 0.0, 0.1, 9)
    vec = np.zeros((9,) + st.space.dims + (3,))
    state = EMState(st, vec, vec, vec[..., 0], vec)
    assert state.E is vec and state.rho.dtype == float  # kept as given
    off = np.zeros((nt_arrays,) + st.space.dims + (3,))
    for fields in (
        (off, vec, vec[..., 0], vec),
        (vec, off, vec[..., 0], vec),
        (vec, vec, off[..., 0], vec),
        (vec, vec, vec[..., 0], off),
        (vec, vec, vec, vec),
        (vec[..., :2], vec, vec[..., 0], vec),
    ):
        with pytest.raises(LatticeMismatch):
            EMState(st, *fields)

