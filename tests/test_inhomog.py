from dataclasses import replace

import numpy as np
import pytest
import sympy as sp

from bqem import diffops
from bqem.errors import NonPositiveMedium
from bqem.grids import Lattice, SpaceTimeLattice, max_abs_interior
from bqem.inhomog import (
    EMState,
    T,
    X1,
    X2,
    X3,
    build_medium,
    manufactured_solution,
    maxwell_residuals,
    medium_from_expressions,
    quaternionic_residual,
    split_residuals,
    static_residuals,
)

EPS_EXPR = 1 + sp.Rational(3, 10) * sp.exp(-(X1**2 + X2**2 + X3**2))
MU_EXPR = 1 + sp.Rational(1, 10) * X1**2
WAVE_POTENTIAL = (0, 0, sp.sin(X1) * sp.cos(T))


def standard_setup(n, nt):
    lat = Lattice.cube((0, 0, 0), 1.0, n)
    med = medium_from_expressions(lat, EPS_EXPR, MU_EXPR)
    st = SpaceTimeLattice(lat, 0.0, 0.8 / (nt - 1), nt)
    state = manufactured_solution(WAVE_POTENTIAL, 0, med, st)
    return med, state


# ---------------------------------------------------------------------------
# medium construction
# ---------------------------------------------------------------------------


def test_constant_medium_has_zero_log_derivatives():
    lat = Lattice.cube((0, 0, 0), 1.0, 7)
    med = medium_from_expressions(lat, 2, sp.Rational(1, 2))
    for field in (med.epsvec, med.muvec, med.cvec, med.Wvec):
        assert max_abs_interior(field, 1) == 0.0
    assert np.allclose(med.c, 1.0)
    assert np.allclose(med.W, 0.5)


def test_exponential_eps_log_derivative():
    # eps = exp(2 x1): grad(sqrt(eps))/sqrt(eps) = (1, 0, 0) at second order
    def err(n):
        lat = Lattice.cube((0, 0, 0), 1.0, n)
        med = medium_from_expressions(lat, sp.exp(2 * X1), 1)
        inner = med.epsvec[1:-1, 1:-1, 1:-1]
        assert np.max(np.abs(inner[..., 2])) == 0.0
        assert np.max(np.abs(inner[..., 3])) == 0.0
        return np.max(np.abs(inner[..., 1] - 1.0))

    e9, e17 = err(9), err(17)
    assert e17 < 5e-3
    assert 3.2 <= e9 / e17 <= 4.8


def test_gradient_identities_order():
    def worst(n):
        lat = Lattice.cube((0, 0, 0), 1.0, n)
        med = medium_from_expressions(lat, EPS_EXPR, MU_EXPR)
        return max(med.identity_residuals)

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
    assert build_medium(lat, 2.0 * mu, mu).identity_residuals == (0.0, 0.0)


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
    for field in (med.eps, med.mu, med.c, med.W):
        assert field.dtype == float
    assert np.allclose(med.c, np.sqrt(0.5))


# ---------------------------------------------------------------------------
# manufactured solutions and residuals
# ---------------------------------------------------------------------------


def test_zero_potentials_give_zero_state():
    lat = Lattice.cube((0, 0, 0), 1.0, 7)
    med = medium_from_expressions(lat, EPS_EXPR, MU_EXPR)
    st = SpaceTimeLattice(lat, 0.0, 0.1, 7)
    state = manufactured_solution((0, 0, 0), 5, med, st)  # constant potential
    for arr in (state.E, state.H, state.rho, state.j):
        assert np.max(np.abs(arr)) == 0.0
    assert maxwell_residuals(state, med) == (0.0, 0.0, 0.0, 0.0)
    assert quaternionic_residual(state, med) == 0.0


def test_standard_wave_residuals_refine():
    med9, st9 = standard_setup(9, 9)
    med17, st17 = standard_setup(17, 17)
    m9 = maxwell_residuals(st9, med9, margin=1)
    m17 = maxwell_residuals(st17, med17, margin=2)
    for i in range(3):
        assert 3.2 <= m9[i] / m17[i] <= 4.8
    # the fourth equation is satisfied exactly for this potential
    assert m17[3] <= 1e-13


def test_quaternionic_residual_refines():
    med9, st9 = standard_setup(9, 9)
    med17, st17 = standard_setup(17, 17)
    r9 = quaternionic_residual(st9, med9, margin=1)
    r17 = quaternionic_residual(st17, med17, margin=2)
    assert 3.2 <= r9 / r17 <= 4.8


def test_split_residuals_refine():
    med9, st9 = standard_setup(9, 9)
    med17, st17 = standard_setup(17, 17)
    s9 = split_residuals(st9, med9, margin=1)
    s17 = split_residuals(st17, med17, margin=2)
    for a, b in zip(s9, s17):
        assert 3.2 <= a / b <= 4.8


def test_constant_medium_plane_wave():
    # reduces to the constant-coefficient quaternionic form; sources vanish
    lat = Lattice.cube((0, 0, 0), 1.0, 9)
    med = medium_from_expressions(lat, 1, 1)
    st = SpaceTimeLattice(lat, 0.0, 0.1, 9)
    state = manufactured_solution((0, 0, sp.sin(X1 - T)), 0, med, st)
    assert np.max(np.abs(state.rho)) == 0.0
    assert np.max(np.abs(state.j)) == 0.0
    assert quaternionic_residual(state, med) < 2e-3


def test_single_violations_detected():
    med, state = standard_setup(9, 9)
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
    med, state = standard_setup(9, 9)
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
    lat = Lattice.cube((0, 0, 0), 1.0, 7)
    med = medium_from_expressions(lat, 1, 1)
    st = SpaceTimeLattice(lat, 0.0, 0.1, 7)
    state = manufactured_solution((0, 0, sp.exp(sp.I * (X1 - T))), 0, med, st)
    with pytest.warns(UserWarning, match="complex"):
        quaternionic_residual(state, med)


# ---------------------------------------------------------------------------
# static case
# ---------------------------------------------------------------------------


def test_static_zero_state():
    lat = Lattice.cube((0, 0, 0), 1.0, 7)
    med = medium_from_expressions(lat, EPS_EXPR, MU_EXPR)
    st = SpaceTimeLattice(lat, 0.0, 0.1, 1)
    state = manufactured_solution((0, 0, 0), 0, med, st)
    assert static_residuals(state, med) == (0.0, 0.0)


def test_electrostatic_state_refines():
    # E = grad(phi), H = 0: rho is defined to satisfy the divergence law
    def res(n, margin):
        lat = Lattice.cube((0, 0, 0), 1.0, n)
        med = medium_from_expressions(lat, EPS_EXPR, MU_EXPR)
        st = SpaceTimeLattice(lat, 0.0, 0.1, 1)
        state = manufactured_solution((0, 0, 0), sp.sin(X1) * X2, med, st)
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
        eps_expr = sp.exp(2 * (sp.Rational(36, 100) * X1 + sp.Rational(48, 100) * X2 + sp.Rational(80, 100) * X3))
        med = medium_from_expressions(lat, eps_expr, 1)
        p = lat.points()
        slot = diffops.PotentialSlot.from_particular_solution(lat, np.exp(p @ k))
        F = diffops.darboux_transform(slot, np.exp(-(p @ k)))

        st = SpaceTimeLattice(lat, 0.0, 0.1, 1)
        E = np.real(F[None, ..., 1:]) / np.sqrt(np.real(med.eps))[None, ..., None]
        zero = np.zeros_like(E)
        state = EMState(st, E, zero, np.zeros(E.shape[:-1]), zero)
        return static_residuals(state, med, margin=margin)[0]

    r1, r2 = res(11, 2), res(21, 4)
    assert 3.2 <= r1 / r2 <= 4.8


def test_manufactured_solution_needs_closed_forms():
    # a medium sampled without closed forms cannot carry symbolic sources
    lat = Lattice.cube((0, 0, 0), 1.0, 7)
    p = lat.points()
    med = build_medium(lat, 1 + 0.3 * np.exp(-np.sum(p * p, axis=-1)), 1 + 0.1 * p[..., 0] ** 2)
    st = SpaceTimeLattice(lat, 0.0, 0.1, 3)
    with pytest.raises(ValueError, match="closed form"):
        manufactured_solution(WAVE_POTENTIAL, 0, med, st)
