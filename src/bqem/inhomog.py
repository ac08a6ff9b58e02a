"""Maxwell's equations in a medium with variable eps(x), mu(x), rewritten as
one quaternionic equation, and numerical verification of the equivalence.

For real fields E, H the purely vectorial biquaternion V = sqrt(eps) E +
1j sqrt(mu) H satisfies

    (1/c) dt V + 1j D V - M^{1j cvec} V - M^{1j Wvec} V* = -(sqrt(mu) j + 1j rho/sqrt(eps))

exactly when (E, H) solve the Maxwell system with sources (rho, j); here
c = 1/sqrt(eps mu), W = sqrt(mu/eps) is the intrinsic wave impedance, and
each log-derivative field epsvec, muvec, cvec, Wvec is grad(sqrt(s))/sqrt(s)
for s = eps, mu, c, W, from the one ``diffops._log_derivative`` (M^p is
pointwise right multiplication, p is never differentiated).  W itself is not
kept; the stored fields satisfy

    epsvec + muvec + 2 cvec = 0        epsvec - muvec + 2 Wvec = 0 ,

which the ``inhomog`` check suite reads from its manufactured medium.

In the static case the system splits into (D + M^epsvec) calE = -rho/sqrt(eps)
and (D + M^muvec) calH = sqrt(mu) j with calE = sqrt(eps) E, calH = sqrt(mu) H,
both through ``diffops._dirac_plus_M``: the electric half is the first-order
factor D + M^{Df/f} of the Schroedinger operator -Lap + Lap f/f at f = sqrt(eps).

Verification uses a manufactured solution: H = rot(A)/mu and
E = -dt(A) + grad(phi) satisfy the two curl-free/divergence-free halves
identically, and rho := div(eps E), j := rot(H) - eps dt(E) make the other
two hold by definition.  ``manufactured_state`` writes one such state and
its medium in closed form, so the state is exact and every finite-difference
residual is pure stencil error.  Each residual is the max over the interior
inside the NaN faces its time and space stencils write; ``margin=`` widens
that band alike in time and space.  The residuals stream over time slabs
(``grids._time_windows``), V included.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import _components, _mul_components
from .diffops import _dirac_plus_M, _log_derivative
from .errors import LatticeMismatch, NonPositiveMedium
from .grids import (
    Lattice,
    SpaceTimeLattice,
    _on_lattice,
    _time_diff,
    _time_windows,
    dirac,
    div,
    max_abs_interior,
    rot,
)


@dataclass(frozen=True)
class MediumFields:
    """Sampled eps, mu and every derived field the quaternionic form needs.

    eps, mu and c are real (float) arrays of shape ``lattice.dims``; the
    log-derivative fields are purely vectorial ``dims + (4,)`` arrays with
    one NaN face layer.
    """

    lattice: Lattice
    eps: np.ndarray
    mu: np.ndarray
    c: np.ndarray
    epsvec: np.ndarray
    muvec: np.ndarray
    cvec: np.ndarray
    Wvec: np.ndarray


def build_medium(lattice: Lattice, eps, mu) -> MediumFields:
    """Derive c and the four log-derivative fields from eps(x), mu(x)."""
    eps = _on_lattice(eps, lattice, "eps")
    mu = _on_lattice(mu, lattice, "mu")
    # written so that a NaN node fails the test too
    if not all(np.all((v.imag == 0.0) & (v.real > 0.0) & (v.real < np.inf)) for v in (eps, mu)):
        raise NonPositiveMedium("eps and mu must be real, finite and strictly positive")
    ev = eps.real
    mv = mu.real
    cv = 1.0 / np.sqrt(ev * mv)
    epsvec, muvec, cvec, Wvec = (_log_derivative(np.sqrt(v), lattice.spacing) for v in (ev, mv, cv, np.sqrt(mv / ev)))
    return MediumFields(lattice, ev, mv, cv, epsvec, muvec, cvec, Wvec)


@dataclass(frozen=True)
class EMState:
    """Electromagnetic state sampled on a space-time lattice.

    E, H, j have shape (nt,) + dims + (3,); rho has shape (nt,) + dims,
    else ``LatticeMismatch``.  The arrays are kept as given (a real state
    stays real).  Nothing derived is stored: a perturbed state is
    ``dataclasses.replace(state, E=...)``.
    """

    st: SpaceTimeLattice
    E: np.ndarray
    H: np.ndarray
    rho: np.ndarray
    j: np.ndarray

    def __post_init__(self):
        grid = (self.st.nt,) + self.st.space.dims
        for name, tail in (("E", (3,)), ("H", (3,)), ("rho", ()), ("j", (3,))):
            shape = np.shape(getattr(self, name))
            if shape != grid + tail:
                raise LatticeMismatch(f"{name} has shape {shape}, expected {grid + tail}")


def manufactured_state(n: int) -> tuple[MediumFields, EMState]:
    """Medium and exact state on the unit cube, n nodes a side and n times on
    [0, 0.8]: eps = 1 + 0.3 exp(-|x|^2), mu = 1 + 0.1 x1^2 and the potentials
    A = (0, 0, sin x1 cos t), phi = 0, differentiated by hand:
    E = -dt A, H = rot(A)/mu, rho = div(eps E), j = rot H - eps dt E."""
    lat = Lattice.cube((0, 0, 0), 1.0, n)
    st = SpaceTimeLattice(lat, 0.0, 0.8 / (n - 1), n)
    x1, x2, x3 = np.moveaxis(lat.points(), -1, 0)
    gauss = np.exp(-(x1**2 + x2**2 + x3**2))
    eps = 0.3 * gauss + 1
    mu = 0.1 * x1**2 + 1
    t = st.times()[:, None, None, None]
    sin_x1, cos_x1 = np.sin(x1), np.cos(x1)
    Ez = np.sin(t) * sin_x1
    Hy = -np.cos(t) * cos_x1 / mu
    jz = np.cos(t) * ((mu * sin_x1 + 0.2 * x1 * cos_x1) / mu**2 - eps * sin_x1)
    zero = np.zeros_like(Ez)
    state = EMState(
        st,
        E=np.stack([zero, zero, Ez], axis=-1),
        H=np.stack([zero, Hy, zero], axis=-1),
        rho=-0.6 * x3 * gauss * Ez,
        j=np.stack([zero, zero, jz], axis=-1),
    )
    return build_medium(lat, eps, mu), state


def _check_same_lattice(st: SpaceTimeLattice, medium: MediumFields) -> None:
    """Reject a state whose space lattice is not the one the medium was sampled on."""
    if st.space != medium.lattice:
        raise LatticeMismatch("state lattice differs from the medium's")


def _scaled(E, H, medium: MediumFields) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(eps) E, sqrt(mu) H), the fields of the quaternionic form."""
    return np.sqrt(medium.eps)[..., None] * E, np.sqrt(medium.mu)[..., None] * H


def maxwell_residuals(state: EMState, medium: MediumFields, margin: int = 0) -> tuple[float, float, float, float]:
    """Max interior residuals of the four Maxwell equations, in order:
    rot H - eps dt E - j,  rot E + mu dt H,  div(eps E) - rho,  div(mu H);
    the last two take no time difference, so margin 0 keeps every time node."""
    st = state.st
    _check_same_lattice(st, medium)
    h = st.space.spacing
    ev = medium.eps[..., None]
    mv = medium.mu[..., None]
    curls, divs = [], []
    for s, ((E0, H0), (E, H), (E2, H2)) in _time_windows(lambda s: (state.E[s], state.H[s]), st, margin):
        r1 = rot(H, h) - ev * _time_diff(E0, E2, st.dt) - state.j[s]
        r2 = rot(E, h) + mv * _time_diff(H0, H2, st.dt)
        curls.append((max_abs_interior(r1, margin), max_abs_interior(r2, margin)))
    for s in range(margin, st.nt - margin):
        r3 = div(ev * state.E[s], h) - state.rho[s]
        divs.append((max_abs_interior(r3, margin), max_abs_interior(div(mv * state.H[s], h), margin)))
    return (*map(max, zip(*curls)), *map(max, zip(*divs)))


def quaternionic_residual(state: EMState, medium: MediumFields, margin: int = 0) -> float:
    """Max interior residual of the single quaternionic Maxwell equation."""
    _check_same_lattice(state.st, medium)
    if any(np.iscomplexobj(f) and not np.allclose(f.imag, 0.0, atol=1e-14) for f in (state.E, state.H)):
        warnings.warn(
            "state has complex E or H; the equivalence only covers real fields",
            stacklevel=2,
        )
    st = state.st
    h = st.space.spacing
    i_cvec, i_Wvec = 1j * medium.cvec, 1j * medium.Wvec

    def V_slab(s):
        calE, calH = _scaled(state.E[s], state.H[s], medium)
        return _components(vector=calE + 1j * calH)

    def residual(s, prev, V, nxt):
        lhs = _time_diff(prev, nxt, st.dt) / medium.c[..., None] + 1j * dirac(V, h) - _mul_components(V, i_cvec)
        lhs -= _mul_components(np.conj(V), i_Wvec)
        rhs = _components(-1j * state.rho[s] / np.sqrt(medium.eps), -np.sqrt(medium.mu)[..., None] * state.j[s])
        return max_abs_interior(lhs - rhs, margin)

    return max(residual(s, *window) for s, window in _time_windows(V_slab, st, margin))


def static_residuals(state: EMState, medium: MediumFields, margin: int = 0) -> tuple[float, float]:
    """Residuals of the two decoupled static equations (time slice 0):
    (D + M^epsvec) calE + rho/sqrt(eps) and (D + M^muvec) calH - sqrt(mu) j."""
    _check_same_lattice(state.st, medium)
    if state.st.nt > 1:
        spread = sum(max(float(np.max(np.abs(slab - f[0]))) for slab in f) for f in (state.E, state.H))
        if spread > 1e-12:
            warnings.warn("state is not time-independent; using slice 0", stacklevel=2)
    calE, calH = _scaled(state.E[0], state.H[0], medium)
    h = medium.lattice.spacing
    r1 = _dirac_plus_M(_components(vector=calE), medium.epsvec, h)
    r1[..., 0] += state.rho[0] / np.sqrt(medium.eps)
    r2 = _dirac_plus_M(_components(vector=calH), medium.muvec, h)
    r2[..., 1:] -= np.sqrt(medium.mu)[..., None] * state.j[0]
    return max_abs_interior(r1, margin), max_abs_interior(r2, margin)
