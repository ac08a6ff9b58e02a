"""Maxwell's equations in a medium with variable eps(x), mu(x), rewritten as
one quaternionic equation, and numerical verification of the equivalence.

For real fields E, H the purely vectorial biquaternion V = sqrt(eps) E +
1j sqrt(mu) H satisfies

    (1/c) dt V + 1j D V - M^{1j cvec} V - M^{1j Wvec} V* = -(sqrt(mu) j + 1j rho/sqrt(eps))

exactly when (E, H) solve the Maxwell system with sources (rho, j); here
c = 1/sqrt(eps mu), W = sqrt(mu/eps) is the intrinsic wave impedance, and
each log-derivative field epsvec, muvec, cvec, Wvec is grad(sqrt(s))/sqrt(s)
for s = eps, mu, c, W, from the one ``diffops._log_derivative`` (M^p is
pointwise right multiplication, p is never differentiated).  build_medium
checks on every medium, from the stored fields, that

    epsvec + muvec + 2 cvec = 0        epsvec - muvec + 2 Wvec = 0 .

In the static case the system splits into (D + M^epsvec) calE = -rho/sqrt(eps)
and (D + M^muvec) calH = sqrt(mu) j with calE = sqrt(eps) E, calH = sqrt(mu) H,
both through ``diffops._dirac_plus_M``: the electric half is the first-order
factor D + M^{Df/f} of the Schroedinger operator -Lap + Lap f/f at f = sqrt(eps).

Verification uses manufactured solutions: H = rot(A)/mu and
E = -dt(A) + grad(phi) satisfy the two curl-free/divergence-free halves
identically, and rho := div(eps E), j := rot(H) - eps dt(E) make the other
two hold by definition.  The potentials and the medium are sympy
expressions and all sources are differentiated symbolically, so the state
is exact and every finite-difference residual is pure stencil error.  sympy
is imported only on this route (``medium_from_expressions``,
``manufactured_solution``); the ``check`` suite writes its one state in
closed form with numpy and builds its medium with ``build_medium``.  Each
residual is the max over the interior inside the NaN faces its time and
space stencils write; ``margin=`` widens that band alike in time and space.
The residuals stream over time slabs (``grids._time_windows``), V included.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache

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

_SYMBOL_NAMES = ("T", "X1", "X2", "X3")


@cache
def _symbols():
    """The real sympy symbols (t, x1, x2, x3).

    sympy is imported here, on first use, so that importing bqem does not
    load it; only the manufactured-solution route needs it.
    """
    import sympy as sp

    return sp.symbols("t x1 x2 x3", real=True)


def __getattr__(name):
    """Serve T, X1, X2, X3 and SPACE_SYMBOLS = (X1, X2, X3) from _symbols()."""
    if name in _SYMBOL_NAMES:
        return _symbols()[_SYMBOL_NAMES.index(name)]
    if name == "SPACE_SYMBOLS":
        return _symbols()[1:]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _sample(exprs, times, pts) -> np.ndarray:
    """Sample sympy expressions in (t, x1, x2, x3) at every time and point.

    One ``lambdify`` call on the list and one evaluation with the times
    broadcast as (nt, 1, 1, 1); returns (len(exprs), nt) + pts.shape[:-1].
    """
    import sympy as sp

    fn = sp.lambdify(_symbols(), list(exprs), modules="numpy")
    t = np.reshape(np.asarray(times, dtype=float), (-1,) + (1,) * (pts.ndim - 1))
    shape = t.shape[:1] + pts.shape[:-1]
    out = fn(t, pts[..., 0], pts[..., 1], pts[..., 2])
    return np.stack([np.broadcast_to(np.asarray(v), shape) for v in out])


@dataclass(frozen=True)
class MediumFields:
    """Sampled eps, mu and every derived field the quaternionic form needs.

    eps, mu, c and W are real (float) arrays of shape ``lattice.dims``; the
    log-derivative fields are purely vectorial ``dims + (4,)`` arrays with
    one NaN face layer.  Closed forms of eps and mu are kept when known so
    manufactured sources can be differentiated analytically.
    """

    lattice: Lattice
    eps: np.ndarray
    mu: np.ndarray
    c: np.ndarray
    W: np.ndarray
    epsvec: np.ndarray
    muvec: np.ndarray
    cvec: np.ndarray
    Wvec: np.ndarray
    eps_form: sp.Expr | None = None
    mu_form: sp.Expr | None = None
    identity_residuals: tuple[float, float] = (np.nan, np.nan)


def build_medium(
    lattice: Lattice,
    eps,
    mu,
    eps_form: sp.Expr | None = None,
    mu_form: sp.Expr | None = None,
) -> MediumFields:
    """Derive c, W and the four log-derivative fields from eps(x), mu(x)."""
    eps = _on_lattice(eps, lattice, "eps")
    mu = _on_lattice(mu, lattice, "mu")
    # written so that a NaN node fails the test too
    if not all(np.all((v.imag == 0.0) & (v.real > 0.0) & (v.real < np.inf)) for v in (eps, mu)):
        raise NonPositiveMedium("eps and mu must be real, finite and strictly positive")
    ev = eps.real
    mv = mu.real
    h = lattice.spacing
    cv = 1.0 / np.sqrt(ev * mv)
    Wv = np.sqrt(mv / ev)

    epsvec, muvec, cvec, Wvec = (_log_derivative(np.sqrt(v), h) for v in (ev, mv, cv, Wv))

    # the two gradient identities tying the derived fields together
    residuals = (max_abs_interior(epsvec + muvec + 2.0 * cvec), max_abs_interior(epsvec - muvec + 2.0 * Wvec))

    return MediumFields(
        lattice=lattice,
        eps=ev,
        mu=mv,
        c=cv,
        W=Wv,
        epsvec=epsvec,
        muvec=muvec,
        cvec=cvec,
        Wvec=Wvec,
        eps_form=eps_form,
        mu_form=mu_form,
        identity_residuals=residuals,
    )


def medium_from_expressions(lattice: Lattice, eps_expr, mu_expr) -> MediumFields:
    """Sample closed-form eps(x), mu(x) and remember the expressions."""
    import sympy as sp

    eps_expr = sp.sympify(eps_expr)
    mu_expr = sp.sympify(mu_expr)
    eps, mu = _sample((eps_expr, mu_expr), 0.0, lattice.points())[:, 0]
    return build_medium(lattice, eps, mu, eps_form=eps_expr, mu_form=mu_expr)


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


def manufactured_solution(A, phi, medium: MediumFields, st: SpaceTimeLattice) -> EMState:
    """Exact Maxwell state from a vector potential A(t,x) and scalar phi(t,x).

    H = rot(A)/mu and E = -dt(A) + grad(phi) satisfy the curl equation and
    div(mu H) = 0 identically; the sources are then defined as
    rho = div(eps E) and j = rot(H) - eps dt(E), so all four equations hold.
    A and phi are sympy expressions in (t, x1, x2, x3), and the medium must
    carry closed forms of eps and mu (``medium_from_expressions``).
    """
    import sympy as sp

    _check_same_lattice(st, medium)
    if medium.eps_form is None or medium.mu_form is None:
        raise ValueError(
            "manufactured solutions need eps and mu in closed form (medium_from_expressions)"
        )
    A = tuple(sp.sympify(a) for a in A)
    phi = sp.sympify(phi)

    T, X1, X2, X3 = _symbols()
    space = (X1, X2, X3)
    eps_e, mu_e = medium.eps_form, medium.mu_form
    rotA = (
        sp.diff(A[2], X2) - sp.diff(A[1], X3),
        sp.diff(A[0], X3) - sp.diff(A[2], X1),
        sp.diff(A[1], X1) - sp.diff(A[0], X2),
    )
    H_e = tuple(r / mu_e for r in rotA)
    E_e = tuple(-sp.diff(A[k], T) + sp.diff(phi, space[k]) for k in range(3))
    rho_e = sum(sp.diff(eps_e * E_e[k], space[k]) for k in range(3))
    rotH = (
        sp.diff(H_e[2], X2) - sp.diff(H_e[1], X3),
        sp.diff(H_e[0], X3) - sp.diff(H_e[2], X1),
        sp.diff(H_e[1], X1) - sp.diff(H_e[0], X2),
    )
    j_e = tuple(rotH[k] - eps_e * sp.diff(E_e[k], T) for k in range(3))

    s = _sample(E_e + H_e + (rho_e,) + j_e, st.times(), st.space.points())
    return EMState(
        st=st,
        E=np.stack(s[0:3], axis=-1),
        H=np.stack(s[3:6], axis=-1),
        rho=s[6],
        j=np.stack(s[7:10], axis=-1),
    )


def _check_same_lattice(st: SpaceTimeLattice, medium: MediumFields) -> None:
    """Reject a state whose space lattice is not the one the medium was sampled on."""
    if st.space != medium.lattice:
        raise LatticeMismatch("state lattice differs from the medium's")


def _scaled(E, H, medium: MediumFields) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(eps) E, sqrt(mu) H), the fields of the quaternionic form."""
    return np.sqrt(medium.eps)[..., None] * E, np.sqrt(medium.mu)[..., None] * H


def _static_split(calE, calH, rho, j, medium: MediumFields) -> tuple[np.ndarray, np.ndarray]:
    """(D + M^epsvec) calE + rho/sqrt(eps) and (D + M^muvec) calH - sqrt(mu) j
    on one time slab, with their NaN faces."""
    h = medium.lattice.spacing
    r1 = _dirac_plus_M(_components(vector=calE), medium.epsvec, h)
    r1[..., 0] += rho / np.sqrt(medium.eps)
    r2 = _dirac_plus_M(_components(vector=calH), medium.muvec, h)
    r2[..., 1:] -= np.sqrt(medium.mu)[..., None] * j
    return r1, r2


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


def split_residuals(state: EMState, medium: MediumFields, margin: int = 0) -> tuple[float, float]:
    """Residuals of the two intermediate equations on calE and calH:
    (D + M^epsvec) calE + (1/c) dt calH + rho/sqrt(eps) and
    (D + M^muvec) calH - (1/c) dt calE - sqrt(mu) j."""
    _check_same_lattice(state.st, medium)
    rows = []
    windows = _time_windows(lambda s: _scaled(state.E[s], state.H[s], medium), state.st, margin)
    for s, ((calE0, calH0), (calE, calH), (calE2, calH2)) in windows:
        r1, r2 = _static_split(calE, calH, state.rho[s], state.j[s], medium)
        r1[..., 1:] += _time_diff(calH0, calH2, state.st.dt) / medium.c[..., None]
        r2[..., 1:] -= _time_diff(calE0, calE2, state.st.dt) / medium.c[..., None]
        rows.append((max_abs_interior(r1, margin), max_abs_interior(r2, margin)))
    return tuple(map(max, zip(*rows)))


def static_residuals(state: EMState, medium: MediumFields, margin: int = 0) -> tuple[float, float]:
    """Residuals of the two decoupled static equations (time slice 0):
    (D + M^epsvec) calE + rho/sqrt(eps) and (D + M^muvec) calH - sqrt(mu) j."""
    _check_same_lattice(state.st, medium)
    if state.st.nt > 1:
        spread = sum(max(float(np.max(np.abs(slab - f[0]))) for slab in f) for f in (state.E, state.H))
        if spread > 1e-12:
            warnings.warn("state is not time-independent; using slice 0", stacklevel=2)
    calE, calH = _scaled(state.E[0], state.H[0], medium)
    r1, r2 = _static_split(calE, calH, state.rho[0], state.j[0], medium)
    return max_abs_interior(r1, margin), max_abs_interior(r2, margin)
