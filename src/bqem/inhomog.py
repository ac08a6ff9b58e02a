"""Maxwell's equations in a medium with variable eps(x), mu(x), rewritten as
one quaternionic equation, and numerical verification of the equivalence.

For real fields E, H the purely vectorial biquaternion V = sqrt(eps) E +
1j sqrt(mu) H satisfies

    (1/c) dt V + 1j D V - M^{1j cvec} V - M^{1j Wvec} V* = -(sqrt(mu) j + 1j rho/sqrt(eps))

exactly when (E, H) solve the Maxwell system with sources (rho, j); here
c = 1/sqrt(eps mu), W = sqrt(mu/eps) is the intrinsic wave impedance, and
cvec = grad(sqrt(c))/sqrt(c), Wvec = grad(sqrt(W))/sqrt(W) are the
logarithmic-derivative fields (M^p is pointwise right multiplication, p is
never differentiated).  The derived fields obey

    epsvec + muvec = -grad(c)/c        epsvec - muvec = -grad(W)/W ,

which build_medium checks on every constructed medium.  In the static case
the system splits into (D + M^epsvec) calE = -rho/sqrt(eps) and
(D + M^muvec) calH = sqrt(mu) j with calE = sqrt(eps) E, calH = sqrt(mu) H.

Verification uses manufactured solutions: H = rot(A)/mu and
E = -dt(A) + grad(phi) satisfy the two curl-free/divergence-free halves
identically, and rho := div(eps E), j := rot(H) - eps dt(E) make the other
two hold by definition.  The potentials and the medium are sympy
expressions and all sources are differentiated symbolically, so the state
is exact and every finite-difference residual is pure stencil error.  Each
residual is the max over the interior inside the NaN faces its time and
space stencils write; ``margin=`` widens that band alike in time and space.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .algebra import _components, _mul_components
from .errors import LatticeMismatch, NonPositiveMedium
from .grids import (
    Lattice,
    SpaceTimeLattice,
    _on_lattice,
    diff,
    dirac,
    div,
    grad,
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


def _log_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """grad(sqrt(s))/sqrt(s) = grad(s)/(2 s) as a pure-vector quaternion array."""
    return _components(vector=grad(values, h) / (2.0 * values[..., None]))


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

    epsvec = _log_derivative(ev, h)
    muvec = _log_derivative(mv, h)
    cvec = _log_derivative(cv, h)
    Wvec = _log_derivative(Wv, h)

    # the two gradient identities tying the derived fields together
    id1 = epsvec[..., 1:] + muvec[..., 1:] + grad(cv, h) / cv[..., None]
    id2 = epsvec[..., 1:] - muvec[..., 1:] + grad(Wv, h) / Wv[..., None]
    residuals = (max_abs_interior(id1), max_abs_interior(id2))

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

    E, H, j have shape (nt,) + dims + (3,); rho has shape (nt,) + dims.
    Nothing derived is stored: a perturbed state is
    ``dataclasses.replace(state, E=...)``.
    """

    st: SpaceTimeLattice
    E: np.ndarray
    H: np.ndarray
    rho: np.ndarray
    j: np.ndarray


def manufactured_solution(A, phi, medium: MediumFields, st: SpaceTimeLattice) -> EMState:
    """Exact Maxwell state from a vector potential A(t,x) and scalar phi(t,x).

    H = rot(A)/mu and E = -dt(A) + grad(phi) satisfy the curl equation and
    div(mu H) = 0 identically; the sources are then defined as
    rho = div(eps E) and j = rot(H) - eps dt(E), so all four equations hold.
    A and phi are sympy expressions in (t, x1, x2, x3), and the medium must
    carry closed forms of eps and mu (``medium_from_expressions``).
    """
    import sympy as sp

    if st.space != medium.lattice:
        raise LatticeMismatch("state lattice differs from the medium's")
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


def _scaled(state: EMState, medium: MediumFields) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(eps) E, sqrt(mu) H), the fields of the quaternionic form."""
    return np.sqrt(medium.eps)[..., None] * state.E, np.sqrt(medium.mu)[..., None] * state.H


def _dirac_plus_M(u: np.ndarray, p: np.ndarray, h: float) -> np.ndarray:
    """(D + M^p) u for a pure-vector field u of shape (nt,) + dims + (3,)."""
    q = _components(vector=u)
    return dirac(q, h, axes=(1, 2, 3)) + _mul_components(q, p)


def maxwell_residuals(state: EMState, medium: MediumFields, margin: int = 0) -> tuple[float, float, float, float]:
    """Max interior residuals of the four Maxwell equations, in order:
    rot H - eps dt E - j,  rot E + mu dt H,  div(eps E) - rho,  div(mu H)."""
    st = state.st
    h = st.space.spacing
    ht = st.dt
    ev = medium.eps[..., None]
    mv = medium.mu[..., None]
    res = (
        rot(state.H, h, axes=(1, 2, 3)) - ev * diff(state.E, 0, ht) - state.j,
        rot(state.E, h, axes=(1, 2, 3)) + mv * diff(state.H, 0, ht),
        div(ev * state.E, h, axes=(1, 2, 3)) - state.rho,
        div(mv * state.H, h, axes=(1, 2, 3)),
    )
    return tuple(max_abs_interior(r, margin, time_axis=True) for r in res)


def quaternionic_residual(state: EMState, medium: MediumFields, margin: int = 0) -> float:
    """Max interior residual of the single quaternionic Maxwell equation."""
    if not all(np.allclose(np.imag(f), 0.0, atol=1e-14) for f in (state.E, state.H)):
        warnings.warn(
            "state has complex E or H; the equivalence only covers real fields",
            stacklevel=2,
        )
    st = state.st
    h = st.space.spacing
    ht = st.dt

    calE, calH = _scaled(state, medium)
    V = _components(vector=calE + 1j * calH)
    lhs = (
        diff(V, 0, ht) / medium.c[..., None]
        + 1j * dirac(V, h, axes=(1, 2, 3))
        - _mul_components(V, 1j * medium.cvec)
        - _mul_components(np.conj(V), 1j * medium.Wvec)
    )
    rhs = _components(-1j * state.rho / np.sqrt(medium.eps), -np.sqrt(medium.mu)[..., None] * state.j)
    return max_abs_interior(lhs - rhs, margin, time_axis=True)


def split_residuals(state: EMState, medium: MediumFields, margin: int = 0) -> tuple[float, float]:
    """Residuals of the two intermediate equations on calE and calH:
    (D + M^epsvec) calE + (1/c) dt calH + rho/sqrt(eps) and
    (D + M^muvec) calH - (1/c) dt calE - sqrt(mu) j."""
    st = state.st
    h = st.space.spacing
    ht = st.dt

    calE, calH = _scaled(state, medium)
    r1 = _dirac_plus_M(calE, medium.epsvec, h)
    r1[..., 1:] += diff(calH, 0, ht) / medium.c[..., None]
    r1[..., 0] += state.rho / np.sqrt(medium.eps)
    r2 = _dirac_plus_M(calH, medium.muvec, h)
    r2[..., 1:] -= diff(calE, 0, ht) / medium.c[..., None]
    r2[..., 1:] -= np.sqrt(medium.mu)[..., None] * state.j

    return max_abs_interior(r1, margin, time_axis=True), max_abs_interior(r2, margin, time_axis=True)


def static_residuals(state: EMState, medium: MediumFields, margin: int = 0) -> tuple[float, float]:
    """Residuals of the two decoupled static equations (time slice 0):
    (D + M^epsvec) calE + rho/sqrt(eps) and (D + M^muvec) calH - sqrt(mu) j."""
    if state.st.nt > 1:
        spread = float(np.max(np.abs(state.E - state.E[:1]))) + float(
            np.max(np.abs(state.H - state.H[:1]))
        )
        if spread > 1e-12:
            warnings.warn("state is not time-independent; using slice 0", stacklevel=2)
    h = state.st.space.spacing

    calE, calH = _scaled(state, medium)
    r1 = _dirac_plus_M(calE[:1], medium.epsvec, h)[0]
    r1[..., 0] += state.rho[0] / np.sqrt(medium.eps)
    r2 = _dirac_plus_M(calH[:1], medium.muvec, h)[0]
    r2[..., 1:] -= np.sqrt(medium.mu)[..., None] * state.j[0]

    return max_abs_interior(r1, margin), max_abs_interior(r2, margin)
