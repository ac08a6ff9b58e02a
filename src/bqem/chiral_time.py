"""Time-dependent chiral Maxwell operator and its causal Green function.

The first-order operator acting on purely vectorial space-time fields is

    M = beta*sqrt(eps*mu) dt D + sqrt(eps*mu) dt - 1j D ,

whose complex conjugate M* flips the sign of the 1j D term; for beta = 0
the pair factorizes the wave operator, eps*mu dt^2 - Lap = M M*.

The causal Green function of M (beta != 0) has the closed form

    f(t,x) = H(t) e^{1j a t} E(x) ( 1j B(x) J0(2 sqrt(c t))
                                    - A(x) sqrt(t/c) J1(2 sqrt(c t)) )

with  a = 1/(beta sqrt(eps mu)),      c(x) = |x| / (beta^2 sqrt(eps mu)),
      E(x) = e^{1j |x|/beta} / (4 pi |x|),
      A(x) = (1j / (beta^3 eps mu)) (1 - 1j x/|x|),
      B(x) = (1j / (beta sqrt(eps mu))) ((1/beta)(1 - 1j x/|x|) + x/|x|^2),

where 1 - 1j x/|x| is the biquaternion with unit scalar part and vector
part -1j x/|x|.  It vanishes identically for t < 0 (Heaviside convention
H(0) = 1) and reduces to K_{1/beta}(x) / (beta sqrt(eps mu)) at t = 0+.
J0 and J1 come from ``scipy.special``, accurate for every argument
2 sqrt(c t) >= 0, so the closed form holds at any t and |x|.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .algebra import Biquaternion
from .errors import AchiralUnsupported, ArgumentOutOfRange, OriginSingularity
from .grids import SpaceTimeGrid, SpaceTimeLattice, diff, dirac, div, max_abs_interior, rot
from .kernels import FOUR_PI, ORIGIN_TOL, ChiralMedium


def bessel_j(order: int, z) -> np.ndarray:
    """J0 or J1 of real z >= 0, from ``scipy.special``.

    scipy.special is imported on first use: at module level it would add
    tens of milliseconds to ``import bqem`` for every command.
    """
    if order not in (0, 1):
        raise ValueError("order must be 0 or 1")
    z = np.asarray(z, dtype=float)
    if np.any(z < 0.0):
        raise ArgumentOutOfRange("Bessel functions evaluated for z >= 0 only")
    import scipy.special

    j = scipy.special.j0(z) if order == 0 else scipy.special.j1(z)
    return j if j.ndim else float(j)


@dataclass(frozen=True)
class GreenIntermediates:
    """The pieces a, c(x), E(x), A(x), B(x) of the Green function."""

    a: float
    c_of_x: np.ndarray
    E_of_x: np.ndarray
    A_of_x: Biquaternion
    B_of_x: Biquaternion


def green_intermediates(x, medium: ChiralMedium) -> GreenIntermediates:
    beta = medium.beta
    if beta == 0.0:
        raise AchiralUnsupported("Green function requires beta != 0")
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(x * x, axis=-1))
    if np.any(r <= ORIGIN_TOL):
        raise OriginSingularity("Green function evaluated at |x| = 0")
    rt_em = np.sqrt(medium.eps * medium.mu)
    a = 1.0 / (beta * rt_em)
    c = r / (beta * beta * rt_em)
    E = np.exp(1j * r / beta) / (FOUR_PI * r)
    xhat = x / r[..., None]
    one_minus_ixhat = Biquaternion.from_parts(
        scalar=np.ones_like(r), vector=-1j * xhat
    )
    A = (1j / (beta ** 3 * medium.eps * medium.mu)) * one_minus_ixhat
    B = (1j / (beta * rt_em)) * (
        (1.0 / beta) * one_minus_ixhat
        + Biquaternion.from_vector(x / (r * r)[..., None])
    )
    return GreenIntermediates(a=a, c_of_x=c, E_of_x=E, A_of_x=A, B_of_x=B)


def green_function(t, x, medium: ChiralMedium) -> Biquaternion:
    """Causal Green function of M at times t and positions x (broadcast).

    Identically zero for t < 0; H(0) = 1 so the t -> 0+ limit is attained
    at t = 0.
    """
    parts = green_intermediates(x, medium)
    t = np.asarray(t, dtype=float)
    shape = np.broadcast_shapes(t.shape, parts.c_of_x.shape)
    tb = np.broadcast_to(t, shape)
    c = np.broadcast_to(parts.c_of_x, shape)
    heavi = tb >= 0.0
    tpos = np.where(heavi, tb, 0.0)

    z = 2.0 * np.sqrt(c * tpos)
    j0 = np.asarray(bessel_j(0, z))
    j1_scaled = np.sqrt(tpos / c) * np.asarray(bessel_j(1, z))

    phase = np.where(heavi, np.exp(1j * parts.a * tpos) * parts.E_of_x, 0.0)
    comps = (
        1j * parts.B_of_x.components * j0[..., None]
        - parts.A_of_x.components * j1_scaled[..., None]
    )
    return Biquaternion(phase[..., None] * comps)


def apply_M(field: SpaceTimeGrid, medium: ChiralMedium, star: bool = False) -> SpaceTimeGrid:
    """Central-difference action of M (or M* when ``star``) on a space-time field,
    as dt(beta sqrt(eps mu) Dv + sqrt(eps mu) v) -/+ 1j Dv: one time difference."""
    st = field.lattice
    v = field.values
    Dv = dirac(v, st.space.spacing, axes=(1, 2, 3))
    rt_em = np.sqrt(medium.eps * medium.mu)
    sign = 1j if star else -1j
    out = diff(medium.beta * rt_em * Dv + rt_em * v, 0, st.dt) + sign * Dv
    return SpaceTimeGrid(st, out, field.margin_t + 1, field.margin_s + 1)


def green_residual(
    st: SpaceTimeLattice,
    medium: ChiralMedium,
    margin_t: int | None = None,
    margin_s: int | None = None,
) -> float:
    """Max interior |M f| for the Green function sampled on the lattice.

    Away from the source (t > 0, x != 0) the Green function solves M f = 0,
    so this is a pure discretization residual, O(h^2) + O(ht^2).  Margins
    may be widened to compare refinement levels over one physical region.
    """
    f = green_function(st.times()[:, None, None, None], st.space.points(), medium)
    return apply_M(SpaceTimeGrid(st, f.components), medium).interior_max(margin_t, margin_s)


def maxwell_equivalence_residual(
    E: np.ndarray,
    H: np.ndarray,
    rho: np.ndarray,
    j: np.ndarray,
    st: SpaceTimeLattice,
    medium: ChiralMedium,
    continuity_tol: float = 1e-6,
) -> tuple[float, float]:
    """Residuals of the single quaternionic equation and of the component system.

    The quaternionic form acts on V = E - 1j sqrt(mu/eps) H:

        M V = -sqrt(mu/eps) j - beta sqrt(mu/eps) dt(rho) + 1j rho/eps ,

    and the component system is the chiral Maxwell system with the
    constitutive curls folded in plus the two divergence equations.  Both
    residuals vanish together, to stencil accuracy, on exact solutions.
    Warns when the input charge/current pair violates continuity.
    """
    h = st.space.spacing
    ht = st.dt
    eps, mu, beta = medium.eps, medium.mu, medium.beta
    imp = np.sqrt(mu / eps)

    cont = diff(rho, 0, ht) + div(j, h, axes=(1, 2, 3))
    cont_norm = max_abs_interior(cont, 1, margin_t=1)
    scale = max(float(np.max(np.abs(rho))), float(np.max(np.abs(j))), 1e-30)
    if cont_norm > continuity_tol * scale:
        warnings.warn(
            f"charge/current pair violates continuity: |dt rho + div j| = {cont_norm:.3e}",
            stacklevel=2,
        )

    V = np.zeros(E.shape[:-1] + (4,), dtype=complex)
    V[..., 1:] = E - 1j * imp * H
    MV = apply_M(SpaceTimeGrid(st, V), medium)
    rhs = np.zeros_like(V)
    rhs[..., 0] = -beta * imp * diff(rho, 0, ht) + 1j * rho / eps
    rhs[..., 1:] = -imp * j
    r_quat = max_abs_interior(MV.values - rhs, 1, margin_t=1)

    rotE = rot(E, h, axes=(1, 2, 3))
    rotH = rot(H, h, axes=(1, 2, 3))
    res1 = rotH - eps * (diff(E, 0, ht) + beta * diff(rotE, 0, ht)) - j
    res2 = rotE + mu * (diff(H, 0, ht) + beta * diff(rotH, 0, ht))
    res3 = div(E, h, axes=(1, 2, 3)) - rho / eps
    res4 = div(H, h, axes=(1, 2, 3))
    r_comp = max(max_abs_interior(r, 1, margin_t=1) for r in (res1, res2, res3, res4))
    return r_quat, r_comp
