"""Time-dependent chiral Maxwell operator and its causal Green function.

The first-order operator acting on purely vectorial space-time fields is

    M = beta*sqrt(eps*mu) dt D + sqrt(eps*mu) dt - 1j D ,

whose complex conjugate M* flips the sign of the 1j D term; for beta = 0
the pair factorizes the wave operator, eps*mu dt^2 - Lap = M M*.

The causal Green function of M (beta != 0) is written over the fundamental
solution K = K_{1/beta} of D + 1/beta and its kernel theta = theta_{1/beta}
(``kernels``):

    f(t,x) = H(t) e^{1j a t} ( P(x) J0(2 sqrt(c t)) - Q(x) sqrt(t/c) J1(2 sqrt(c t)) )

with  a = 1/(beta sqrt(eps mu)),      c(x) = |x| / (beta^2 sqrt(eps mu)),
      P(x) = K(x) / (beta sqrt(eps mu)),
      Q(x) = -1j theta(x) (1 - 1j x/|x|) / (beta^3 eps mu),

where 1 - 1j x/|x| is the biquaternion with unit scalar part and vector
part -1j x/|x|, and theta = beta Sc K.  It vanishes identically for t < 0
(Heaviside convention H(0) = 1) and reduces to P = K / (beta sqrt(eps mu))
at t = 0+.  J0 and J1 are ``scipy.special.j0``/``j1``, accurate for every
argument 2 sqrt(c t) >= 0, so the closed form holds at any t and |x|.

The factors of f that depend on x alone are computed once per lattice
(``_green_factors``), and f is filled from them at any time
(``_green_at``).  One slab kernel, ``_M_slab``, evaluates M on a time slab
from the three field slabs around it: ``apply_M`` runs it over a whole
(nt,) + dims + (4,) field, and ``green_residual`` streams it, so that
neither f nor M f is ever built whole.
"""

from __future__ import annotations

import warnings

import numpy as np

from .algebra import Biquaternion, _components
from .errors import AchiralUnsupported, GridTooSmall
from .grids import Lattice, SpaceTimeLattice, _stencil_output, diff, dirac, div, max_abs_interior, rot
from .inhomog import EMState
from .kernels import ChiralMedium, fundamental_solution

# Relative size of |dt rho + div j| above which the sources are reported
# as violating charge continuity.
CONTINUITY_TOL = 1e-6

# Largest complex (n^3, 4) time slab that green_refinement may reach:
# 256 MiB, so at most 5 levels (n = 129, 137 MB a slab).  green_residual
# holds about ten slabs; 6 levels (n = 257, 1.09 GB a slab) would need
# about 11 GB, and are refused before anything is allocated.
MAX_SLAB_BYTES = 2**28
MAX_REFINE_LEVELS = max(k for k in range(1, 32) if 64 * (2 ** (k + 2) + 1) ** 3 <= MAX_SLAB_BYTES)


def _green_factors(x, medium: ChiralMedium):
    """The x-only factors of the Green function at positions x:
    (a, c(x), P, Q), P and Q of shape x.shape[:-1] + (4,).

    Computed once per lattice; ``_green_at`` fills f at any time from them.
    K_{1/beta} rejects |x| = 0 before |x| is divided by.
    """
    beta = medium.beta
    if beta == 0.0:
        raise AchiralUnsupported("Green function requires beta != 0")
    K = fundamental_solution(1.0 / beta, x).components
    x = np.asarray(x, dtype=float)
    r = np.sqrt(np.sum(x * x, axis=-1))
    rt_em = np.sqrt(medium.eps * medium.mu)
    # -1j theta / (beta^3 eps mu), with theta = beta Sc K
    q = (-1j / (beta * beta * medium.eps * medium.mu)) * K[..., 0]
    Q = _components(q, (-1j * q / r)[..., None] * x)
    return 1.0 / (beta * rt_em), r / (beta * beta * rt_em), K / (beta * rt_em), Q


def _green_at(t, factors) -> np.ndarray:
    """Components of f at times t (broadcast against the factors' positions):
    H(t) e^{iat} (P J0 - Q sqrt(t/c) J1), with J0, J1 at 2 sqrt(c t).

    scipy.special is imported on first use: at module level it would add
    tens of milliseconds to ``import bqem`` for every command.
    """
    import scipy.special

    a, c, P, Q = factors
    t = np.asarray(t, dtype=float)
    heavi = t >= 0.0
    tpos = np.where(heavi, t, 0.0)
    z = 2.0 * np.sqrt(c * tpos)
    j0 = scipy.special.j0(z)
    j1_scaled = np.sqrt(tpos / c) * scipy.special.j1(z)
    # e^{iat} on the times alone, zero where t < 0
    phase = np.where(heavi, np.exp(1j * a * tpos), 0.0)
    out = np.empty(j0.shape + (4,), dtype=complex)
    for k in range(4):
        out[..., k] = phase * (P[..., k] * j0 - Q[..., k] * j1_scaled)
    return out


def green_function(t, x, medium: ChiralMedium) -> Biquaternion:
    """Causal Green function of M at times t and positions x (broadcast).

    P = K_{1/beta}(x) / (beta sqrt(eps mu)) and Q = -1j theta_{1/beta}(x)
    (1 - 1j x/|x|) / (beta^3 eps mu) weigh J0 and sqrt(t/c) J1 (module
    docstring).  Identically zero for t < 0; H(0) = 1 so the t -> 0+ limit
    P is attained at t = 0.  Each value is within a relative error (largest
    component error over largest component) of 4 (1 + a t + |x|/beta)
    eps_mach of the exact closed form: a t and |x|/beta are the phases of
    e^{iat} and of theta_{1/beta}(x), whose rounding grows with them.
    """
    return Biquaternion._own(_green_at(t, _green_factors(x, medium)))


def _M_slab(prev, cur, nxt, h: float, dt: float, medium: ChiralMedium, sign: complex) -> np.ndarray:
    """M (``sign`` -1j) or M* (``sign`` 1j) on the middle of three consecutive
    time slabs of a field: D(beta sqrt(eps mu) g + sign cur) + sqrt(eps mu) g
    with g = (nxt - prev) / (2 dt), the central time difference.

    This is dt(beta sqrt(eps mu) Dv + sqrt(eps mu) v) + sign Dv, since the
    central differences in t and x commute.  The result has the NaN space
    faces of ``grids.dirac``.
    """
    rt_em = np.sqrt(medium.eps * medium.mu)
    g = (nxt - prev) / (2.0 * dt)
    out = dirac(medium.beta * rt_em * g + sign * cur, h)
    out += rt_em * g
    return out


def apply_M(values: np.ndarray, st: SpaceTimeLattice, medium: ChiralMedium, star: bool = False) -> np.ndarray:
    """Central-difference action of M (or M* when ``star``) on a space-time field.

    ``values`` and the result have shape (nt,) + dims + (4,); the result
    carries one more NaN face layer in time (from ``grids._stencil_output``,
    which also needs nt >= 3) and in space.  Each inner time slab of the
    result is ``_M_slab`` of the three slabs around it.
    """
    expect = (st.nt,) + st.space.dims + (4,)
    if values.shape != expect:
        raise ValueError(f"values shape {values.shape} != {expect}")
    out, _ = _stencil_output(expect, (0,))
    h = st.space.spacing
    sign = 1j if star else -1j
    for s in range(1, st.nt - 1):
        out[s] = _M_slab(values[s - 1], values[s], values[s + 1], h, st.dt, medium, sign)
    return out


def green_residual(st: SpaceTimeLattice, medium: ChiralMedium, margin: int = 0) -> float:
    """Max interior |M f| for the Green function sampled on the lattice.

    Away from the source (t > 0, x != 0) the Green function solves M f = 0,
    so this is a pure discretization residual, O(h^2) + O(ht^2).  ``margin``
    may widen the interior's boundary band, in space and time alike, to
    compare refinement levels over one physical region.

    The value is that of ``max_abs_interior(apply_M(f), margin,
    time_axis=True)``, but neither f nor M f is built whole: f is evaluated
    only on the time slabs the margin keeps, at most three at a time, and
    M f one slab at a time.
    """
    keep = max(margin, 1)  # the first kept slab of M f; apply_M's NaN face is slab 0
    if 2 * keep >= st.nt:
        raise GridTooSmall(f"margin {margin} leaves no time interior on {st.nt} time nodes")
    factors = _green_factors(st.space.points(), medium)
    times = st.times()
    h = st.space.spacing
    window = [_green_at(times[s], factors) for s in (keep - 1, keep)]
    worst = 0.0
    for s in range(keep, st.nt - keep):
        window.append(_green_at(times[s + 1], factors))
        Mf = _M_slab(*window, h, st.dt, medium, -1j)
        worst = max(worst, max_abs_interior(Mf, margin))
        del window[0]
    return worst


def green_refinement(medium: ChiralMedium, levels: int) -> list[tuple[float, float, float]]:
    """(h, ht, residual) of ``green_residual`` on nested lattices, coarsest first.

    Level k has n = 2^(k+3) + 1 nodes (9, 17, 33, ...) on the cube of side
    0.4 centred at (0.8, 0.8, 0.8) and on t in [0.5, 2], with margin 2^k in
    space and time, so every level measures M f over one physical region.
    ``levels`` runs from 1 to ``MAX_REFINE_LEVELS``.
    """
    if not 1 <= levels <= MAX_REFINE_LEVELS:
        raise ValueError(f"levels must be in [1, {MAX_REFINE_LEVELS}], got {levels}")
    rows = []
    for k in range(levels):
        n = 2 ** (k + 3) + 1
        st = SpaceTimeLattice(Lattice.cube((0.8, 0.8, 0.8), 0.4, n), 0.5, 1.5 / (n - 1), n)
        rows.append((st.space.spacing, st.dt, green_residual(st, medium, margin=2**k)))
    return rows


def maxwell_equivalence_residual(state: EMState, medium: ChiralMedium) -> tuple[float, float]:
    """Residuals of the single quaternionic equation and of the component system.

    The quaternionic form acts on V = E - 1j sqrt(mu/eps) H:

        M V = -sqrt(mu/eps) j - beta sqrt(mu/eps) dt(rho) + 1j rho/eps ,

    and the component system is the chiral Maxwell system with the
    constitutive curls folded in plus the two divergence equations.  Both
    residuals vanish together, to stencil accuracy, on exact solutions; the
    component residual is the max over all four equations on one interior.
    Warns when the input charge/current pair violates continuity.
    """
    E, H, rho, j = state.E, state.H, state.rho, state.j
    h = state.st.space.spacing
    ht = state.st.dt
    eps, mu, beta = medium.eps, medium.mu, medium.beta
    imp = np.sqrt(mu / eps)

    cont = diff(rho, 0, ht) + div(j, h, axes=(1, 2, 3))
    cont_norm = max_abs_interior(cont, time_axis=True)
    scale = max(float(np.max(np.abs(rho))), float(np.max(np.abs(j))), 1e-30)
    if cont_norm > CONTINUITY_TOL * scale:
        warnings.warn(
            f"charge/current pair violates continuity: |dt rho + div j| = {cont_norm:.3e}",
            stacklevel=2,
        )

    MV = apply_M(_components(vector=E - 1j * imp * H), state.st, medium)
    rhs = _components(-beta * imp * diff(rho, 0, ht) + 1j * rho / eps, -imp * j)
    r_quat = max_abs_interior(MV - rhs, time_axis=True)

    rotE = rot(E, h, axes=(1, 2, 3))
    rotH = rot(H, h, axes=(1, 2, 3))
    res1 = rotH - eps * (diff(E, 0, ht) + beta * diff(rotE, 0, ht)) - j
    res2 = rotE + mu * (diff(H, 0, ht) + beta * diff(rotH, 0, ht))
    res3 = div(E, h, axes=(1, 2, 3)) - rho / eps
    res4 = div(H, h, axes=(1, 2, 3))
    comp = np.concatenate([res1, res2, res3[..., None], res4[..., None]], axis=-1)
    r_comp = max_abs_interior(comp, time_axis=True)
    return r_quat, r_comp
