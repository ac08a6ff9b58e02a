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
from the three slabs around it (``grids._time_windows``); ``green_residual``
streams it, building neither f nor M f whole.  It evaluates f only on the
box its margin keeps, plus the one node on each face that the central
differences read, in space as well as in time.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import Biquaternion, _components, _empty, _first, _last
from .errors import AchiralUnsupported
from .grids import Lattice, SpaceTimeLattice, _keep, _time_diff, _time_windows, dirac, max_abs_interior
from .kernels import ChiralMedium, _radius, fundamental_solution

# Largest complex (m^3, 4) time slab that green_refinement may reach:
# 256 MiB.  At k levels the finest lattice has n = 2^(k+2) + 1 nodes a side
# and margin 2^(k-1), so green_residual builds slabs of m = 3 2^k + 3 nodes
# a side: at most 5 levels (m = 99, 62 MB a slab).  green_residual holds
# about ten slabs; 6 levels (m = 195, 475 MB a slab) would need about
# 5 GB, and are refused before anything is allocated.
MAX_SLAB_BYTES = 2**28
MAX_REFINE_LEVELS = max(k for k in range(1, 32) if 64 * (3 * 2**k + 3) ** 3 <= MAX_SLAB_BYTES)


def _green_factors(x, medium: ChiralMedium):
    """The x-only factors of the Green function at positions x:
    (a, c(x), P, Q, (min c, max c)), P and Q of shape x.shape[:-1] + (4,),
    stored component-major.

    Computed once per lattice; ``_green_at`` fills f at any time from them,
    and checks t against the range of c without another pass over x.
    beta is rejected when beta^2 eps mu, which Q divides by, is 0 to double
    precision, when a factor is not finite (Q grows as beta^-3, the phase
    |x|/beta may overflow too), or when Q's scalar part q ~ |x|^-1 beta^-3 is
    subnormal by over 4 bits; K_{1/beta} rejects |x| = 0 or not finite first.
    """
    beta = medium.beta
    if beta * beta * medium.eps * medium.mu == 0.0:
        got = f"beta^2 eps mu = 0 at beta = {beta}, eps = {medium.eps}, mu = {medium.mu}"
        raise AchiralUnsupported(f"Green function requires beta^2 eps mu != 0 to double precision, got {got}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite factor is rejected below
        K = fundamental_solution(1.0 / beta, x).components
        x = np.asarray(x, dtype=float)
        r = _radius(x)
        rt_em = np.sqrt(medium.eps * medium.mu)
        # component-major like Q, so that _green_at fills each component of f
        # as one contiguous array; made before Q's temporaries, whose freed
        # memory the time slabs of green_residual then reuse (1 MB of peak at 33^3)
        P = np.divide(K, beta * rt_em, out=_empty(K.shape))
        # -1j theta / (beta^3 eps mu), with theta = beta Sc K
        q = (-1j / (beta * beta * medium.eps * medium.mu)) * K[..., 0]
        # x/r first: q/r underflows for large |x|
        Q = _components(q, (-1j * q)[..., None] * (x / r[..., None]))
        factors = 1.0 / (beta * rt_em), r / (beta * beta * rt_em), P, Q
    if not all(np.all(np.isfinite(f)) for f in factors):
        raise AchiralUnsupported(f"Green function factors overflow double precision at beta = {beta}")
    if np.min(np.abs(q), initial=np.inf) < np.finfo(float).tiny / 16:  # q has lost digits
        raise AchiralUnsupported(f"Green function factor q underflows double precision at beta = {beta}")
    a, c, P, Q = factors
    return a, c, P, Q, (float(np.min(c, initial=np.inf)), float(np.max(c, initial=0.0)))


def _green_at(t, factors) -> np.ndarray:
    """Components of f at times t (broadcast against the factors' positions):
    H(t) e^{iat} (P J0 - Q sqrt(t/c) J1), with J0, J1 at 2 sqrt(c t).

    A NaN t, and a t so large that a t, c t or t / c overflows, are
    rejected; the check takes scalars only (the latest time, NaN if any time
    is, and the range of c), so a time slab costs no extra pass over its
    nodes.  The result is built component-major, each component a whole
    contiguous array: P J0, less Q sqrt(t/c) J1 in place, times the phase in
    place; the (..., 4) array returned is a view of it.  scipy.special is
    imported on first use: at module level it would add tens of milliseconds
    to ``import bqem`` for every command.
    """
    import scipy.special

    a, c, P, Q, (c_lo, c_hi) = factors
    t = np.asarray(t, dtype=float)
    before = t < 0.0  # H(t) = 0; NaN fails this test, stays in tpos and is what np.max returns
    tpos = np.where(before, 0.0, t)
    t_max = float(np.max(tpos, initial=0.0))
    if math.isnan(t_max):
        raise ValueError("t is NaN: the Green function needs real times")
    # Python floats: an overflow gives inf here, not a RuntimeWarning
    if not all(math.isfinite(v) for v in (float(a) * t_max, c_hi * t_max, t_max / c_lo)):
        raise ValueError(f"t = {t_max} overflows the Green function's phase or Bessel argument")
    z = 2.0 * np.sqrt(c * tpos)
    j0 = scipy.special.j0(z)
    j1_scaled = np.sqrt(tpos / c) * scipy.special.j1(z)
    # e^{iat} on the times alone, zero where t < 0
    phase = np.where(before, 0.0, np.exp(1j * a * tpos))
    per_component = (4,) + (1,) * (j0.ndim - c.ndim) + c.shape  # t's own axes go in front of x's
    out = _first(P).reshape(per_component) * j0  # views of P's and Q's component blocks
    out -= _first(Q).reshape(per_component) * j1_scaled
    np.multiply(phase, out, out=out)  # phase first: its operand order sets the bits
    return _last(out)


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
    faces of ``grids.dirac``.  Both sums are formed in place, in the layout
    of the slabs (component-major from ``_green_at``), which ``dirac`` then
    reads without a copy.
    """
    rt_em = np.sqrt(medium.eps * medium.mu)
    g = _time_diff(prev, nxt, dt)
    w = np.multiply(g, medium.beta * rt_em)
    w += sign * cur
    out = dirac(w, h)
    g *= rt_em
    out += g
    return out


def green_residual(st: SpaceTimeLattice, medium: ChiralMedium, margin: int = 0) -> float:
    """Max interior |M f| for the Green function sampled on the lattice.

    Away from the source (t > 0, x != 0) the Green function solves M f = 0,
    so this is a pure discretization residual, O(h^2) + O(ht^2).  ``margin``
    may widen the interior's boundary band, in space and time alike, to
    compare refinement levels over one physical region.

    The value is the max over the interior of M f on the whole (nt,) + dims
    lattice, but neither f nor M f is built whole: f is evaluated only on
    the box the margin keeps plus one stencil node on each face, in space (a
    slice of the lattice's points, so every coordinate and value is the
    same) and in time, at most three time slabs at a time, and M f one slab
    at a time.
    """
    keep = _keep(st, margin)  # the first kept node of M f on each axis, in time and space
    # nodes keep - 1 .. n - keep: M f's NaN faces land on keep - 1 and n - keep
    box = tuple(slice(keep - 1, n - keep + 1) for n in st.space.dims)
    factors = _green_factors(st.space.points()[box], medium)
    times = st.times()
    h = st.space.spacing
    # margin 1 drops those NaN faces by index: finding them by scanning takes
    # a third of the norm's time
    worst = 0.0
    for _, window in _time_windows(lambda s: _green_at(times[s], factors), st, margin):
        # Mf lives until replaced: freed at once, malloc trims it and faults it back in (6x the page faults)
        Mf = _M_slab(*window, h, st.dt, medium, -1j)
        worst = max(worst, max_abs_interior(Mf, 1))
    return worst


def green_refinement(medium: ChiralMedium, levels: int) -> list[tuple[float, float, float]]:
    """(h, ht, residual) of ``green_residual`` on nested lattices, coarsest first.

    Level k has n = 2^(k+3) + 1 nodes (9, 17, 33, ...) on the cube of side
    0.4 centred at (0.8, 0.8, 0.8) and on t in [0.5, 2], with margin 2^k in
    space and time, so every level measures M f over one physical region;
    ``green_residual`` evaluates f on that region's n - 2^(k+1) + 2 nodes a
    side only (9, 15, 27, ...).  ``levels`` is an int from 1 to
    ``MAX_REFINE_LEVELS``.
    """
    if type(levels) is not int or not 1 <= levels <= MAX_REFINE_LEVELS:  # a bool is not a count
        raise ValueError(f"levels must be an int in [1, {MAX_REFINE_LEVELS}], got {levels!r}: the finest level's "
                         f"time slabs may take at most {MAX_SLAB_BYTES / 2**20:g} MiB each")
    rows = []
    for k in range(levels):
        n = 2 ** (k + 3) + 1
        st = SpaceTimeLattice(Lattice.cube((0.8, 0.8, 0.8), 0.4, n), 0.5, 1.5 / (n - 1), n)
        rows.append((st.space.spacing, st.dt, green_residual(st, medium, margin=2**k)))
    return rows

