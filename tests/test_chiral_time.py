from dataclasses import replace

import mpmath
import numpy as np
import pytest
import scipy.special
from oracles import apply_M, diff, green_at, max_abs_interior

from bqem import chiral_time, suites
from bqem.algebra import Biquaternion, _components
from bqem.chiral_time import (
    MAX_REFINE_LEVELS,
    _green_at,
    _green_factors,
    green_function,
    green_refinement,
    green_residual,
)
from bqem.errors import AchiralUnsupported, GridTooSmall, OriginSingularity
from bqem.grids import Lattice, SpaceTimeLattice, dirac
from bqem.kernels import ChiralMedium, fundamental_solution, helmholtz_kernel

MED = ChiralMedium(eps=1.0, mu=1.0, beta=1.0)


def sampled(st, fn):
    """fn(t, points) on the space-time lattice, t broadcast over the leading time axis."""
    return fn(st.times()[:, None, None, None], st.space.points())


# ---------------------------------------------------------------------------
# the Bessel functions the Green function calls: scipy.special.j0, j1
# ---------------------------------------------------------------------------

BESSEL_J = (scipy.special.j0, scipy.special.j1)


def test_bessel_at_zero():
    assert scipy.special.j0(0.0) == 1.0
    assert scipy.special.j1(0.0) == 0.0


def test_bessel_ode_and_j1_identity():
    # independent of any Bessel implementation: J_n'' + J_n'/z + (1 - n^2/z^2) J_n = 0
    # and J1 = -J0', by central differences, well past the old series' range
    z = np.linspace(0.5, 60.0, 2381)
    h = 2.5e-4

    def with_derivatives(n):
        jm, j, jp = (BESSEL_J[n](z + s) for s in (-h, 0.0, h))
        return j, (jp - jm) / (2 * h), (jp - 2 * j + jm) / (h * h)

    for n in (0, 1):
        j, d1, d2 = with_derivatives(n)
        assert np.max(np.abs(d2 + d1 / z + (1 - n * n / (z * z)) * j)) < 1e-7
    _, d_j0, _ = with_derivatives(0)
    assert np.max(np.abs(scipy.special.j1(z) + d_j0)) < 1e-7


def test_bessel_large_z_hankel_asymptotics():
    # Abramowitz & Stegun 9.2.1 with P, Q of 9.2.9-9.2.10 to two terms:
    # J_n(z) ~ sqrt(2/(pi z)) (P cos chi - Q sin chi), chi = z - (n/2 + 1/4) pi,
    # mu = 4 n^2; the first omitted term is below 3e-9 for z >= 50
    z = np.linspace(50.0, 200.0, 3001)
    for n in (0, 1):
        mu = 4.0 * n * n
        p = 1.0 - (mu - 1) * (mu - 9) / (2.0 * (8 * z) ** 2)
        q = (mu - 1) / (8 * z) - (mu - 1) * (mu - 9) * (mu - 25) / (6.0 * (8 * z) ** 3)
        chi = z - (n / 2 + 0.25) * np.pi
        hankel = np.sqrt(2.0 / (np.pi * z)) * (p * np.cos(chi) - q * np.sin(chi))
        assert np.max(np.abs(BESSEL_J[n](z) - hankel)) < 1e-8


def test_bessel_first_root_against_independent_oracle():
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if scipy.special.j0(lo) * scipy.special.j0(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert abs(root - float(scipy.special.jn_zeros(0, 1)[0])) < 1e-9


# ---------------------------------------------------------------------------
# Green function
# ---------------------------------------------------------------------------


def test_green_causality():
    x = np.array([1.0, 0.5, -0.3])
    assert green_function(-1.0, x, MED).max_abs() == 0.0
    # mixed batch of times: the t < 0 entries vanish exactly
    ts = np.array([-2.0, -1e-9, 0.5])
    vals = green_function(ts, x, MED)
    assert np.all(vals.components[0] == 0.0)
    assert np.all(vals.components[1] == 0.0)
    assert np.any(vals.components[2] != 0.0)


def test_green_t_zero_limit():
    x = np.array([1.0, 0.5, -0.3])
    g0 = green_function(0.0, x, MED)
    K = fundamental_solution(1.0 / MED.beta, x)
    lim = K.components / (MED.beta * np.sqrt(MED.eps * MED.mu))
    assert np.max(np.abs(g0.components - lim)) < 1e-15


@pytest.mark.parametrize(
    "med, x",
    [
        (ChiralMedium(eps=2.0, mu=0.5, beta=0.7), (1.0, 0.5, -0.3)),
        # |x| = 5: a = 1, c(x) = 10, E(x) = e^{10j}/(20 pi), Sc A(x) = 2j
        (ChiralMedium(eps=4.0, mu=1.0, beta=0.5), (0.0, 3.0, 4.0)),
    ],
    ids=["eps2_mu05_beta07", "eps4_mu1_beta05"],
)
def test_green_matches_closed_form_display(med, x):
    # the paper's display form, K J0 plus theta sqrt(t/|x|) J1 (1 - 1j x/|x|),
    # written out here with its own |x| and Bessel argument
    t, x = 1.3, np.array(x)
    r = np.linalg.norm(x)
    b = med.beta
    em = med.eps * med.mu
    theta = helmholtz_kernel(1.0 / b, x)
    arg = 2.0 * np.sqrt(t * r) / (b * em**0.25)
    one_minus_ixhat = Biquaternion.from_parts(1.0, -1j * x / r)
    K = fundamental_solution(1.0 / b, x)
    expected = (np.exp(1j * t / (b * np.sqrt(em))) / (b * np.sqrt(em))) * (
        scipy.special.j0(arg) * K
        + (1j * theta / (b * em**0.25)) * np.sqrt(t / r) * scipy.special.j1(arg) * one_minus_ixhat
    )
    got = green_function(t, x, med)
    assert np.max(np.abs(got.components - expected.components)) < 1e-15


def _green_mpmath(t, x, beta, eps, mu):
    """The closed form of the module docstring at 40 digits, on the exact
    values of the double inputs."""
    with mpmath.workdps(40):
        t, beta, eps, mu = (mpmath.mpf(v) for v in (t, beta, eps, mu))
        x = [mpmath.mpf(v) for v in x]
        r = mpmath.sqrt(sum(v * v for v in x))
        rt_em = mpmath.sqrt(eps * mu)
        c = r / (beta**2 * rt_em)
        E = mpmath.exp(1j * r / beta) / (4 * mpmath.pi * r)
        one_minus_ixhat = [mpmath.mpc(1)] + [-1j * v / r for v in x]
        A = [1j / (beta**3 * eps * mu) * q for q in one_minus_ixhat]
        grad_part = [0] + [v / r**2 for v in x]
        B = [(1j / (beta * rt_em)) * (q / beta + g) for q, g in zip(one_minus_ixhat, grad_part)]
        z = 2 * mpmath.sqrt(c * t)
        j0, j1 = mpmath.besselj(0, z), mpmath.besselj(1, z) * mpmath.sqrt(t / c)
        front = mpmath.exp(1j * t / (beta * rt_em)) * E
        return np.array([complex(front * (1j * b * j0 - a * j1)) for a, b in zip(A, B)])


def test_green_function_precision_against_mpmath():
    # the docstring's bound: relative error <= 4 (1 + a t + |x|/beta) eps_mach,
    # a t and |x|/beta being the phases of e^{iat} and E(x)
    eps_mach = np.finfo(float).eps
    dirs = (np.array([0.6, 0.64, 0.48]), np.array([-0.48, 0.8, -0.36]))  # unit vectors
    worst = 0.0
    for beta in (0.1, 0.5, 1.0, 3.0):
        med = ChiralMedium(eps=2.0, mu=0.5, beta=beta)
        a = 1.0 / (beta * np.sqrt(med.eps * med.mu))
        for t in (0.0, 0.3, 1.0, 7.0, 50.0, 1e3, 1e5):
            for r in np.linspace(0.05, 5.4, 8):
                for d in dirs:
                    x = r * d
                    got = green_function(t, x, med).components
                    want = _green_mpmath(t, x, beta, med.eps, med.mu)
                    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                    worst = max(worst, err / (4.0 * (1.0 + a * t + r / beta) * eps_mach))
    assert worst <= 1.0


def test_green_function_owns_a_read_only_result():
    g = green_function(np.array([0.5, 1.0])[:, None], np.array([[1.0, 0.5, -0.3], [0.2, 0.0, 0.4]]), MED)
    assert not g.components.flags.writeable
    # the public constructor still copies: its input stays the caller's
    arr = np.ones((2, 4), complex)
    q = Biquaternion(arr)
    assert arr.flags.writeable and not np.shares_memory(arr, q.components)
    arr[0, 0] = 5.0
    assert q.components[0, 0] == 1.0


def test_green_at_matches_per_component_oracle():
    # built component-major from whole arrays, f keeps the bits of its per-component
    # fill: at one time, on a time axis that crosses t = 0, before t = 0, and
    # broadcast as in test_green_function_owns_a_read_only_result
    med = ChiralMedium(eps=2.0, mu=1.5, beta=0.7)
    lattice = _green_factors(Lattice.cube((0.8, 0.8, 0.8), 0.4, 9).points(), med)
    pair = _green_factors(np.array([[1.0, 0.5, -0.3], [0.2, 0.0, 0.4]]), med)
    cases = [
        (1.3, lattice),
        (np.linspace(-0.5, 2.0, 7)[:, None, None, None], lattice),
        (-1.0, lattice),
        (np.array([0.5, 1.0])[:, None], pair),
    ]
    for t, factors in cases:
        ours = _green_at(t, factors)
        assert np.array_equal(ours, green_at(t, factors))
    assert ours.shape == (2, 2, 4)


def test_green_function_is_scale_covariant():
    # M f = delta(t) delta(x) in units of lambda: f(lambda t, lambda x) at
    # beta lambda is lambda^-3 f(t, x) at beta, to rounding, from lambda =
    # 1e-60 to 1e77
    t, x = 0.7, np.array([1.0, 0.5, -0.3])
    unit = green_function(t, x, ChiralMedium(beta=0.4)).components
    for k in (-60, -40, -20, -14, -13, -6, 6, 12, 20, 40, 60, 64, 70, 76, 77):
        lam = 10.0**k
        scaled = green_function(lam * t, lam * x, ChiralMedium(beta=0.4 * lam)).components * lam**3
        assert np.max(np.abs(scaled - unit)) <= 1e-14 * np.max(np.abs(unit)), k


def test_green_guards():
    with pytest.raises(AchiralUnsupported):
        green_function(1.0, [1.0, 0, 0], ChiralMedium(beta=0.0))
    # beta^2 eps mu underflows to 0: beta is 0 to double precision
    with pytest.raises(AchiralUnsupported):
        green_function(1.0, [1.0, 0, 0], ChiralMedium(beta=1e-300))
    # beta^2 eps mu is a normal float, but Q ~ beta^-3 overflows; no
    # RuntimeWarning on the way (the suite makes them errors)
    with pytest.raises(AchiralUnsupported, match="overflow"):
        green_function(1.0, [1.0, 0, 0], ChiralMedium(beta=1e-120))
    with pytest.raises(OriginSingularity):
        green_function(1.0, [0.0, 0, 0], MED)
    # |x| = 1e200 is finite, its square is not
    with pytest.raises(ValueError, match=r"\|x\|\^2 overflows"):
        green_function(1.0, [1e200, 0, 0], MED)
    # beta = 1, but beta^2 eps mu underflows: the message names all three
    with pytest.raises(AchiralUnsupported, match=r"beta\^2 eps mu = 0 at beta = 1.0, eps = 1e-300, mu = 1e-300"):
        green_function(1.0, [1.0, 0, 0], ChiralMedium(eps=1e-300, mu=1e-300, beta=1.0))
    # a t so large that c t, a t or t / c overflows: rejected, not NaN
    with pytest.raises(ValueError, match="overflows"):
        green_function(1e308, [1.0, 0, 0], ChiralMedium(beta=1e-3))
    with pytest.raises(ValueError, match="overflows"):
        green_function(1e308, [0.1, 0, 0], MED)
    with pytest.raises(ValueError, match="overflows"):
        green_function(np.array([0.5, np.inf]), [1.0, 0, 0], MED)
    # NaN fails t >= 0: unchecked, it would give H(t) = 0 and an all-zero f
    for t in (np.nan, np.array([0.5, np.nan, 1.0])):
        with pytest.raises(ValueError, match="t is NaN"):
            green_function(t, [1.0, 0, 0], MED)
    # q ~ lambda^-4 on the scale-covariance copies is 1.07e-308 at lambda =
    # 1e77 (accepted) and 1.07e-312 at 1e78, where f was off by 1.7e-12
    # relative (1.4e-4 at 1e80)
    for lam in (1e78, 1e80):
        with pytest.raises(AchiralUnsupported, match="q underflows"):
            green_function(0.7 * lam, lam * np.array([1.0, 0.5, -0.3]), ChiralMedium(beta=0.4 * lam))
    # only the latest non-negative time counts: earlier ones are zeros of H(t)
    assert np.all(green_function(np.array([-1e308, 1.0]), [1.0, 0, 0], MED).components[0] == 0.0)


def test_green_annihilated_by_M():
    (_, _, r1), (_, _, r2) = green_refinement(MED, 2)
    assert 3.2 <= r1 / r2 <= 4.8


def test_green_refinement_levels_bounded():
    # 6 levels would hold ten 475 MB time slabs: refused before any is built
    assert MAX_REFINE_LEVELS == 5
    # and a count that is not an int: True would run one level, and 2.5 fail inside range()
    for levels in (0, 6, 10**9, True, 2.5):
        with pytest.raises(ValueError, match=r"levels must be an int in \[1, 5\].* 256 MiB each"):
            green_refinement(MED, levels)


def test_green_annihilated_by_M_at_large_bessel_argument():
    # long times need large arguments: at t = 500, |x| = 1 the Bessel
    # argument is 2 sqrt(500) ~ 44.7, and M still annihilates f at second order
    assert np.all(np.isfinite(green_function(500.0, np.array([1.0, 0.0, 0.0]), MED).components))

    def res(n, m):
        st = SpaceTimeLattice(Lattice.cube((1.0, 0.0, 0.0), 0.2, n), 500.0, 0.4 / (n - 1), n)
        return green_residual(st, MED, margin=m)

    assert 3.2 < res(9, 1) / res(17, 2) < 4.8


# ---------------------------------------------------------------------------
# the operator M
# ---------------------------------------------------------------------------


def test_apply_M_constant_field_achiral():
    med = ChiralMedium(eps=1.0, mu=1.0, beta=0.0)
    st = SpaceTimeLattice(Lattice.cube((0, 0, 0), 1.0, 7), 0.0, 0.1, 7)
    g = np.broadcast_to(np.array([1.0, 2.0, 0.5, -1.0]), (st.nt,) + st.space.dims + (4,))
    out = apply_M(g, st, med)
    assert max_abs_interior(out) == 0.0


@pytest.mark.parametrize("star", [False, True], ids=["M", "Mstar"])
@pytest.mark.parametrize("beta", [0.0, 0.7], ids=["achiral", "chiral"])
def test_apply_M_matches_whole_array_expression(beta, star):
    # the slab-by-slab evaluation against dt(beta sqrt(eps mu) Dv + sqrt(eps mu) v) -/+ 1j Dv
    # built on the whole array at once, on a non-cubic lattice with nt != n
    med = ChiralMedium(eps=2.0, mu=0.5, beta=beta)
    st = SpaceTimeLattice(Lattice((0.1, -0.2, 0.3), 0.05, (7, 9, 6)), 0.3, 0.04, 5)
    rng = np.random.default_rng(14)
    v = rng.normal(size=(5, 7, 9, 6, 4)) + 1j * rng.normal(size=(5, 7, 9, 6, 4))
    Dv = dirac(v, st.space.spacing)
    rt_em = np.sqrt(med.eps * med.mu)
    want = diff(beta * rt_em * Dv + rt_em * v, 0, st.dt) + (1j if star else -1j) * Dv
    got = apply_M(v, st, med, star=star)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    valid = ~np.isnan(want)
    assert np.max(np.abs(got[valid] - want[valid])) <= 1e-12 * np.max(np.abs(want[valid]))


@pytest.mark.parametrize("margin", [0, 1, 2, 3])
def test_green_residual_matches_whole_array_path(margin):
    # the streamed residual against M f built whole, on a non-cubic lattice
    # with nt != n whose first times are negative, so the Heaviside zeros of f
    # and the jump at t = 0 are inside; margin 3 leaves 2 nodes on the short axis
    med = ChiralMedium(eps=2.0, mu=0.5, beta=0.7)
    st = SpaceTimeLattice(Lattice((0.3, 0.1, 0.2), 0.05, (9, 11, 8)), -0.12, 0.04, 13)
    f = sampled(st, lambda t, x: green_function(t, x, med).components)
    want = max_abs_interior(apply_M(f, st, med), margin)
    assert np.any(f[0] == 0.0) and want > 0.0
    assert abs(green_residual(st, med, margin) - want) <= 1e-12 * want


def test_green_residual_guards():
    st = SpaceTimeLattice(Lattice((0.3, 0.1, 0.2), 0.05, (9, 11, 8)), 0.5, 0.04, 7)
    f = sampled(st, lambda t, x: green_function(t, x, MED).components)
    assert green_residual(st, MED, margin=3) > 0.0  # one time slab is left
    assert green_residual(st, MED, margin=0) > 0.0
    with pytest.raises(ValueError, match="margin"):
        green_residual(st, MED, margin=-1)
    # the margin leaves no time interior: the whole-array path agrees
    with pytest.raises(GridTooSmall):
        max_abs_interior(apply_M(f, st, MED), 4)
    with pytest.raises(GridTooSmall):
        green_residual(st, MED, margin=4)
    with pytest.raises(GridTooSmall):
        green_residual(replace(st, nt=2), MED)
    with pytest.raises(AchiralUnsupported):
        green_residual(st, ChiralMedium(beta=0.0))
    # the margin leaves no space interior on the 8-node axis while time has
    # one: the whole-array path agrees
    st = replace(st, nt=13)
    f = sampled(st, lambda t, x: green_function(t, x, MED).components)
    with pytest.raises(GridTooSmall):
        max_abs_interior(apply_M(f, st, MED), 4)
    with pytest.raises(GridTooSmall, match="space"):
        green_residual(st, MED, margin=4)


@pytest.mark.parametrize("margin, side", [(2, 15), (0, 17), (1, 17)])
def test_green_residual_evaluates_the_kept_box_only(monkeypatch, margin, side):
    # f is built on the nodes the margin keeps plus one stencil node a face
    shapes = []
    factors = chiral_time._green_factors

    def recording(x, medium):
        shapes.append(x.shape)
        return factors(x, medium)

    monkeypatch.setattr(chiral_time, "_green_factors", recording)
    st = SpaceTimeLattice(Lattice.cube((0.8, 0.8, 0.8), 0.4, 17), 0.5, 1.5 / 16, 17)
    assert green_residual(st, MED, margin) > 0.0
    assert shapes == [(side, side, side, 3)]


def test_green_residual_holds_a_few_slabs(traced_peak):
    # f and M f are never built whole: the peak is a few time slabs of
    # n^3 x 4 complex values, whatever the number of time nodes
    n = 17
    slab_bytes = n**3 * 4 * np.dtype(complex).itemsize

    def peak(nt):
        st = SpaceTimeLattice(Lattice.cube((0.8, 0.8, 0.8), 0.4, n), 0.5, 1.5 / (nt - 1), nt)
        return traced_peak(lambda: green_residual(st, MED, margin=2))[1]

    assert peak(17) <= 12 * slab_bytes
    short, long = peak(9), peak(33)
    assert abs(long - short) <= 0.1 * short


def test_apply_M_matches_plane_wave_symbol():
    # on exp(1j (w t - k.x)) both dt and D act by exact multipliers
    med = ChiralMedium(eps=1.0, mu=1.0, beta=0.3)
    kv = np.array([0.0, 0.0, 1.2])
    w = 0.9
    v = np.array([0.4 + 0.1j, -0.2, 0.55])

    def V_fn(t, pts):
        ph = np.exp(1j * (w * t - pts @ kv))
        vals = np.zeros(ph.shape + (4,), complex)
        vals[..., 1:] = v * ph[..., None]
        return vals

    def exact_M(t, pts):
        ph = np.exp(1j * (w * t - pts @ kv))
        sc = 1j * (kv @ v)  # -div part
        vec = -1j * np.cross(kv, v)  # rot part
        rt = np.sqrt(med.eps * med.mu)
        out_sc = (med.beta * rt * 1j * w - 1j) * sc
        out_vec = (med.beta * rt * 1j * w - 1j) * vec + rt * 1j * w * v
        vals = np.zeros(ph.shape + (4,), complex)
        vals[..., 0] = out_sc * ph
        vals[..., 1:] = out_vec * ph[..., None]
        return vals

    def res(n, m):
        st = SpaceTimeLattice(Lattice.cube((0, 0, 0), 1.0, n), 0.0, 0.8 / (n - 1), n)
        out = apply_M(sampled(st, V_fn), st, med)
        return max_abs_interior(out - sampled(st, exact_M), m)

    r1, r2 = res(9, 1), res(17, 2)
    assert 3.2 <= r1 / r2 <= 4.8


def test_wave_operator_factorization():
    # for beta = 0, M M* is the wave operator; a traveling wave annihilates it
    med = ChiralMedium(eps=2.0, mu=1.0, beta=0.0)
    kz = np.sqrt(2.0)

    def wave(t, pts):
        phase = t - kz * pts[..., 2]
        vals = np.zeros(phase.shape + (4,), complex)
        vals[..., 1] = np.cos(phase)
        return vals

    def res(n, m):
        st = SpaceTimeLattice(Lattice.cube((0, 0, 0), 1.0, n), 0.0, 0.8 / (n - 1), n)
        out = apply_M(apply_M(sampled(st, wave), st, med, star=True), st, med)
        return max_abs_interior(out, m)

    r1, r2 = res(9, 2), res(17, 4)
    assert 3.2 <= r1 / r2 <= 4.8


def test_check_suite_MMstar_row_is_the_whole_array_expression():
    # the green suite applies M to a window of M* slabs; built whole, the
    # same ratio comes out bit for bit
    med = ChiralMedium(eps=2.0, mu=1.0, beta=0.0)

    def wave(t, pts):
        return _components(vector=np.cos(t - np.sqrt(2.0) * pts[..., 2])[..., None] * (1.0, 0.0, 0.0))

    def res(n, m):
        st = SpaceTimeLattice(Lattice.cube((0, 0, 0), 1.0, n), 0.0, 0.8 / (n - 1), n)
        out = apply_M(apply_M(sampled(st, wave), st, med, star=True), st, med)
        return max_abs_interior(out, m)

    (row,) = [r for r in suites.suite_green() if r.name == "wave_operator_factorization_order"]
    assert row.value == res(9, 2) / res(17, 4)


def test_chiral_wave_annihilated_by_MMstar():
    # chiral circular mode solves the fourth-order wave equation as well
    med = ChiralMedium(eps=1.0, mu=1.0, beta=0.2, alpha=1.0)
    k = (med.alpha / (1 - med.alpha * med.beta)).real
    p = np.array([1.0, -1j, 0.0])

    def wave(t, pts):
        ph = np.exp(1j * (t - k * pts[..., 2]))  # unit frequency: alpha = sqrt(eps mu)
        vals = np.zeros(ph.shape + (4,), complex)
        vals[..., 1:] = np.real(p * ph[..., None])
        return vals

    def res(n, m):
        st = SpaceTimeLattice(Lattice.cube((0, 0, 0), 1.0, n), 0.0, 0.9 / (n - 1), n)
        out = apply_M(apply_M(sampled(st, wave), st, med, star=True), st, med)
        return max_abs_interior(out, m)

    r1, r2 = res(9, 2), res(17, 4)
    assert 3.2 <= r1 / r2 <= 4.8

