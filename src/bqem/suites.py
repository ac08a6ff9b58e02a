"""Verification suites behind the ``check`` command.

Each suite returns CheckRow records with the measured value and the
acceptance window [lo, hi]; a run passes when every row does.  The rows
double as the library's self-documenting invariants: algebra laws hold to
near machine precision, residual checks refine at second order (ratio near
4 when h halves), and negative controls must stay loudly broken.

No row restates the formula a routine is built from.  The normalizations
are checked against the equations they solve: ``kernels,delta_strength``
integrates (D + alpha) K_alpha = delta over a ball by Gauss's theorem,
``green,unit_jump`` does the same for the jump f(0) of the Green function,
and ``green,laplace_transform_is_chiral_kernel`` transforms f in time to
the frequency-domain kernel of the split wavenumber alpha1, which covers the
whole t-dependence of f.  The inhomog rows run on
``inhomog.manufactured_state``, an exact Maxwell state in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import diffops, inhomog
from .algebra import Biquaternion, I1, I2, I3, ONE, _components, _cross, cross, dot
from .chiral_time import _M_slab, green_function, green_refinement
from .grids import Lattice, SpaceTimeLattice, _time_windows, grad, laplacian, max_abs_interior, rot
from .kernels import ChiralMedium, chiral_wavenumbers, dipole_field, fundamental_solution, helmholtz_kernel

RATIO_LO, RATIO_HI = 3.2, 4.8

# unit wave vector of the particular solution f = exp(k.x)
_K = np.array([0.36, 0.48, 0.8])


@dataclass(frozen=True)
class CheckRow:
    suite: str
    name: str
    value: float
    lo: float
    hi: float

    @property
    def passed(self) -> bool:
        return self.lo <= self.value <= self.hi


def _row(suite, name, value, hi, lo=0.0) -> CheckRow:
    return CheckRow(suite, name, float(value), float(lo), float(hi))


def _ratio_row(suite, name, coarse, fine) -> CheckRow:
    return CheckRow(suite, name, float(coarse / fine), RATIO_LO, RATIO_HI)


def _random_biquaternions(rng, n) -> Biquaternion:
    return Biquaternion(rng.uniform(-1, 1, (n, 4)) + 1j * rng.uniform(-1, 1, (n, 4)))


# ---------------------------------------------------------------------------
# algebra
# ---------------------------------------------------------------------------


def suite_algebra(seed: int = 0) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    a = _random_biquaternions(rng, 10_000)
    b = _random_biquaternions(rng, 10_000)
    c = _random_biquaternions(rng, 10_000)

    rows = [
        _row("algebra", "unit_table_i1i2_minus_i3", ((I1 * I2) - I3).max_abs(), 0.0),
        _row("algebra", "unit_element", ((a * ONE) - a).max_abs(), 0.0),
        _row(
            "algebra",
            "zero_divisor_product",
            (Biquaternion((1, 1j, 0, 0)) * Biquaternion((1, -1j, 0, 0))).max_abs(),
            0.0,
        ),
        _row("algebra", "associativity", ((a * b) * c - a * (b * c)).max_abs(), 1e-12),
        _row(
            "algebra",
            "conjugation_antiautomorphism",
            ((a * b).quat_conj() - b.quat_conj() * a.quat_conj()).max_abs(),
            1e-12,
        ),
    ]

    rebuilt = Biquaternion.from_parts(
        a.scalar * b.scalar - dot(a, b),
        a.scalar[..., None] * b.vector
        + b.scalar[..., None] * a.vector
        + cross(a, b).vector,
    )
    rows.append(_row("algebra", "scalar_vector_reconstruction", (rebuilt - a * b).max_abs(), 1e-12))

    v = Biquaternion.from_vector(a.vector)
    sq = v * v
    rows.append(
        _row(
            "algebra",
            "pure_vector_square",
            max(
                float(np.max(np.abs(sq.scalar + dot(v, v)))),
                float(np.max(np.abs(sq.vector))),
            ),
            1e-12,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


def _stencil_at(op, fn, x, h):
    """The grids stencil ``op`` of ``fn`` at x: ``fn`` sampled on the 5^3
    cube of spacing h centred at x, ``op`` read at its centre node."""
    lat = Lattice.cube(x, 4 * h, 5)
    return op(fn(lat.points()), lat.spacing)[2, 2, 2]


def _sphere_and_ball(fn, r):
    """(surface integral of n fn over |x| = r, volume integral of fn over
    |x| < r) as biquaternions, n the outward unit normal and n fn the
    quaternion product; ``fn`` maps positions (..., 3) to a Biquaternion.

    Gauss-Legendre in cos(nu) (6 nodes) and in |x| (12 nodes), 12 uniform
    angles in phi.  Enough for a kernel with a 1/|x|^2 singularity at the
    origin: the ball's weight |x|^2 cancels it."""
    from numpy.polynomial.legendre import leggauss

    cos_nu, w_nu = leggauss(6)
    sin_nu, phi = np.sqrt(1 - cos_nu**2), np.arange(12) * (np.pi / 6)
    n = np.stack([np.outer(sin_nu, np.cos(phi)), np.outer(sin_nu, np.sin(phi)), np.outer(cos_nu, np.ones(12))], -1)
    n = n.reshape(-1, 3)
    w_n = np.repeat(w_nu * (np.pi / 6), 12)  # the solid angle of each normal; they sum to 4 pi
    rho, w_rho = leggauss(12)
    rho, w_rho = 0.5 * r * (rho + 1), 0.5 * r * w_rho
    surface = r * r * w_n @ (Biquaternion.from_vector(n) * fn(r * n)).components
    volume = np.einsum("i,j,ijk->k", w_rho * rho**2, w_n, fn(rho[:, None, None] * n).components)
    return Biquaternion(surface), Biquaternion(volume)


def suite_kernels(seed: int = 0) -> list[CheckRow]:
    rows = []
    alpha = 1 + 0.3j

    # (D + a) K_a = delta, by Gauss's theorem on the ball |x| < r
    strength = []
    for a, r in ((0.0, 1.0), (alpha, 0.5), (2.5, 2.0)):
        surface, volume = _sphere_and_ball(lambda p: fundamental_solution(a, p), r)
        strength.append((surface + a * volume - ONE).max_abs())
    rows.append(_row("kernels", "delta_strength", max(strength), 1e-12))

    x0 = np.array([1.0, 1.0, 1.0])
    fth = lambda p: helmholtz_kernel(alpha, p)
    res = [abs(_stencil_at(laplacian, fth, x0, h) + alpha * alpha * fth(x0)) for h in (1e-2, 5e-3)]
    rows.append(_ratio_row("kernels", "helmholtz_pde_residual_order", res[0], res[1]))

    grads = -fundamental_solution(alpha, x0).vector
    fd = _stencil_at(grad, fth, x0, 1e-5)
    rows.append(_row("kernels", "gradient_matches_fd", float(np.max(np.abs(grads - fd))), 1e-9))

    moment = np.array([0.3, -1.0, 0.7])
    x1 = np.array([0.9, -0.4, 1.2])
    medium = ChiralMedium(alpha=alpha)
    E_at = lambda p: dipole_field(moment, medium, p)[0]
    E, H = dipole_field(moment, medium, x1)
    rotE = _stencil_at(rot, E_at, x1, 1e-4)
    rows.append(
        _row(
            "kernels",
            "dipole_curl_E_plus_jaH",
            float(np.max(np.abs(rotE + 1j * alpha * H))),
            1e-6,
        )
    )

    sm = []
    for r in (10.0, 100.0, 1000.0):
        xh = np.array([0.6, 0.64, 0.48])
        p = r * xh
        E, H = dipole_field(moment, ChiralMedium(alpha=1.0), p)
        sm.append(r * float(np.max(np.abs(E - _cross(xh, H)))))
    rows.append(_row("kernels", "silver_mueller_decay", max(sm[1] / sm[0], sm[2] / sm[1]), 1.0))
    return rows


# ---------------------------------------------------------------------------
# factorizations (diffops)
# ---------------------------------------------------------------------------


def suite_factorizations(seed: int = 0) -> list[CheckRow]:
    rng = np.random.default_rng(seed)
    rows = []
    alpha = 1 + 0.3j

    def helm(n, margin):
        lat = Lattice.cube((1, 1, 1), 0.5, n)
        g = np.exp(1j * alpha * lat.points()[..., 0])
        return diffops.helmholtz_factorization_residual(alpha, g, lat, margin=margin)

    rows.append(_ratio_row("factorizations", "helmholtz_identity_order", helm(11, 2), helm(21, 4)))

    def schro(n, margin):
        lat = Lattice.cube((0.4, 0.5, 0.6), 0.5, n)
        pts = lat.points()
        slot = diffops.PotentialSlot(lat, np.exp(pts @ _K))
        g = pts[..., 0] ** 2 * pts[..., 1]
        return diffops.schrodinger_factorization_residual(slot, g, margin=margin)

    rows.append(_ratio_row("factorizations", "schrodinger_identity_order", schro(11, 2), schro(21, 4)))

    # p = 1+x1^2 with u0 = exp(-x1) solves (div p grad + q)u0 = 0 for
    # q = -(1-x1)^2; flipping the sign of the exponent breaks the hypothesis
    def conductivity(n, margin, u0_sign=-1.0):
        lat = Lattice.cube((0.4, 0.5, 0.6), 0.5, n)
        x = lat.points()
        p = 1.0 + x[..., 0] ** 2
        q = -((1.0 - x[..., 0]) ** 2)
        u0 = np.exp(u0_sign * x[..., 0])
        phi = np.sin(x[..., 0]) * x[..., 2]
        return diffops.conductivity_factorization_residual(lat, p, q, u0, phi, margin=margin)

    good = conductivity(21, 4)
    rows.append(_ratio_row("factorizations", "conductivity_identity_order", conductivity(11, 2), good))
    # u0 that does not solve the conductivity equation must not refine away
    bad = conductivity(21, 4, u0_sign=+1.0)
    rows.append(_row("factorizations", "conductivity_negative_control", bad / good, np.inf, lo=10.0))

    lat = Lattice.cube((0.4, 0.5, 0.6), 0.5, 17)
    pts = lat.points()
    slot = diffops.PotentialSlot(lat, np.exp(pts @ _K))
    g = np.exp(-(pts @ _K))
    F = diffops.darboux_transform(slot, g)
    closed = _components(vector=-2.0 * np.exp(-(pts @ _K))[..., None] * _K)
    ferr = max_abs_interior(F - closed)
    rows.append(_row("factorizations", "darboux_closed_form", ferr, 5e-3))
    rows.append(_row("factorizations", "darboux_dirac_residual", diffops.dirac_residual(slot, F), 5e-2))

    analytic = _components(
        vector=np.stack([pts[..., 1] * pts[..., 2], pts[..., 0] * pts[..., 2], pts[..., 0] * pts[..., 1]], axis=-1)
    )
    rec = diffops.antiderivative(analytic, lat, (8, 8, 8))
    target = pts[..., 0] * pts[..., 1] * pts[..., 2]
    target = target - target[8, 8, 8]
    rows.append(
        _row(
            "factorizations",
            "antiderivative_inverts_gradient",
            max_abs_interior(rec - target),
            1e-12,
        )
    )

    quartet = diffops.generating_quartet(slot)
    worst = max(diffops.vekua_residual(slot, W) for W in quartet)
    rows.append(_row("factorizations", "vekua_quartet_residual", worst, 5e-2))

    Wbad = rng.uniform(-1, 1, lat.dims + (4,)) + 0j
    rows.append(
        _row(
            "factorizations",
            "vekua_negative_control",
            diffops.vekua_residual(slot, Wbad) / max(worst, 1e-30),
            np.inf,
            lo=10.0,
        )
    )

    q = _random_biquaternions(rng, 128)
    p = Biquaternion.from_vector(rng.uniform(-1, 1, (128, 3)) + 1j * rng.uniform(-1, 1, (128, 3)))
    qv = Biquaternion.from_vector(q.vector)
    lhs = -0.5 * ((p * qv) + (qv * p)).components[..., 0]
    rows.append(
        _row(
            "factorizations",
            "scalar_product_identity",
            float(np.max(np.abs(lhs - dot(p, qv)))),
            1e-12,
        )
    )

    # coefficient form of the Vekua equation (real positive f only)
    def coeff_identity(n, margin):
        lat = Lattice.cube((0.4, 0.5, 0.6), 0.5, n)
        pts = lat.points()
        f = 2.0 + np.sin(pts[..., 0]) * np.cos(pts[..., 1]) + 0.2 * pts[..., 2] ** 2
        slot_n = diffops.PotentialSlot(lat, f)
        wfield = np.stack(
            [np.sin(pts[..., 0]) * pts[..., 1], pts[..., 2] ** 2, np.cos(pts[..., 1]), pts[..., 0] * pts[..., 2]],
            axis=-1,
        )
        return diffops.vekua_coefficient_identity_residual(slot_n, wfield, margin=margin)

    rows.append(
        _ratio_row("factorizations", "vekua_coefficient_identity_order", coeff_identity(11, 2), coeff_identity(21, 4))
    )
    return rows


# ---------------------------------------------------------------------------
# green (chiral_time)
# ---------------------------------------------------------------------------


def suite_green(seed: int = 0) -> list[CheckRow]:
    rows = []
    med = ChiralMedium(eps=1.0, mu=1.0, beta=1.0)
    x = np.array([1.0, 0.5, -0.3])

    rows.append(_row("green", "causality_t_negative", green_function(-1.0, x, med).max_abs(), 0.0))

    # M f = delta(t) delta(x): f jumps at t = 0 to an f(0) that solves
    # (beta sqrt(eps mu) D + sqrt(eps mu)) f(0) = delta; at eps mu = 4, so that a
    # sqrt(eps mu) read as eps mu shows
    med2 = ChiralMedium(eps=2.0, mu=2.0, beta=0.7)
    rt_em = np.sqrt(med2.eps * med2.mu)
    surface, volume = _sphere_and_ball(lambda p: green_function(0.0, p, med2), 1.0)
    rows.append(_row("green", "unit_jump", (med2.beta * rt_em * surface + rt_em * volume - ONE).max_abs(), 1e-12))

    # Laplace-transformed in t, M f = delta reads
    # ((s beta sqrt(eps mu) - 1j) D + s sqrt(eps mu)) F = delta, so F = K_kappa / (s beta sqrt(eps mu) - 1j)
    # with kappa the split wavenumber alpha1 of alpha = 1j s sqrt(eps mu), the frequency-domain chiral
    # kernel; beta = -0.7 reaches alpha2 of beta = 0.7
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(16)
    t = ((np.arange(150)[:, None] + 0.5 * (nodes + 1)) / 3).ravel()  # 150 panels of width 1/3 on [0, 50]
    w = np.tile(weights / 6, 150)
    laplace = []
    for beta, s in ((0.7, 1 - 0.7j), (-0.7, 0.8 + 2j)):
        medb = replace(med2, beta=beta)
        # numpy's pairwise sum along each component's contiguous row: a BLAS
        # product would sum in an order that follows the thread count
        terms = np.ascontiguousarray(green_function(t, x, medb).components.T) * (w * np.exp(-s * t))
        F = np.sum(terms, axis=-1)
        kappa = chiral_wavenumbers(1j * s * rt_em, beta)[0]
        ref = fundamental_solution(kappa, x).components / (s * beta * rt_em - 1j)
        laplace.append(np.max(np.abs(F - ref)) / np.max(np.abs(ref)))
    rows.append(_row("green", "laplace_transform_is_chiral_kernel", max(laplace), 1e-12))

    (_, _, r9), (_, _, r17) = green_refinement(med, 2)
    rows.append(_ratio_row("green", "green_annihilated_by_M_order", r9, r17))

    med0 = ChiralMedium(eps=2.0, mu=1.0, beta=0.0)
    kz = np.sqrt(2.0)

    def wave(t, pts):
        return _components(vector=np.cos(t - kz * pts[..., 2])[..., None] * (1.0, 0.0, 0.0))

    def mmstar(n, m):
        # the M* windows at margin m - 1 give, in order, the slabs that M reads at margin m >= 2
        st = SpaceTimeLattice(Lattice.cube((0, 0, 0), 1.0, n), 0.0, 0.8 / (n - 1), n)
        times, pts, h = st.times(), st.space.points(), st.space.spacing
        mstar = (_M_slab(*w, h, st.dt, med0, 1j) for _, w in _time_windows(lambda s: wave(times[s], pts), st, m - 1))
        mm = (_M_slab(*w, h, st.dt, med0, -1j) for _, w in _time_windows(lambda s: next(mstar), st, m))
        return max(max_abs_interior(slab, m) for slab in mm)

    rows.append(_ratio_row("green", "wave_operator_factorization_order", mmstar(9, 2), mmstar(17, 4)))
    return rows


# ---------------------------------------------------------------------------
# inhomog
# ---------------------------------------------------------------------------


def suite_inhomog(seed: int = 0) -> list[CheckRow]:
    rows = []
    med9, st9 = inhomog.manufactured_state(9)
    med17, st17 = inhomog.manufactured_state(17)

    # the two gradient identities tying the derived fields together
    worst = max(
        max_abs_interior(med17.epsvec + med17.muvec + 2.0 * med17.cvec),
        max_abs_interior(med17.epsvec - med17.muvec + 2.0 * med17.Wvec),
    )
    rows.append(_row("inhomog", "medium_gradient_identities", worst, 1e-3))

    r9 = inhomog.quaternionic_residual(st9, med9, margin=1)
    r17 = inhomog.quaternionic_residual(st17, med17, margin=2)
    rows.append(_ratio_row("inhomog", "quaternionic_equation_order", r9, r17))

    m9 = inhomog.maxwell_residuals(st9, med9, margin=1)
    m17 = inhomog.maxwell_residuals(st17, med17, margin=2)
    for i in (0, 1, 2):
        rows.append(_ratio_row("inhomog", f"maxwell_eq{i + 1}_order", m9[i], m17[i]))
    rows.append(_row("inhomog", "maxwell_eq4_residual", m17[3], 1e-12))

    # eps = f^2, f = exp(k.x): calE = F = f D(f^-1 exp(-k.x)) is a sourceless
    # static field, so the static split is the Schroedinger factor at f = sqrt(eps)
    def static_split(n, margin):
        lat = Lattice.cube((0.2, 0.3, 0.1), 0.5, n)
        kx = lat.points() @ _K
        med = inhomog.build_medium(lat, np.exp(2.0 * kx), np.ones(lat.dims))
        slot = diffops.PotentialSlot(lat, np.sqrt(med.eps))
        F = diffops.darboux_transform(slot, np.exp(-kx))
        E = (F[..., 1:] / np.sqrt(med.eps)[..., None])[None]
        zero = np.zeros_like(E)
        state = inhomog.EMState(SpaceTimeLattice(lat, 0.0, 1.0, 1), E, zero, np.zeros(E.shape[:-1]), zero)
        return inhomog.static_residuals(state, med, margin=margin)[0]

    rows.append(_ratio_row("inhomog", "static_split_order", static_split(9, 2), static_split(17, 4)))

    # single-equation violations must blow the quaternionic residual up
    base = r9
    pts = st9.st.space.points()
    bump = np.exp(-np.sum(pts * pts, axis=-1))
    gradbump = -2.0 * pts * bump[..., None]
    curl_bump = _cross(np.array([1.0, 0.5, -0.3]), gradbump)  # divergence-free
    violations = {
        "violation_div_eps_E": replace(st9, E=st9.E + 0.3 * gradbump[None]),
        "violation_div_mu_H": replace(st9, H=st9.H + 0.3 * gradbump[None]),
        "violation_ampere": replace(st9, j=st9.j + 0.3 * curl_bump[None]),
        "violation_rho_data": replace(st9, rho=st9.rho + 0.3 * bump[None]),
    }
    for name, state in violations.items():
        r = inhomog.quaternionic_residual(state, med9, margin=1)
        rows.append(_row("inhomog", name, r / base, np.inf, lo=10.0))
    return rows


SUITES = {
    "algebra": suite_algebra,
    "kernels": suite_kernels,
    "factorizations": suite_factorizations,
    "green": suite_green,
    "inhomog": suite_inhomog,
}


def run_suites(names, seed: int = 0) -> list[CheckRow]:
    rows = []
    for name in names:
        rows.extend(SUITES[name](seed))
    return rows
