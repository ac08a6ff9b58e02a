"""Verification suites behind the ``check`` command.

Each suite returns CheckRow records with the measured value and the
acceptance window [lo, hi]; a run passes when every row does.  The rows
double as the library's self-documenting invariants: algebra laws hold to
near machine precision, residual checks refine at second order (ratio near
4 when h halves), and negative controls must stay loudly broken.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import diffops, inhomog
from .algebra import Biquaternion, I1, I2, I3, ONE, _components, cross, dot
from .chiral_time import apply_M, green_function, green_refinement
from .grids import Lattice, SpaceTimeLattice, max_abs_interior
from .kernels import (
    ChiralMedium,
    chiral_wavenumbers,
    dipole_field,
    fundamental_solution,
    helmholtz_kernel,
    helmholtz_kernel_grad,
)

RATIO_LO, RATIO_HI = 3.2, 4.8


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


def _fd_scalar_laplacian(fn, x, h):
    x = np.asarray(x, dtype=float)
    total = -6.0 * fn(x)
    for k in range(3):
        e = np.zeros(3)
        e[k] = h
        total = total + fn(x + e) + fn(x - e)
    return total / (h * h)


def _fd_vector_rot(fn, x, h):
    def partial(i, j):
        e = np.zeros(3)
        e[i] = h
        return (fn(x + e)[j] - fn(x - e)[j]) / (2 * h)

    return np.array(
        [partial(1, 2) - partial(2, 1), partial(2, 0) - partial(0, 2), partial(0, 1) - partial(1, 0)]
    )


def suite_kernels(seed: int = 0) -> list[CheckRow]:
    rows = []
    alpha = 1 + 0.3j

    rows.append(
        _row(
            "kernels",
            "laplace_point_value",
            abs(helmholtz_kernel(0.0, [1.0, 0, 0]) + 1.0 / (4 * np.pi)),
            1e-15,
        )
    )

    x0 = np.array([1.0, 1.0, 1.0])
    fth = lambda p: helmholtz_kernel(alpha, p)
    res = [
        abs(_fd_scalar_laplacian(fth, x0, h) + alpha * alpha * fth(x0)) for h in (1e-2, 5e-3)
    ]
    rows.append(_ratio_row("kernels", "helmholtz_pde_residual_order", res[0], res[1]))

    grads = helmholtz_kernel_grad(alpha, x0).vector
    fd = np.array(
        [
            (fth(x0 + np.eye(3)[k] * 1e-5) - fth(x0 - np.eye(3)[k] * 1e-5)) / 2e-5
            for k in range(3)
        ]
    )
    rows.append(_row("kernels", "gradient_matches_fd", float(np.max(np.abs(grads - fd))), 1e-9))

    K = fundamental_solution(alpha, x0, sign=1)
    rows.append(
        _row(
            "kernels",
            "kernel_scalar_part",
            abs(K.scalar - alpha * fth(x0)),
            1e-15,
        )
    )
    rows.append(
        _row(
            "kernels",
            "kernel_vector_is_minus_grad",
            float(np.max(np.abs(K.vector + grads))),
            1e-15,
        )
    )

    r1, r2 = chiral_wavenumbers(1.0, 0.1)
    rows.append(
        _row(
            "kernels",
            "split_wavenumbers",
            abs(r1 - 1 / 1.1) + abs(r2 - 1 / 0.9),
            1e-15,
        )
    )

    moment = np.array([0.3, -1.0, 0.7])
    x1 = np.array([0.9, -0.4, 1.2])
    E_at = lambda p: dipole_field(moment, alpha, p)[0]
    E, H = dipole_field(moment, alpha, x1)
    rotE = _fd_vector_rot(E_at, x1, 1e-4)
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
        E, H = dipole_field(moment, 1.0, p)
        sm.append(r * float(np.max(np.abs(E - np.cross(xh, H)))))
    rows.append(_row("kernels", "silver_mueller_decay", max(sm[1] / sm[0], sm[2] / sm[1]), 1.0))

    perms = [helmholtz_kernel(alpha, p) for p in ([1.0, 2.0, -3.0], [2.0, -3.0, 1.0], [-3.0, 1.0, 2.0])]
    rows.append(
        _row("kernels", "radial_symmetry", max(abs(perms[0] - perms[1]), abs(perms[0] - perms[2])), 0.0)
    )
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

    k = np.array([0.36, 0.48, 0.8])

    def schro(n, margin):
        lat = Lattice.cube((0.4, 0.5, 0.6), 0.5, n)
        pts = lat.points()
        slot = diffops.PotentialSlot.from_particular_solution(lat, np.exp(pts @ k))
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
        slot = diffops.PotentialSlot.from_conductivity(lat, p, q, u0)
        phi = np.sin(x[..., 0]) * x[..., 2]
        return diffops.conductivity_factorization_residual(slot, phi, margin=margin)

    rows.append(
        _ratio_row("factorizations", "conductivity_identity_order", conductivity(11, 2), conductivity(21, 4))
    )
    # u0 that does not solve the conductivity equation must not refine away
    bad = conductivity(21, 4, u0_sign=+1.0)
    good = conductivity(21, 4)
    rows.append(_row("factorizations", "conductivity_negative_control", bad / good, np.inf, lo=10.0))

    lat = Lattice.cube((0.4, 0.5, 0.6), 0.5, 17)
    pts = lat.points()
    slot = diffops.PotentialSlot.from_particular_solution(lat, np.exp(pts @ k))
    g = np.exp(-(pts @ k))
    F = diffops.darboux_transform(slot, g)
    closed = _components(vector=-2.0 * np.exp(-(pts @ k))[..., None] * k)
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
        slot_n = diffops.PotentialSlot.from_particular_solution(lat, f)
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
    import scipy.special

    rows = []
    med = ChiralMedium(eps=1.0, mu=1.0, beta=1.0)
    x = np.array([1.0, 0.5, -0.3])

    rows.append(_row("green", "causality_t_negative", green_function(-1.0, x, med).max_abs(), 0.0))

    g0 = green_function(0.0, x, med)
    K = fundamental_solution(1.0 / med.beta, x)
    lim = K.components / (med.beta * np.sqrt(med.eps * med.mu))
    rows.append(_row("green", "t_zero_limit", float(np.max(np.abs(g0.components - lim))), 1e-14))

    # first positive root of J0 against an independent implementation
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if scipy.special.j0(lo) * scipy.special.j0(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    root_ref = float(scipy.special.jn_zeros(0, 1)[0])
    rows.append(_row("green", "bessel_j0_first_root", abs(0.5 * (lo + hi) - root_ref), 1e-9))

    # Bessel ODE J_n'' + J_n'/z + (1 - n^2/z^2) J_n = 0 and J1 = -J0', by
    # central differences: an oracle independent of the implementation
    z = np.linspace(0.5, 60.0, 2381)
    h = 2.5e-4

    def with_derivatives(jn):
        jm, j, jp = (jn(z + s) for s in (-h, 0.0, h))
        return j, (jp - jm) / (2 * h), (jp - 2 * j + jm) / (h * h)

    j0, d_j0, dd_j0 = with_derivatives(scipy.special.j0)
    j1, d_j1, dd_j1 = with_derivatives(scipy.special.j1)
    bessel_dev = max(
        np.max(np.abs(dd_j0 + d_j0 / z + j0)),
        np.max(np.abs(dd_j1 + d_j1 / z + (1 - 1 / (z * z)) * j1)),
        np.max(np.abs(j1 + d_j0)),
    )
    rows.append(_row("green", "bessel_ode_and_j1_identity", bessel_dev, 1e-7))

    (_, _, r9), (_, _, r17) = green_refinement(med, 2)
    rows.append(_ratio_row("green", "green_annihilated_by_M_order", r9, r17))

    med0 = ChiralMedium(eps=2.0, mu=1.0, beta=0.0)
    kz = np.sqrt(2.0)

    def wave(t, pts):
        return _components(vector=np.cos(t - kz * pts[..., 2])[..., None] * (1.0, 0.0, 0.0))

    def mmstar(n, m):
        st = SpaceTimeLattice(Lattice.cube((0, 0, 0), 1.0, n), 0.0, 0.8 / (n - 1), n)
        v = wave(st.times()[:, None, None, None], st.space.points())
        return max_abs_interior(apply_M(apply_M(v, st, med0, star=True), st, med0), m, time_axis=True)

    rows.append(_ratio_row("green", "wave_operator_factorization_order", mmstar(9, 2), mmstar(17, 4)))
    return rows


# ---------------------------------------------------------------------------
# inhomog
# ---------------------------------------------------------------------------


def _manufactured(n, nt):
    import sympy as sp

    T, X1, X2, X3 = inhomog.T, inhomog.X1, inhomog.X2, inhomog.X3
    lat = Lattice.cube((0, 0, 0), 1.0, n)
    med = inhomog.medium_from_expressions(
        lat,
        1 + sp.Rational(3, 10) * sp.exp(-(X1**2 + X2**2 + X3**2)),
        1 + sp.Rational(1, 10) * X1**2,
    )
    st = SpaceTimeLattice(lat, 0.0, 0.8 / (nt - 1), nt)
    state = inhomog.manufactured_solution((0, 0, sp.sin(X1) * sp.cos(T)), 0, med, st)
    return med, state


def suite_inhomog(seed: int = 0) -> list[CheckRow]:
    rows = []
    med9, st9 = _manufactured(9, 9)
    med17, st17 = _manufactured(17, 17)

    rows.append(
        _row("inhomog", "medium_gradient_identities", max(med17.identity_residuals), 1e-3)
    )

    r9 = inhomog.quaternionic_residual(st9, med9, margin=1)
    r17 = inhomog.quaternionic_residual(st17, med17, margin=2)
    rows.append(_ratio_row("inhomog", "quaternionic_equation_order", r9, r17))

    m9 = inhomog.maxwell_residuals(st9, med9, margin=1)
    m17 = inhomog.maxwell_residuals(st17, med17, margin=2)
    for i in (0, 1, 2):
        rows.append(_ratio_row("inhomog", f"maxwell_eq{i + 1}_order", m9[i], m17[i]))
    rows.append(_row("inhomog", "maxwell_eq4_residual", m17[3], 1e-12))

    # single-equation violations must blow the quaternionic residual up
    base = r9
    pts = st9.st.space.points()
    bump = np.exp(-np.sum(pts * pts, axis=-1))
    gradbump = -2.0 * pts * bump[..., None]
    curl_bump = np.cross(np.array([1.0, 0.5, -0.3]), gradbump)  # divergence-free
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
