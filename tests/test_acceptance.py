"""End-to-end acceptance criteria.

Each test prints one pass line with the measured numbers, so a verbose run
doubles as the acceptance report.  Tolerances are fixed here, not tuned at
run time.  Scenarios that ``bqem check`` already runs are read from its
rows rather than rebuilt; the windows asserted on them are these tests' own.
"""

import functools
import time

import numpy as np

from bqem import diffops
from bqem.chiral_time import green_function
from bqem.grids import Lattice, laplacian, max_abs_interior
from bqem.kernels import ChiralMedium
from bqem.scattering import Ellipsoid, MfsProblem, run_benchmark
from bqem.suites import run_suites

RATIO_WINDOW = (3.2, 4.8)


def report(criterion, detail):
    print(f"[criterion {criterion}] PASS {detail}")


@functools.cache
def check_suite(name):
    """Values of the ``bqem check <name>`` rows by check name, and the
    wall time of the run that produced them."""
    t0 = time.perf_counter()
    rows = run_suites([name])
    return {r.name: r.value for r in rows}, time.perf_counter() - t0


def in_ratio_window(value):
    return RATIO_WINDOW[0] <= value <= RATIO_WINDOW[1]


# ---------------------------------------------------------------------------
# 1. scattering benchmark table: trend and magnitude
# ---------------------------------------------------------------------------


def test_criterion_1_benchmark_table():
    t0 = time.perf_counter()
    problem = MfsProblem(
        surface=Ellipsoid(5.0, 3.0, 2.0),
        medium=ChiralMedium(beta=0.0, alpha=1 + 0.3j),
        n_sources=10,
        source_scale=0.15,
    )
    rows = run_benchmark(problem, [10, 15, 20, 25, 30, 35])
    wall = time.perf_counter() - t0

    err_e = [row["errE"] for row in rows]
    err_h = [row["errH"] for row in rows]
    assert err_e[0] <= 1e-3 and err_h[0] <= 1e-3
    assert err_e[-1] <= 1e-4 and err_h[-1] <= 1e-4
    assert err_e[-1] / err_e[0] <= 1e-2
    assert err_h[-1] / err_h[0] <= 1e-2
    assert wall < 60.0
    report(
        1,
        f"errE(10)={err_e[0]:.3e} errH(10)={err_h[0]:.3e} "
        f"errE(35)={err_e[-1]:.3e} errH(35)={err_h[-1]:.3e} wall={wall:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. algebra laws on 10^4 random triples
# ---------------------------------------------------------------------------


def test_criterion_2_algebra_laws():
    rows, wall = check_suite("algebra")
    assoc = rows["associativity"]
    conj = rows["conjugation_antiautomorphism"]
    recon = rows["scalar_vector_reconstruction"]
    assert assoc <= 1e-12 and conj <= 1e-12 and recon <= 1e-12
    assert wall < 1.0
    report(2, f"assoc={assoc:.2e} conj={conj:.2e} recon={recon:.2e} wall={wall:.2f}s")


# ---------------------------------------------------------------------------
# 3. Helmholtz factorization refinement
# ---------------------------------------------------------------------------


def test_criterion_3_helmholtz_factorization():
    rows, wall = check_suite("factorizations")
    ratio = rows["helmholtz_identity_order"]
    assert in_ratio_window(ratio)
    assert wall < 5.0
    report(3, f"ratio={ratio:.3f} wall={wall:.1f}s")


# ---------------------------------------------------------------------------
# 4. Schrodinger and conductivity factorizations
# ---------------------------------------------------------------------------


def test_criterion_4_schrodinger_and_conductivity():
    rows, wall = check_suite("factorizations")
    rs = rows["schrodinger_identity_order"]
    rc = rows["conductivity_identity_order"]
    assert in_ratio_window(rs)
    assert in_ratio_window(rc)
    assert wall < 10.0
    report(4, f"schrodinger_ratio={rs:.3f} conductivity_ratio={rc:.3f} wall={wall:.1f}s")


# ---------------------------------------------------------------------------
# 5. round trip g -> F -> g'
# ---------------------------------------------------------------------------


def test_criterion_5_round_trip():
    k = np.array([0.36, 0.48, 0.8])

    def roundtrip(n):
        lat = Lattice.cube((0.4, 0.5, 0.6), 0.5, n)
        p = lat.points()
        slot = diffops.PotentialSlot(lat, np.exp(p @ k))
        g = np.exp(-(p @ k))
        F = diffops.darboux_transform(slot, g)
        base = (n // 2, n // 2, n // 2)
        g_prime = diffops.antiderivative(F / slot.f[..., None], lat, base) * slot.f

        valid = np.isfinite(g_prime)  # g' is NaN on the faces of F
        diffs = (g_prime - g)[valid]
        fs = slot.f[valid]
        lam = np.vdot(fs, diffs) / np.vdot(fs, fs)
        prop = float(np.max(np.abs(diffs - lam * fs)))

        schro = -laplacian(g_prime, lat.spacing) + slot.nu() * g_prime
        return prop, max_abs_interior(schro), float(np.max(np.abs(fs)))

    p1, s1, _ = roundtrip(11)
    p2, s2, fscale = roundtrip(21)
    assert p2 <= 1e-3 * fscale
    assert 2.5 <= p1 / p2 <= 6.0  # O(h^2) with quadrature contamination
    assert 2.5 <= s1 / s2 <= 6.0
    report(5, f"proportionality=({p1:.3e}, {p2:.3e}) schrodinger=({s1:.3e}, {s2:.3e})")


# ---------------------------------------------------------------------------
# 6. chiral Green function
# ---------------------------------------------------------------------------


def test_criterion_6_green_function():
    t0 = time.perf_counter()
    med = ChiralMedium(eps=1.0, mu=1.0, beta=1.0)

    # (i) causality, exactly zero
    ts = np.linspace(-3.0, -1e-12, 7)
    vals = green_function(ts, np.array([1.0, 0.4, -0.2]), med)
    causal = float(np.max(np.abs(vals.components)))
    assert causal == 0.0
    wall = time.perf_counter() - t0

    # (ii) M annihilates the Green function at second order; (iii) M f =
    # delta(t) delta(x): the unit jump of f at t = 0 by Gauss's theorem, and
    # its Laplace transform in t against the frequency-domain chiral kernel
    rows, suite_wall = check_suite("green")
    ratio = rows["green_annihilated_by_M_order"]
    jump_err = rows["unit_jump"]
    laplace_err = rows["laplace_transform_is_chiral_kernel"]
    assert in_ratio_window(ratio)
    assert jump_err <= 1e-12 and laplace_err <= 1e-12

    wall += suite_wall
    assert wall < 30.0
    report(
        6,
        f"causality=0 exact, residual_ratio={ratio:.3f}, unit_jump_err={jump_err:.1e}, "
        f"laplace_transform_err={laplace_err:.1e} wall={wall:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. inhomogeneous equivalence
# ---------------------------------------------------------------------------


def test_criterion_7_inhomogeneous_equivalence():
    rows, wall = check_suite("inhomog")
    ratio = rows["quaternionic_equation_order"]
    assert in_ratio_window(ratio)

    # single-equation violations all push the residual over 10x
    worst = min(
        rows[name]
        for name in ("violation_div_eps_E", "violation_div_mu_H", "violation_ampere", "violation_rho_data")
    )
    assert worst >= 10.0

    assert wall < 30.0
    report(7, f"quaternionic_ratio={ratio:.3f} min_violation_amplification={worst:.1f}x wall={wall:.1f}s")


# ---------------------------------------------------------------------------
# 8. Vekua quartet
# ---------------------------------------------------------------------------


def test_criterion_8_vekua_quartet():
    def slot_at(n):
        lat = Lattice.cube((0.4, 0.5, 0.6), 0.5, n)
        p = lat.points()
        f = 2.0 + np.sin(p[..., 0]) * np.cos(p[..., 1]) + 0.2 * p[..., 2] ** 2
        return diffops.PotentialSlot(lat, f)

    slot_c, slot_f = slot_at(11), slot_at(21)
    quartet_c = diffops.generating_quartet(slot_c)
    quartet_f = diffops.generating_quartet(slot_f)

    # F0 = f satisfies the discrete equation exactly; i_k/f at second order
    assert diffops.vekua_residual(slot_f, quartet_f[0]) <= 1e-12
    ratios = []
    for Wc, Wf in zip(quartet_c[1:], quartet_f[1:]):
        rc = diffops.vekua_residual(slot_c, Wc, margin=2)
        rf = diffops.vekua_residual(slot_f, Wf, margin=4)
        ratios.append(rc / rf)
        assert RATIO_WINDOW[0] <= rc / rf <= RATIO_WINDOW[1]
    report(8, f"member_ratios={[f'{r:.2f}' for r in ratios]}")


# ---------------------------------------------------------------------------
# 9. chiral MFS self-test: the benchmark rows at beta = 0.1
# ---------------------------------------------------------------------------


def test_criterion_9_chiral_selftest():
    med = ChiralMedium(beta=0.1, alpha=1 + 0.3j)
    problem = MfsProblem(surface=Ellipsoid(5.0, 3.0, 2.0), medium=med, n_sources=10, source_scale=0.15)
    small, big = run_benchmark(problem, [10, 35])
    small_far, big_far = (max(row["errE"], row["errH"]) for row in (small, big))
    b_gain = small["errB"] / big["errB"]
    f_gain = small_far / big_far
    assert b_gain >= 100.0
    assert f_gain >= 100.0
    report(
        9,
        f"boundary {small['errB']:.3e}->{big['errB']:.3e} ({b_gain:.0f}x), "
        f"far {small_far:.3e}->{big_far:.3e} ({f_gain:.0f}x)",
    )
