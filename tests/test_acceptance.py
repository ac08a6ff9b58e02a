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
from bqem.grids import Lattice, QuaternionGrid, ScalarGrid, laplacian, max_abs_interior
from bqem.kernels import ChiralMedium
from bqem.scattering import Ellipsoid, MfsProblem, chiral_selftest, run_benchmark
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
        side="exterior",
    )
    rep = run_benchmark(problem, [10, 15, 20, 25, 30, 35], eval_scale=5.0)
    wall = time.perf_counter() - t0

    err_e = rep.column("errE")
    err_h = rep.column("errH")
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
        f = ScalarGrid.from_function(lat, lambda p: np.exp(p @ k))
        slot = diffops.PotentialSlot.from_particular_solution(f)
        g = ScalarGrid.from_function(lat, lambda p: np.exp(-(p @ k)))
        F = diffops.darboux_transform(slot, g)
        ratio = QuaternionGrid(lat, F.values / slot.f.values[..., None], F.margin)
        base = (n // 2, n // 2, n // 2)
        g_prime = diffops.antiderivative(ratio, base).values * slot.f.values

        box = tuple(slice(F.margin, d - F.margin) for d in lat.dims)
        diffs = (g_prime - g.values)[box]
        fs = slot.f.values[box]
        lam = np.vdot(fs, diffs) / np.vdot(fs, fs)
        prop = float(np.max(np.abs(diffs - lam * fs)))

        gp = np.where(np.isfinite(g_prime), g_prime, 0.0)
        schro = -laplacian(gp, lat.spacing) + slot.nu.values * gp
        return prop, max_abs_interior(schro, F.margin + 1), float(np.max(np.abs(fs)))

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

    # (ii) M annihilates the Green function at second order; (iii) first
    # root of J0 against an independent implementation
    rows, suite_wall = check_suite("green")
    ratio = rows["green_annihilated_by_M_order"]
    root_err = rows["bessel_j0_first_root"]
    assert in_ratio_window(ratio)
    assert root_err <= 1e-9

    wall += suite_wall
    assert wall < 30.0
    report(6, f"causality=0 exact, residual_ratio={ratio:.3f}, j0_root_err={root_err:.1e} wall={wall:.1f}s")


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
        f = ScalarGrid.from_function(
            lat, lambda p: 2.0 + np.sin(p[..., 0]) * np.cos(p[..., 1]) + 0.2 * p[..., 2] ** 2
        )
        return diffops.PotentialSlot.from_particular_solution(f)

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

    # consequence residuals: exact solutions keep all three at the
    # discrete-zero level, i.e. bounded by the same order
    scale = 1.0 / float(np.min(np.abs(slot_f.f.values)))
    worst = 0.0
    for W in quartet_f:
        worst = max(worst, *diffops.vekua_consequences(slot_f, W))
    assert worst <= 1e-11 * scale
    report(8, f"member_ratios={[f'{r:.2f}' for r in ratios]} consequence_max={worst:.2e}")


# ---------------------------------------------------------------------------
# 9. chiral MFS self-test
# ---------------------------------------------------------------------------


def test_criterion_9_chiral_selftest():
    med = ChiralMedium(beta=0.1, alpha=1 + 0.3j)
    small = chiral_selftest(med, 10)
    big = chiral_selftest(med, 35)
    b_gain = small.boundary_error / big.boundary_error
    f_gain = small.far_error / big.far_error
    assert b_gain >= 100.0
    assert f_gain >= 100.0
    report(
        9,
        f"boundary {small.boundary_error:.3e}->{big.boundary_error:.3e} ({b_gain:.0f}x), "
        f"far {small.far_error:.3e}->{big.far_error:.3e} ({f_gain:.0f}x)",
    )
