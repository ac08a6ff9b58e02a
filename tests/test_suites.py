"""The rows of ``bqem check``: their names, and the oracles' reach.

The three oracle rows check the normalizations of K_alpha and of the Green
function against the equations they solve.  Each test below puts one wrong
constant into the code and asserts that an oracle row leaves its window.
"""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bqem import chiral_time, diffops, inhomog, kernels, suites
from bqem.algebra import _mul_components
from bqem.grids import dirac

ORACLES = ("delta_strength", "unit_jump", "laplace_transform_is_chiral_kernel")

ORDER, CONTROL, EXACT = "order", "control", "exact"

# Every (suite, check, kind) row of `bqem check all`, in order: dropping or
# renaming a row is an edit here.  The kind is ORDER (a refinement ratio),
# CONTROL (a negative control), EXACT (zero, or rounding under 1e-12) or,
# for a row with any other window, the id of its case in WRONG_CONSTANTS:
# the wrong constant that moves it out of that window.
CHECK_ROWS = [
    ("algebra", "unit_table_i1i2_minus_i3", EXACT),
    ("algebra", "unit_element", EXACT),
    ("algebra", "zero_divisor_product", EXACT),
    ("algebra", "associativity", EXACT),
    ("algebra", "conjugation_antiautomorphism", EXACT),
    ("algebra", "scalar_vector_reconstruction", EXACT),
    ("algebra", "pure_vector_square", EXACT),
    ("kernels", "delta_strength", "theta0_times_2"),
    ("kernels", "helmholtz_pde_residual_order", ORDER),
    ("kernels", "gradient_matches_fd", "G_sign"),
    ("kernels", "dipole_curl_E_plus_jaH", "curl_curl_sign"),
    ("kernels", "silver_mueller_decay", "curl_curl_sign"),
    ("factorizations", "helmholtz_identity_order", ORDER),
    ("factorizations", "schrodinger_identity_order", ORDER),
    ("factorizations", "conductivity_identity_order", ORDER),
    ("factorizations", "conductivity_negative_control", CONTROL),
    ("factorizations", "darboux_closed_form", "F_times_2"),
    ("factorizations", "darboux_dirac_residual", "w_sign"),
    ("factorizations", "antiderivative_order", ORDER),
    ("factorizations", "vekua_quartet_order", ORDER),
    ("factorizations", "vekua_negative_control", CONTROL),
    ("factorizations", "vekua_coefficient_identity_order", ORDER),
    ("green", "causality_t_negative", EXACT),
    ("green", "unit_jump", "sqrt_em_read_as_em"),
    ("green", "laplace_transform_is_chiral_kernel", "Q_times_2"),
    ("green", "green_annihilated_by_M_order", ORDER),
    ("green", "wave_operator_factorization_order", ORDER),
    ("inhomog", "quaternionic_equation_order", ORDER),
    ("inhomog", "maxwell_eq1_order", ORDER),
    ("inhomog", "maxwell_eq2_order", ORDER),
    ("inhomog", "maxwell_eq3_order", ORDER),
    ("inhomog", "static_split_order", ORDER),
    ("inhomog", "violation_div_eps_E", CONTROL),
    ("inhomog", "violation_div_mu_H", CONTROL),
    ("inhomog", "violation_ampere", CONTROL),
    ("inhomog", "violation_rho_data", CONTROL),
]


def run_all():
    return suites.run_suites(list(suites.SUITES))


def oracle_rows():
    return {r.name: r for r in suites.suite_kernels() + suites.suite_green() if r.name in ORACLES}


def test_check_rows_are_pinned():
    assert len(CHECK_ROWS) == 36
    assert [(r.suite, r.name) for r in run_all()] == [(suite, name) for suite, name, _ in CHECK_ROWS]


def test_every_window_row_has_a_wrong_constant_case():
    order_windows = {(suites.RATIO_LO, suites.RATIO_HI), (suites.RATIO4_LO, suites.RATIO4_HI)}
    for row, (_, _, kind) in zip(run_all(), CHECK_ROWS):
        if kind == ORDER:
            assert (row.lo, row.hi) in order_windows, row
        elif kind == CONTROL:
            assert row.lo >= 10.0 and row.hi == np.inf, row
        elif kind == EXACT:
            assert row.lo == 0.0 and row.hi <= 1e-12, row
        else:
            assert kind in WRONG_CONSTANTS, row


def _green_factor_times_2(factor):
    green_factors = chiral_time._green_factors

    def patched(x, medium):
        a, c, P, Q, c_range = green_factors(x, medium)
        return a, c, 2 * P if factor == "P" else P, 2 * Q if factor == "Q" else Q, c_range

    return patched


def _sqrt_em_read_as_em():
    green_factors = chiral_time._green_factors

    def patched(x, medium):
        # the factors of a medium whose sqrt(eps mu) is this one's eps mu
        return green_factors(x, replace(medium, eps=(medium.eps * medium.mu) ** 2, mu=1.0))

    return patched


def _theta_times_2(at_zero):
    theta_and_radial = kernels._theta_and_radial

    def patched(alpha, x):
        x, r, theta, G = theta_and_radial(alpha, x)
        k = 2.0 if (complex(alpha) == 0) == at_zero else 1.0
        return x, r, k * theta, k * G

    return patched


def _G_sign():
    theta_and_radial = kernels._theta_and_radial

    def patched(alpha, x):
        # G = theta (1j alpha r + 1) / r^2, the -1 read as +1
        x, r, theta, G = theta_and_radial(alpha, x)
        return x, r, theta, G + 2.0 * theta / (r * r)

    return patched


def _curl_curl_sign():
    curls = kernels._curls

    def patched(alpha, x, moment):
        # H of the other sign: the field of an incoming wave
        curl, curl_curl = curls(alpha, x, moment)
        return curl, -curl_curl

    return patched


def _darboux_times_2():
    darboux_transform = diffops.darboux_transform
    return lambda slot, g: 2.0 * darboux_transform(slot, g)


def _df_over_f_sign():
    df_over_f = diffops.PotentialSlot.df_over_f
    # D - M^w in place of D + M^w
    return lambda slot: -df_over_f(slot)


def _c_read_as_1_over_eps_mu():
    coefficients = inhomog._quaternionic_coefficients

    def patched(medium):
        # sqrt(eps mu) read as eps mu: c = 1/(eps mu)
        c, i_cvec, i_Wvec = coefficients(medium)
        return c * c, i_cvec, i_Wvec

    return patched


def _cumulative_trapezoid_from(f, base, h, axis=0):
    # the trapezoid rule, second order, where diffops integrates by Simpson's
    f = np.moveaxis(np.asarray(f, dtype=complex), axis, 0)
    out = np.zeros_like(f)
    np.cumsum(0.5 * h * (f[1:] + f[:-1]), axis=0, out=out[1:])
    return np.moveaxis(out - out[base], 0, axis)


def _vekua_image_without_C_H(slot, W):
    return dirac(W, slot.lattice.spacing) - _mul_components(slot.df_over_f(), W)


# id: (module or class, attribute, its wrong version)
WRONG_CONSTANTS = {
    "P_times_2": (chiral_time, "_green_factors", _green_factor_times_2("P")),
    "Q_times_2": (chiral_time, "_green_factors", _green_factor_times_2("Q")),
    "sqrt_em_read_as_em": (chiral_time, "_green_factors", _sqrt_em_read_as_em()),
    "theta_times_2": (kernels, "_theta_and_radial", _theta_times_2(at_zero=False)),
    "theta0_times_2": (kernels, "_theta_and_radial", _theta_times_2(at_zero=True)),
    "G_sign": (kernels, "_theta_and_radial", _G_sign()),
    "curl_curl_sign": (kernels, "_curls", _curl_curl_sign()),
    "F_times_2": (diffops, "darboux_transform", _darboux_times_2()),
    "w_sign": (diffops.PotentialSlot, "df_over_f", _df_over_f_sign()),
    "c_read_as_1_over_eps_mu": (inhomog, "_quaternionic_coefficients", _c_read_as_1_over_eps_mu()),
    "trapezoid_rule": (diffops, "_cumulative_simpson_from", _cumulative_trapezoid_from),
    "vekua_image_without_C_H": (diffops, "_vekua_image", _vekua_image_without_C_H),
}

ORACLE_CASES = ["P_times_2", "Q_times_2", "sqrt_em_read_as_em", "theta_times_2", "theta0_times_2"]


@pytest.mark.parametrize("module, name, wrong", [WRONG_CONSTANTS[case] for case in ORACLE_CASES], ids=ORACLE_CASES)
def test_a_wrong_constant_leaves_an_oracle_window(monkeypatch, module, name, wrong):
    monkeypatch.setattr(module, name, wrong)
    rows = oracle_rows()
    failed = [n for n, r in rows.items() if not r.passed]
    assert failed, {n: r.value for n, r in rows.items()}
    assert all(rows[n].value > 0.1 for n in failed)


# (case, suite, check): each window row under its case, and the order rows
# whose data a wrong quadrature, a dropped conjugation or a misread wave
# speed would pass
CASE_ROWS = [(kind, suite, name) for suite, name, kind in CHECK_ROWS if kind in WRONG_CONSTANTS] + [
    ("trapezoid_rule", "factorizations", "antiderivative_order"),
    ("vekua_image_without_C_H", "factorizations", "vekua_quartet_order"),
    ("c_read_as_1_over_eps_mu", "inhomog", "quaternionic_equation_order"),
]


@pytest.mark.parametrize("case, suite, name", CASE_ROWS, ids=[f"{case}-{name}" for case, _, name in CASE_ROWS])
def test_a_wrong_constant_leaves_its_window(monkeypatch, case, suite, name):
    monkeypatch.setattr(*WRONG_CONSTANTS[case])
    (row,) = [r for r in suites.SUITES[suite]() if r.name == name]
    assert not row.passed, row


def test_rows_named_in_the_docs_exist():
    # a `suite,check` pair in the README, a demo or a bqem docstring names a
    # row of `bqem check all`
    root = Path(__file__).resolve().parents[1]
    named_row = re.compile(r"\b(" + "|".join(suites.SUITES) + r"),(\w+)")
    docs = [root / "README.md", *sorted((root / "demos").glob("*.py")), *sorted((root / "src" / "bqem").glob("*.py"))]
    named = {(doc.name, m.groups()) for doc in docs for m in named_row.finditer(doc.read_text(encoding="utf-8"))}
    rows = {(suite, name) for suite, name, _ in CHECK_ROWS}
    assert len(named) >= 5
    assert [(doc, row) for doc, row in named if row not in rows] == []
