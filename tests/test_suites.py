"""The rows of ``bqem check``: their names, and the oracles' reach.

The three oracle rows check the normalizations of K_alpha and of the Green
function against the equations they solve.  Each test below puts one wrong
constant into the code and asserts that an oracle row leaves its window.
"""

from dataclasses import replace

import pytest

from bqem import chiral_time, kernels, suites

ORACLES = ("delta_strength", "unit_jump", "laplace_transform_is_chiral_kernel")

# Every (suite, check) row of `bqem check all`, in order: dropping or
# renaming a row is an edit here.
CHECK_ROWS = [
    ("algebra", "unit_table_i1i2_minus_i3"),
    ("algebra", "unit_element"),
    ("algebra", "zero_divisor_product"),
    ("algebra", "associativity"),
    ("algebra", "conjugation_antiautomorphism"),
    ("algebra", "scalar_vector_reconstruction"),
    ("algebra", "pure_vector_square"),
    ("kernels", "delta_strength"),
    ("kernels", "helmholtz_pde_residual_order"),
    ("kernels", "gradient_matches_fd"),
    ("kernels", "dipole_curl_E_plus_jaH"),
    ("kernels", "silver_mueller_decay"),
    ("factorizations", "helmholtz_identity_order"),
    ("factorizations", "schrodinger_identity_order"),
    ("factorizations", "conductivity_identity_order"),
    ("factorizations", "conductivity_negative_control"),
    ("factorizations", "darboux_closed_form"),
    ("factorizations", "darboux_dirac_residual"),
    ("factorizations", "antiderivative_inverts_gradient"),
    ("factorizations", "vekua_quartet_residual"),
    ("factorizations", "vekua_negative_control"),
    ("factorizations", "scalar_product_identity"),
    ("factorizations", "vekua_coefficient_identity_order"),
    ("green", "causality_t_negative"),
    ("green", "unit_jump"),
    ("green", "laplace_transform_is_chiral_kernel"),
    ("green", "green_annihilated_by_M_order"),
    ("green", "wave_operator_factorization_order"),
    ("inhomog", "medium_gradient_identities"),
    ("inhomog", "quaternionic_equation_order"),
    ("inhomog", "maxwell_eq1_order"),
    ("inhomog", "maxwell_eq2_order"),
    ("inhomog", "maxwell_eq3_order"),
    ("inhomog", "maxwell_eq4_residual"),
    ("inhomog", "static_split_order"),
    ("inhomog", "violation_div_eps_E"),
    ("inhomog", "violation_div_mu_H"),
    ("inhomog", "violation_ampere"),
    ("inhomog", "violation_rho_data"),
]


def oracle_rows():
    return {r.name: r for r in suites.suite_kernels() + suites.suite_green() if r.name in ORACLES}


def test_check_rows_are_pinned():
    rows = suites.run_suites(list(suites.SUITES))
    assert len(CHECK_ROWS) == 39
    assert [(r.suite, r.name) for r in rows] == CHECK_ROWS


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


@pytest.mark.parametrize(
    "module, name, wrong",
    [
        (chiral_time, "_green_factors", _green_factor_times_2("P")),
        (chiral_time, "_green_factors", _green_factor_times_2("Q")),
        (chiral_time, "_green_factors", _sqrt_em_read_as_em()),
        (kernels, "_theta_and_radial", _theta_times_2(at_zero=False)),
        (kernels, "_theta_and_radial", _theta_times_2(at_zero=True)),
    ],
    ids=["P_times_2", "Q_times_2", "sqrt_em_read_as_em", "theta_times_2", "theta0_times_2"],
)
def test_a_wrong_constant_leaves_an_oracle_window(monkeypatch, module, name, wrong):
    monkeypatch.setattr(module, name, wrong)
    rows = oracle_rows()
    failed = [n for n, r in rows.items() if not r.passed]
    assert failed, {n: r.value for n, r in rows.items()}
    assert all(rows[n].value > 0.1 for n in failed)
