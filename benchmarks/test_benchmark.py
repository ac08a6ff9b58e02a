"""Tests of the benchmark's own parts: span arithmetic, output checks and the closed forms.

    python3 -m pytest benchmarks/test_benchmark.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_self_time_subtracts_children_and_counts_only_its_pass():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 1, None],
        ["chiral_time.green_residual", 1.0, 9.0, 0, 1, None],
        ["grids.diff", 2.0, 3.0, 1, 1, 800],
        ["grids.dirac", 4.0, 8.0, 1, 1, None],
        ["grids.diff", 5.0, 7.0, 3, 1, 1600],
        ["grids.diff", 0.0, 100.0, -1, 2, 800],
    ]
    m = tracing.pass_metrics(spans, 1)
    assert m["cli.self_s"] == 2.0
    assert m["chiral_time.green_residual_s"] == 3.0
    assert m["grids.dirac_s"] == 2.0
    assert m["grids.diff_s"] == 3.0
    assert m["grids.diff.calls"] == 2
    assert m["grids.diff.mb"] == 2400 / 1e6


def test_outermost_calls_are_not_counted_twice():
    spans = [
        ["inhomog.quaternionic_residual", 0.0, 4.0, -1, 0, None],
        ["inhomog.maxwell_residuals", 1.0, 2.0, 0, 0, None],
        ["inhomog.split_residuals", 5.0, 6.0, -1, 0, None],
    ]
    assert tracing.pass_metrics(spans, 0)["inhomog.residuals_s"] == 5.0


def test_importtime_parse_charges_outermost_package_imports(monkeypatch):
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy._core",
        "import time:        50 |        150 |     numpy",
        "import time:        30 |         30 |       mpmath",
        "import time:        20 |         50 |     sympy",
        "import time:        10 |        210 |   bqem.algebra",
        "import time:         5 |        215 | bqem",
    ])

    class Done:
        returncode = 0

    Done.stderr = stderr
    monkeypatch.setattr(run, "run_process", lambda argv, env: Done)
    out = run.import_layers({})
    assert out == pytest.approx({"numpy": 150e-6, "scipy": 0.0, "sympy": 50e-6, "bqem": 15e-6})


CHECK_CSV = """\
# command: check
suite,check,value,lo,hi,status
algebra,associativity,1e-16,0.0,1e-12,pass
green,refinement_ratio,2.1,3.2,4.8,FAIL
"""
CHECK_CMD = {"argv": ["check", "all", "--seed", "0"], "check": "check"}


def test_check_rows_out_of_window_is_a_wrong_output_not_a_failed_operation():
    assert checks.completed(CHECK_CMD, 1, CHECK_CSV)
    errors = checks.check_output(CHECK_CMD, 1, CHECK_CSV, [], [])
    assert errors == ["check green.refinement_ratio: 2.1 outside [3.2, 4.8]", "check: exit code 1"]


def test_check_rows_pass_only_with_every_row_in_window_and_exit_code_0():
    passing = CHECK_CSV.replace("2.1,", "4.0,").replace("FAIL", "pass")
    assert checks.check_output(CHECK_CMD, 0, passing, [], []) == []
    assert checks.check_output(CHECK_CMD, 1, passing, [], []) == ["check: exit code 1"]
    # A row out of its window is caught even if the program marks it as passing.
    assert len(checks.check_output(CHECK_CMD, 0, CHECK_CSV.replace("FAIL", "pass"), [], [])) == 1


def test_errors_without_output_are_failed_operations():
    assert not checks.completed(CHECK_CMD, 1, "")
    assert not checks.completed(CHECK_CMD, 2, "")
    assert not checks.completed(CHECK_CMD, -1, CHECK_CSV)
    assert not checks.completed({"check": "scatter"}, 1, "N,errE\n10,1e-3\n")


def _curl(f, x, h=1e-5):
    J = np.empty((3, 3), dtype=complex)  # J[i, j] = d f_i / d x_j
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        J[:, j] = (f(x + e) - f(x - e)) / (2 * h)
    return np.array([J[2, 1] - J[1, 2], J[0, 2] - J[2, 0], J[1, 0] - J[0, 1]])


def test_dipole_field_is_curl_of_moment_times_theta_and_h_is_its_curl():
    alpha, m = 1.0 + 0.3j, np.array([0.3, -0.5, 0.8])
    x = np.array([2.0, -1.0, 1.5])

    def potential(p):
        r = np.linalg.norm(p)
        return -np.exp(1j * alpha * r) / (4 * np.pi * r) * m

    E, H = reference.dipole_field(m, alpha, x[None])
    np.testing.assert_allclose(E[0], _curl(potential, x), rtol=1e-7)
    curl_E = _curl(lambda p: reference.dipole_field(m, alpha, p[None])[0][0], x)
    np.testing.assert_allclose(H[0], -curl_E / (1j * alpha), rtol=1e-6)


def test_green_function_is_causal_and_decays_to_kernel_at_t_zero():
    x = np.array([1.0, 0.5, -0.3])
    assert not np.any(reference.green_function(-0.1, x, 1.0, 1.0, 1.0))
    # t = 0+: f = E(x) 1j B(x), i.e. K_{1/beta}(x) / (beta sqrt(eps mu)) with
    # K(+a) = (a + x/|x|^2 - 1j a x/|x|) theta_a and theta_a = -exp(1j a r)/(4 pi r).
    r = np.linalg.norm(x)
    theta = -np.exp(1j * r) / (4 * np.pi * r)
    K = np.concatenate([[1.0], x / r**2 - 1j * x / r]) * theta
    np.testing.assert_allclose(reference.green_function(0.0, x, 1.0, 1.0, 1.0), K, rtol=1e-14)
