"""Import budget: scipy.linalg and scipy.special load on first use only, and
no command loads sympy, which only the tests use; the exact set of names
``bqem`` exports; and no module imports a name it does not use.

Each import-budget case runs in a fresh interpreter so that sys.modules
starts clean.
"""

import ast
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import bqem
import bqem.inhomog

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
HEAVY = ("sympy", "scipy.linalg", "scipy.special")


def heavy_modules_after(code: str) -> set[str]:
    """Run ``code`` in a fresh interpreter; the HEAVY modules it left loaded."""
    script = f"{code}\nimport json, sys\nprint(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_import_bqem_loads_no_sympy_or_scipy_submodules():
    assert heavy_modules_after("import bqem") == set()


def test_import_cli_loads_no_sympy_or_scipy_submodules():
    assert heavy_modules_after("import bqem.cli") == set()


def test_green_eval_loads_neither_sympy_nor_scipy_linalg():
    loaded = heavy_modules_after(
        "from bqem import cli\n"
        "assert cli.main(['green-eval', '--t', '1', '--x', '0.3,0.2,0.1', '--beta', '1']) == 0"
    )
    assert "sympy" not in loaded and "scipy.linalg" not in loaded


def test_scatter_loads_no_sympy(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"ellipsoid": {"a": 5, "b": 3, "c": 2}, "n_values": [5]}))
    loaded = heavy_modules_after(
        f"from bqem import cli\nassert cli.main(['scatter', '--config', {str(cfg)!r}]) == 0"
    )
    assert "sympy" not in loaded
    assert "scipy.linalg" in loaded  # the dense solve did load it


def test_check_all_loads_neither_sympy_nor_scipy_linalg():
    loaded = heavy_modules_after("from bqem import cli\nassert cli.main(['check', 'all']) == 0")
    assert "sympy" not in loaded and "scipy.linalg" not in loaded


def test_inhomog_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        bqem.inhomog.no_such_name


# One spelling per operation: a name joins this list only with the routine it spells.
PUBLIC_NAMES = [
    "Biquaternion", "ChiralMedium", "EMState", "Ellipsoid", "I1", "I2", "I3", "Lattice",
    "MediumFields", "MfsProblem", "MfsSolution", "ONE", "PotentialSlot", "SpaceTimeLattice",
    "SurfaceSamples", "antiderivative", "assemble_system",
    "chiral_wavenumbers",
    "coefficients_to_vekua", "conductivity_factorization_residual", "cross",
    "darboux_transform", "dipole_field", "dirac_residual", "dot", "evaluate_fields",
    "fundamental_solution", "generating_quartet", "green_function", "green_refinement",
    "green_residual", "helmholtz_factorization_residual", "helmholtz_kernel",
    "manufactured_state", "maxwell_residuals", "quaternionic_residual", "run_benchmark",
    "sample_surface", "schrodinger_factorization_residual", "solve_dense", "solve_problem",
    "static_residuals",
    "vekua_coefficient_identity_residual", "vekua_residual",
]


def test_public_surface_is_pinned():
    exported = sorted(
        name for name, value in vars(bqem).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert len(PUBLIC_NAMES) == 44
    assert exported == PUBLIC_NAMES


def unused_imports(path: Path) -> list[str]:
    """The names ``path`` imports and never reads, as 'file:line: name'.

    ``import a.b`` binds ``a``; ``from __future__`` imports bind nothing.
    """
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line}: {name}" for name, line in bound.items() if name not in used]


def test_every_import_is_used():
    # bqem/__init__ imports to re-export; every other module reads what it imports
    paths = [p for p in sorted((SRC / "bqem").glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    assert len(paths) > 20
    assert [entry for p in paths for entry in unused_imports(p)] == []
