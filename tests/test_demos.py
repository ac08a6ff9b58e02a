"""Every demo script runs to completion against the library in src/, with
sympy imports blocked: sympy is a test-only dependency."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# None in sys.modules makes every `import sympy` raise ImportError
RUN_WITHOUT_SYMPY = "import runpy, sys; sys.modules['sympy'] = None; runpy.run_path(sys.argv[1], run_name='__main__')"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_SYMPY, str(demo)], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
