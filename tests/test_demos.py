"""Every demo script, and every ```python block of README.md, runs to
completion against the library in src/, with sympy imports blocked: sympy
is a test-only dependency."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# None in sys.modules makes every `import sympy` raise ImportError
RUN_WITHOUT_SYMPY = "import runpy, sys; sys.modules['sympy'] = None; runpy.run_path(sys.argv[1], run_name='__main__')"


def run_without_sympy(script: Path) -> subprocess.CompletedProcess:
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", RUN_WITHOUT_SYMPY, str(script)], env=env, capture_output=True, text=True, timeout=300
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    proc = run_without_sympy(demo)
    assert proc.returncode == 0, proc.stderr


def test_readme_python_blocks_run(tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), flags=re.S | re.M)
    assert blocks  # the library quick start at least
    for i, block in enumerate(blocks):
        script = tmp_path / f"readme_block_{i}.py"
        script.write_text(block)
        proc = run_without_sympy(script)
        assert proc.returncode == 0, f"README python block {i}:\n{proc.stderr}"
