"""Smoke test: demos 01-06 run to completion (slow).  Demo 07 trains the whole
pipeline for minutes and is left out; the fast import guard below still
checks every demo, 07 included, against the package's names."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-6]_*.py"))


def test_demo_imports_exist():
    """Every name a demo imports from retrivox exists, without running it."""
    scripts = sorted((ROOT / "demos").glob("*.py"))
    assert scripts
    for script in scripts:
        for node in ast.walk(ast.parse(script.read_text(), filename=str(script))):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "retrivox":
                        importlib.import_module(alias.name)
            elif (isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "retrivox"):
                module = importlib.import_module(node.module)
                for alias in node.names:
                    assert (hasattr(module, alias.name)
                            or importlib.util.find_spec(f"{node.module}.{alias.name}")), \
                        f"{script.name} imports {alias.name} from {node.module}, which has none"


@pytest.mark.slow
def test_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.slow
@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
