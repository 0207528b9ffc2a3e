"""The demos under ``demos/`` still run against the package API."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def run_demo(name, cwd, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, str(DEMOS / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_monotone_demo_runs(tmp_path):
    # the one demo that imports from the top-level package; about a second
    proc = run_demo("01_monotone_heaviside_1d.py", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "inverse scaling" in proc.stdout


def test_distortion_demo_runs(tmp_path):
    # a 40x40 graded quadratic patch; well under a second
    out = tmp_path / "out"
    proc = run_demo("02_distortion_test.py", tmp_path, str(out))
    assert proc.returncode == 0, proc.stderr
    assert (out / "distortion_summary.csv").is_file()
    assert (out / "manifest.txt").is_file()
    assert len(list(out.glob("heaviside_*.vtk"))) == 12


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("0[2-5]_*.py")))
def test_demo_imports_resolve(demo):
    # demo 02 also runs end to end above; demos 03-05 run cases of minutes,
    # so only their imports are checked
    tree = ast.parse((DEMOS / demo).read_text())
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module
               and node.module.split(".")[0] == "levelset"
               for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
