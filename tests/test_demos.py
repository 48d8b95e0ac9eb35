"""The quick demos run to the end.  The others (02, 03, 04, 06) fit grids
and take seconds each, so they are left to be run by hand; every demo's
``drc`` imports are checked to resolve.

A quick demo's stdout is ``tests/golden/demos/<demo>.txt`` byte for byte
where that file's first line, the numpy build and platform it was
recorded under, is this machine's ``golden.environment()``: its figures
are printed to the last digit shown.  Elsewhere the demo need only
report a loss.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", ["01_ray_loss_basics.py", "05_frustum_scene_grid.py"])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                                      os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "loss" in done.stdout
    recorded = golden.recorded_here(ROOT / "tests" / "golden" / "demos" / demo.replace(".py", ".txt"))
    if recorded is not None:
        assert done.stdout == recorded


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_imports_resolve(demo):
    """Each ``from drc[.x] import name`` of the demo names something that exists."""
    tree = ast.parse((ROOT / "demos" / demo).read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 0
               and node.module.split(".")[0] == "drc"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{demo}: {node.module} has no {alias.name}"
