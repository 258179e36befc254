import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import flagbound

ROOT = Path(__file__).resolve().parent.parent
DEMOS = [
    "chamber_counts",
    "flag_sum_lower_bound",
    "homology_identities",
    "order_invariance",
    "threshold_census",
]


def flagbound_imports(source):
    """(module, name) for every `from flagbound... import name` in source."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "flagbound":
            out.extend((node.module, alias.name) for alias in node.names)
    return out


def assert_resolves(imports):
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_bench_selftest_passes():
    # The benchmark reads the flat table and the homology slice; its own
    # self-test is the one place that runs that code.
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("name", DEMOS)
def test_demo_imports_resolve(name):
    assert_resolves(flagbound_imports((ROOT / "demos" / f"{name}.py").read_text("utf-8")))


def test_readme_imports_resolve():
    readme = (ROOT / "README.md").read_text("utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    imports = [item for block in blocks for item in flagbound_imports(block)]
    assert_resolves(imports)
    # The package exports exactly the quick-start names and the error they raise.
    quick_start = {name for module, name in imports if module == "flagbound"}
    assert sorted(flagbound.__all__) == sorted(quick_start | {"GuardError"})
