import ast
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dirichletlab


def test_zeta_module_is_not_shadowed():
    import dirichletlab.zeta as z

    assert isinstance(z, types.ModuleType)
    assert abs(z.zeta(2).real - math.pi**2 / 6.0) <= 1e-12


def test_no_function_level_imports():
    # an import inside a function hides an import cycle between modules
    found = []
    for path in sorted(Path(dirichletlab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"function-level imports: {sorted(set(found))}"


def test_cli_start_up_imports_no_scipy():
    # the runtime is numpy-only; scipy serves the tests as an oracle
    code = ("import sys, dirichletlab, dirichletlab.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(dirichletlab.__file__).parent.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_third_party_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    root = Path(dirichletlab.__file__).parent
    pyproject = root.parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("-", "_") for d in deps}
    used = set()
    for path in sorted(root.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                used.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                used.add(node.module.split(".")[0])
    third_party = {m for m in used if m not in sys.stdlib_module_names and m != "dirichletlab"}
    assert third_party <= declared, f"imported but not declared: {sorted(third_party - declared)}"
    assert third_party == {"numpy"}
