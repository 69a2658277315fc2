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


# every CLI job pays what the package's modules allocate when imported
_IMPORT_ALLOCATIONS = """
import sys, tracemalloc
import numpy  # not the package's: imported before the tracing starts
tracemalloc.start(50)
import dirichletlab.cli
package, per_module = sys.argv[1], {}
for trace in tracemalloc.take_snapshot().traces:
    # charge an allocation to the innermost package frame that made it, directly
    # or through a library call, but not to one that only imported the module
    for frame in reversed(trace.traceback):
        if frame.filename.startswith("<frozen importlib"):
            break
        if frame.filename.startswith(package):
            per_module[frame.filename] = per_module.get(frame.filename, 0) + trace.size
            break
for path, size in sorted(per_module.items()):
    print(size, path)
"""


def test_cli_import_allocates_little_per_module():
    package = str(Path(dirichletlab.__file__).parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(package).parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _IMPORT_ALLOCATIONS, package],
                         capture_output=True, text=True, env=env, check=True)
    sizes = {path: int(size) for size, path in (line.split(" ", 1)
                                                for line in out.stdout.splitlines())}
    assert Path(package, "cli.py") in map(Path, sizes)  # the walk found the package
    heavy = {path: size for path, size in sizes.items() if size > 256 * 1024}
    assert not heavy, f"import-time allocations over 256 KB: {heavy}"


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


# public names that only tests call, each kept for a stated reason
TEST_FACING = {
    # acceptance oracles (tests/test_acceptance.py imports them)
    "evaluate": "criterion 05 evaluates F at the kernel's anchor",
    "poly_from_coeffs": "criterion 05 builds its random polynomials",
    "hw_inner": "criterion 05's reproducing identity <F, k_xi>",
    "hw_kernel": "criterion 05's reproducing kernel k_xi",
    # the dual-bump lower bound the embed command is to report
    "make_bump": "the dual bump of the exact two-sided embedding constant",
    "TestBump": "the dual bump of the exact two-sided embedding constant",
    "duality_sum": "the dual bump of the exact two-sided embedding constant",
}


def test_public_names_are_reached():
    # a public top-level def or class must be referenced outside its own body
    # by a package module other than __init__.py, or be listed in TEST_FACING
    root = Path(dirichletlab.__file__).parent
    defs, refs = [], []
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defs += [(path.name, node) for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and not node.name.startswith("_")]
        if path.name == "__init__.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute):
                refs.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                refs += [(path.name, node.lineno, alias.name) for alias in node.names]
    assert set(TEST_FACING) <= {node.name for _, node in defs}
    unreached = [f"{module}:{node.name}" for module, node in defs
                 if node.name not in TEST_FACING
                 and not any(name == node.name and not (
                     module == where and node.lineno <= line <= node.end_lineno)
                     for where, line, name in refs)]
    assert not unreached, f"public names nothing in the package reaches: {unreached}"


def test_init_imports_nothing():
    # library code imports each name from its defining module
    tree = ast.parse(Path(dirichletlab.__file__).read_text(encoding="utf-8"))
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not found, f"__init__.py imports on lines {found}"


# defaulted parameters that no package call passes, each kept for a stated reason
UNPASSED_DEFAULTS = {
    "main.argv": "the console entry point reads sys.argv; tests pass a list",
    "make_bump.center": "the dual bump of the exact two-sided embedding constant",
    "make_bump.halfwidth": "the dual bump of the exact two-sided embedding constant",
}


def _defaulted_parameters(fn, offset=0):
    """(position, name) of the defaulted parameters of a def; a position
    counts from the call's first argument, offset parameters (self) before it."""
    a = fn.args
    positional = a.posonlyargs + a.args
    first = len(positional) - len(a.defaults)
    out = [(i - offset, p.arg) for i, p in enumerate(positional) if i >= first]
    return out + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _defaulted_fields(cls):
    """(position, name) of the defaulted fields of a dataclass or NamedTuple
    class, in the order of its generated constructor; None if it is neither.
    A dataclass field(init=False) is not a constructor parameter."""
    def named(node, name):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", getattr(node, "attr", None)) == name

    def init_false(value):
        return isinstance(value, ast.Call) and named(value, "field") and any(
            k.arg == "init" and getattr(k.value, "value", True) is False for k in value.keywords)

    if not (any(named(d, "dataclass") for d in cls.decorator_list)
            or any(named(b, "NamedTuple") for b in cls.bases)):
        return None
    fields = [f for f in cls.body if isinstance(f, ast.AnnAssign)
              and isinstance(f.target, ast.Name) and not init_false(f.value)]
    return [(i, f.target.id) for i, f in enumerate(fields) if f.value is not None]


def test_defaulted_parameters_are_passed():
    # a defaulted parameter of a public top-level function, of the __init__
    # of a public top-level class, or a defaulted field of a public
    # dataclass or NamedTuple, must be passed, by name or by position, by a
    # package call outside the definition's own body, or be listed in
    # UNPASSED_DEFAULTS: a default that every caller keeps is a constant
    root = Path(dirichletlab.__file__).parent
    funcs, calls = [], []  # funcs: (module, label, callee name, node, defaulted)
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                funcs.append((path.name, node.name, node.name, node, _defaulted_parameters(node)))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                # a call of the class passes self implicitly: its arguments
                # sit one position before __init__'s parameters
                funcs += [(path.name, f"{node.name}.__init__", node.name, init,
                           _defaulted_parameters(init, 1))
                          for init in node.body
                          if isinstance(init, ast.FunctionDef) and init.name == "__init__"]
                fields = _defaulted_fields(node)
                if fields is not None:
                    funcs.append((path.name, node.name, node.name, node, fields))
        calls += [(path.name, node) for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def callee(call):
        f = call.func
        return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)

    def passes(call, index, name):
        # a *args or **kwargs at the call site may carry any parameter
        by_position = index is not None and (
            len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args))
        return by_position or any(k.arg in (name, None) for k in call.keywords)

    unpassed = []
    for module, label, name_called, fn, defaulted in funcs:
        outside = [call for where, call in calls if callee(call) == name_called
                   and not (where == module and fn.lineno <= call.lineno <= fn.end_lineno)]
        unpassed += [f"{label}.{name}" for index, name in defaulted
                     if not any(passes(call, index, name) for call in outside)]
    assert sorted(unpassed) == sorted(UNPASSED_DEFAULTS), (
        f"defaulted parameters no package call passes: {sorted(unpassed)}")
