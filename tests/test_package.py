import ast
import math
import types
from pathlib import Path

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
