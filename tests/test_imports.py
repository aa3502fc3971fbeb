"""Import hygiene of the package and its tests: no unused module-level imports, no local
package imports, and numpy only where the float code is."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "waverep"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {ast.literal_eval(e) for e in node.value.elts}
    return set()


@pytest.mark.parametrize(
    "path", MODULES + sorted(TESTS.glob("*.py")), ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}"
)
def test_no_unused_module_imports(path):
    tree = _tree(path)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # the package __init__ re-exports what it imports
    if path.name == "__init__.py":
        used |= set(bound)
    used |= _exported(tree)
    unused = sorted(f"{name} (line {line})" for name, line in bound.items() if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_local_package_imports(path):
    local = []
    for fn in ast.walk(_tree(path)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("waverep")
            ):
                local.append(f"{fn.name} (line {node.lineno})")
            elif isinstance(node, ast.Import) and any(
                a.name.startswith("waverep") for a in node.names
            ):
                local.append(f"{fn.name} (line {node.lineno})")
    assert not local, f"{path.name}: function-local package imports in {local}"


def _imports_numpy(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[0] == "numpy" for a in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy"


def test_numpy_only_in_the_float_modules():
    # the float code: the sampled tiling pass at module level; the box mask, the Gram quadrature
    # and the Gram result's ndarray import numpy when they run, so the exact layers, the
    # closed-form Gram and the CLI load without numpy of their own
    numpy_modules, numpy_functions = set(), set()
    for path in MODULES:
        tree = _tree(path)
        if any(_imports_numpy(node) for node in tree.body):
            numpy_modules.add(path.stem)
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(map(_imports_numpy, ast.walk(fn))):
                numpy_functions.add(f"{path.stem}.{fn.name}")
    assert numpy_modules == {"tiling"}
    assert numpy_functions == {"boxes.contains_rows", "gram._gram_quadrature", "gram.matrix"}


def test_exact_library_work_loads_no_numpy():
    # in a fresh interpreter: exact fiber_operator, to_layers, isometry_defect, approx_character,
    # mean_coefficient and closed-form gram_matrix calls, then numpy absent from sys.modules
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, str(TESTS / "check_exact_layers.py")]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("path", [p for p in MODULES if _exported(_tree(p))], ids=lambda p: p.name)
def test_all_lists_the_public_definitions(path):
    # every public top-level function or class is listed, and every listed name is bound
    tree = _tree(path)
    exported = _exported(tree)
    defined = {
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    bound = set(defined)
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Assign):
            bound |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    assert sorted(defined - exported) == [], f"{path.name}: public definitions missing from __all__"
    assert sorted(exported - bound) == [], f"{path.name}: __all__ names nothing bound"
