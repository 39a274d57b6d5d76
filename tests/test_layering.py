"""The package's import layering, read from the source with ``ast``.

Every import sits at module level, and a module imports only the modules
before it in ``LAYERS``, so the package has no import cycle.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "treetweak"
LAYERS = ["errors", "costs", "feature_space", "forest", "trainer", "tweaker", "recommend", "cli"]
IMPORTS = (ast.Import, ast.ImportFrom)
BODIES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def package_modules(node):
    """The ``treetweak`` modules an import statement names (a relative
    import resolved against the package)."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.level:
        names = ["treetweak" + (f".{node.module}" if node.module else "")]
    else:
        names = [node.module]
    return [name for name in names if name.split(".")[0] == "treetweak"]


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_imports_are_at_module_level_and_point_down(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    allowed = {f"treetweak.{module}" for module in LAYERS[: LAYERS.index(name)]}
    if name == "cli":
        allowed.add("treetweak")  # for __version__
    nested = [
        f"line {node.lineno}: import inside {body.name}"
        for body in ast.walk(tree)
        if isinstance(body, BODIES)
        for node in ast.walk(body)
        if isinstance(node, IMPORTS)
    ]
    upward = [
        f"line {node.lineno}: imports {module}"
        for node in ast.walk(tree)
        if isinstance(node, IMPORTS)
        for module in package_modules(node)
        if module not in allowed
    ]
    assert nested + upward == []
