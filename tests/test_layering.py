"""The package's import layering, read from the source with ``ast``.

Every import sits at module level, and a module imports only the modules
before it in ``LAYERS``, so the package has no import cycle. No module
reaches for another module's private (``_``-prefixed) names, so each
module's internals stay its own. The package's ``__all__`` lists exactly
the names it exports.
"""

import ast
from pathlib import Path
from types import ModuleType

import pytest

import treetweak

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


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def dotted(node):
    """``a.b.c`` for a chain of attribute reads on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


@pytest.mark.parametrize("name", LAYERS)
def test_no_private_names_from_other_modules(name):
    tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
    # What each local name bound by a package import stands for:
    # ``import treetweak.m`` binds treetweak, ``import treetweak.m as a``
    # and ``from treetweak import m`` bind the module.
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] != "treetweak":
                    continue
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    bound["treetweak"] = "treetweak"
        elif isinstance(node, ast.ImportFrom) and package_modules(node) == ["treetweak"]:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"treetweak.{alias.name}"
    modules = {"treetweak"} | {f"treetweak.{module}" for module in LAYERS}

    def resolved(node):
        head, _, rest = (dotted(node) or "").partition(".")
        return head in bound and ".".join(filter(None, (bound[head], rest)))

    imported = [
        f"line {node.lineno}: imports {alias.name} from {module}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for module in package_modules(node)
        for alias in node.names
        if private(alias.name)
    ]
    read = [
        f"line {node.lineno}: reads {dotted(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and private(node.attr)
        and resolved(node.value) in modules
    ]
    assert imported + read == []


def test_all_lists_exactly_the_public_names_of_the_package():
    # An export left behind by a removed function, or a name imported into
    # the package but not listed, fails here.
    public = {
        name
        for name, value in vars(treetweak).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(treetweak.__all__) == sorted(public | {"__version__"})
