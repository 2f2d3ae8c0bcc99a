"""Static checks on the package source: no dead imports, no dead
helpers, no docstring that names a private helper that is gone, a
package ``__all__`` that lists exactly what the package imports, a
docstring on every function and class it exports, and no syntax newer
than the Python floor that ``pyproject.toml`` declares.

The scans read ``src/trienum/*.py`` with ``ast``; nothing is imported.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "trienum"


def _modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def _loaded_names(tree):
    """How often the tree reads each identifier, as a bare name or an
    attribute."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


def test_sources_found():
    assert {"graph.py", "separators.py", "triangulate.py"} <= set(_modules())


def _unused_imports(tree):
    """The names that the tree's imports bind and that it never reads:
    ``import x``, ``import x.y`` (which binds x), and relative or
    absolute ``from x import y``. ``__future__`` imports bind nothing."""
    used = _loaded_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unused += [name for name in bound if name not in used]
    return unused


def test_no_unused_package_imports():
    leftover = "from __future__ import annotations\nimport os.path\nimport time\n"
    leftover += "from collections import deque\nfrom .graph import bits\ntime.sleep\n"
    # the scan catches absolute imports as well as relative ones
    assert _unused_imports(ast.parse(leftover)) == ["os", "deque", "bits"]
    unused = [
        f"{name}: {bound}"
        for name, tree in _modules().items()
        if name != "__init__.py"  # re-exports
        for bound in _unused_imports(tree)
    ]
    assert unused == []


def test_no_unreferenced_private_functions():
    modules = _modules()
    used = sum(map(_loaded_names, modules.values()), Counter())
    dead = [
        f"{name}: {node.name}"
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        # reads inside its own body (recursion) do not count
        and used[node.name] == _loaded_names(node)[node.name]
    ]
    assert dead == []


def _defined_names(tree):
    """Every name the tree binds: functions, classes and assignment
    targets."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            doc = ast.get_docstring(node)
            if doc:
                yield doc


def test_docstrings_name_only_defined_private_helpers():
    modules = _modules()
    defined = set().union(*map(_defined_names, modules.values()))
    stale = [
        f"{name}: {ref}"
        for name, tree in modules.items()
        for doc in _docstrings(tree)
        # ``_helper`` or ``module._helper``; dunders are Python's own
        for ref in re.findall(r"``(?:[\w.]*\.)?(_\w+)``", doc)
        if not ref.startswith("__") and ref not in defined
    ]
    assert stale == []


def _package_all(tree):
    """The names in ``__all__`` of the package's ``__init__`` tree."""
    exported = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    )
    return [ast.literal_eval(element) for element in exported.elts]


def test_package_all_lists_its_imports():
    tree = _modules()["__init__.py"]
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    names = _package_all(tree)
    assert names == sorted(names)
    assert len(names) == len(set(names))
    assert set(names) == set(imported)


def test_exported_functions_and_classes_have_docstrings():
    modules = _modules()
    exported = set(_package_all(modules["__init__.py"]))
    defs = [
        (name, node)
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name in exported
    ]
    assert len(defs) > 40
    bare = [f"{name}: {node.name}" for name, node in defs if not ast.get_docstring(node)]
    assert bare == []


def test_sources_parse_at_the_declared_python_floor():
    floor = (3, 10)
    pyproject = (SRC.parents[1] / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in pyproject
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    # the scan catches what the floor cannot run, such as except*
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=floor)
    for path in sorted(SRC.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)
