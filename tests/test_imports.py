"""Every module-level import in the package is used by its module, and
every private module-level name is used by some module of the package.

No linter runs on this repository, so dead imports and private helpers
left behind by a deletion would otherwise go unnoticed.  __init__.py is
excluded from the import check: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "znhg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PACKAGE = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_unused_imports_detected():
    source = "import os\nimport json as j\nfrom math import inf, pi\nprint(pi)\n"
    assert unused_imports(source) == ["os", "j", "inf"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def _defined_names(stmt) -> list[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """module:name for each private module-level name (one leading
    underscore, not a dunder) that no statement of any of the sources
    references, its own definition aside."""
    defined, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            own = _defined_names(stmt)
            defined += [(module, name) for name in own
                        if name.startswith("_") and not name.endswith("__")]
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute)
                        else None)
                if name is not None and name not in own:
                    used.add(name)
    return [f"{module}:{name}" for module, name in defined
            if name not in used]


def test_unused_private_names_detected():
    sources = {
        "a": "_used = 1\n_dead = 2\n__all__ = []\n"
             "def _recursive(k):\n    return _recursive(k - 1)\n"
             "def public():\n    return _used\n",
        "b": "from . import a\n_TABLE: dict = {}\n"
             "def _called():\n    return a._elsewhere\n",
        "c": "_elsewhere = 3\nprint(_called())\n",
    }
    assert unused_private_names(sources) == ["a:_dead", "a:_recursive",
                                             "b:_TABLE"]


def test_no_unused_private_names():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    assert unused_private_names(sources) == []
