"""Every module-level import in the package is used by its module, every
private module-level name is used by some module of the package, and
every public one by some module, test or benchmark.  metrics.py, whose
certificate checkers re-check what verify.py produces, imports nothing
from verify.py, and verify.py reaches none of the searches that the
certificates replace.  No module passes indent= to a json function,
which would run CPython's pure-Python encoder: verify.dumps writes every
document.

No linter runs on this repository, so dead imports and helpers left
behind by a deletion would otherwise go unnoticed.  __init__.py is
excluded from the import check and from the public-name check: its
imports are the package's re-exports, which alone keep nothing alive.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "znhg"
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


def unreferenced_names(sources: dict[str, str], readers: list[str],
                       keep) -> list[str]:
    """module:name for each module-level name of sources for which keep
    holds and that no statement of sources or readers references, its
    own definition aside."""
    defined, used = [], set()
    for module, source in [*sources.items(), *((None, r) for r in readers)]:
        for stmt in ast.parse(source).body:
            own = _defined_names(stmt)
            if module is not None:
                defined += [(module, name) for name in own if keep(name)]
            for node in ast.walk(stmt):
                name = (node.id if isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        else node.attr if isinstance(node, ast.Attribute)
                        else None)
                if name is not None and name not in own:
                    used.add(name)
    return [f"{module}:{name}" for module, name in defined
            if name not in used]


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names (one leading underscore, not a dunder)
    that no statement of any of the sources references."""
    return unreferenced_names(
        sources, [],
        lambda name: name.startswith("_") and not name.endswith("__"))


def unused_public_names(sources: dict[str, str],
                        readers: list[str]) -> list[str]:
    """Public module-level names that no module other than __init__, and
    none of the readers, references."""
    modules = {m: s for m, s in sources.items() if m != "__init__"}
    return unreferenced_names(modules, readers,
                              lambda name: not name.startswith("_"))


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


def test_unused_public_names_detected():
    sources = {
        "__init__": "from .a import exported\nexported()\n",
        "a": "LIMIT = 3\n_HIDDEN = 4\n"
             "def helper():\n    return LIMIT\n"
             "def exported():\n    return helper()\n"
             "def recursive(k):\n    return recursive(k - 1)\n"
             "def tested():\n    return 1\n",
        "b": "from . import a\nclass Unused:\n    pass\n"
             "def main():\n    return a.other()\n"
             "if __name__ == '__main__':\n    main()\n",
        "c": "def other():\n    return 0\n",
    }
    readers = ["from znhg.a import tested\nassert tested() == 1\n"]
    assert unused_public_names(sources, readers) == [
        "a:exported", "a:recursive", "b:Unused"]


def test_no_unused_public_names():
    sources = {p.stem: p.read_text() for p in PACKAGE}
    readers = [p.read_text() for d in ("tests", "bench")
               for p in sorted((ROOT / d).glob("*.py"))]
    assert unused_public_names(sources, readers) == []


def imports_of(source: str, module: str) -> list[int]:
    """Lines that import the package module, in any form and at any depth:
    import and from-import statements, and import_module or __import__
    calls with a literal name."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module or ''}.{a.name}"
                                           for a in node.names]
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("import_module", "__import__")):
            names = [a.value for a in node.args
                     if isinstance(a, ast.Constant) and isinstance(a.value, str)]
        else:
            continue
        if any(module in name.split(".") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_imports_of_detected():
    source = "\n".join([
        "from . import verify",
        "from .verify import analyze",
        "import znhg.verify as v",
        "from znhg import verify as v",
        "def f():",
        "    from znhg.verify import run_sweep",
        "    return importlib.import_module('znhg.verify')",
        "x = __import__('znhg.verify')",
        "y = import_module('.verify', 'znhg')",
        "from .topology import verify_rotation_system",
        "from .metrics import verify_host_tree",
        "import verifier",
        "z = import_module('znhg.topology')",
    ])
    assert imports_of(source, "verify") == [1, 2, 3, 4, 6, 7, 8, 9]


def test_metrics_does_not_import_verify():
    assert imports_of((SRC / "metrics.py").read_text(), "verify") == []


def test_topology_imports_neither_verify_nor_metrics():
    # the planarity checkers stay independent of the code that builds
    # their witnesses
    source = (SRC / "topology.py").read_text()
    assert imports_of(source, "verify") == []
    assert imports_of(source, "metrics") == []


def indented_json_calls(source: str) -> list[int]:
    """Lines of calls that pass indent= to a function of the json package,
    reached through a module name bound by ``import json`` or a name
    from-imported from it.  With indent, json.dumps runs CPython's
    pure-Python encoder; verify.dumps writes the same bytes."""
    tree, modules, names, lines = ast.parse(source), set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname or a.name.split(".")[0] for a in node.names
                        if a.name.split(".")[0] == "json"}
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "json"):
            names |= {a.asname or a.name for a in node.names}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and any(k.arg == "indent" for k in node.keywords)):
            root = node.func
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in names | modules:
                lines.append(node.lineno)
    return sorted(lines)


def test_indented_json_calls_detected():
    source = "\n".join([
        "import json",
        "import json.encoder as enc",
        "from json import dumps as d",
        "a = json.dumps(doc, indent=2, sort_keys=True)",
        "b = json.dumps(doc, sort_keys=True)",
        "c = d(doc, indent=2)",
        "e = enc.JSONEncoder(indent=1).encode(doc)",
        "f = verify.dumps(doc, indent='\\n')",
        "g = json.dumps(json.loads(text), indent=2)",
    ])
    assert indented_json_calls(source) == [4, 6, 7, 9]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: p.name)
def test_no_indented_json_calls(path):
    # every JSON document goes through verify.dumps
    assert indented_json_calls(path.read_text()) == []


SEARCHES = {"metrics": ("diameter", "girth", "is_star", "chromatic_number"),
            "topology": ("hypergraph_planar", "is_planar")}


def search_references(source: str) -> list[int]:
    """Lines that reach a search of SEARCHES: a from-import of it, a bare
    name of it, or an attribute of a name bound to its module.  An
    attribute of anything else, such as a prediction's diameter, is not
    a reference."""
    tree, modules, lines = ast.parse(source), {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            leaf = (node.module or "").split(".")[-1]
            for a in node.names:
                if a.name in SEARCHES:
                    modules[a.asname or a.name] = a.name
                elif a.name in SEARCHES.get(leaf, ()):
                    lines.append(node.lineno)
        elif isinstance(node, ast.Import):
            for a in node.names:
                leaf = a.name.split(".")[-1]
                if a.asname and leaf in SEARCHES:
                    modules[a.asname] = leaf
    searches = {name for names in SEARCHES.values() for name in names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in searches:
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.attr in SEARCHES.get(modules.get(node.value.id), ())):
            lines.append(node.lineno)
    return sorted(lines)


def test_search_references_detected():
    source = "\n".join([
        "from . import metrics, topology as t",
        "from .metrics import girth",
        "import znhg.metrics as m",
        "a = metrics.diameter(h)",
        "b = t.hypergraph_planar(h)",
        "c = m.is_star(h)",
        "d = girth(h)",
        "e = pred.diameter + pred.girth",
        "f = metrics.check_diameter(h, 3, None, None)",
        "g = t.is_planar(graph)",
        "from .topology import incidence_graph",
    ])
    assert search_references(source) == [2, 4, 5, 6, 7, 10]


def test_verify_reaches_no_search():
    # the runtime tests see only the branches some n reaches; this also
    # catches a fallback that no n in range takes
    assert search_references((SRC / "verify.py").read_text()) == []
