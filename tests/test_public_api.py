"""Every name the package re-exports, and every public method or property
of ``Graph``, has a caller in the program itself.

A helper that only the tests call is test scaffolding, and it belongs in
``tests/``.  The check parses ``src/pathdom/__init__.py`` for the names
it imports from the package's modules.  It then collects every name
read, called or reached as an attribute in the other package modules and
in the demos.  Import statements and the strings in ``__all__`` list
names without using them, so neither counts.  A ``Graph`` method is only
ever reached as an attribute, so for those only attribute uses in the
package and the demos count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pathdom"


def _exports() -> set[str]:
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    return {alias.asname or alias.name
            for node in tree.body if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names}


def _graph_members() -> set[str]:
    tree = ast.parse((PACKAGE / "graphs.py").read_text(encoding="utf-8"))
    (cls,) = (node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "Graph")
    return {node.name for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _uses(path: Path, attributes_only: bool = False) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name) and not attributes_only:
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _program_sources() -> list[Path]:
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    return sources + list((ROOT / "demos").glob("*.py"))


def test_every_export_has_a_caller_outside_the_tests():
    used = set().union(*map(_uses, _program_sources()))
    exports = _exports()
    assert exports, "no re-exports found in pathdom/__init__.py"
    unused = sorted(exports - used)
    assert not unused, f"exported, but no program path calls: {', '.join(unused)}"


def test_every_graph_member_has_a_caller_outside_the_tests():
    used = set().union(*(_uses(p, attributes_only=True)
                         for p in _program_sources()))
    members = _graph_members()
    assert "edges" in members, "Graph's methods were not found in graphs.py"
    unused = sorted(members - used)
    assert not unused, f"Graph members no program path reaches: {', '.join(unused)}"
