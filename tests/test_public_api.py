"""Every name the package re-exports has a caller in the program itself.

A helper that only the tests call is test scaffolding, and it belongs in
``tests/``.  The check parses ``src/pathdom/__init__.py`` for the names
it imports from the package's modules.  It then collects every name
read, called or reached as an attribute in the other package modules and
in the demos.  Import statements and the strings in ``__all__`` list
names without using them, so neither counts.
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


def _uses(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_export_has_a_caller_outside_the_tests():
    sources = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    sources += (ROOT / "demos").glob("*.py")
    used = set().union(*map(_uses, sources))
    exports = _exports()
    assert exports, "no re-exports found in pathdom/__init__.py"
    unused = sorted(exports - used)
    assert not unused, f"exported, but no program path calls: {', '.join(unused)}"
