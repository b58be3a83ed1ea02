"""Source hygiene of the package, read with `ast`: every import a module
makes is used in it, and every private module-level name is used
somewhere in the package.  The package `__init__` re-exports what it
imports, so its imports count as used."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lagmin"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def _imported(tree):
    """(bound name, line) of each module-level or nested import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def _reads(tree):
    """Names a module reads: bare names, attribute names, and strings (for
    names looked up by string, such as `__all__`)."""
    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def _private_definitions(tree):
    """(name, line) of each private name the module defines at top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target,
                                                            ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__.py"}))
def test_every_import_is_used(module):
    reads = _reads(MODULES[module])
    unused = ["%s (line %d)" % (name, line)
              for name, line in _imported(MODULES[module])
              if name not in reads]
    assert unused == [], "unused imports in %s: %s" % (module,
                                                      ", ".join(unused))


def test_every_private_module_level_name_is_referenced():
    # a name imported by another module counts as referenced there
    everywhere = set()
    for tree in MODULES.values():
        everywhere |= _reads(tree)
        everywhere |= {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       for alias in node.names}
    unreferenced = ["%s:%d %s" % (module, line, name)
                    for module, tree in MODULES.items()
                    for name, line in _private_definitions(tree)
                    if name not in everywhere]
    assert unreferenced == [], "unreferenced private names: %s" % (
        ", ".join(unreferenced),)
