"""Source hygiene of the package, read with `ast`: every import a module
makes is used in it, no module imports a private name of another, every
private module-level name is used in its own module, and every public
top-level function or class is read by some other code of the package or
named, with its reason, in UNREAD_PUBLIC.  The package `__init__`
re-exports what it imports, so its imports count as used, but a
re-export is not a read.  No public module-level name is a second name
for a class or function of the package.  Only `fields.py` defines
`with_guard`, since surfaces are built with their guard and never change
it, and outside `fields.py` a guard is read only to hand it to
`with_guard`, since a field states its excluded set once.  No module
calls `exec`, `eval` or `compile`: every line the package runs is in its
source.  Only `cli.py` names `ctypes` or `mallopt`, so the CLI's allocator
setting is the only code that changes the process's allocator."""
import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "lagmin"
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}

# Public top-level functions and classes that no other code of the package
# reads, each with the reason it stays.  An entry goes when its caller lands.
UNREAD_PUBLIC = {
    "fd_bilaplacian": "criterion 02 certifies its convergence order",
    "sphere_tangent_plane": "criterion 04 maps the tangent planes it gives",
    "random_unit_vectors": "criterion 04 samples its normals",
    "plane_to_ipoint": "criterion 04 maps tangent planes with it",
    "recover_crossing": "criterion 09 recovers crossing-circle fields",
    "fit_nested": "criterion 09 recovers nested-circle fields",
    "omega_integrand": "criterion 10 bounds the energy integrand",
    "pushforward_inversion": "criterion 12 inverts fields with it",
    "RootQuarticField": "the remark's counterexample: criterion 01 and the "
                        "biharmonic check's tests show it is not biharmonic",
    "reduce_elliptic_field": "planned: ruling_residual reads (A, B, C, D) "
                             "off its normal form (ROADMAP item 2)",
    "gauss_pencil_of_cones": "planned: the pencil check (ROADMAP item 2)",
    "isotropic_circle_residual": "planned: the circles check reads it "
                                 "(ROADMAP item 3)",
    "line_to_imcircle": "planned: maps cone families line by line "
                        "(ROADMAP item 5)",
    "imsphere_map": "planned: maps the spheres of a Laguerre image "
                    "(ROADMAP item 5)",
    "imtransform_apply": "the point map that tests/test_isotropic.py "
                         "checks imsphere_map against; planned: maps the "
                         "points of a Laguerre image (ROADMAP item 5)",
}


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
    # no other module imports it, so its own module reads it or nothing does
    unreferenced = ["%s:%d %s" % (module, line, name)
                    for module, tree in MODULES.items()
                    for name, line in _private_definitions(tree)
                    if name not in _reads(tree)]
    assert unreferenced == [], "unreferenced private names: %s" % (
        ", ".join(unreferenced),)


def test_no_module_imports_a_private_name_of_another():
    # a private name is the defining module's own; a name another module
    # needs is public, and the hygiene rules on public names apply to it
    imports = ["%s:%d %s" % (module, node.lineno, alias.name)
               for module, tree in MODULES.items()
               for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names
               if alias.name.startswith("_") and node.module != "__future__"]
    assert imports == [], "private names imported: %s" % (", ".join(imports),)


def _public_definitions():
    """(module, node) of each public top-level function or class outside
    the package `__init__`."""
    for module, tree in MODULES.items():
        if module == "__init__.py":
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                yield module, node


def _unread_public():
    """(module, line) of each public definition that no top-level statement
    of the package reads other than its own, by name."""
    readers = {}
    for tree in MODULES.values():
        for top in tree.body:
            for name in _reads(top):
                readers.setdefault(name, set()).add(id(top))
    return {node.name: (module, node.lineno)
            for module, node in _public_definitions()
            if not readers.get(node.name, set()) - {id(node)}}


def test_every_public_definition_is_read_in_the_package():
    unread = ["%s:%d %s" % (*where, name)
              for name, where in sorted(_unread_public().items(),
                                        key=lambda item: item[1])
              if name not in UNREAD_PUBLIC]
    assert unread == [], "public names nothing in the package reads: %s" % (
        ", ".join(unread),)


def test_the_unread_public_list_is_not_stale():
    # an entry whose name is gone, or that the package now reads, is stale
    stale = sorted(set(UNREAD_PUBLIC) - set(_unread_public()))
    assert stale == [], "stale UNREAD_PUBLIC entries: %s" % (", ".join(stale),)


def _public_assignments():
    """(module, name, line) of each public name a module binds with `=`."""
    for module, tree in MODULES.items():
        for node in tree.body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield module, target.id, node.lineno


def test_no_public_name_aliases_a_class_or_function():
    # `alias = SomeClass` or `alias = SomeClass.method` gives one
    # definition a second name; callers use the definition itself
    aliases = []
    for module, name, line in _public_assignments():
        modname = "lagmin" if module == "__init__.py" else "lagmin." + module[:-3]
        value = getattr(importlib.import_module(modname), name)
        if ((inspect.isclass(value) or inspect.isfunction(value))
                and value.__module__.startswith("lagmin")):
            aliases.append("%s:%d %s" % (module, line, name))
    assert aliases == [], "public aliases: %s" % (", ".join(aliases),)


def test_only_fields_define_with_guard():
    # a surface takes its guard where it is built (`building_block`,
    # `grammar.parse_surface`); a surface kind with its own `with_guard`
    # would guard a second time what its fields already guard
    defs = ["%s:%d" % (module, node.lineno)
            for module, tree in MODULES.items() if module != "fields.py"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == "with_guard"]
    assert defs == [], "with_guard defined outside fields.py: %s" % (
        ", ".join(defs),)


def test_a_guard_is_read_outside_fields_only_to_pass_it_on():
    # a module that compares a distance with a guard states a second
    # excluded set beside the one `fields.ScalarField.excluded` gives
    passed = {id(arg) for tree in MODULES.values() for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "with_guard"
              for arg in node.args}
    reads = ["%s:%d" % (module, node.lineno)
             for module, tree in MODULES.items() if module != "fields.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "guard"
             and id(node) not in passed]
    assert reads == [], "guards read outside fields.py: %s" % (
        ", ".join(reads),)


def test_no_code_is_generated_at_run_time():
    # code built as a string and run with exec, eval or compile is code
    # that no reader, linter or test coverage sees in the source
    calls = ["%s:%d %s" % (module, node.lineno, node.func.id)
             for module, tree in MODULES.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("exec", "eval", "compile")]
    assert calls == [], "run-time code generation: %s" % (", ".join(calls),)


def test_only_the_cli_touches_the_allocator():
    # `cli.main` sets glibc's allocator for its own process; a library
    # module that did so would change every process that imports it
    pattern = re.compile(r"\b(?:ctypes|mallopt)\b")
    sources = {path.relative_to(PACKAGE).as_posix():
               path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.rglob("*.py"))}
    assert pattern.search(sources.pop("cli.py"))
    hits = ["%s:%d" % (name, line)
            for name, text in sources.items()
            for line, row in enumerate(text.splitlines(), 1)
            if pattern.search(row)]
    assert hits == [], "ctypes or mallopt outside cli.py: %s" % (
        ", ".join(hits),)
