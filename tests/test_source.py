"""Source hygiene of the library: no module imports a name it never uses,
and no private module-level name is left that no module references.
Both catch the leftovers of a deletion, and so do the checks that every
CLI flag belongs to a command and that the README names exactly the CLI
flags.  No module imports ``os`` or reads the environment, so the
library's only inputs are arguments, budget scopes and CLI flags.  Every
descriptor class and field type is wired into the one JSON reader."""

import ast
import dataclasses
import pathlib
import re

import pytest

from ordercone import certificates, cones
from ordercone.cli import _COMMANDS, _COMMON, _FLAGS, _flag_string

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "ordercone"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(SOURCE.glob("*.py"))}


def _used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere in the tree, as a name or as an attribute."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _imported_names(tree: ast.Module) -> list[str]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.asname or alias.name).split(".")[0]
                      for alias in node.names]
    return names


def _private_definitions(tree: ast.Module) -> list[str]:
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _environment_reads(tree: ast.AST) -> list[str]:
    """Imports of ``os`` and reads of ``environ`` or ``getenv``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names
                      if a.name.split(".")[0] == "os"]
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "os"):
            found.append(node.module)
        elif isinstance(node, ast.Name) and node.id in ("environ", "getenv"):
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in ("environ",
                                                              "getenv"):
            found.append(node.attr)
    return found


@pytest.mark.parametrize("module", sorted(set(MODULES) - {"__init__"}))
def test_every_imported_name_is_used(module):
    tree = MODULES[module]
    unused = [n for n in _imported_names(tree) if n not in _used_names(tree)]
    assert unused == [], f"{module}.py imports names it never uses: {unused}"


def test_every_private_module_name_is_referenced():
    referenced = set()
    for tree in MODULES.values():
        referenced |= _used_names(tree)
        referenced |= {alias.name for node in ast.walk(tree)
                       if isinstance(node, ast.ImportFrom)
                       for alias in node.names}
    unreferenced = [f"{module}.{name}" for module, tree in MODULES.items()
                    for name in _private_definitions(tree)
                    if name not in referenced]
    assert unreferenced == []


def test_no_module_reads_the_environment():
    reads = {module: found for module, tree in MODULES.items()
             if (found := _environment_reads(tree))}
    assert reads == {}


def test_the_checks_catch_a_leftover():
    tree = ast.parse("import os\nfrom .errors import _field\n_SEEN = 1\n"
                     "def _left_over():\n    return _field\n")
    assert [n for n in _imported_names(tree)
            if n not in _used_names(tree)] == ["os"]
    assert _private_definitions(tree) == ["_SEEN", "_left_over"]
    assert not {"_SEEN", "_left_over"} & _used_names(tree)


def test_the_environment_check_catches_a_read():
    tree = ast.parse("import os.path\nfrom os import getenv\n"
                     "import json\nfrom .options import environ_name\n"
                     "a = os.environ.get('X')\nb = getenv('Y')\n")
    assert sorted(_environment_reads(tree)) == ["environ", "getenv", "os",
                                                "os.path"]
    assert _environment_reads(ast.parse("import json\n")) == []


def test_every_cli_flag_is_taken_by_a_command():
    taken = set(_COMMON).union(*(required + optional for _, required, optional
                                 in _COMMANDS.values()))
    assert set(_FLAGS) == taken


def test_readme_names_exactly_the_cli_flags():
    # A flag nobody documents, or a README mention of a removed flag,
    # fails here; the pip line's flags are pip's.
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    named = {flag for line in lines if "pip install" not in line
             for flag in re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", line)}
    assert named == {_flag_string(name) for name in _FLAGS}


# Field annotations ``cones._read`` passes through raw, for the class's
# constructor to check; a conjugate's element is read by
# ``cone_from_json`` itself, in its base cone's group.
RAW_FIELD_TYPES = {"dict", "object", "str", "tuple[tuple[int, ...], ...]",
                   "GroupElement"}


def _subclasses(base: type) -> set[type]:
    found = set()
    for cls in base.__subclasses__():
        found |= {cls} | _subclasses(cls)
    return found


@pytest.mark.parametrize("family, readers", [
    (cones.ConeOracle, cones._READERS),
    (cones.ConvexPredicate, cones._READERS),
    (certificates._Certificate, certificates._READERS),
], ids=["cones", "predicates", "certificates"])
def test_every_descriptor_class_is_readable(family, readers):
    # A new cone, predicate or certificate class fails here until its
    # class statement names a tag, and a new field type until the
    # family's reader table, or the raw list above, names it.
    concrete = {cls for cls in _subclasses(family)
                if dataclasses.is_dataclass(cls)
                and cls.__module__.startswith("ordercone.")}
    assert set(family.classes.values()) == concrete
    unread = [(cls.__name__, f.name, f.type)
              for cls in concrete for f in dataclasses.fields(cls)
              if f.type not in readers and f.type not in RAW_FIELD_TYPES]
    assert unread == []
    assert not RAW_FIELD_TYPES & readers.keys()
