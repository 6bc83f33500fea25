"""``src/pgv`` holds only what pgv runs.

An AST scan names every top-level function and class of ``src/pgv``, and
every method of a top-level class other than a dunder, that nothing
references.  A reference is a name, an attribute, an imported name or a
word of a string constant (not a docstring) that appears

- in ``src/pgv``, outside the definition's own body,
- in ``scripts/*.py``, or
- in ``perfbench/*.py`` other than its tests (the tracer finds its targets
  by name).

The tests are not a reference: a definition that only tests reach belongs
in ``tests/``.  A check body registered with ``@register`` is reached
through the registry and counts as referenced.  A definition whose
docstring names a ROADMAP item ("ROADMAP item 12") is kept for that item.

A definition found uncalled no longer lends its references to others, and
the scan repeats until no new one appears, so a helper that only dead code
calls is found as well.

A second scan keeps the test modules' imports honest: every name a module
of ``tests/`` imports must be read there.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORD = re.compile(r"[A-Za-z_]\w*")
ROADMAP_ITEM = re.compile(r"ROADMAP item \d+")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _words(node):
    """The identifiers one AST node names.  A bare string statement, such as
    a docstring, is skipped by the walks and names nothing."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    if isinstance(node, ast.alias):
        return {node.name.rsplit(".", 1)[-1]}
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return set(WORD.findall(node.value))
    return set()


def _is_bare_string(node):
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)


def _is_registered(node):
    for d in node.decorator_list:
        f = d.func if isinstance(d, ast.Call) else d
        if getattr(f, "id", None) == "register" or getattr(f, "attr", None) == "register":
            return True
    return False


def _scan(label, source):
    """One module's definitions (key -> (name, kept)) and the words each
    owner names (owner key -> set).

    Keys are ``label``, ``label.f`` and ``label.Cls.m``.  A node belongs to
    the innermost listed definition whose body holds it; decorators,
    defaults and base classes run where the definition stands, so they
    belong to the enclosing owner."""
    defs, uses = {}, {label: set()}

    def visit(node, owner, listed):
        # ``listed``: the node stands in the module body or in the body of a
        # top-level class, where a definition gets its own key.
        if _is_bare_string(node):
            return
        if not (listed and isinstance(node, DEFS)) or (node.name.startswith("__") and node.name.endswith("__")):
            uses.setdefault(owner, set()).update(_words(node))
            for child in ast.iter_child_nodes(node):
                visit(child, owner, False)
            return
        key = f"{owner}.{node.name}"
        doc = ast.get_docstring(node) or ""
        defs[key] = (node.name, _is_registered(node) or bool(ROADMAP_ITEM.search(doc)))
        for field, value in ast.iter_fields(node):
            for n in value if isinstance(value, list) else [value]:
                if isinstance(n, ast.AST):
                    if field == "body":
                        visit(n, key, isinstance(node, ast.ClassDef) and owner == label)
                    else:
                        visit(n, owner, False)

    for node in ast.parse(source).body:
        visit(node, label, True)
    return defs, uses


def uncalled(library, outside):
    """Keys of the definitions in ``library`` (module label -> source) that
    nothing references, given the sources in ``outside``."""
    defs, uses = {}, {}
    for label, source in library.items():
        d, u = _scan(label, source)
        defs.update(d)
        uses.update(u)
    external = set().union(*(w for source in outside for w in _scan("", source)[1].values()))

    users = {}  # word -> the owners that name it
    for owner, words in uses.items():
        for w in words:
            users.setdefault(w, set()).add(owner)

    def inside(owner, key):
        return owner == key or owner.startswith(key + ".")

    dead = set()
    while True:
        found = {
            key
            for key, (name, kept) in defs.items()
            if key not in dead
            and not kept
            and name not in external
            and not any(
                not inside(o, key) and not any(inside(o, d) for d in dead) for o in users.get(name, ())
            )
        }
        if not found:
            return sorted(dead)
        dead |= found


def _sources():
    library = {p.stem: p.read_text(encoding="utf-8") for p in sorted((ROOT / "src" / "pgv").glob("*.py"))}
    outside = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "scripts").glob("*.py"))]
    outside += [
        p.read_text(encoding="utf-8")
        for p in sorted((ROOT / "perfbench").glob("*.py"))
        if not p.name.startswith("test_")
    ]
    return library, outside


def test_every_library_definition_is_referenced():
    library, outside = _sources()
    assert uncalled(library, outside) == []


def test_scan_finds_uncalled_chains_and_keeps_what_is_reached():
    library = {
        "m": '''
"""Names helper_for_dead in a docstring, which is not a reference."""
from .n import used_by_import


def dead():
    return helper_for_dead() + dead()


def helper_for_dead():
    return 1


def reached():
    return 2


def traced():
    return 3


def planned():
    """Needed by the check ROADMAP item 12 plans."""


@register("x", "a check body")
def body(inst):
    return reached()


class Box:
    def __init__(self):
        self.n = self._size()

    def _size(self):
        return 0

    def unused(self):
        return self._size()
''',
        "n": '''
def used_by_import():
    return 0


X = Box()
''',
    }
    outside = ['TARGETS = ("pgv.m.traced",)']
    assert uncalled(library, outside) == ["m.Box.unused", "m.dead", "m.helper_for_dead"]


def unread_imports(source):
    """The names a module imports and never reads, sorted.

    A read is a loaded name (``np`` in ``np.zeros``), a function argument,
    since pytest hands a test or fixture the fixture its argument names, or
    a string given to ``pytest.mark.usefixtures``.  A re-export is not a
    read, and ``from __future__`` imports are directives, not names."""
    tree = ast.parse(source)
    imported, read = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.arg):
            read.add(node.arg)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "usefixtures":
            read |= {a.value for a in node.args if isinstance(a, ast.Constant)}
    return sorted(imported - read)


def test_every_test_import_is_read():
    unread = {}
    for path in sorted((ROOT / "tests").glob("*.py")):
        names = unread_imports(path.read_text(encoding="utf-8"))
        if names:
            unread[path.name] = names
    assert unread == {}


def test_import_scan_counts_fixtures_and_reads_only():
    source = '''
from __future__ import annotations

import json
import os.path
import numpy as np
import pytest
from pgv.catalog import find_entry, load_catalog as load
from tests.groups import cyclic_group, klein, small_modules, pres_d8

find_entry = None


@pytest.mark.usefixtures("klein")
def test_x(small_modules, tmp_path):
    return os.path.join(str(tmp_path), np.__name__) and cyclic_group(2, 2)
'''
    assert unread_imports(source) == ["find_entry", "json", "load", "pres_d8"]
