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
