"""Built-in group catalog and presentation-file ingestion.

The built-in set covers cyclic and all abelian p-groups of order <= 64,
the dihedral / quaternion / semidihedral / modular 2-group families, the
modular p-groups and both extraspecial groups of order p^3 for small odd p,
the full order-16 and order-81 classifications (data files), and pairwise
direct products up to a product cap.  Entries of the same order are
deduplicated up to isomorphism by `_dedupe`, once, in
scripts/generate_data.py, which records the outcome in the data file
`catalog.ledger`.  `builtin_catalog` reads that ledger and builds no table;
an entry builds its table on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import fp_linalg as fl
from .group_core import (
    DEFAULT_ORDER_CAP,
    GroupError,
    GroupTable,
    _adjoin,
    _commutators_with_generators,
    _group_invariants,
    direct_product_tables,
    find_isomorphism,
    from_pc_presentation,
)
from .presentations import PcPresentation, parse_presentations

PRODUCT_CAP = 64  # direct products of catalog groups are listed up to this order
LEDGER = "catalog.ledger"  # the outcome of `_dedupe`, written by scripts/generate_data.py


class CatalogError(ValueError):
    pass


@dataclass
class CatalogEntry:
    """A named group: built from its presentation, or, for a direct
    product (presentation None), built from its two factors' tables."""

    name: str
    presentation: Optional[PcPresentation]
    tags: Tuple[str, ...] = ()
    priority: int = 1  # lower wins when deduplicating isomorphic entries
    factors: Tuple["CatalogEntry", ...] = ()
    _table: Optional[GroupTable] = field(default=None, repr=False, compare=False)

    @property
    def order(self) -> int:
        if self.presentation is None:
            return math.prod(f.order for f in self.factors)
        return self.presentation.order()

    @property
    def p(self) -> int:
        return (self.presentation or self.factors[0]).p

    def group(self, order_cap: int = DEFAULT_ORDER_CAP) -> GroupTable:
        if self.order > order_cap:
            raise GroupError(f"order cap: {self.order} > {order_cap}")
        if self._table is None:
            if self.presentation is None:
                tbl = direct_product_tables(*(f.group(order_cap) for f in self.factors))
            else:
                tbl = from_pc_presentation(self.presentation, order_cap=order_cap)
            tbl.name = self.name
            self._table = tbl
        return self._table

    def matches(self, expr: str) -> bool:
        """Does any comma-separated needle match: 'all' or '*', 'order<=N',
        'order=N', 'p=N', or a glob on the name or a tag?  Every needle is
        parsed, and a malformed number is a CatalogError."""
        import fnmatch

        hits = []
        for needle in filter(None, (s.strip() for s in expr.split(","))):
            if needle.startswith("order<="):
                hits.append(self.order <= _filter_int(needle, "order<="))
            elif needle.startswith("order="):
                hits.append(self.order == _filter_int(needle, "order="))
            elif needle.startswith("p="):
                hits.append(self.p == _filter_int(needle, "p="))
            else:
                names = (self.name, *self.tags)
                hits.append(needle in ("all", "*") or any(fnmatch.fnmatch(x, needle) for x in names))
        return any(hits)


def _filter_int(needle: str, prefix: str) -> int:
    text = needle[len(prefix) :]
    try:
        return int(text)
    except ValueError:
        raise CatalogError(f"catalog filter {needle!r}: {text!r} is not an integer") from None


# -- family presentations -------------------------------------------------------


def _digits_word(exponent: int, p: int, npow: int, first_gen: int) -> List[int]:
    """Word for r^exponent where r-powers live on generators first_gen..(chain),
    generator (first_gen + j) carrying r^(p^j); exponent taken mod p^npow."""
    e = exponent % (p**npow)
    letters: List[int] = []
    for j in range(npow):
        d = (e // (p**j)) % p
        letters.extend([first_gen + j] * d)
    return letters


def abelian_presentation(p: int, parts: Sequence[int], name: str = "") -> PcPresentation:
    """Abelian p-group with cyclic factors p^parts[i] (parts descending)."""
    ngens = sum(parts)
    pow_words: Dict[int, List[int]] = {}
    idx = 1
    for k in parts:
        for j in range(k - 1):
            pow_words[idx + j] = [idx + j + 1]
        pow_words[idx + k - 1] = []
        idx += k
    label = name or "x".join(f"C{p**k}" for k in parts)
    return PcPresentation(p, ngens, label, pow_words, {})


def _two_group_family(kind: str, n: int) -> PcPresentation:
    """Dihedral / quaternion / semidihedral / modular group of order 2^n.

    Generators: g1 the twisting involution, g2..gn the cyclic chain with
    g_{j+2} = r^(2^j).
    """
    if n < 3:
        raise CatalogError("family needs order >= 8")
    npow = n - 1  # r has order 2^(n-1)
    pow_words: Dict[int, List[int]] = {1: []}
    for i in range(2, n):
        pow_words[i] = [i + 1]
    pow_words[n] = []
    comm: Dict[Tuple[int, int], List[int]] = {}
    if kind == "D":
        s_exp = -1
        name = f"D{2**n}"
    elif kind == "Q":
        s_exp = -1
        pow_words[1] = [n]  # s^2 = r^(2^(n-2)) = z
        name = f"Q{2**n}"
    elif kind == "SD":
        if n < 4:
            raise CatalogError("semidihedral needs order >= 16")
        s_exp = 2 ** (n - 2) - 1
        name = f"SD{2**n}"
    elif kind == "M":
        if n < 4:
            raise CatalogError("modular 2-group needs order >= 16")
        s_exp = 2 ** (n - 2) + 1
        name = f"M{2**n}"
    else:
        raise CatalogError(f"unknown family {kind}")
    for i in range(2, n + 1):
        k = 2 ** (i - 2)  # g_i = r^k
        comm_exp = (k * s_exp - k) % (2**npow)
        word = _digits_word(comm_exp, 2, npow, 2)
        word = [w for w in word if w > i]
        # commutator value r^(k(s_exp-1)) always lies above g_i in the chain
        if _digits_word(comm_exp, 2, npow, 2) != word:
            raise CatalogError("family commutator escaped the chain tail")
        if word:
            comm[(i, 1)] = word
    return PcPresentation(2, n, name, pow_words, comm)


def dihedral(n: int) -> PcPresentation:
    return _two_group_family("D", n)


def quaternion(n: int) -> PcPresentation:
    return _two_group_family("Q", n)


def semidihedral(n: int) -> PcPresentation:
    return _two_group_family("SD", n)


def modular2(n: int) -> PcPresentation:
    return _two_group_family("M", n)


def modular_odd(p: int, n: int) -> PcPresentation:
    """M_{p^n} = <a, b : a^(p^(n-1)) = b^p = 1, a^b = a^(1 + p^(n-2))>, p odd."""
    if n < 3:
        raise CatalogError("modular group needs order >= p^3")
    npow = n - 1
    pow_words: Dict[int, List[int]] = {1: []}
    for i in range(2, n):
        pow_words[i] = [i + 1]
    pow_words[n] = []
    comm_exp = p ** (n - 2)  # [a, b] = a^(p^(n-2))
    word = _digits_word(comm_exp, p, npow, 2)
    return PcPresentation(p, n, f"M{p**n}", pow_words, {(2, 1): word})


def heisenberg(p: int) -> PcPresentation:
    """Extraspecial of order p^3 and exponent p (p odd)."""
    return PcPresentation(p, 3, f"He{p**3}", {1: [], 2: [], 3: []}, {(2, 1): [3]})


def order27_list() -> List[PcPresentation]:
    return [
        abelian_presentation(3, [3], "C27"),
        abelian_presentation(3, [2, 1], "C9xC3"),
        abelian_presentation(3, [1, 1, 1], "C3xC3xC3"),
        heisenberg(3),
        modular_odd(3, 3),
    ]


# -- presentation export (central series normal forms) -------------------------


def table_to_presentation(g: GroupTable, name: str) -> PcPresentation:
    """Power-commutator presentation along a central series with factors of order p.

    The series 1 = K_0 < K_1 < ... < K_n = G adjoins at each step the least
    x outside K_i with x^p in K_i and [x, G] <= K_i, the central step of
    `normal_subgroups`; g_1 is the last element adjoined and g_n the first.
    Every relation word is read off one inverse table of the normal words
    g_1^c_1 ... g_n^c_n.
    """
    p, n = g.p, g.k
    pw, comm = g.pow_p_table, _commutators_with_generators(g)
    bits = np.zeros(g.order, dtype=bool)
    bits[0] = True
    gens: List[int] = []
    for _ in range(n):
        x = int(np.argmax(~bits & bits[pw] & bits[comm].all(axis=0)))
        gens.insert(0, x)
        bits = _adjoin(g, np.flatnonzero(bits), x)
    # Were some step empty, argmax would adjoin 0 and the bijection check fails.
    vecs = fl.vector_codes(n, p)  # row c: the exponents (c_1, ..., c_n) of code c
    words = np.zeros(len(vecs), dtype=np.int64)
    for i, x in enumerate(gens):
        powers = np.array([g.power(x, e) for e in range(p)], dtype=np.int64)
        words = g.mul[words, powers[vecs[:, i]]]
    code = np.full(g.order, -1, dtype=np.int64)
    code[words] = np.arange(len(words))
    if np.any(code < 0):
        raise GroupError("the series gives no normal form for every element")

    def word(y: int) -> List[int]:
        return [i for i, e in enumerate(vecs[code[y]], start=1) for _ in range(e)]

    pow_words = {i: word(pw[x]) for i, x in enumerate(gens, start=1)}
    comm_words = {}
    for i in range(2, n + 1):
        for j in range(1, i):
            w = word(g.commutator(gens[i - 1], gens[j - 1]))
            if w:
                comm_words[(i, j)] = w
    return PcPresentation(p, n, name, pow_words, comm_words)


# -- built-in catalog ------------------------------------------------------------


def _partitions(k: int) -> List[List[int]]:
    if k == 0:
        return [[]]
    out = []

    def rec(rest, maxpart, acc):
        if rest == 0:
            out.append(list(acc))
            return
        for part in range(min(rest, maxpart), 0, -1):
            acc.append(part)
            rec(rest - part, part, acc)
            acc.pop()

    rec(k, k, [])
    return out


def _data_text(fname: str) -> str:
    path = resources.files("pgv").joinpath("data", fname)
    return path.read_text(encoding="utf-8")


def _base_entries(order_cap: int) -> List[CatalogEntry]:
    entries: List[CatalogEntry] = []

    def add(pres: PcPresentation, tags: Iterable[str], priority: int = 1):
        if pres.order() <= order_cap:
            entries.append(CatalogEntry(pres.name, pres, tuple(tags), priority))

    # Data files first (priority 0 so their names win deduplication).
    for fname, tagbase in (("order16.pres", "order16"), ("order81.pres", "order81")):
        for i, pres in enumerate(parse_presentations(_data_text(fname)), start=1):
            tags = [tagbase, f"{tagbase}#{i}"]
            add(pres, tags, priority=0)

    # Abelian groups of order <= 64, every prime power and partition.
    for p in (2, 3, 5, 7):
        k = 1
        while p**k <= 64:
            for parts in _partitions(k):
                pres = abelian_presentation(p, sorted(parts, reverse=True))
                tags = ["abelian"]
                if len(parts) == 1:
                    tags.append("cyclic")
                if all(x == 1 for x in parts):
                    tags.append("elementary")
                add(pres, tags)
            k += 1

    # 2-group families up to order 64 (n <= 6).
    for n in range(3, 7):
        add(dihedral(n), ["dihedral"])
        add(quaternion(n), ["quaternion"])
        if n >= 4:
            add(semidihedral(n), ["semidihedral"])
            add(modular2(n), ["modular"])

    # Modular groups for odd p and the extraspecial pairs.
    for p, n in ((3, 3), (3, 4), (5, 3), (7, 3)):
        add(modular_odd(p, n), ["modular"] + (["extraspecial"] if n == 3 else []))
    for p in (3, 5, 7):
        add(heisenberg(p), ["extraspecial", "exponent-p"])

    return entries


def _product_entries(bases: List[CatalogEntry], product_cap: int) -> List[CatalogEntry]:
    out = []
    for i, a in enumerate(bases):
        for b in bases[i:]:
            if a.p != b.p:
                continue
            if a.order * b.order > product_cap:
                continue
            out.append(CatalogEntry(f"{a.name}x{b.name}", None, ("product",), 2, (a, b)))
    return out


def _dedupe(entries: List[CatalogEntry], order_cap: int) -> List[CatalogEntry]:
    by_order: Dict[int, List[CatalogEntry]] = {}
    for e in entries:
        by_order.setdefault(e.order, []).append(e)
    kept: List[CatalogEntry] = []
    for order in sorted(by_order):
        bucket = sorted(by_order[order], key=lambda e: (e.priority, e.name))
        kept_here: List[Tuple[tuple, CatalogEntry]] = []
        for e in bucket:
            try:
                tbl = e.group(order_cap=order_cap)
            except GroupError as exc:
                raise CatalogError(f"catalog entry {e.name} failed to build: {exc}")
            inv = _group_invariants(tbl)
            dup = None
            for inv2, other in kept_here:
                if inv2 == inv and find_isomorphism(other.group(), tbl) is not None:
                    dup = other
                    break
            if dup is None:
                kept_here.append((inv, e))
            else:
                # Keep the canonical entry but remember every family it realizes.
                merged = tuple(dict.fromkeys(dup.tags + e.tags))
                dup.tags = merged
        kept.extend(e for _, e in kept_here)
    names = [e.name for e in kept]
    if len(names) != len(set(names)):
        raise CatalogError("duplicate catalog names after deduplication")
    return kept


def _catalog_key(e: CatalogEntry) -> Tuple[int, int, str]:
    return (e.order, e.priority, e.name)


def dedupe_candidates(order_cap: int = DEFAULT_ORDER_CAP) -> Tuple[List[CatalogEntry], List[CatalogEntry]]:
    """Every candidate entry and the ones deduplication up to isomorphism
    keeps, both in catalog order (a stable sort of the order generated).
    Builds every table: scripts/generate_data.py runs it to write the
    ledger, and the tests run it to check the ledger."""
    bases = _base_entries(order_cap)
    kept_bases = _dedupe(list(bases), order_cap)
    products = _product_entries(kept_bases, min(PRODUCT_CAP, order_cap))
    kept = _dedupe(kept_bases + products, order_cap)
    return sorted(bases + products, key=_catalog_key), sorted(kept, key=_catalog_key)


def render_ledger(candidates: Sequence[CatalogEntry], kept: Sequence[CatalogEntry]) -> str:
    """The text of catalog.ledger: one line per candidate, in the order
    given, either `kept ORDER PRIORITY NAME TAGS` (TAGS comma-separated)
    or `dropped ORDER PRIORITY NAME`."""
    kept_ids = {id(e) for e in kept}
    lines = [
        "# The built-in catalog's candidate entries deduplicated up to isomorphism",
        "# (catalog.dedupe_candidates), one line per candidate in catalog order:",
        "#   kept ORDER PRIORITY NAME TAGS   the entry stays, with these merged tags",
        "#   dropped ORDER PRIORITY NAME     it is isomorphic to a kept entry",
        "# builtin_catalog() reads this file instead of deduplicating.",
        "# Regenerate with: python scripts/generate_data.py",
        "",
    ]
    for e in candidates:
        head = f"{e.order} {e.priority} {e.name}"
        lines.append(f"kept {head} {','.join(e.tags)}" if id(e) in kept_ids else f"dropped {head}")
    return "\n".join(lines) + "\n"


class _LedgerLine(NamedTuple):
    order: int
    priority: int
    name: str
    tags: Optional[Tuple[str, ...]]  # None for a dropped candidate


def _read_ledger() -> List[_LedgerLine]:
    """The lines of catalog.ledger, as `render_ledger` writes them."""
    out = []
    for n, text in enumerate(_data_text(LEDGER).splitlines(), start=1):
        if not text.strip() or text.startswith("#"):
            continue
        verdict, *fields = text.split()
        try:
            order, priority, name, *tags = fields
            if len(tags) != {"kept": 1, "dropped": 0}.get(verdict):
                raise ValueError
            out.append(_LedgerLine(int(order), int(priority), name, tuple(tags[0].split(",")) if tags else None))
        except ValueError:
            raise CatalogError(f"{LEDGER} line {n} is malformed: {text!r}") from None
    return out


@functools.lru_cache(maxsize=4)
def builtin_catalog(order_cap: int = DEFAULT_ORDER_CAP) -> Tuple[CatalogEntry, ...]:
    """The candidates the ledger keeps, in its order and with its merged
    tags.  Builds no table: each entry builds its own on first use.

    A line names a candidate by name and priority.  Two products can share
    both (C2xC2xC2xC2 from C2 and C2xC2xC2, and from C2xC2 twice); the
    ledger lists such candidates in the order they are generated, and
    they take their lines in that order."""
    ledger = [line for line in _read_ledger() if line.order <= order_cap]
    kept = {(line.name, line.priority) for line in ledger if line.tags is not None}
    bases = _base_entries(order_cap)
    kept_bases = sorted((e for e in bases if (e.name, e.priority) in kept), key=_catalog_key)
    candidates: Dict[Tuple[str, int], List[CatalogEntry]] = {}
    for e in bases + _product_entries(kept_bases, min(PRODUCT_CAP, order_cap)):
        candidates.setdefault((e.name, e.priority), []).append(e)
    entries = []
    for line in ledger:
        same = candidates.get((line.name, line.priority))
        if not same or same[0].order != line.order:
            raise CatalogError(
                f"{LEDGER} lists {line.name} (priority {line.priority}, order {line.order}), "
                f"which is no catalog candidate: run scripts/generate_data.py"
            )
        e = same.pop(0)
        if line.tags is not None:
            e.tags = line.tags
            entries.append(e)
    for (name, priority), left in candidates.items():
        if left:
            raise CatalogError(
                f"catalog candidate {name} (priority {priority}) is missing from {LEDGER}: run scripts/generate_data.py"
            )
    return tuple(entries)


def load_catalog(path: Optional[str] = None, order_cap: int = DEFAULT_ORDER_CAP) -> List[CatalogEntry]:
    """Catalog from a presentation file, or the built-in set."""
    if path is None:
        return list(builtin_catalog(order_cap))
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise CatalogError(f"cannot read catalog file {path!r}: {e}") from None
    presentations = parse_presentations(text)
    names = [p.name for p in presentations]
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise CatalogError(f"duplicate name(s): {sorted(dupes)}")
    return [CatalogEntry(p.name, p, ("file",)) for p in presentations]


def find_entry(name: str, catalog: Optional[Sequence[CatalogEntry]] = None) -> CatalogEntry:
    cat = catalog if catalog is not None else builtin_catalog()
    for e in cat:
        if e.name == name:
            return e
    raise CatalogError(f"no catalog entry named {name!r}")
