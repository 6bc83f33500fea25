import fnmatch
import hashlib
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest

from pgv import catalog as catalog_module
from pgv import group_core
from pgv.catalog import (
    LEDGER,
    CatalogError,
    builtin_catalog,
    dedupe_candidates,
    dihedral,
    find_entry,
    heisenberg,
    load_catalog,
    modular_odd,
    quaternion,
    render_ledger,
    semidihedral,
    table_to_presentation,
)
from pgv.cohomology import Cochain, cohomology
from pgv.extensions import build_extension
from pgv.group_core import (
    DEFAULT_ORDER_CAP,
    _group_invariants,
    center,
    find_isomorphism,
    from_pc_presentation,
    is_isomorphic,
)
from pgv.gmodule import trivial_module
from pgv.presentations import PresentationError, render_presentation
from tests.groups import all_subgroups, maximal_subgroups_bruteforce, order8_list

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "data" / "special32.pres"


@pytest.fixture(scope="module")
def catalog():
    return builtin_catalog()


def test_exactly_14_groups_of_order_16(catalog):
    entries = [e for e in catalog if e.order == 16]
    assert len(entries) == 14
    # Pairwise non-isomorphic (invariant prefilter + backtracking search).
    for a, b in itertools.combinations(entries, 2):
        assert find_isomorphism(a.group(), b.group()) is None


def test_exactly_15_groups_of_order_81(catalog):
    entries = [e for e in catalog if e.order == 81]
    assert len(entries) == 15
    abelian = [e for e in entries if e.group().is_abelian()]
    assert len(abelian) == 5
    for a, b in itertools.combinations(entries, 2):
        assert find_isomorphism(a.group(), b.group()) is None


def test_order16_matches_central_extension_enumeration(catalog):
    """Oracle: regenerate order 16 as central extensions of the order-8 groups."""
    reps = []
    for pres in order8_list():
        q = from_pc_presentation(pres)
        m = trivial_module(q, 1)
        sp = cohomology(q, m, 2)
        tabs = [r.table for r in sp.h_reps]
        for coeffs in itertools.product(range(2), repeat=sp.h_dim):
            tab = np.zeros((8, 8, 1), dtype=np.int64)
            for c, rep in zip(coeffs, tabs):
                tab = (tab + c * rep) % 2
            ext = build_extension(q, m, Cochain(m, tab))
            g = ext.total
            inv = _group_invariants(g)
            if not any(
                inv == i2 and find_isomorphism(g2, g) is not None for i2, g2 in reps
            ):
                reps.append((inv, g))
    assert len(reps) == 14
    # ... and each matches a catalog entry.
    entries = [e for e in catalog if e.order == 16]
    for _, g in reps:
        assert any(find_isomorphism(e.group(), g) is not None for e in entries)


def test_named_families_are_right():
    d16 = from_pc_presentation(dihedral(4))
    assert d16.order == 16 and not d16.is_abelian()
    assert max(d16.element_orders()) == 8
    assert int(np.sum(d16.element_orders() == 2)) == 9  # 8 reflections + r^4

    q16 = from_pc_presentation(quaternion(4))
    assert int(np.sum(q16.element_orders() == 2)) == 1  # unique involution

    sd16 = from_pc_presentation(semidihedral(4))
    assert int(np.sum(sd16.element_orders() == 2)) == 5

    m16 = from_pc_presentation(modular_odd(3, 3))
    assert m16.order == 27 and max(m16.element_orders()) == 9

    he = from_pc_presentation(heisenberg(3))
    assert max(he.element_orders()) == 3 and not he.is_abelian()


def test_catalog_has_expected_members(catalog):
    for name in ("D8", "Q8", "D16", "Q16", "SD16", "M16", "He27", "M27", "D64", "C81"):
        e = find_entry(name, catalog)
        assert e.group().order == e.order


def test_tag_filtering(catalog):
    dihedrals = [e for e in catalog if e.matches("dihedral")]
    assert {e.name for e in dihedrals} >= {"D8", "D16", "D32", "D64"}
    small = [e for e in catalog if e.matches("order<=16")]
    assert all(e.order <= 16 for e in small)
    assert [e for e in catalog if e.matches("all")] == list(catalog)
    d8 = find_entry("D8", catalog)
    assert d8.matches("p=3,order=8") and not d8.matches("p=3,order<=4")
    for bad in ("order<=abc", "order=", "p=x", "all,p=x"):
        with pytest.raises(CatalogError):
            d8.matches(bad)


def test_missing_data_file_is_an_error(monkeypatch):
    from pgv import catalog as catalog_module

    def missing(fname):
        raise FileNotFoundError(fname)

    monkeypatch.setattr(catalog_module, "_data_text", missing)
    with pytest.raises(FileNotFoundError):
        catalog_module._base_entries(64)


@pytest.mark.parametrize("cap", [DEFAULT_ORDER_CAP, 8, 16, 64])
def test_ledger_matches_a_fresh_dedupe(cap):
    # The uncached loader, so that each cap reads the ledger afresh.
    loaded = builtin_catalog.__wrapped__(cap)
    candidates, kept = dedupe_candidates(cap)
    if cap == DEFAULT_ORDER_CAP:
        assert render_ledger(candidates, kept) == catalog_module._data_text(LEDGER)
    summary = lambda entries: [(e.name, e.priority, e.order, e.tags) for e in entries]  # noqa: E731
    assert summary(loaded) == summary(kept)
    assert [e.group().fingerprint() for e in loaded] == [e.group().fingerprint() for e in kept]


def test_builtin_catalog_builds_no_table(monkeypatch):
    calls = []
    for module in (catalog_module, group_core):
        for name in ("from_pc_presentation", "direct_product_tables", "find_isomorphism", "_group_invariants"):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=real, _n=name, **k: calls.append(_n) or _f(*a, **k))
    entries = builtin_catalog.__wrapped__()
    assert calls == []
    assert len(entries) == 119
    assert all(e._table is None for e in entries)
    assert {id(f) for e in entries for f in e.factors} <= {id(e) for e in entries}  # factors are kept entries


def _ledger_lines_without(prefix):
    """The ledger with its first line that starts with prefix left out."""
    lines = catalog_module._data_text(LEDGER).splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
    return "".join(lines[:i] + lines[i + 1 :])


def test_stale_ledger_is_a_catalog_error(monkeypatch):
    real = catalog_module._data_text
    text = real(LEDGER)
    stale = [
        (text + "kept 16 1 Q8xC2 quaternion\n", r"lists Q8xC2 \(priority 1, order 16\), which is no catalog candidate"),
        (text.replace("kept 8 1 D8 ", "kept 16 1 D8 "), r"lists D8 \(priority 1, order 16\)"),
        # Without D8 kept, no product has D8 as a factor.
        (_ledger_lines_without("kept 8 1 D8 "), r"lists C2xD8 \(priority 2, order 16\), which is no catalog candidate"),
        (_ledger_lines_without("kept 64 1 D64 "), r"candidate D64 \(priority 1\) is missing"),
        # Two products share this name and priority: each needs its own line.
        (_ledger_lines_without("dropped 16 2 C2xC2xC2xC2"), r"candidate C2xC2xC2xC2 \(priority 2\) is missing"),
    ]
    for ledger, message in stale:
        monkeypatch.setattr(catalog_module, "_data_text", lambda f, t=ledger: t if f == LEDGER else real(f))
        with pytest.raises(CatalogError, match=message + ".*run scripts/generate_data.py"):
            builtin_catalog.__wrapped__()
    for bad in ("kept 8 1 D8", "dropped 8 1 D8 dihedral", "kept x 1 D8 dihedral", "keep 8 1 D8 dihedral"):
        monkeypatch.setattr(catalog_module, "_data_text", lambda f, t=text + bad: t if f == LEDGER else real(f))
        with pytest.raises(CatalogError, match="is malformed"):
            builtin_catalog.__wrapped__()


def test_package_data_ships_every_data_file():
    # Parsed by hand: tomllib is not in Python 3.10.
    section = (ROOT / "pyproject.toml").read_text().split("[tool.setuptools.package-data]")[1]
    patterns = json.loads(re.search(r"^pgv\s*=\s*(\[[^\]]*\])", section, re.M).group(1))
    package = ROOT / "src" / "pgv"
    files = [f.relative_to(package).as_posix() for f in (package / "data").rglob("*") if f.is_file()]
    assert f"data/{LEDGER}" in files
    for f in files:
        assert any(fnmatch.fnmatchcase(f, pattern) and f.count("/") == pattern.count("/") for pattern in patterns), f


def test_products_present_and_deduped(catalog):
    # C2xD8 is isomorphic to the order-16 entry D8xC2; only one survives.
    names = [e.name for e in catalog if e.order == 16]
    assert "D8xC2" in names
    assert "C2xD8" not in names
    # Some genuinely new product exists at order 32.
    order32 = [e for e in catalog if e.order == 32]
    assert any("x" in e.name for e in order32)


def test_pairwise_noniso_within_each_small_order(catalog):
    for order in (8, 27, 32):
        entries = [e for e in catalog if e.order == order]
        for a, b in itertools.combinations(entries, 2):
            assert find_isomorphism(a.group(), b.group()) is None


def test_load_catalog_file_and_errors(tmp_path):
    f = tmp_path / "groups.pres"
    f.write_text("group A\np 2\ngens 1\npow 1 : 1\nend\n")
    cat = load_catalog(str(f))
    assert len(cat) == 1 and cat[0].group().order == 2

    empty = tmp_path / "empty.pres"
    empty.write_text("")
    assert load_catalog(str(empty)) == []

    bad = tmp_path / "bad.pres"
    bad.write_text("group A\np 2\ngens 2\npow 1 : g1\nend\n")
    with pytest.raises(PresentationError):
        load_catalog(str(bad))

    dup = tmp_path / "dup.pres"
    dup.write_text(
        "group A\np 2\ngens 1\npow 1 : 1\nend\ngroup A\np 2\ngens 1\npow 1 : 1\nend\n"
    )
    with pytest.raises(CatalogError):
        load_catalog(str(dup))


def test_catalog_digest(catalog):
    """Names, orders, primes, tags and table fingerprints of every entry."""
    text = "".join(
        f"{e.name}|{e.order}|{e.p}|{','.join(e.tags)}|{e.group().fingerprint()}\n" for e in catalog
    )
    assert len(catalog) == 119
    assert hashlib.sha256(text.encode()).hexdigest() == "fc4e0fa254538b9bd90377b4684068d396281ff52ac18b3653d07b4339f1cee1"


def test_table_to_presentation_roundtrip(catalog):
    entries = list(catalog) + load_catalog(str(FIXTURE))
    rendered = []
    for e in entries:
        g = e.group()
        pres = table_to_presentation(g, e.name)
        assert find_isomorphism(g, from_pc_presentation(pres)) is not None, e.name
        rendered.append(render_presentation(pres))
    text = "".join(rendered)
    assert len(entries) == 122
    assert hashlib.sha256(text.encode()).hexdigest() == "a339006003ec02c8a33810713a88b2211cbe0c5a2a752b99bae5c09630374d78"


def test_frattini_formula_vs_maximal_oracle_catalog(catalog):
    # Frattini via derived * p-th powers against the intersection of maximal
    # subgroups from the full subgroup lattice, across the small catalog.
    import numpy as np

    from pgv.group_core import frattini

    checked = 0
    for e in catalog:
        if e.order > 32 and e.name not in ("He27", "M27"):
            continue
        g = e.group()
        f = frattini(g)
        inter = np.ones(g.order, dtype=bool)
        for m in maximal_subgroups_bruteforce(g, max_order=64):
            inter &= m.bitmap
        assert np.array_equal(np.nonzero(inter)[0], f.members), e.name
        checked += 1
    assert checked >= 30


def test_iset_closed_for_abelian_subgroups(catalog):
    # The p-th-power-into-center set of an abelian subgroup is a subgroup.
    from pgv.group_core import iset
    import numpy as np

    for name in ("D8", "Q8", "D16", "He27"):
        g = find_entry(name, catalog).group()
        for h in all_subgroups(g, max_order=32):
            sub = g.mul[np.ix_(h.members, h.members)]
            if not np.array_equal(sub, sub.T):
                continue
            assert iset(g, h).is_subgroup, (name, h.key())
