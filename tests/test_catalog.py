import hashlib
import itertools
from pathlib import Path

import numpy as np
import pytest

from pgv.catalog import (
    CatalogError,
    builtin_catalog,
    dihedral,
    find_entry,
    heisenberg,
    load_catalog,
    modular_odd,
    order8_list,
    quaternion,
    semidihedral,
    table_to_presentation,
)
from pgv.cohomology import TwoCocycle, cohomology
from pgv.extensions import build_extension
from pgv.group_core import (
    _group_invariants,
    center,
    find_isomorphism,
    from_pc_presentation,
    is_isomorphic,
)
from pgv.gmodule import trivial_module
from pgv.presentations import PresentationError, render_presentation

FIXTURE = Path(__file__).resolve().parent / "data" / "special32.pres"


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
            ext = build_extension(q, m, TwoCocycle(q, m, tab))
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

    from pgv.group_core import frattini, maximal_subgroups_bruteforce

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
    from pgv.group_core import all_subgroups, iset
    import numpy as np

    for name in ("D8", "Q8", "D16", "He27"):
        g = find_entry(name, catalog).group()
        for h in all_subgroups(g, max_order=32):
            sub = g.mul[np.ix_(h.members, h.members)]
            if not np.array_equal(sub, sub.T):
                continue
            assert iset(g, h).is_subgroup, (name, h.key())
