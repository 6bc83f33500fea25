import json

import numpy as np
import pytest

from pgv.catalog import builtin_catalog, find_entry
from pgv.group_core import (
    GroupMap,
    Subgroup,
    center,
    conjugation_map,
    cyclic_group,
    elementary_abelian_normals,
    frattini,
    from_pc_presentation,
    is_inner,
    map_order,
    normal_subgroups,
    omega1,
    subgroup_center,
)
from pgv.noninner import (
    BruteForceResult,
    Certificate,
    Diagnostic,
    NoninnerError,
    _sweep_configs,
    all_automorphisms,
    brute_force_order_p_noninner,
    descent,
    engine_sweep,
    excess_h1_probe,
    find_noninner,
    find_special_subgroups,
    subgroup_rank,
    verify_certificate,
)
from tests.test_group_core import pres_d8


@pytest.fixture(scope="module")
def catalog():
    return builtin_catalog()


def test_special_subgroups_reject_abelian():
    g = cyclic_group(2, 4)
    with pytest.raises(NoninnerError):
        find_special_subgroups(g)


def test_special_subgroups_d8_none(catalog):
    g = find_entry("D8", catalog).group()
    reports = find_special_subgroups(g)
    # Candidates are the normal subgroups of Phi(D8) = Z(D8): trivial and Z.
    assert len(reports) == 2
    assert not any(r.special for r in reports)
    # The center fails exactly the chain condition N*C_G(N) <= Phi(G).
    zrep = [r for r in reports if r.subgroup.order == 2][0]
    assert not zrep.checks["product_inside_frattini"]


def test_special_scan_small_catalog(catalog):
    # Exhaustive scan at order <= 64: each reported special subgroup must
    # satisfy all three conditions when re-verified from scratch.
    from pgv.group_core import centralizer, frattini, is_cyclic_quotient, iset, set_product, subgroup_center

    seen_special = 0
    for e in catalog:
        if e.order > 64 or e.group().is_abelian():
            continue
        g = e.group()
        for r in find_special_subgroups(g):
            if not r.special:
                continue
            seen_special += 1
            n = r.subgroup
            c = centralizer(g, n)
            assert is_cyclic_quotient(g, c, subgroup_center(g, n))
            assert bool(n.bitmap[iset(g, c).members].all())
            assert frattini(g).contains_subgroup(set_product(g, n, c))


def test_aut_counts_small():
    # |Aut(C_p x C_p)| = |GL_2(p)| = (p^2 - 1)(p^2 - p).
    for name, order in (("D8", 8), ("Q8", 24), ("C2xC2", 6), ("C3xC3", 48)):
        assert len(all_automorphisms(find_entry(name).group())) == order, name


def test_brute_force_examples(catalog):
    c4 = cyclic_group(2, 4)
    bf = brute_force_order_p_noninner(c4)
    assert bf.supported and bf.automorphism is not None  # x -> x^3
    assert map_order(bf.automorphism) == 2

    for name in ("D8", "Q8"):
        g = find_entry(name, catalog).group()
        bf = brute_force_order_p_noninner(g)
        assert bf.supported and bf.automorphism is not None

    big = find_entry("D32", catalog).group()
    assert not brute_force_order_p_noninner(big).supported


def test_engine_sweep_d8_q8(catalog):
    for name in ("D8", "Q8"):
        g = find_entry(name, catalog).group()
        cert = engine_sweep(g)
        assert cert is not None
        ok, lines = verify_certificate(g, cert)
        assert ok, lines


def test_engine_matches_brute_force_up_to_16(catalog):
    # Oracle agreement: existence matches on every non-abelian group <= 16.
    for e in catalog:
        if e.order > 16 or e.group().is_abelian():
            continue
        g = e.group()
        cert = engine_sweep(g)
        bf = brute_force_order_p_noninner(g)
        assert (cert is not None) == (bf.automorphism is not None), e.name
        assert cert is not None  # the existence theorem at this scale


def _reference_sweep_configs(g):
    """The sweep's configurations by pairwise loops over the lattice, with
    one centralizer test per element."""
    phi = frattini(g)
    normals = normal_subgroups(g)
    seen = set()
    configs = []

    def push(n1, w, tag, extra=None, all_h=False):
        if (n1.key(), w.key()) not in seen:
            seen.add((n1.key(), w.key()))
            configs.append((n1, w, tag, extra, all_h))

    def centralizes(a, w):
        return all(
            np.array_equal(g.mul[g.mul[g.inv[x], w.members], x], w.members) for x in a.members
        )

    for n in normals:
        if not phi.contains_subgroup(n) or n.order == 1:
            continue
        w = omega1(g, subgroup_center(g, n))
        if w.order == 1:
            continue
        for n1 in normals:
            if n1.order < n.order and n.contains_subgroup(n1) and n1.contains_subgroup(w):
                push(n1, w, "lp", {"n_members": [int(x) for x in n.members]})
        push(n, w, "lp", {"n_members": [int(x) for x in n.members]})
    for w in elementary_abelian_normals(g):
        for n1 in normals:
            if n1.contains_subgroup(w) and centralizes(n1, w):
                push(n1, w, "engine_wide")
    wc = omega1(g, center(g))
    if wc.order > 1:
        for n1 in normals:
            if n1.contains_subgroup(phi):
                push(n1, wc, "central_hom", None, True)
    return configs


def test_sweep_configs_match_pairwise_reference(catalog):
    groups = [e.group() for e in catalog if not e.group().is_abelian()]
    assert len(groups) == 73
    for g in groups:
        got = _sweep_configs(g)
        assert got, g.name
        assert got == _reference_sweep_configs(g), g.name


def test_certificate_roundtrip_and_tamper(catalog):
    g = find_entry("D16", catalog).group()
    cert = engine_sweep(g)
    ok, _ = verify_certificate(g, cert)
    assert ok
    # JSON round trip is stable.
    text = cert.to_json()
    back = Certificate.from_json(text)
    assert back.to_json() == text
    ok2, _ = verify_certificate(g, back)
    assert ok2
    # Tampering one map value fails with the failing pair in the transcript.
    bad = Certificate.from_json(text)
    bad.map[3], bad.map[5] = bad.map[5], bad.map[3]
    okb, lines = verify_certificate(g, bad)
    assert not okb
    assert any("FAIL" in ln for ln in lines)
    # Zeroing the provenance derivation fails replay.
    if "tau_table" in cert.provenance:
        bad2 = Certificate.from_json(text)
        bad2.provenance["tau_table"] = [
            [0 for _ in row] for row in bad2.provenance["tau_table"]
        ]
        okc, lines2 = verify_certificate(g, bad2)
        assert not okc


def test_verify_fingerprint_mismatch(catalog):
    g = find_entry("D16", catalog).group()
    h = find_entry("Q16", catalog).group()
    cert = engine_sweep(g)
    with pytest.raises(NoninnerError):
        verify_certificate(h, cert)


def test_probe_skips_when_hypotheses_unmet(catalog):
    g = find_entry("D8", catalog).group()
    z = center(g)
    rep = next(r for r in find_special_subgroups(g) if r.subgroup == z)
    out = excess_h1_probe(g, rep)
    assert out.status == "skipped"
    assert out.reason.startswith("not special: fails ")
    assert "product_inside_frattini" in out.reason


def test_descent_examples(catalog):
    # The Heisenberg group routes through the maximal-subgroup entry.
    he = find_entry("He27", catalog).group()
    r = descent(he)
    assert isinstance(r, Certificate)
    ok, _ = verify_certificate(he, r)
    assert ok
    assert r.provenance["mode"] == "paper"

    # D8: every maximal-subgroup derivation candidate is inner (the outer
    # involution needs a cyclic value group), so paper mode reports a
    # Diagnostic; search mode still certifies the group.
    d8 = find_entry("D8", catalog).group()
    r2 = descent(d8)
    assert isinstance(r2, Diagnostic)
    assert engine_sweep(d8) is not None


def test_descent_rejects_abelian():
    with pytest.raises(NoninnerError):
        descent(cyclic_group(3, 9))


def test_find_noninner_modes(catalog):
    g = find_entry("SD16", catalog).group()
    cert = find_noninner(g, "search")
    assert isinstance(cert, Certificate)
    ab = cyclic_group(2, 4)
    cert2 = find_noninner(ab, "search")
    assert isinstance(cert2, Certificate)
    ok, _ = verify_certificate(ab, cert2)
    assert ok
    with pytest.raises(NoninnerError):
        find_noninner(g, "bogus")


def test_subgroup_rank(catalog):
    g = find_entry("C4xC2xC2", catalog).group()
    full = Subgroup(g, np.arange(16), check=False)
    assert subgroup_rank(g, full) == 3


def test_certificates_deterministic(catalog):
    g = find_entry("D16", catalog).group()
    c1 = engine_sweep(g)
    c2 = engine_sweep(g)
    assert c1.to_json() == c2.to_json()
