import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pgv.noninner as noninner
from pgv.catalog import builtin_catalog, find_entry, load_catalog, table_to_presentation
from pgv.group_core import (
    GroupMap,
    Subgroup,
    center,
    centralizer,
    elementary_abelian_normals,
    frattini,
    from_pc_presentation,
    is_inner,
    iter_isomorphisms,
    map_order,
    normal_subgroups,
    omega1,
    set_product,
    subgroup_center,
)
from pgv.noninner import (
    BRUTE_FORCE_LIMIT,
    Certificate,
    Diagnostic,
    NoninnerError,
    _sweep_configs,
    descent,
    engine_sweep,
    excess_h1_probe,
    exhaustive_noninner,
    find_noninner,
    find_special_subgroups,
    subgroup_rank,
    verify_certificate,
)
from tests.groups import cyclic_group, listed_noninner, pres_d8


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
        g = find_entry(name).group()
        assert sum(1 for _ in iter_isomorphisms(g, g)) == order, name


def test_brute_force_examples(catalog):
    f = exhaustive_noninner(cyclic_group(2, 4))
    assert f is not None and list(f.image_of) == [0, 3, 2, 1]  # x -> x^3
    assert map_order(f) == 2

    for name in ("D8", "Q8"):
        assert exhaustive_noninner(find_entry(name, catalog).group()) is not None

    big = find_entry("D32", catalog).group()
    assert big.order > BRUTE_FORCE_LIMIT and exhaustive_noninner(big) is None


def test_lazy_walk_matches_listed_oracle(catalog):
    # The lazy walk picks the map the list-then-scan form picks, or neither
    # finds one, on every catalog group the search covers.
    checked = 0
    for e in catalog:
        if e.order > BRUTE_FORCE_LIMIT:
            continue
        g = e.group()
        got, want = exhaustive_noninner(g), listed_noninner(g)
        assert (got is None) == (want is None), e.name
        if got is not None:
            assert np.array_equal(got.image_of, want.image_of), e.name
        checked += 1
    assert checked == 27


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
        assert (cert is not None) == (exhaustive_noninner(g) is not None), e.name
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
    # K4sC4_e1101 of the fixture is certified by no configuration, so its
    # sweep runs through all three stages.
    fixture = load_catalog(str(Path(__file__).resolve().parent / "data" / "special32.pres"))
    groups = [e.group() for e in catalog if not e.group().is_abelian()]
    assert len(groups) == 73
    groups += [e.group() for e in fixture]
    assert len(groups) == 76
    for g in groups:
        got = list(_sweep_configs(g))
        assert got, g.name
        assert got == _reference_sweep_configs(g), g.name


def test_sweep_builds_the_full_lattice_only_past_stage_a(catalog):
    # Stage A reads the normal subgroups inside Phi(G); the full lattice is
    # built only when the sweep reaches stage B.  Fresh tables, so no other
    # test has filled their caches.
    fixture = load_catalog(str(Path(__file__).resolve().parent / "data" / "special32.pres"))
    full = ("_normal_subgroups", None)
    stage_a = from_pc_presentation(table_to_presentation(find_entry("C2xC2xC2xQ8", catalog).group(), "f"))
    assert engine_sweep(stage_a).provenance["lemma_tag"] == "lp"
    assert full not in stage_a._cache
    for pres in (find_entry("He27", catalog).presentation, find_entry("K4sC4_e1101", fixture).presentation):
        g = from_pc_presentation(pres)
        engine_sweep(g)
        assert full in g._cache, pres.name


def test_descent_reads_only_the_lattice_inside_phi():
    # K4sC4_e1101 runs the layer descent below every special subgroup; its
    # layers N1 < N lie inside Phi(G), so paper mode builds no full lattice.
    fixture = load_catalog(str(Path(__file__).resolve().parent / "data" / "special32.pres"))
    g = from_pc_presentation(find_entry("K4sC4_e1101", fixture).presentation)
    assert descent(g).step == "descent:all special subgroups exhausted"
    assert ("_normal_subgroups", None) not in g._cache


def test_sweep_certifies_c2x5_x_d8_in_bounded_memory():
    # C2^5 x D8 has 31,663 normal subgroups: a lattice x lattice array over
    # them (7.5 GiB in float64) runs out of a 1 GiB address space, while the
    # lattice inside Phi(G) has two members and certifies the group.  A
    # child process holds the limit, so a regression fails here with
    # MemoryError instead of exhausting the host.
    script = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from pgv.catalog import find_entry
from pgv.group_core import direct_product_tables
from pgv.noninner import engine_sweep, verify_certificate
g = direct_product_tables(find_entry("C2xC2xC2xC2xC2").group(), find_entry("D8").group())
cert = engine_sweep(g)
assert g.order == 256 and cert is not None
ok, lines = verify_certificate(g, cert)
assert ok, lines
print(cert.provenance["lemma_tag"])
"""
    src = str(Path(noninner.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "lp\n"


def test_search_certificates_are_pinned(catalog):
    # The bytes of every search certificate up to order 16, pinned, so that
    # a refactor of the generating sets or searches behind them cannot move
    # a certificate unnoticed.
    lines = []
    for e in catalog:
        if e.order > 16:
            continue
        r = find_noninner(e.group(), "search")
        lines.append(f"{e.name}:{'none' if r is None else r.to_json().strip()}")
    assert len(lines) == 27
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "338530fdc0ebe0dcf611d512d821cd5d20cd6652dfe07c88ce3f6e300987865e"


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
    assert not rep.checks["product_inside_frattini"]
    assert excess_h1_probe(g, rep) is None


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
    # Two tables from one presentation: the sweep result is cached per
    # table, so each certificate here is computed afresh.
    pres = find_entry("D16", catalog).presentation
    c1 = engine_sweep(from_pc_presentation(pres))
    c2 = engine_sweep(from_pc_presentation(pres))
    assert c1.to_json() == c2.to_json()


def test_special_reports_and_sweep_cached_on_the_table(catalog, monkeypatch):
    g = find_entry("D16", catalog).group()
    fresh = from_pc_presentation(find_entry("D16", catalog).presentation)
    assert engine_sweep(g) is engine_sweep(g)
    assert engine_sweep(g).to_json() == engine_sweep(fresh).to_json()
    reports = find_special_subgroups(g)
    again = find_special_subgroups(g)
    assert [r.subgroup.key() for r in again] == [r.subgroup.key() for r in find_special_subgroups(fresh)]
    assert again and again is reports  # a hit hands out the cached tuple itself
    # A sweep that finds nothing caches its None: the configurations are
    # built once however often the sweep is asked.
    calls = []
    real = noninner._sweep_configs

    def counting(h):
        calls.append(h)
        return real(h)

    monkeypatch.setattr(noninner, "_sweep_configs", counting)
    fixture = load_catalog(str(Path(__file__).resolve().parent / "data" / "special32.pres"))
    stuck = from_pc_presentation(next(e for e in fixture if e.name == "K4sC4_e1101").presentation)
    assert engine_sweep(stuck) is None and engine_sweep(stuck) is None
    assert calls == [stuck]


# The route every shipped non-abelian group takes: the search-mode lemma
# tag (None where the sweep finds nothing) and the paper-mode lemma tag or
# Diagnostic step.  A route change shows up here as a one-line diff.
ENTRY_EXHAUSTED = "entry:maximal-subgroup construction exhausted"
DESCENT_EXHAUSTED = "descent:all special subgroups exhausted"
ROUTES = {
    "D8":            ("brute_force", ENTRY_EXHAUSTED),
    "Q8":            ("brute_force", ENTRY_EXHAUSTED),
    "C4sC4":         ("lp", "qp_entry"),
    "D16":           ("lp", "qp_entry"),
    "D8xC2":         ("lp", "qp_entry"),
    "K4sC4":         ("lp", "qp_entry"),
    "M16":           ("engine_wide", ENTRY_EXHAUSTED),
    "Pauli16":       ("lp", "qp_entry"),
    "Q16":           ("lp", "qp_entry"),
    "Q8xC2":         ("lp", "qp_entry"),
    "SD16":          ("lp", "qp_entry"),
    "He27":          ("engine_wide", "qp_entry"),
    "M27":           ("engine_wide", "qp_entry"),
    "D32":           ("lp", "qp_entry"),
    "M32":           ("engine_wide", ENTRY_EXHAUSTED),
    "Q32":           ("lp", "qp_entry"),
    "SD32":          ("lp", "qp_entry"),
    "C2xC2xD8":      ("lp", "qp_entry"),
    "C2xC2xQ8":      ("lp", "qp_entry"),
    "C2xC4sC4":      ("lp", "qp_entry"),
    "C2xD16":        ("lp", "qp_entry"),
    "C2xK4sC4":      ("lp", "qp_entry"),
    "C2xM16":        ("lp", "qp_entry"),
    "C2xPauli16":    ("lp", "qp_entry"),
    "C2xQ16":        ("lp", "qp_entry"),
    "C2xSD16":       ("lp", "qp_entry"),
    "C4xD8":         ("lp", "qp_entry"),
    "C4xQ8":         ("lp", "qp_entry"),
    "D64":           ("lp", "qp_entry"),
    "M64":           ("engine_wide", ENTRY_EXHAUSTED),
    "Q64":           ("lp", "qp_entry"),
    "SD64":          ("lp", "qp_entry"),
    "C2xC2xC2xD8":   ("lp", "qp_entry"),
    "C2xC2xC2xQ8":   ("lp", "qp_entry"),
    "C2xC2xC4sC4":   ("lp", "qp_entry"),
    "C2xC2xD16":     ("lp", "qp_entry"),
    "C2xC2xK4sC4":   ("lp", "qp_entry"),
    "C2xC2xM16":     ("lp", "qp_entry"),
    "C2xC2xPauli16": ("lp", "qp_entry"),
    "C2xC2xQ16":     ("lp", "qp_entry"),
    "C2xC2xSD16":    ("lp", "qp_entry"),
    "C2xD32":        ("lp", "qp_entry"),
    "C2xM32":        ("lp", "qp_entry"),
    "C2xQ32":        ("lp", "qp_entry"),
    "C2xSD32":       ("lp", "qp_entry"),
    "C4xC2xD8":      ("lp", "qp_entry"),
    "C4xC2xQ8":      ("lp", "qp_entry"),
    "C4xC4sC4":      ("lp", "qp_entry"),
    "C4xD16":        ("lp", "qp_entry"),
    "C4xK4sC4":      ("lp", "qp_entry"),
    "C4xM16":        ("lp", "qp_entry"),
    "C4xPauli16":    ("lp", "qp_entry"),
    "C4xQ16":        ("lp", "qp_entry"),
    "C4xSD16":       ("lp", "qp_entry"),
    "C8xD8":         ("lp", "qp_entry"),
    "C8xQ8":         ("lp", "qp_entry"),
    "D8xD8":         ("lp", "qp_entry"),
    "D8xQ8":         ("lp", "qp_entry"),
    "Q8xQ8":         ("lp", "qp_entry"),
    "G81n1":         ("lp", "qp_entry"),
    "G81n10":        ("lp", "qp_entry"),
    "G81n2":         ("engine_wide", "qp_entry"),
    "G81n3":         ("lp", "qp_entry"),
    "G81n4":         ("lp", "qp_entry"),
    "G81n5":         ("lp", "qp_entry"),
    "G81n6":         ("lp", "qp_entry"),
    "G81n7":         ("lp", "qp_entry"),
    "G81n8":         ("lp", "qp_entry"),
    "G81n9":         ("lp", "qp_entry"),
    "He125":         ("engine_wide", "qp_entry"),
    "M125":          ("engine_wide", "qp_entry"),
    "He343":         ("engine_wide", "qp_entry"),
    "M343":          ("engine_wide", "qp_entry"),
    "K4sC4_e0100":   ("lp", "thm5_5"),
    "K4sC4_e1100":   ("engine_wide", DESCENT_EXHAUSTED),
    "K4sC4_e1101":   (None, DESCENT_EXHAUSTED),
}


def _route(g):
    cert = engine_sweep(g)
    paper = descent(g)
    return (
        None if cert is None else cert.provenance["lemma_tag"],
        paper.step if isinstance(paper, Diagnostic) else paper.provenance["lemma_tag"],
    )


def test_route_ledger_of_every_shipped_nonabelian_group(catalog):
    entries = [e for e in catalog if not e.group().is_abelian()]
    entries += load_catalog(str(Path(__file__).resolve().parent / "data" / "special32.pres"))
    assert len(entries) == 76
    assert {e.name: _route(e.group()) for e in entries} == ROUTES


def test_special_reports_carry_the_product_and_the_layer(catalog):
    # A = N C_G(N) and W = Omega_1(Z(N)) on every report, special or not,
    # of every shipped non-abelian group, against a fresh computation.
    entries = [e for e in catalog if not e.group().is_abelian()]
    entries += load_catalog(str(Path(__file__).resolve().parent / "data" / "special32.pres"))
    assert len(entries) == 76
    specials = 0
    for e in entries:
        g = e.group()
        for r in find_special_subgroups(g):
            n = r.subgroup
            assert r.product == set_product(g, n, centralizer(g, n)), (e.name, n.order)
            assert r.layer == omega1(g, subgroup_center(g, n)), (e.name, n.order)
            specials += r.special
    assert specials > 0
