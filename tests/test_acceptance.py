"""Acceptance suite: one test per criterion, exact arithmetic, zero tolerance.

Each test prints a single PASS line on success so the whole gate reads as a
checklist under `pytest -s tests/test_acceptance.py`.
"""

import itertools
import time

import numpy as np
import pytest

from pgv.catalog import builtin_catalog, find_entry
from pgv.cli import main as cli_main
from pgv.cohomology import (
    Cochain,
    cohomology,
    inflate_module,
)
from pgv.extensions import build_extension, filtration, kernel_of_down, transfer_maps
from pgv.fp_linalg import FpSubspace, rank_array
from pgv.gmodule import (
    FreeBimodule,
    annihilator,
    d_G,
    free_submodule_closure,
    minimal_generators,
    radical,
    restrict_action,
    trivial_module,
)
from pgv.group_core import direct_product_tables
from pgv.noninner import (
    BRUTE_FORCE_LIMIT,
    engine_sweep,
    exhaustive_noninner,
    find_noninner,
    verify_certificate,
)
from pgv.suite import replay_counterexamples, run_suite
from tests.groups import brute_force_z1, cyclic_group, regular_module


@pytest.fixture(scope="module")
def catalog():
    return builtin_catalog()


def test_criterion_1_existence_sweep(catalog):
    targets = [
        e
        for e in catalog
        if (e.order <= 64 or e.order == 81) and not e.group().is_abelian()
    ]
    assert len(targets) >= 50
    t_start = time.time()
    worst = 0.0
    for e in targets:
        g = e.group()
        t0 = time.time()
        cert = find_noninner(g, "search")
        dt = time.time() - t0
        worst = max(worst, dt)
        assert cert is not None, f"no certificate for {e.name}"
        ok, lines = verify_certificate(g, cert)
        assert ok, f"verification failed for {e.name}: {lines}"
        assert dt <= 5.0, f"{e.name} took {dt:.2f}s (> 5s)"
    total = time.time() - t_start
    assert total <= 600.0, f"sweep took {total:.1f}s (> 10 min)"
    print(
        f"\nACCEPT 1 PASS: {len(targets)} groups certified and verified "
        f"(total {total:.1f}s, worst {worst:.2f}s)"
    )


def test_criterion_2_oracle_agreement(catalog):
    checked = 0
    for e in catalog:
        if e.order > 16 or e.group().is_abelian():
            continue
        g = e.group()
        sweep = engine_sweep(g)
        assert g.order <= BRUTE_FORCE_LIMIT
        assert (sweep is not None) == (exhaustive_noninner(g) is not None), e.name
        # The existence theorem at this scale: both must find one.
        assert sweep is not None, f"counterexample artifact: {e.name}"
        checked += 1
    assert checked >= 10
    print(f"\nACCEPT 2 PASS: sweep and brute-force agree on {checked} groups (<= 16)")


@pytest.mark.parametrize("p", [2, 3, 5])
def test_criterion_3_worked_example(p):
    g = cyclic_group(p, p)
    fb = FreeBimodule(g, 1)
    rad = radical(fb.as_gmodule("right"))
    mod = restrict_action(fb.as_gmodule("right"), rad)
    assert cohomology(g, mod, 1).h_dim == 1
    cp = trivial_module(g, 1)
    sp2 = cohomology(g, cp, 2)
    assert sp2.h_dim >= 1
    ext = build_extension(g, cp, sp2.h_reps[0])
    assert ext.total.order == p * p
    assert max(ext.total.element_orders()) == p * p  # cyclic of order p^2
    infl = inflate_module(mod, ext.projection)
    assert cohomology(ext.total, infl, 1).h_dim == 1
    print(f"\nACCEPT 3 PASS (p={p}): radical module H1=1, extension cyclic p^2, H1 stable")


def test_criterion_4_solver_vs_enumeration():
    # All (G, M) with p^(|G| dim M) <= 2^20.
    cases = []
    for p, order in ((2, 2), (2, 4), (3, 3)):
        g = cyclic_group(p, order)
        cases.append((g, trivial_module(g, 1)))
        if p ** (g.order * g.order) <= 1 << 20:
            cases.append((g, regular_module(g)))
    k4 = direct_product_tables(cyclic_group(2, 2), cyclic_group(2, 2))
    cases.append((k4, trivial_module(k4, 1)))
    cases.append((k4, trivial_module(k4, 2)))
    count = 0
    for g, m in cases:
        if m.p ** (g.order * m.dim) > 1 << 20:
            continue
        sp = cohomology(g, m, 1)
        tables = brute_force_z1(g, m)
        assert len(tables) == m.p**sp.z_dim
        for tab in tables:
            stacked = np.vstack([sp.z_basis, tab.reshape(1, -1)])
            assert rank_array(stacked, m.p) == sp.z_dim
        count += 1
    # H^2 for C2, trivial F2 equals 1 by enumerating all 16 2-cochains.
    g = cyclic_group(2, 2)
    m = trivial_module(g, 1)
    zs = []
    for flat in itertools.product(range(2), repeat=4):
        c = Cochain(m, np.array(flat, dtype=np.int64).reshape(2, 2, 1))
        if c.is_cocycle():
            zs.append(c)
    sp2 = cohomology(g, m, 2)
    assert sp2.h_dim == 1
    assert len(zs) == 2**sp2.z_dim
    print(f"\nACCEPT 4 PASS: Z^1 matches enumeration on {count} cases; H^2(C2) = 1 by enumeration")


def test_criterion_5_duality_suite(catalog):
    combos = []
    for name in ("C2", "C4", "C2xC2", "D8", "Q8", "C2xC2xC2", "D16", "C3", "C9", "C3xC3"):
        e = find_entry(name, catalog)
        for n in (1, 2):
            combos.append((e, n))
    count = 0
    failures = 0
    for e, n in combos:
        g = e.group()
        fb = FreeBimodule(g, n)
        rng = np.random.default_rng(1000 + 13 * n + e.order)
        for _ in range(6):
            q = free_submodule_closure(fb, rng.integers(0, g.p, size=(2, fb.dim)), "right")
            left = annihilator(fb, q, "left_of_right")
            back = annihilator(fb, left, "right_of_left")
            if back != q or left.dim + q.dim != fb.dim:
                failures += 1
            count += 1
    assert count >= 100
    assert failures == 0
    print(f"\nACCEPT 5 PASS: {count} random submodules, duality round-trips, 0 failures")


def test_criterion_6_freeness(catalog):
    tested = 0
    for name in ("C2", "C3", "C4", "C2xC2", "D8"):
        g = find_entry(name, catalog).group()
        for n in (1, 2):
            fb = FreeBimodule(g, n)
            rng = np.random.default_rng(55 + n)
            carriers = [FpSubspace.full(fb.dim, g.p)]
            for _ in range(4):
                carriers.append(
                    free_submodule_closure(fb, rng.integers(0, g.p, size=(2, fb.dim)), "right")
                )
            for carrier in carriers:
                if carrier.dim == 0:
                    continue
                mod = restrict_action(fb.as_gmodule("right"), carrier)
                h1 = cohomology(g, mod, 1).h_dim
                if h1 != 0:
                    continue
                tested += 1
                k = d_G(mod)
                assert mod.dim == k * g.order, "free module dimension mismatch"
                gens = minimal_generators(mod)
                rows = []
                for l in range(k):
                    for h in range(g.order):
                        rows.append((gens[l] @ mod.act[h]) % g.p)
                assert rank_array(np.array(rows), g.p) == mod.dim
    assert tested >= 10
    print(f"\nACCEPT 6 PASS: {tested} modules with vanishing H^1 decomposed freely, 0 failures")


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_7_transfer_suite(p):
    g = cyclic_group(p, p)
    m = trivial_module(g, 2)  # t = 2
    sp = cohomology(g, m, 2)
    assert sp.h_dim >= 1
    ext = build_extension(g, m, sp.h_reps[0])
    for n in (1, 2):
        tp = transfer_maps(ext, n)
        assert not np.any((tp.up @ tp.down) % p)
        Rnorm = tp.free_total.mul_matrix(tp.norm_vector, "right")
        rng = np.random.default_rng(7)
        for _ in range(4):
            x = rng.integers(0, p, size=tp.down.shape[0])
            assert np.array_equal((x @ tp.down @ tp.up) % p, (x @ Rnorm) % p)
        assert filtration(tp, 1) == kernel_of_down(tp)
        top = 2 * (p - 1) + 1
        dims = [filtration(tp, i).dim for i in range(top + 1)]
        for i in range(2 * (p - 1)):
            copies = i + 1 if i <= p - 1 else 2 * p - 1 - i
            assert dims[i] - dims[i + 1] == n * copies * g.order
    print(f"\nACCEPT 7 PASS (p={p}): transfer identities and layer dimensions exact")


def test_criterion_8_growth_audit():
    six = "gg_growth,yy_upper,aa_cases,qq_cases,ggg_exact,jj_lower"
    report = run_suite(six, "all", seed=0, budget_ms=None)
    counts = report["counts"]
    satisfied = counts["PASS"] + counts["COUNTEREXAMPLE"]
    assert satisfied >= 50, f"only {satisfied} hypothesis-satisfying instances"
    assert counts["UNSUPPORTED"] == 0
    assert not report["infra_errors"]
    mismatches = replay_counterexamples(report)
    assert not mismatches
    print(
        f"\nACCEPT 8 PASS: {satisfied} hypothesis-satisfying verdicts "
        f"({counts['PASS']} PASS, {counts['COUNTEREXAMPLE']} counterexamples, all replayed)"
    )


def test_criterion_9_determinism(tmp_path):
    outs = []
    for i in (1, 2):
        out = tmp_path / f"cert{i}.json"
        rc = cli_main(["find-noninner", "--group", "SD16", "--out", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]

    reports = []
    for i in (1, 2):
        out = tmp_path / f"rep{i}.json"
        rc = cli_main(
            [
                "check",
                "--id",
                "l00_duality,gg_growth",
                "--catalog",
                "order<=8",
                "--budget-ms",
                "2000",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    print("\nACCEPT 9 PASS: certificates and reports are byte-identical across runs")
