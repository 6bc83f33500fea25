import hashlib
import json

import numpy as np
import pytest

import pgv.cohomology as cohomology_module
from pgv import checks
from pgv.catalog import builtin_catalog, find_entry
from pgv.checks import (
    CHECKS,
    COUNTEREXAMPLE,
    PASS,
    SKIPPED,
    UNSUPPORTED,
    Skip,
    Unsupported,
    _centralized_part,
    _noncyclic_double_layer,
    _self_centralizing,
    _sweep,
)
from pgv.gmodule import GModule
from pgv.group_core import Subgroup, center, centralizer, normal_subgroups, omega1, set_product, subgroup_center
from pgv.suite import UnknownCheckError, replay_counterexamples, report_to_json, resolve_check_ids, run_suite
from tests.groups import fixed_points_in_carrier, h1_of_restriction, run_check

EXPECTED_IDS = {
    "lp_order", "ij_bound", "ddd_iso", "thm5_5", "gen_count", "cc_bound",
    "ut_embed", "free_iff_h1zero", "dual_fixed", "dual_gens", "l00_duality",
    "ww_bridge", "xo_unique", "to_iso", "thm2e_image", "tp_products",
    "dd_layers", "xp_layers", "yy_upper", "tu_coker", "jj_lower", "gg_growth",
    "cor8_0", "aa_cases", "qq_cases", "ggg_exact", "kj_h2", "dp_dim", "rty_eq",
    "xu_free", "io_rank", "jx_rank", "px_iff", "du_growth", "ty", "j", "l3_2",
    "xi", "yu", "hh", "ll", "qp", "kl", "qk", "xx", "xy", "t9_2", "tt", "xpl",
    "ui", "cor18",
}


def test_registry_complete():
    assert set(CHECKS) == EXPECTED_IDS


def test_unknown_check_id():
    with pytest.raises(KeyError, match="'nope'"):
        resolve_check_ids("nope")


def test_alias_thm_gg():
    assert resolve_check_ids("thm5.5") == ["thm5_5"]
    (cid,) = resolve_check_ids("thm_gg")
    v = CHECKS[cid].run({"group": "C2", "n": 2, "seed": 4})
    assert v.check_id == "gg_growth"


def test_thm_gg_skips_when_m_equals_n():
    # The radical of the free module is exactly-n, so the m < n gate fails.
    v = run_check("thm_gg", {"group": "C2", "n": 2, "kind": "radical", "seed": 0})
    assert v.status == SKIPPED


def test_default_suite_no_unsupported_small_orders():
    degree1_checks = (
        "gen_count,cc_bound,ut_embed,free_iff_h1zero,dual_fixed,dual_gens,"
        "l00_duality,ww_bridge,gg_growth,yy_upper,aa_cases,jj_lower,lp_order"
    )
    rep = run_suite(degree1_checks, "order<=64", seed=0)
    assert rep["counts"]["UNSUPPORTED"] == 0
    assert not rep["infra_errors"]


def test_ij_bound_passes_odd_and_flags_quaternion():
    # D16: both sides computed, bound holds.
    v = run_check("ij_bound", {"group": "D16", "seed": 0})
    assert v.status == PASS
    # Q8 at p = 2: the squaring map is not a homomorphism and the bound fails;
    # the counterexample is the expected finding.
    v2 = run_check("ij_bound", {"group": "Q8", "seed": 0})
    assert v2.status == COUNTEREXAMPLE
    assert v2.details["p"] == 2
    # Odd p: He27 satisfies the bound.
    v3 = run_check("ij_bound", {"group": "He27", "seed": 0})
    assert v3.status == PASS


def test_l00_duality_example():
    v = run_check("l00_duality", {"group": "C2", "n": 1, "seed": 3})
    assert v.status == PASS
    assert v.details["dim_Q"] + v.details["dim_L"] == v.details["ambient"]


def test_skipped_gate_reported():
    # ggg_exact on a free-module instance: H^1 = 0 != n, so the gate skips.
    v = run_check("ggg_exact", {"group": "C2", "n": 2, "seed": 4})
    assert v.status == SKIPPED


def test_growth_checks_pass_on_radical_instances():
    for cid in ("ggg_exact", "qq_cases", "yy_upper"):
        v = run_check(cid, {"group": "C2", "n": 2, "kind": "radical", "seed": 1})
        assert v.status in (PASS, SKIPPED), (cid, v.status, v.details)


def test_io_rank_semidihedral_finding():
    v = run_check("io_rank", {"group": "SD16", "seed": 0})
    assert v.status == COUNTEREXAMPLE
    assert v.details["normal_elementary_abelian_count"] == 1


def test_jx_rank_cyclic_finding():
    # For cyclic G with the trivial 1-module, every hypothesis holds but the
    # nontrivial extension class is the bigger cyclic group: no generator
    # growth.  A standing, replayable finding.
    v = run_check("jx_rank", {"group": "C4", "seed": 0})
    assert v.status == COUNTEREXAMPLE
    assert v.details["d_extensions"][0] == v.details["d_base"]
    again = run_check("jx_rank", {"group": "C4", "seed": 0})
    assert again.status == COUNTEREXAMPLE and again.details == v.details


def test_du_growth_uses_pushed_cocycles():
    # Pushing honest classes from the full module: the radical-growth claim
    # holds on the cyclic instances.
    v = run_check("du_growth", {"group": "C8", "seed": 0})
    assert v.status == PASS


def test_io_rank_dihedral_structure():
    # D16 meets the structure claim, but inflation moves H^1 of every
    # candidate 1-module over D16/N, so the generator count is never tested:
    # a skip that keeps the structure-claim details, not a PASS.
    v = run_check("io_rank", {"group": "D16", "seed": 0})
    assert v.status == SKIPPED
    assert v.details["structure_claim_dihedral_or_quaternion"]
    assert v.details["reason"] == "no 1-module reaches the generator-count test"
    assert "d_base" not in v.details


def test_special_subgroup_checks_skip_abelian_input():
    # find_special_subgroups refuses abelian groups; the checks reading it skip.
    for cid in ("ddd_iso", "thm5_5", "j", "qp", "ui"):
        v = run_check(cid, {"group": "C2xC2", "seed": 0})
        assert v.status == SKIPPED and v.details == {"reason": "abelian input"}, cid


def test_cor18_on_catalog_member():
    v = run_check("cor18", {"group": "D8", "seed": 0})
    assert v.status == PASS
    assert v.details["found"] and v.details["verified"]


def test_transfer_checks():
    inst = {"group": "C2", "t": 1, "n": 1, "seed": 0}
    for cid in ("xo_unique", "to_iso", "thm2e_image", "tp_products", "dd_layers"):
        v = run_check(cid, inst)
        assert v.status == PASS, (cid, v.details)
    v = run_check("xp_layers", {"group": "C3", "t": 2, "n": 1, "seed": 0})
    assert v.status == PASS


def test_run_suite_empty_filter():
    rep = run_suite("l00_duality", "no-such-tag", seed=0)
    assert rep["counts"][PASS] == 0
    assert not rep["verdicts"]


def test_run_suite_deterministic():
    r1 = report_to_json(run_suite("gen_count,l00_duality", "order<=8", seed=5, budget_ms=2000))
    r2 = report_to_json(run_suite("gen_count,l00_duality", "order<=8", seed=5, budget_ms=2000))
    assert r1 == r2


def test_resolve_check_ids():
    assert resolve_check_ids("all") == sorted(CHECKS)
    assert resolve_check_ids("thm_gg,ui") == ["gg_growth", "ui"]
    with pytest.raises(KeyError):
        resolve_check_ids("bogus")
    for empty in ("", " , "):
        with pytest.raises(UnknownCheckError, match="no check_id"):
            resolve_check_ids(empty)


def test_counterexample_replay():
    rep = run_suite("ij_bound", "quaternion", seed=0, budget_ms=2000)
    assert rep["counts"][COUNTEREXAMPLE] >= 1
    assert replay_counterexamples(rep) == []


def test_replay_solves_its_cohomology_again(monkeypatch):
    # The suite shares solves within a check; replay runs outside that scope,
    # so it derives every verdict again from scratch.
    rep = run_suite("jx_rank", catalog=_fresh_catalog())
    assert rep["counts"][COUNTEREXAMPLE] >= 1
    solves = []
    real = cohomology_module._solve

    def counted(m, degree):
        assert cohomology_module._solved is None
        solves.append(degree)
        return real(m, degree)

    monkeypatch.setattr(cohomology_module, "_solve", counted)
    assert replay_counterexamples(rep) == []
    assert len(solves) > 0


def test_the_suite_shares_solves_within_a_check_and_not_across_checks(monkeypatch):
    # du_growth and jx_rank draw the same modules: one scope over both runs
    # would solve 10 fewer spaces than the two checks alone.
    solves = []
    real = cohomology_module._solve
    monkeypatch.setattr(cohomology_module, "_solve", lambda m, degree: solves.append(degree) or real(m, degree))
    counts = {}
    for cids in ("du_growth", "jx_rank", "du_growth,jx_rank"):
        del solves[:]
        run_suite(cids, catalog=_fresh_catalog())
        counts[cids] = len(solves)
    assert counts["du_growth,jx_rank"] == counts["du_growth"] + counts["jx_rank"] > 0


def test_report_json_serializable():
    rep = run_suite("dual_fixed", "order<=4", seed=0, budget_ms=1000)
    text = report_to_json(rep)
    parsed = json.loads(text)
    assert parsed["counts"] == rep["counts"]


def test_golden_report_digest():
    # The whole registry at the default budget, the instance set that
    # `pgv check` runs: 572 verdicts, 12 per check, including the
    # ij_bound / io_rank / jx_rank counterexamples.
    text = report_to_json(run_suite("all", "all", seed=0))
    assert len(json.loads(text)["verdicts"]) == 572
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "0285d099c7da18661e4aeefa8cee739aed4afeab651a446d6b532e2ce4e4bc8d"


def test_sweep_skip_and_unsupported(monkeypatch):
    drawn = []

    def trials(outcomes):
        for ok, details in outcomes:
            drawn.append(details)
            yield ok, details

    with pytest.raises(Skip) as e:
        _sweep(trials([]), none="gates never met")
    assert e.value.details == {"reason": "gates never met"}
    assert _sweep(trials([(True, {}), (True, {})]), count="maps_tested") == (True, {"maps_tested": 2})
    drawn.clear()
    fail = _sweep(trials([(True, {"i": 0}), (False, {"i": 1}), (False, {"i": 2})]))
    assert fail == (False, {"i": 1})
    assert drawn == [{"i": 0}, {"i": 1}]  # the trial after the first failure is never drawn

    def gate(inst):
        raise Skip("m=1", m=1)

    def large(inst):
        raise Unsupported("H^2 instance too large")

    # A scratch registry, so the demo checks never reach the real one.
    monkeypatch.setattr(checks, "CHECKS", {})
    bodies = {
        "empty": lambda inst: _sweep(iter([])),
        "gate": gate,
        "large": large,
        "holds": lambda inst: (True, {"x": 1}),
        "fails": lambda inst: (False, {"x": 2}),
    }
    for cid, body in bodies.items():
        checks.register(cid, "demo")(body)
    verdicts = {cid: checks.CHECKS[cid].run({"k": cid}).to_dict() for cid in bodies}
    assert verdicts["empty"] == {
        "check_id": "empty", "instance": {"k": "empty"}, "status": SKIPPED,
        "details": {"reason": "hypotheses never met"},
    }
    assert verdicts["gate"]["status"] == SKIPPED
    assert verdicts["gate"]["details"] == {"reason": "m=1", "m": 1}
    assert verdicts["large"]["status"] == UNSUPPORTED
    assert verdicts["large"]["details"] == {"reason": "H^2 instance too large"}
    assert (verdicts["holds"]["status"], verdicts["holds"]["details"]) == (PASS, {"x": 1})
    assert (verdicts["fails"]["status"], verdicts["fails"]["details"]) == (COUNTEREXAMPLE, {"x": 2})


def _tt_oracle(g, n):
    # C_G(N) <= N, element by element.
    outside = [x for x in range(g.order) if not n.contains(x)]
    return not any(np.array_equal(g.mul[x, n.members], g.mul[n.members, x]) for x in outside)


def _qk_oracle(g, n):
    # A group of order p^2 is non-cyclic exactly when its p-th powers vanish.
    wz = set_product(g, omega1(g, subgroup_center(g, n)), center(g))
    if not (n.contains_subgroup(wz) and n.order == wz.order * g.p**2):
        return False
    return bool(wz.bitmap[g.pow_p_table[n.members]].all())


def test_tt_and_qk_gates_differ_on_the_catalog():
    # tt: C_G(N) <= N.  qk: N/(Omega_1(Z(N)) Z(G)) non-cyclic of order p^2.
    seen = {"tt": set(), "qk": set()}
    disagree = []
    for e in builtin_catalog():
        if e.order > 64:
            continue
        g = e.group()
        for n in normal_subgroups(g):
            tt, qk = _self_centralizing(g, n), _noncyclic_double_layer(g, n)
            assert (tt, qk) == (_tt_oracle(g, n), _qk_oracle(g, n)), (e.name, n.order)
            seen["tt"].add(tt)
            seen["qk"].add(qk)
            if tt != qk:
                disagree.append((e.name, n.order))
    assert seen == {"tt": {True, False}, "qk": {True, False}}
    assert disagree
    d8 = next(e for e in builtin_catalog() if e.name == "D8").group()
    whole = normal_subgroups(d8)[-1]
    assert whole.order == 8
    assert _self_centralizing(d8, whole) and _noncyclic_double_layer(d8, whole)


def test_self_centralizing_reads_containment_not_order():
    # hh's smaller layer is self-centralizing, C_G(N1) <= N1, as in its own
    # gate.  The order test |C_G(N1)| <= |N1| passes on this order-8 normal
    # subgroup of D8xC2, whose centralizer of order 4 is not inside it.
    g = find_entry("D8xC2").group()
    n1 = Subgroup(g, range(0, 16, 2))
    assert n1.is_normal()
    c = centralizer(g, n1)
    assert c.order == 4 and not n1.contains_subgroup(c)
    assert not _self_centralizing(g, n1)


def test_centralized_part_matches_member_loop():
    for e in builtin_catalog():
        if e.order > 16:
            continue
        g = e.group()
        normals = normal_subgroups(g)
        for w in normals:
            for a in normals:
                want = [x for x in w.members if centralizer(g, a).contains(int(x))]
                assert _centralized_part(g, w, a).members.tolist() == [int(x) for x in want]


# Checks that draw their module through ``_carrier`` (with its ``extra``) or
# ``_growth_instance``.
CARRIER_CHECKS = dict.fromkeys(
    ("gen_count", "cc_bound", "ut_embed", "free_iff_h1zero", "dual_fixed", "dual_gens", "ww_bridge"), 1
) | {"xu_free": 2}
GROWTH_CHECKS = ("gg_growth", "yy_upper", "jj_lower", "cor8_0", "aa_cases", "qq_cases", "ggg_exact", "kj_h2")


def _sampled_modules_of_the_default_suite():
    cat = builtin_catalog()
    drawn = {}
    for cid, extra in CARRIER_CHECKS.items():
        for inst in CHECKS[cid].generate(cat, 0, 12):
            key = (inst["group"], inst.get("n", 1), inst["seed"], extra)
            if key not in drawn:
                g = checks._group(inst)
                drawn[key] = checks._carrier(g, int(key[1]), int(inst["seed"]), extra)
    for cid in GROWTH_CHECKS:
        for inst in CHECKS[cid].generate(cat, 0, 12):
            key = (inst["group"], inst["n"], inst["seed"], inst.get("kind"))
            if key not in drawn:
                drawn[key] = checks._growth_instance(inst)
    return list(drawn.values())


def test_sampled_modules_match_the_carrier_oracles():
    # Each sampled module is restricted once; its fixed points and H^1 must
    # be those read off the carrier in the free module and off a second,
    # independent restriction.
    samples = _sampled_modules_of_the_default_suite()
    assert len(samples) == 73
    for s in samples:
        assert isinstance(s.module, GModule) and s.module.dim == s.carrier.dim
        assert s.fixed_dim == fixed_points_in_carrier(s.free, s.carrier).dim
        assert s.h1_dim == h1_of_restriction(s.free, s.carrier)


# The checks that read the shared class extensions and transfer pairs cached
# on the catalog tables (``_extension_of_class``, ``_transfer_pair``).
SHARED_EXTENSION_CHECKS = sorted(
    ("xo_unique", "to_iso", "thm2e_image", "tp_products", "dd_layers", "tu_coker", "dp_dim", "rty_eq")
)


def _fresh_catalog():
    """The built-in catalog with no table built, so no memo is shared with
    any earlier test."""
    return builtin_catalog.__wrapped__()


def _verdicts_by_check(report):
    by_check = {}
    for v in report["verdicts"]:
        by_check.setdefault(v["check_id"], []).append(v)
    return by_check


def test_shared_extensions_do_not_depend_on_check_order():
    forward = run_suite(",".join(SHARED_EXTENSION_CHECKS), catalog=_fresh_catalog())
    backward = run_suite(",".join(reversed(SHARED_EXTENSION_CHECKS)), catalog=_fresh_catalog())
    assert not forward["infra_errors"] and not backward["infra_errors"]
    assert list(_verdicts_by_check(forward)) == SHARED_EXTENSION_CHECKS
    assert list(_verdicts_by_check(backward)) == SHARED_EXTENSION_CHECKS[::-1]
    assert _verdicts_by_check(forward) == _verdicts_by_check(backward)


def test_a_check_alone_matches_its_verdicts_in_the_full_run():
    full = _verdicts_by_check(run_suite("all", catalog=_fresh_catalog()))
    for cid in (
        "tu_coker",
        "rty_eq",
        "qq_cases",
        "ggg_exact",
        "aa_cases",
        "jj_lower",
        "du_growth",
        "jx_rank",
        "cor18",
        "px_iff",
    ):
        alone = run_suite(cid, catalog=_fresh_catalog())
        assert alone["verdicts"] == full[cid], cid


def test_each_class_and_collapsed_extension_is_built_once(monkeypatch):
    # Seeds that pick one H^2 class share its extension, and the rank-1
    # extension collapsed from it is cached on it, so no extension these
    # checks read is built twice.
    built = []
    real = checks.build_extension

    def counting(g, m, f, *args, **kwargs):
        built.append((g.fingerprint(), m.act.tobytes(), f.table.tobytes()))
        return real(g, m, f, *args, **kwargs)

    monkeypatch.setattr(checks, "build_extension", counting)
    report = run_suite("qq_cases,ggg_exact,rty_eq", catalog=_fresh_catalog())
    assert not report["infra_errors"]
    assert built and len(set(built)) == len(built)


def test_gen_nonabelian_builds_tables_only_up_to_its_limit():
    cat = _fresh_catalog()
    insts = checks._gen_nonabelian(64)(cat, 0, 2)
    assert [i["seed"] for i in insts] == [0, 0]
    last = next(k for k, e in enumerate(cat) if e.name == insts[-1]["group"])
    assert [e.name for e in cat[: last + 1] if not e.group().is_abelian()] == [i["group"] for i in insts]
    assert all(e._table is None for e in cat[last + 1 :])
    # The lazy scan keeps the list of the full one.
    every = [{"group": e.name, "seed": 5} for e in cat if e.order <= 64 and not e.group().is_abelian()]
    for limit in (0, 2, 12, None):
        assert checks._gen_nonabelian(64)(cat, 5, limit) == every[:limit]
