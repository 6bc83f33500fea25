"""Tests for the benchmark itself (run with ``PYTHONPATH=src``)."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracer
import workloads
from tracer import END, NAME, PARENT, START, Tracer, rollup, self_times

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, "item", attrs]


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        _span("cli.main", 0.0, 10.0, -1),
        _span("cohomology.h2", 1.0, 4.0, 0, {"unknowns": 225}),
        _span("fp_linalg.rref", 2.0, 3.0, 1, {"cells": 12}),
        _span("fp_linalg.rref", 5.0, 9.0, 0, {"cells": 30}),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    m = rollup(spans)
    assert m["cli.main.self_s"] == 3.0
    assert m["cohomology.h2.self_s"] == 2.0
    assert m["fp_linalg.rref.self_s"] == 5.0
    assert m["fp_linalg.rref.calls"] == 2
    assert m["fp_linalg.rref.cells"] == 42
    assert m["fp_linalg.rref.max_cells"] == 30
    assert m["cohomology.h2.unknowns"] == 225


def test_nested_same_layer_span_is_one_call():
    spans = [
        _span("fp_linalg.kernel", 0.0, 2.0, -1),  # left_kernel_array
        _span("fp_linalg.kernel", 0.5, 1.5, 0),  # the right_kernel_array it calls
    ]
    m = rollup(spans)
    assert m["fp_linalg.kernel.calls"] == 1
    assert m["fp_linalg.kernel.self_s"] == 2.0


def test_cert_yield_counts_h1_under_engine_sweep_only():
    spans = [
        _span("noninner.engine_sweep", 0.0, 5.0, -1, {"cert": True}),
        _span("cohomology.h1", 1.0, 2.0, 0, {"unknowns": 8}),
        _span("cohomology.h1", 2.0, 3.0, 0, {"unknowns": 8}),
        _span("cohomology.h1", 6.0, 7.0, -1, {"unknowns": 8}),
    ]
    assert rollup(spans)["noninner.cert_yield"] == 0.5


@pytest.mark.parametrize("n,q", [(51, 80), (52, 80), (73, 85), (9, 50), (100, 90), (1000, 99)])
def test_tail_percentile_rule(n, q):
    assert run.tail_percentile(n) == q
    assert n * (100 - q) / 100 >= 10 or q == 50


def test_tail_mean_averages_the_items_beyond_the_percentile():
    assert run.tail_mean(list(range(11)), 80) == 9.5
    assert run.tail_mean(list(range(52)), 80) == statistics.mean(range(41, 52))
    assert run.tail_mean([7.0], 85) == 7.0
    for n in (51, 52, 73, 100):
        q = run.tail_percentile(n)
        assert run.tail_mean([0.0] * (n - 10) + [1.0] * 10, q) >= 10 / 11


def test_percentile_interpolates():
    assert run.percentile([4, 1, 3, 2], 50) == 2.5
    assert run.percentile(list(range(11)), 80) == 8.0
    assert run.percentile([7.0], 85) == 7.0


def _rep(ms):
    return {"items": [[f"i{k}", t, t, True, "", ""] for k, t in enumerate(ms)], "wall_s": sum(ms) / 1000, "wall_raw_s": sum(ms) / 1000, "rss_mb": 1.0}


def test_item_percentiles_ignore_a_stall_in_one_repetition():
    # Three clusters of items, with p80 at the top edge of the middle one (as on h2_extend).
    ms = [40.0] * 28 + [160.0 + k for k in range(14)] + [440.0] * 10
    setups = [{"setup_s": 1.0, "setup_raw_s": 1.0}]
    stalled = list(ms)
    stalled[3] = 700.0  # one short item stalled past the upper cluster
    calm, _ = run.summarize([_rep(ms)] * run.MIN_REPS, setups)
    got, info = run.summarize([_rep(stalled)] + [_rep(ms)] * (run.MIN_REPS - 1), setups)
    assert info["tail_percentile"] == 80
    assert got["item_tail_ms"] == calm["item_tail_ms"] == pytest.approx((173.0 + 4400.0) / 11)
    assert got["item_p50_ms"] == calm["item_p50_ms"]


def test_gate_failures_counts_failed_items_and_changed_reports():
    rep0 = {"items": [["a", 1.0, 1.0, True, "", "d1"], ["b", 1.0, 1.0, False, "exit 2", ""]]}
    rep1 = {"items": [["a", 1.0, 1.0, True, "", "d2"], ["b", 1.0, 1.0, True, "", ""]]}
    failures = run.gate_failures([rep0, rep1])
    assert len(failures) == 2
    assert "exit 2" in failures[0] and "differ" in failures[1]


def test_tampered_certificate_fails_although_verify_exits_0(tmp_path):
    import pgv.cli

    cert = tmp_path / "cert.json"
    argvs = [
        ["find-noninner", "--group", "D8", "--mode", "search", "--out", str(cert)],
        ["verify", "--group", "D8", "--cert", str(cert)],
    ]
    good = [workloads.run_cli(pgv.cli.main, a) for a in argvs]
    assert workloads.noninner_gate(good).ok

    data = json.loads(cert.read_text())
    data["map"] = list(range(len(data["map"])))  # the identity: order 1, inner
    cert.write_text(json.dumps(data))
    rc, out = workloads.run_cli(pgv.cli.main, argvs[1])
    assert rc == 0 and out.strip().splitlines()[-1] == "INVALID"
    assert not workloads.noninner_gate([good[0], (rc, out)]).ok


def test_h2_and_extend_gates_compare_with_recorded_values():
    line = (0, "Z^2: 16  B^2: 13  H^2: 3\n")
    assert workloads.h2_gate([16, 13, 3])([line]).ok
    assert not workloads.h2_gate([16, 13, 4])([line]).ok
    assert not workloads.h2_gate(None)([line]).ok
    assert workloads.extend_gate(32)([(0, "extension order: 32\n")]).ok
    assert not workloads.extend_gate(32)([(0, "extension order: 16\n")]).ok


def _bindings():
    import pgv.checks
    import pgv.cli  # noqa: F401  (loads every pgv module)
    import pgv.fp_linalg as fl

    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "pgv" or name.startswith("pgv."):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    for cls in (fl.RowSpace, fl.FpSubspace):
        snap.update({(cls.__name__, k): v for k, v in vars(cls).items()})
    snap.update({("check", cid): c.run for cid, c in pgv.checks.CHECKS.items()})
    return snap


def test_uninstall_restores_every_binding():
    before = _bindings()
    t = Tracer()
    t.install()
    try:
        during = _bindings()
        changed = {k for k in before if before[k] is not during[k]}
        for key in [
            ("pgv.fp_linalg", "rref_array"),
            ("pgv.cli", "builtin_catalog"),
            ("pgv.suite", "builtin_catalog"),
            ("pgv.extensions", "RowSpace"),  # same class object: wrapped on the class
            ("RowSpace", "add"),
            ("FpSubspace", "from_rows"),
            ("check", "tp_products"),
        ]:
            assert (key in changed) == (key != ("pgv.extensions", "RowSpace")), key
    finally:
        t.uninstall()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_wrappers_record_spans_and_counts():
    import pgv.cli  # noqa: F401
    import pgv.fp_linalg as fl
    from pgv.catalog import find_entry
    from pgv.gmodule import trivial_module

    t = Tracer()
    t.install()
    try:
        rs = fl.RowSpace(2, 3)
        rs.add(np.array([[1, 0, 1], [1, 0, 1]]))
        fl.FpSubspace.from_rows([[1, 1, 0]], 2)
        first = rollup(list(t.spans))
        g = find_entry("C4").group()
        sys.modules["pgv.cohomology"].cohomology(g, trivial_module(g, 1), 2)
    finally:
        t.uninstall()
    assert first["fp_linalg.rowspace_add.calls"] == 1
    assert first["fp_linalg.rowspace_add.useful_ratio"] == 0.5
    assert first["fp_linalg.subspace_from_rows.calls"] == 1
    m = rollup(t.spans)
    assert m["cohomology.h2.calls"] == 1 and m["cohomology.h2.unknowns"] == 9
    assert m["fp_linalg.rref.calls"] >= 2
    assert all(s[END] >= s[START] for s in t.spans)
    assert all(s[PARENT] < i for i, s in enumerate(t.spans))
    assert {s[NAME] for s in t.spans} <= set(tracer.TIMED_SPANS) | {"catalog.builtin_catalog"}


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracer.PER_LAYER
    assert set(rollup([])) | {"trace.overhead_s"} == set(tracer.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_speed_probe_removes_samples_and_scales_by_nearby_speed():
    import child

    probe = child.SpeedProbe()
    nominal = child.PROBE_NOMINAL_S
    # Samples at t = 0, 1, 2, 3 s; the machine runs at half speed around the item.
    probe.starts = [0.0, 1.0, 2.0, 3.0]
    probe.durations = [nominal, 2 * nominal, 2 * nominal, 2 * nominal]
    # Item [0.5, 2.5] holds the samples at 1 and 2; their time is not the item's.
    # Nearby samples are 0..3: mean duration 1.75 * nominal.
    got = probe.scaled(0.5, 2.5)
    assert got == pytest.approx((2.0 - 4 * nominal) / 1.75)
