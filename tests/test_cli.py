import json

import pytest

import pgv.cli as cli
import pgv.cohomology as cohomology_module
import pgv.fp_linalg as fl
from pgv.catalog import builtin_catalog, find_entry
from pgv.checks import CHECKS
from pgv.cli import main
from pgv.cohomology import cohomology, solve_size
from pgv.gmodule import DEFAULT_DIM_CAP, trivial_module
from tests.groups import run_check


def test_catalog_list(capsys):
    rc = main(["catalog", "list", "--filter", "dihedral"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "D8" in out and "D64" in out


def test_group_info(capsys):
    rc = main(["group", "info", "Q8"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "order: 8 = 2^3" in out
    assert "abelian: False" in out


def test_group_info_from_file(tmp_path, capsys):
    f = tmp_path / "g.pres"
    f.write_text("group X\np 3\ngens 2\npow 1 : g2\npow 2 : 1\nend\n")
    rc = main(["group", "info", str(f)])
    assert rc == 0
    assert "order: 9 = 3^2" in capsys.readouterr().out


def test_group_file_with_several_groups_is_a_usage_error(capsys):
    from pathlib import Path

    fixture = Path(__file__).resolve().parent / "data" / "special32.pres"
    assert main(["group", "info", str(fixture)]) == 1
    captured = capsys.readouterr()
    assert "holds 3 groups" in captured.err and captured.out == ""


def test_usage_errors(tmp_path, capsys):
    assert main(["group", "info", "NoSuchGroup"]) == 1
    assert main(["h1", "--group", "D8", "--normal", "bogus-name"]) == 1
    assert main(["check", "--id", "not-a-check"]) == 1
    assert main(["h2", "--group", "C4", "--module", "trivial:x"]) == 1
    assert main(["h2", "--group", "C4", "--module", "trivial:-1"]) == 1
    assert main(["extend", "--group", "C2", "--kernel", "x"]) == 1
    assert main(["extend", "--group", "C2", "--kernel", "5,1"]) == 1
    assert main(["extend", "--group", "D16", "--kernel", "9"]) == 1  # order 8192 > cap
    for cap in ("0", "-3", "x"):
        assert main(["h2", "--group", "C4", "--h2-cap", cap]) == 1
    assert main(["--order-cap", "-5", "group", "info", "C4"]) == 1
    for seed in ("-3", "x"):
        assert main(["--seed", seed, "check", "--id", "gen_count"]) == 1
    for budget in ("-5", "0", "x"):
        assert main(["check", "--id", "gen_count", "--budget-ms", budget]) == 1
    assert main(["check", "--id", "gen_count", "--catalog", "order<=abc"]) == 1
    assert main(["catalog", "list", "--filter", "p=x"]) == 1
    not_utf8 = tmp_path / "binary.pres"
    not_utf8.write_bytes(b"\xff\xfe")
    for unreadable in (tmp_path, not_utf8):
        assert main(["group", "info", str(unreadable)]) == 1
        assert main(["check", "--id", "gen_count", "--catalog-file", str(unreadable)]) == 1
    not_json = tmp_path / "not.json"
    not_json.write_text("this is not json")
    wrong_shape = tmp_path / "shape.json"
    wrong_shape.write_text("[[0, 1], [1, 0]]")
    for bad in (not_json, wrong_shape):
        assert main(["extend", "--group", "C2", "--kernel", "1", "--cocycle", str(bad)]) == 1
        assert main(["verify", "--group", "M16", "--cert", str(bad)]) == 1
    out_is_a_directory = ["--out", str(tmp_path)]
    assert main(["extend", "--group", "C2", "--kernel", "1", *out_is_a_directory]) == 1
    assert main(["find-noninner", "--group", "D8", *out_is_a_directory]) == 1
    assert main(["check", "--id", "gen_count", "--catalog", "C2", *out_is_a_directory]) == 1
    assert "infrastructure error" not in capsys.readouterr().err


def test_unknown_check_id_is_a_plain_usage_error(capsys):
    assert main(["check", "--id", "nope"]) == 1
    assert capsys.readouterr().err == "usage error: unknown check_id 'nope'\n"
    # An expression that names no check at all runs nothing and writes no report.
    for expr in ("", " , "):
        assert main(["check", "--id", expr]) == 1
        assert capsys.readouterr() == ("", f"usage error: no check_id in {expr!r}\n")


def test_key_error_inside_a_command_is_an_infrastructure_error(monkeypatch, capsys):
    # Only an unknown check id is the user's fault; any other KeyError is a bug.
    def broken(*args, **kwargs):
        raise KeyError("internal")

    monkeypatch.setattr(cli, "run_suite", broken)
    assert main(["check", "--id", "gen_count"]) == 2
    assert capsys.readouterr().err == "infrastructure error: KeyError('internal')\n"


def test_unwritable_out_fails_before_any_work(monkeypatch, tmp_path, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran before --out was checked")

    monkeypatch.setattr(cli, "run_suite", no_work)
    monkeypatch.setattr(cli, "find_noninner", no_work)
    monkeypatch.setattr(cli, "build_extension", no_work)
    missing_parent = str(tmp_path / "missing" / "out.json")
    for out in (str(tmp_path), missing_parent):
        assert main(["check", "--id", "all", "--out", out]) == 1
        assert main(["find-noninner", "--group", "D8", "--out", out]) == 1
        assert main(["extend", "--group", "C2", "--kernel", "1", "--out", out]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count(f"usage error: cannot write --out {out!r}") == 3


@pytest.mark.parametrize(
    "table, rc",
    [
        ([[[0], [0], [0], [0]], [[0], [0], [1], [0]], [[0], [0], [0], [0]], [[0], [0], [0], [0]]], 1),
        ([[[1], [1]], [[1], [1]]], 1),  # d sigma with sigma(1) = 1: a cocycle, not normalized
        ([[[0], [0]], [[0], [1]]], 0),
    ],
)
def test_extend_with_cocycle_file(tmp_path, capsys, table, rc):
    f = tmp_path / "f.json"
    f.write_text(json.dumps(table))
    group = "C4" if len(table) == 4 else "C2"
    assert main(["extend", "--group", group, "--kernel", "1", "--cocycle", str(f)]) == rc
    captured = capsys.readouterr()
    if rc:
        assert captured.err == "not a cocycle\n" and captured.out == ""
    else:
        assert "extension order: 4" in captured.out


def test_h1_command(capsys):
    rc = main(["h1", "--group", "D16", "--normal", "derived"])
    assert rc == 0
    assert "H^1:" in capsys.readouterr().out
    # h1 has one module, so it takes no --module option.
    assert main(["h1", "--group", "D16", "--normal", "derived", "--module", "omega1-center"]) == 1


@pytest.mark.parametrize("index", ["99", "8", "-1"])
def test_h1_normal_index_outside_the_group_is_a_usage_error(capsys, index):
    # -1 would otherwise be element 7 of D8 by numpy's negative indexing.
    assert main(["h1", "--group", "D8", "--normal", index]) == 1
    assert f"usage error: --normal element indices must lie in 0..7, got '{index}'" in capsys.readouterr().err


def test_h2_command(capsys):
    rc = main(["h2", "--group", "C3", "--module", "trivial:1"])
    assert rc == 0
    assert "H^2: 1" in capsys.readouterr().out


@pytest.mark.parametrize("name, dim", [("C3", 1), ("D8", 2), ("C3xC3", 1), ("Q16", 1)])
def test_h2_size_estimate_is_the_first_slice(monkeypatch, name, dim):
    # The first array the solver takes a kernel of is the image of the seed
    # under the first slice: a row per unknown f(x, s)_c, x != 1 and s in a
    # minimal generating sequence, and a column per value f(x, y)_c of a
    # whole table, identity arguments included.
    g = find_entry(name).group()
    shapes = []
    real = fl.left_kernel_basis

    def recording(a, p):
        shapes.append((a.shape, a.nbytes))
        return real(a, p)

    monkeypatch.setattr(fl, "left_kernel_basis", recording)
    cohomology(g, trivial_module(g, dim), 2)
    unknowns, seed_bytes = solve_size(g, dim, 2)
    q, rank = g.order, len(g.burnside_basis())
    assert unknowns == (q - 1) * rank * dim
    assert shapes[0] == ((unknowns, q**2 * dim), seed_bytes)


def test_h_reps_are_built_on_first_use_only(monkeypatch, capsys):
    calls = []
    real = fl.complement_reps

    def counting(sub, space, p):
        calls.append(space.shape)
        return real(sub, space, p)

    monkeypatch.setattr(fl, "complement_reps", counting)
    g = find_entry("D8").group()
    sp = cohomology(g, trivial_module(g, 2), 2)
    assert calls == []
    reps = sp.h_reps
    assert len(calls) == 1 and len(reps) == sp.h_dim
    assert sp.h_reps is reps and len(calls) == 1
    assert main(["h2", "--group", "D8", "--module", "trivial:2"]) == 0
    assert "H^2: " in capsys.readouterr().out
    assert len(calls) == 1


def test_h2_announces_a_large_solve_on_stderr_only(monkeypatch, capsys):
    assert main(["h2", "--group", "D8"]) == 0
    quiet = capsys.readouterr()
    assert quiet.err == ""
    monkeypatch.setattr(cli, "H2_ANNOUNCE_BYTES", 14 * 64 * 8)
    assert main(["h2", "--group", "D8"]) == 0
    loud = capsys.readouterr()
    assert loud.out == quiet.out
    assert loud.err == "h2: 14 unknowns; the seed and each slice image take 0 MiB\n"
    assert main(["h2", "--group", "C3xC3"]) == 0  # 16 unknowns, 81 values each
    assert "h2: 16 unknowns" in capsys.readouterr().err
    assert main(["h2", "--group", "C3xC3", "--h2-cap", "8"]) == 2  # refused, not announced
    assert "unknowns" not in capsys.readouterr().err


def test_h2_caps_the_module_dimension_before_building_it(monkeypatch, capsys):
    built = []

    def recording(g, dim):
        built.append((dim, capsys.readouterr().err))
        assert dim <= DEFAULT_DIM_CAP, "module built before the cap check"
        return trivial_module(g, dim)

    monkeypatch.setattr(cli, "trivial_module", recording)
    for dim in (DEFAULT_DIM_CAP + 1, 99999):
        assert main(["h2", "--group", "D8", "--module", f"trivial:{dim}"]) == 1
        assert capsys.readouterr().err == f"usage error: module dimension {dim} exceeds the cap {DEFAULT_DIM_CAP}\n"
    assert built == []
    # The solve size is announced before the module is built.
    monkeypatch.setattr(cli, "H2_ANNOUNCE_BYTES", 0)
    assert main(["h2", "--group", "D8", "--module", "trivial:2"]) == 0
    assert built == [(2, "h2: 28 unknowns; the seed and each slice image take 0 MiB\n")]


def test_h2_then_extend_share_solves_and_print_what_an_empty_cache_prints(monkeypatch, capsys):
    # Each extend reads the H^2 that the h2 command before it solved: on the
    # groups of order 16 and 27, 52 commands make 33 solves in one process.
    solves = []
    real = cohomology_module._solve
    monkeypatch.setattr(cohomology_module, "_solve", lambda m, degree: solves.append(degree) or real(m, degree))
    argvs = []
    for e in builtin_catalog():
        if e.order in (16, 27):
            for module in ("trivial:1", "trivial:2") if e.order == 16 else ("trivial:1",):
                argvs.append(["h2", "--group", e.name, "--module", module])
            argvs.append(["extend", "--group", e.name, "--kernel", "1"])
    outs = []
    for argv in argvs:
        assert main(argv) == 0, argv
        outs.append(capsys.readouterr().out)
    assert (len(argvs), len(solves)) == (52, 33)
    for argv, out in zip(argvs, outs):
        with cohomology_module.fresh_solve_cache():
            assert main(argv) == 0, argv
        assert capsys.readouterr().out == out, argv


def test_extend_command(tmp_path, capsys):
    out = tmp_path / "ext.pres"
    rc = main(["extend", "--group", "C2", "--kernel", "1", "--cocycle", "random", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "extension order: 4" in text
    assert out.exists()
    # The written presentation parses and builds.
    from pgv.group_core import from_pc_presentation
    from pgv.presentations import parse_presentations

    pres = parse_presentations(out.read_text())[0]
    assert from_pc_presentation(pres).order == 4


def test_find_and_verify_roundtrip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    rc = main(["find-noninner", "--group", "M16", "--mode", "search", "--out", str(cert)])
    assert rc == 0
    rc2 = main(["verify", "--group", "M16", "--cert", str(cert)])
    assert rc2 == 0
    out = capsys.readouterr().out
    assert "VALID" in out
    payload = json.loads(cert.read_text())
    assert set(payload) == {"fingerprint", "p", "order", "map", "provenance", "transcript"}


@pytest.mark.parametrize(
    "group, line",
    [
        ("C2", "no non-inner automorphism of order p exists (exhaustive search over Aut(G))"),
        (
            "C2xC2xC2xC2xC2",
            "no non-inner automorphism of order p found; the search is exhaustive "
            "only up to order 16, so one may still exist",
        ),
    ],
)
def test_find_noninner_says_whether_none_is_proved(group, line, capsys):
    # Up to the search's order limit "none" is a proof; past it, only a miss.
    assert main(["find-noninner", "--group", group]) == 0
    assert capsys.readouterr().out.splitlines() == [line]


def test_verify_wrong_group_is_infra_error(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(["find-noninner", "--group", "M16", "--out", str(cert)])
    rc = main(["verify", "--group", "D16", "--cert", str(cert)])
    assert rc == 2


def _tampered_cert(tmp_path, edit):
    cert = tmp_path / "cert.json"
    assert main(["find-noninner", "--group", "M16", "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    assert "tau_table" in payload["provenance"]
    edit(payload)
    cert.write_text(json.dumps(payload))
    return cert


def _tampered_map_cert(tmp_path, edit):
    return _tampered_cert(tmp_path, lambda payload: edit(payload["map"]))


def _verify_says_invalid(cert, capsys, what="map"):
    """The line before INVALID, which names the failed part of the certificate."""
    capsys.readouterr()
    rc = main(["verify", "--group", "M16", "--cert", str(cert)])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert rc == 0  # the INVALID exit code is unchanged
    assert lines[-1] == "INVALID"
    assert lines[-2].startswith(f"FAIL {what} ")
    assert "error" not in captured.err
    return lines[-2]


def test_verify_map_of_wrong_length_is_invalid(tmp_path, capsys):
    cert = _tampered_map_cert(tmp_path, lambda m: m.pop())
    assert _verify_says_invalid(cert, capsys) == "FAIL map length 15 != 16"


def test_verify_map_entry_past_the_order_is_invalid(tmp_path, capsys):
    cert = _tampered_map_cert(tmp_path, lambda m: m.__setitem__(4, 16))
    assert "entry 4 = 16" in _verify_says_invalid(cert, capsys)


def test_verify_negative_map_entry_is_invalid(tmp_path, capsys):
    cert = _tampered_map_cert(tmp_path, lambda m: m.__setitem__(0, -1))
    assert "entry 0 = -1" in _verify_says_invalid(cert, capsys)


def _provenance_says_invalid(tmp_path, capsys, edit):
    cert = _tampered_cert(tmp_path, lambda payload: edit(payload["provenance"]))
    return _verify_says_invalid(cert, capsys, "provenance")


def test_verify_provenance_member_past_the_order_is_invalid(tmp_path, capsys):
    line = _provenance_says_invalid(tmp_path, capsys, lambda p: p.__setitem__("n1_members", [99]))
    assert line == "FAIL provenance n1_members entry 0 = 99 is not an element index in 0..15"


def test_verify_null_provenance_basis_is_invalid(tmp_path, capsys):
    line = _provenance_says_invalid(tmp_path, capsys, lambda p: p.__setitem__("w_basis", None))
    assert line == "FAIL provenance w_basis is a NoneType, not a list"


def test_verify_provenance_without_members_is_invalid(tmp_path, capsys):
    line = _provenance_says_invalid(tmp_path, capsys, lambda p: p.pop("n1_members"))
    assert line == "FAIL provenance n1_members missing"


def test_verify_provenance_that_is_no_object_is_invalid(tmp_path, capsys):
    cert = _tampered_cert(tmp_path, lambda payload: payload.__setitem__("provenance", [1]))
    assert _verify_says_invalid(cert, capsys, "provenance") == "FAIL provenance is a list, not an object"


def test_order_cap_refuses_catalog_groups(capsys):
    assert main(["--order-cap", "8", "group", "info", "D16"]) == 2
    assert "order cap: 16 > 8" in capsys.readouterr().err
    assert main(["--order-cap", "16", "group", "info", "D16"]) == 0


def test_h2_cap_is_a_refusal_not_an_infrastructure_error(capsys):
    for argv in (["h2", "--group", "C81"], ["extend", "--group", "C81", "--kernel", "1"]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cap exceeded") and "infrastructure error" not in err


def test_paper_mode_diagnostic(tmp_path, capsys):
    out = tmp_path / "diag.json"
    rc = main(["find-noninner", "--group", "D8", "--mode", "paper", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "search-mode certificate exists" in text
    assert "step" in json.loads(out.read_text())


def test_check_command(tmp_path, capsys):
    out = tmp_path / "report.json"
    rc = main(
        ["check", "--id", "l00_duality", "--catalog", "order<=8", "--budget-ms", "2000", "--out", str(out)]
    )
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["counts"]["PASS"] >= 1
    assert rep["counts"]["UNSUPPORTED"] == 0


def test_check_counterexample_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["check", "--id", "ij_bound", "--catalog", "quaternion", "--out", str(out)])
    assert rc == 0  # counterexamples are findings, not failures
    rep = json.loads(out.read_text())
    assert rep["counts"]["COUNTEREXAMPLE"] >= 1


def test_check_resolves_groups_in_the_catalog_file(tmp_path, capsys):
    # A file group named like the built-in D8 but with Q8's presentation must
    # get Q8's verdicts, in the run and in the replay.
    from pgv.catalog import find_entry
    from pgv.presentations import render_presentation

    q8 = find_entry("Q8").presentation
    f = tmp_path / "q8.pres"
    f.write_text(render_presentation(q8).replace(f"group {q8.name}", "group D8"))
    out = tmp_path / "report.json"
    ids = "ij_bound,cor18,ui"
    assert main(["check", "--id", ids, "--catalog-file", str(f), "--replay", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["infra_errors"] == [] and rep["replay_mismatches"] == []
    got = {v["check_id"]: (v["status"], v["details"]) for v in rep["verdicts"]}
    want = {}
    for cid in ids.split(","):
        v = run_check(cid, {"group": "Q8", "seed": 0})
        want[cid] = (v.status, v.details)
    assert got == want
    assert got["ij_bound"][0] == "COUNTEREXAMPLE"  # D8 itself passes ij_bound


def test_check_on_the_special_fixture_has_no_infrastructure_error(tmp_path):
    from pathlib import Path

    fixture = Path(__file__).resolve().parent / "data" / "special32.pres"
    out = tmp_path / "report.json"
    rc = main(["check", "--id", "all", "--catalog-file", str(fixture), "--replay", "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["infra_errors"] == [] and rep["replay_mismatches"] == []
    assert rep["counts"]["PASS"] > 0 and rep["counts"]["COUNTEREXAMPLE"] > 0


def test_check_names_the_checks_it_never_tested_on_stderr(capsys):
    from pathlib import Path

    fixture = Path(__file__).resolve().parent / "data" / "special32.pres"
    assert main(["check", "--id", "all", "--catalog-file", str(fixture)]) == 0
    out, err = capsys.readouterr()
    rep = json.loads(out)
    # Oracle: the registry's ids against the statuses of the report.
    statuses = {cid: {v["status"] for v in rep["verdicts"] if v["check_id"] == cid} for cid in sorted(CHECKS)}
    none = [cid for cid, st in statuses.items() if not st]
    vacuous = [cid for cid, st in statuses.items() if st and not st & {"PASS", "COUNTEREXAMPLE"}]
    assert (len(none), len(vacuous)) == (30, 8)
    assert vacuous == ["hh", "j", "l3_2", "qk", "qp", "ty", "xx", "xy"]
    assert err.splitlines()[1:] == [
        f"no instance (30): {' '.join(none)}",
        "no PASS or COUNTEREXAMPLE (8): hh j l3_2 qk qp ty xx xy",
    ]
    # A run that tests every check it names says so.
    assert main(["check", "--id", "gen_count,gen_count", "--catalog", "C2xC2"]) == 0
    assert capsys.readouterr().err.splitlines()[1:] == ["no instance (0): -", "no PASS or COUNTEREXAMPLE (0): -"]


def test_one_parser_serves_every_call_of_a_process(capsys):
    """main reuses one parser; a usage error from it leaves the next call as a
    separate run of the command would see it."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    argvs = [["group", "info", "Q8"], ["h2", "--bogus"], ["h2", "--group", "C4"]]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    separate = []
    for argv in argvs:
        run = subprocess.run([sys.executable, "-m", "pgv.cli", *argv], capture_output=True, text=True, env=env)
        separate.append((run.returncode, run.stdout))
    capsys.readouterr()
    in_process = []
    for argv in argvs:
        rc = main(argv)
        in_process.append((rc, capsys.readouterr().out))
    assert in_process == separate
    assert [rc for rc, _ in separate] == [0, 1, 0]
    assert cli.build_parser() is cli.build_parser()


def test_certify_verify_and_check_leave_numpy_ma_unimported(tmp_path):
    """numpy 2.4's np.unique imports numpy.ma (about 13 ms per process); pgv
    takes distinct element indices from bitmaps, so none of these commands
    should pull it in.  A fresh interpreter, since the test process may
    have imported it already."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    cert = tmp_path / "d8.json"
    script = f"""
import sys
from pgv.cli import main
assert main(["find-noninner", "--group", "D8", "--out", {str(cert)!r}]) == 0
assert main(["verify", "--group", "D8", "--cert", {str(cert)!r}]) == 0
assert main(["check", "--id", "cor18"]) == 0
print("numpy.ma imported:", "numpy.ma" in sys.modules)
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "\nVALID\n" in run.stdout
    assert run.stdout.splitlines()[-1] == "numpy.ma imported: False"
