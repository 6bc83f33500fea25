import json

import pytest

from pgv.cli import main


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
    assert "infrastructure error" not in capsys.readouterr().err


def test_h1_command(capsys):
    rc = main(["h1", "--group", "D16", "--normal", "derived"])
    assert rc == 0
    assert "H^1:" in capsys.readouterr().out


def test_h2_command(capsys):
    rc = main(["h2", "--group", "C3", "--module", "trivial:1"])
    assert rc == 0
    assert "H^2: 1" in capsys.readouterr().out


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
    from pgv.checks import run_check
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
