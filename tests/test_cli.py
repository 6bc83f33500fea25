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


def test_usage_errors(tmp_path, capsys):
    assert main(["group", "info", "NoSuchGroup"]) == 1
    assert main(["h1", "--group", "D8", "--normal", "bogus-name"]) == 1
    assert main(["check", "--id", "not-a-check"]) == 1
    assert main(["h2", "--group", "C4", "--module", "trivial:x"]) == 1
    assert main(["h2", "--group", "C4", "--module", "trivial:-1"]) == 1
    assert main(["extend", "--group", "C2", "--kernel", "x"]) == 1
    assert main(["extend", "--group", "C2", "--kernel", "5,1"]) == 1
    assert main(["extend", "--group", "D16", "--kernel", "9"]) == 1  # order 8192 > cap
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


def _tampered_map_cert(tmp_path, edit):
    cert = tmp_path / "cert.json"
    assert main(["find-noninner", "--group", "M16", "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    edit(payload["map"])
    cert.write_text(json.dumps(payload))
    return cert


def _verify_says_invalid_map(cert, capsys):
    capsys.readouterr()
    rc = main(["verify", "--group", "M16", "--cert", str(cert)])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert rc == 0  # the INVALID exit code is unchanged
    assert lines[-1] == "INVALID"
    assert lines[0].startswith("FAIL map ")
    assert "error" not in captured.err
    return lines[0]


def test_verify_map_of_wrong_length_is_invalid(tmp_path, capsys):
    cert = _tampered_map_cert(tmp_path, lambda m: m.pop())
    assert _verify_says_invalid_map(cert, capsys) == "FAIL map length 15 != 16"


def test_verify_map_entry_past_the_order_is_invalid(tmp_path, capsys):
    cert = _tampered_map_cert(tmp_path, lambda m: m.__setitem__(4, 16))
    assert "entry 4 = 16" in _verify_says_invalid_map(cert, capsys)


def test_verify_negative_map_entry_is_invalid(tmp_path, capsys):
    cert = _tampered_map_cert(tmp_path, lambda m: m.__setitem__(0, -1))
    assert "entry 0 = -1" in _verify_says_invalid_map(cert, capsys)


def test_order_cap_refuses_catalog_groups(capsys):
    assert main(["--order-cap", "8", "group", "info", "D16"]) == 2
    assert "order cap: 16 > 8" in capsys.readouterr().err
    assert main(["--order-cap", "16", "group", "info", "D16"]) == 0


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
