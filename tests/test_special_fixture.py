"""The order-32 fixture with real special subgroups, tests/data/special32.pres.

No group of the built-in catalog has a special subgroup, so these three
groups are where the Section-5 checks and paper mode meet their hypotheses.
"""

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from pgv.catalog import load_catalog
from pgv.group_core import find_isomorphism
from pgv.noninner import descent, engine_sweep, find_special_subgroups
from tests.groups import run_check

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "data" / "special32.pres"

# The checks on the special-subgroup instances (_gen_special) and lp_order.
SECTION5_CHECKS = (
    "cor18", "ddd_iso", "hh", "ij_bound", "j", "kl", "l3_2", "ll", "lp_order", "qk", "qp",
    "t9_2", "thm5_5", "tt", "ty", "ui", "xi", "xpl", "xx", "xy", "yu",
)


@pytest.fixture(scope="module")
def fixture_groups():
    return [(e.name, e.group()) for e in load_catalog(str(FIXTURE))]


def test_fixture_groups_are_the_special_extensions_of_k4sc4(fixture_groups):
    gen = runpy.run_path(str(ROOT / "scripts" / "generate_data.py"))
    assert [name for name, _ in fixture_groups] == [gen["name"](c) for c in gen["COEFFS"]]
    for (name, g), coeffs in zip(fixture_groups, gen["COEFFS"]):
        assert find_isomorphism(gen["extension"](coeffs), g) is not None, name
        assert [r.subgroup.order for r in find_special_subgroups(g) if r.special] == [8], name


def section5_transcript(fixture_groups):
    """Every Section-5 verdict at seed 0, then paper mode and the search
    sweep, for each fixture group."""
    lines = []
    for name, g in fixture_groups:
        for cid in SECTION5_CHECKS:
            v = run_check(cid, {"group_table": g, "seed": 0})
            lines.append(json.dumps([name, cid, v.status, v.details], sort_keys=True))
        lines.append(descent(g).to_json())
        cert = engine_sweep(g)
        lines.append(cert.to_json() if cert is not None else "no certificate\n")
    return "".join(line if line.endswith("\n") else line + "\n" for line in lines)


def test_section5_golden_digest(fixture_groups):
    text = section5_transcript(fixture_groups)
    assert hashlib.sha256(text.encode()).hexdigest() == "b388e853b33d8894c29e77b70258c8d9fb7d194e6651fe370652c6a0b0b85b03"

