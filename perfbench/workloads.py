"""The benchmark's workloads: items built from the catalog, run through
``pgv.cli.main``, each judged by a correctness gate.

Every item is one CLI invocation or, for ``noninner_certify``, one
``find-noninner`` + ``verify`` pair.

The seed is passed as ``--seed`` to the ``h2_extend`` and
``noninner_certify`` commands, where it picks the cocycle ``extend`` uses
and nothing that changes the amount of work.  ``check_suite`` runs at pgv's
default ``--seed 0``: there the seed picks the cocycles whose extensions the
checks build, so the work itself changed with it (``tp_products`` took 2.9 s
at seed 22 and 4.5 s at seed 23) and the spread between seeds hid any
change of the code.  Items run in one fixed order (check id, catalog order)
because peak RSS depends on what is still cached when the largest item runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, List, Optional, Sequence, Tuple

WORKLOADS = ("check_suite", "noninner_certify", "h2_extend")

# Z^2/B^2/H^2 dimensions printed by ``pgv h2`` at the commit that defined the
# benchmark.  They are invariants of the group, so a correct change never
# moves them.
INVARIANTS_FILE = Path(__file__).with_name("h2_invariants.json")


@dataclass
class Outcome:
    ok: bool
    reason: str = ""
    digest: str = ""  # sha256 of the output file, compared across repetitions


@dataclass
class Item:
    """One unit of work: a list of CLI argv lists plus the gate that judges them."""

    id: str
    argvs: List[List[str]]
    gate: Callable[[List[Tuple[int, str]]], Outcome]


def run_cli(main: Callable, argv: List[str]) -> Tuple[int, str]:
    """Run ``pgv.cli.main(argv)`` in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as e:  # argparse paths that escape main()
            rc = e.code if isinstance(e.code, int) else 2
    return rc, out.getvalue()


def run_item(main: Callable, item: Item) -> Tuple[Outcome, float, float]:
    """Run and judge one item; returns its outcome and when its commands began and ended.

    An exception fails the item, not the run.
    """
    start = perf_counter()
    try:
        results = [run_cli(main, argv) for argv in item.argvs]
    except Exception as e:  # a crash inside pgv is a failed item
        return Outcome(False, f"exception: {e!r}"), start, perf_counter()
    end = perf_counter()
    try:
        return item.gate(results), start, end
    except (OSError, ValueError, KeyError) as e:  # missing or malformed output file
        return Outcome(False, f"gate: {e!r}"), start, end


# -- gates ---------------------------------------------------------------------


def check_gate(out_path: str) -> Callable:
    def gate(results):
        (rc, _), = results
        if rc != 0:
            return Outcome(False, f"exit {rc}")
        data = Path(out_path).read_bytes()
        report = json.loads(data)
        if report["infra_errors"]:
            return Outcome(False, f"{len(report['infra_errors'])} infra_errors")
        if report.get("replay_mismatches") != []:
            return Outcome(False, "replay_mismatches not empty")
        return Outcome(True, digest=hashlib.sha256(data).hexdigest())

    return gate


def noninner_gate(results) -> Outcome:
    """Judge the printed verdict: ``pgv verify`` exits 0 on INVALID too."""
    (find_rc, find_out), (verify_rc, verify_out) = results
    if find_rc != 0 or "certificate written to" not in find_out:
        return Outcome(False, f"no certificate (exit {find_rc})")
    if "self-verification: PASS" not in find_out:
        return Outcome(False, "self-verification did not pass")
    lines = verify_out.strip().splitlines()
    if verify_rc != 0 or not lines or lines[-1] != "VALID":
        return Outcome(False, f"verify: {lines[-1] if lines else 'no output'} (exit {verify_rc})")
    return Outcome(True)


H2_LINE = re.compile(r"Z\^2: (\d+)  B\^2: (\d+)  H\^2: (\d+)")


def h2_gate(expected: Optional[Sequence[int]]) -> Callable:
    def gate(results):
        (rc, out), = results
        if expected is None:
            return Outcome(False, "no recorded invariant for this group")
        m = H2_LINE.search(out)
        if rc != 0 or m is None:
            return Outcome(False, f"exit {rc}, no Z^2/B^2/H^2 line")
        got = [int(x) for x in m.groups()]
        if got != list(expected):
            return Outcome(False, f"dims {got} != {list(expected)}")
        return Outcome(True)

    return gate


def extend_gate(order: int) -> Callable:
    def gate(results):
        (rc, out), = results
        m = re.search(r"extension order: (\d+)", out)
        if rc != 0 or m is None:
            return Outcome(False, f"exit {rc}, no extension order")
        if int(m.group(1)) != order:
            return Outcome(False, f"extension order {m.group(1)} != {order}")
        return Outcome(True)

    return gate


# -- item lists ----------------------------------------------------------------


def build_items(workload: str, catalog, check_ids: Sequence[str], seed: int, workdir: str) -> List[Item]:
    """The items of one workload, in their fixed order."""
    s = ["--seed", str(seed)]
    items: List[Item] = []
    if workload == "check_suite":
        for cid in check_ids:
            out = os.path.join(workdir, f"check-{cid}.json")
            argv = ["--seed", "0", "check", "--id", cid, "--catalog", "all", "--replay", "--out", out]
            items.append(Item(cid, [argv], check_gate(out)))
    elif workload == "noninner_certify":
        for e in catalog:
            if e.group().is_abelian():
                continue
            cert = os.path.join(workdir, f"cert-{e.name}.json")
            argvs = [
                s + ["find-noninner", "--group", e.name, "--mode", "search", "--out", cert],
                s + ["verify", "--group", e.name, "--cert", cert],
            ]
            items.append(Item(e.name, argvs, noninner_gate))
    elif workload == "h2_extend":
        table = json.loads(INVARIANTS_FILE.read_text(encoding="utf-8"))
        for e in catalog:
            if e.order not in (16, 27):
                continue
            modules = ["trivial:1", "trivial:2"] if e.order == 16 else ["trivial:1"]
            for mod in modules:
                argv = s + ["h2", "--group", e.name, "--module", mod]
                items.append(Item(f"h2:{e.name}:{mod}", [argv], h2_gate(table.get(e.name, {}).get(mod))))
            argv = s + ["extend", "--group", e.name, "--kernel", "1"]
            items.append(Item(f"extend:{e.name}", [argv], extend_gate(e.order * e.p)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return items
