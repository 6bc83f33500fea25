"""Batch execution of the check registry over the catalog, with JSON reports.

The budget argument selects instance-count caps from a fixed table, so that
reports are byte-identical across runs with the same (catalog, filter, seed,
budget); no wall-clock measurement feeds back into the sweep.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, List, Optional, Sequence

from .catalog import CatalogEntry, builtin_catalog, catalog_filter
from .checks import ALIASES, CHECKS, COUNTEREXAMPLE, PASS, SKIPPED, UNSUPPORTED, CheckVerdict
from .cohomology import solve_once


def _instance_limit(budget_ms: Optional[int]) -> int:
    if budget_ms is None:
        return 12
    if budget_ms < 1_000:
        return 2
    if budget_ms < 10_000:
        return 4
    if budget_ms < 60_000:
        return 12
    return 18


def _run(check_id: str, inst: Dict[str, object], entries: Dict[str, CatalogEntry]) -> CheckVerdict:
    """Run one check with its named group taken from ``entries``, the catalog
    the suite runs over, not the built-in one; the verdict keeps ``inst``."""
    name = inst.get("group")
    run_inst = dict(inst, group_table=entries[name].group()) if name in entries else inst
    return dataclasses.replace(CHECKS[check_id].run(run_inst), instance=inst)


class UnknownCheckError(KeyError):
    """A check id that is neither registered nor an alias.  Its str is the
    plain message, where a KeyError's is the repr of its argument."""

    def __str__(self) -> str:
        return str(self.args[0])


def resolve_check_ids(expr: str) -> List[str]:
    if expr in ("all", "*"):
        return sorted(CHECKS)
    ids = []
    for part in expr.split(","):
        part = part.strip()
        if not part:
            continue
        cid = ALIASES.get(part, part)
        if cid not in CHECKS:
            raise UnknownCheckError(f"unknown check_id {part!r}")
        ids.append(cid)
    if not ids:
        raise UnknownCheckError(f"no check_id in {expr!r}")
    return ids


def run_suite(
    check_expr: str = "all",
    catalog_expr: str = "all",
    seed: int = 0,
    budget_ms: Optional[int] = None,
    catalog: Optional[Sequence[CatalogEntry]] = None,
) -> Dict[str, object]:
    cat = list(catalog) if catalog is not None else list(builtin_catalog())
    cat = list(filter(catalog_filter(catalog_expr), cat))
    entries = {e.name: e for e in cat}
    limit = _instance_limit(budget_ms)
    check_ids = resolve_check_ids(check_expr)

    verdicts: List[Dict[str, object]] = []
    counts = {PASS: 0, COUNTEREXAMPLE: 0, SKIPPED: 0, UNSUPPORTED: 0}
    infra_errors: List[Dict[str, str]] = []
    for cid in check_ids:
        # One scope per check: its generator and its instances solve each
        # cohomology space once, and the spaces go when the check is done.
        with solve_once():
            for inst in CHECKS[cid].generate(cat, seed, limit):
                if "group" in inst and inst["group"] not in entries:
                    continue
                try:
                    v = _run(cid, inst, entries)
                except Exception as e:  # infrastructure failure, not a finding
                    infra_errors.append(
                        {"check_id": cid, "instance": json.dumps(inst, sort_keys=True), "error": repr(e)}
                    )
                    v = CheckVerdict(cid, inst, UNSUPPORTED, {"error": repr(e)})
                counts[v.status] = counts.get(v.status, 0) + 1
                verdicts.append(v.to_dict())

    report = {
        "meta": {
            "check_filter": check_expr,
            "catalog_filter": catalog_expr,
            "seed": seed,
            "budget_ms": budget_ms,
            "instance_limit": limit,
            "catalog_size": len(cat),
        },
        "counts": counts,
        "infra_errors": infra_errors,
        "verdicts": verdicts,
    }
    return report


def report_to_json(report: Dict[str, object]) -> str:
    return json.dumps(report, sort_keys=True, indent=1) + "\n"


def replay_counterexamples(
    report: Dict[str, object], catalog: Optional[Sequence[CatalogEntry]] = None
) -> List[Dict[str, object]]:
    """Re-run every COUNTEREXAMPLE from its stored instance, with groups named
    in ``catalog`` (the built-in one by default); returns mismatches.  The suite's
    ``solve_once`` scopes are closed by then, so every cohomology space is
    solved again."""
    entries = {e.name: e for e in (catalog if catalog is not None else builtin_catalog())}
    mismatches = []
    for v in report["verdicts"]:
        if v["status"] != COUNTEREXAMPLE:
            continue
        again = _run(v["check_id"], v["instance"], entries)
        if again.status != COUNTEREXAMPLE:
            mismatches.append({"original": v, "replay_status": again.status})
    return mismatches
