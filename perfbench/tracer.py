"""Outside-in tracer for pgv: spans recorded around calls into each layer.

The tracer wraps public pgv functions from outside the package.  pgv reaches
the same function through several bindings (``fl.rref_array`` attribute
calls, ``from .fp_linalg import RowSpace``, ``from .catalog import
builtin_catalog``), so ``install`` replaces every binding of each traced
function in every loaded ``pgv`` module, wraps methods on their class, and
wraps the ``run`` field of every registered check.  ``uninstall`` puts each
original object back.

Spans (name, start, end, parent, item, attrs) are kept in memory; ``rollup``
turns them into the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# Span record fields, kept as a list so the wrapper can fill in the end time.
NAME, START, END, PARENT, ITEM, ATTRS = range(6)


def _rows_offered(rows) -> int:
    return 1 if np.ndim(rows) < 2 else int(np.shape(rows)[0])


def _rref_attrs(args, kwargs):
    shape = np.shape(args[0] if args else kwargs["a"])
    cells = int(shape[0]) * int(shape[1]) if len(shape) == 2 else int(np.prod(shape))
    return "fp_linalg.rref", {"cells": cells}


def _rowspace_add_attrs(args, kwargs):
    return "fp_linalg.rowspace_add", {"offered": _rows_offered(args[1] if len(args) > 1 else kwargs["rows"])}


def _rowspace_add_result(attrs, result):
    attrs["gained"] = int(result)


def _cohomology_attrs(args, kwargs):
    g = args[0] if args else kwargs["g"]
    m = args[1] if len(args) > 1 else kwargs["m"]
    degree = args[2] if len(args) > 2 else kwargs.get("degree", 1)
    q, d = int(g.order), int(m.dim)
    if degree == 2:
        return "cohomology.h2", {"unknowns": (q - 1) ** 2 * d}
    return "cohomology.h1", {"unknowns": q * d}


def _sweep_result(attrs, result):
    attrs["cert"] = result is not None


@dataclass(frozen=True)
class Target:
    """One traced function: ``attr`` is a module attribute or ``Class.method``."""

    module: str
    attr: str
    span: str
    describe: Optional[Callable] = None  # (args, kwargs) -> (span name, attrs)
    outcome: Optional[Callable] = None  # (attrs, result) -> None


TARGETS: Tuple[Target, ...] = (
    Target("pgv.fp_linalg", "rref_array", "fp_linalg.rref", _rref_attrs),
    Target("pgv.fp_linalg", "left_kernel_array", "fp_linalg.kernel"),
    Target("pgv.fp_linalg", "right_kernel_array", "fp_linalg.kernel"),
    Target("pgv.fp_linalg", "RowSpace.add", "fp_linalg.rowspace_add", _rowspace_add_attrs, _rowspace_add_result),
    Target("pgv.fp_linalg", "FpSubspace.from_rows", "fp_linalg.subspace_from_rows"),
    Target("pgv.presentations", "parse_presentations", "presentations.parse"),
    Target("pgv.group_core", "from_pc_presentation", "group_core.from_pc_presentation"),
    Target("pgv.group_core", "find_isomorphism", "group_core.find_isomorphism"),
    Target("pgv.group_core", "normal_subgroups", "group_core.normal_subgroups"),
    Target("pgv.group_core", "subgroup_closure", "group_core.subgroup_closure"),
    Target("pgv.group_core", "quotient", "group_core.quotient"),
    Target("pgv.gmodule", "module_from_conjugation", "gmodule.module_from_conjugation"),
    Target("pgv.gmodule", "free_submodule_closure", "gmodule.free_submodule_closure"),
    Target("pgv.cohomology", "cohomology", "cohomology.h1", _cohomology_attrs),
    Target("pgv.extensions", "build_extension", "extensions.build_extension"),
    Target("pgv.extensions", "transfer_maps", "extensions.transfer_maps"),
    Target("pgv.extensions", "filtration_product", "extensions.filtration_product"),
    Target("pgv.noninner", "engine_sweep", "noninner.engine_sweep", None, _sweep_result),
    # The centralizer tests are a third of engine_sweep; without their own
    # span they would hide inside its self time.
    Target("pgv.noninner", "_centralizes", "noninner.centralizes"),
    Target("pgv.noninner", "verify_certificate", "noninner.verify_certificate"),
    Target("pgv.catalog", "builtin_catalog", "catalog.builtin_catalog"),
    Target("pgv.suite", "run_suite", "suite.run_suite"),
    Target("pgv.cli", "main", "cli.main"),
)

# Span names whose calls and self time are reported; checks.run wraps the
# ``run`` field of each registered check rather than a module attribute.
TIMED_SPANS = (
    "fp_linalg.rref",
    "fp_linalg.kernel",
    "fp_linalg.rowspace_add",
    "fp_linalg.subspace_from_rows",
    "presentations.parse",
    "group_core.from_pc_presentation",
    "group_core.find_isomorphism",
    "group_core.normal_subgroups",
    "group_core.subgroup_closure",
    "group_core.quotient",
    "gmodule.module_from_conjugation",
    "gmodule.free_submodule_closure",
    "cohomology.h1",
    "cohomology.h2",
    "extensions.build_extension",
    "extensions.transfer_maps",
    "extensions.filtration_product",
    "noninner.engine_sweep",
    "noninner.centralizes",
    "noninner.verify_certificate",
    "checks.run",
    "suite.run_suite",
    "cli.main",
)

# Every per-layer metric with its unit and the direction that is better;
# BENCHMARK.json lists the same names.
PER_LAYER: Dict[str, Tuple[str, str]] = {}
for _span in TIMED_SPANS:
    PER_LAYER[f"{_span}.calls"] = ("count", "lower")
    PER_LAYER[f"{_span}.self_s"] = ("s", "lower")
PER_LAYER.update(
    {
        "fp_linalg.rref.cells": ("count", "lower"),
        "fp_linalg.rref.max_cells": ("count", "lower"),
        "fp_linalg.rowspace_add.useful_ratio": ("1", "higher"),
        "cohomology.h1.unknowns": ("count", "lower"),
        "cohomology.h2.unknowns": ("count", "lower"),
        "noninner.cert_yield": ("1", "higher"),
        "catalog.builtin_catalog.self_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
    }
)


class Tracer:
    """Span store plus the wrappers that feed it; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.item = "setup"
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, fn: Callable, span: str, describe=None, outcome=None, attrs=None) -> Callable:
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name, extra = describe(args, kwargs) if describe else (span, attrs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, extra]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if outcome is not None:
                if rec[ATTRS] is None:
                    rec[ATTRS] = {}
                outcome(rec[ATTRS], result)
            return result

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target; all ``pgv`` modules must already be imported."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if (n == "pgv" or n.startswith("pgv.")) and m]
        for t in TARGETS:
            owner = sys.modules[t.module]
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    self._set(cls, meth, classmethod(self.wrap(raw.__func__, t.span, t.describe, t.outcome)))
                else:
                    self._set(cls, meth, self.wrap(raw, t.span, t.describe, t.outcome))
                continue
            original = getattr(owner, t.attr)
            wrapped = self.wrap(original, t.span, t.describe, t.outcome)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, name, wrapped)
        for cid, cdef in sys.modules["pgv.checks"].CHECKS.items():
            self._set(cdef, "run", self.wrap(cdef.run, "checks.run", attrs={"check": cid}))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# -- roll-up -------------------------------------------------------------------


def self_times(spans: Sequence[list]) -> List[float]:
    """Each span's duration minus the time its direct child spans cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def _has_ancestor(spans: Sequence[list], i: int, name: str) -> bool:
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def _scaled_self_times(spans: Sequence[list], scale: Optional[Dict[str, float]]) -> List[float]:
    own = self_times(spans)
    if scale:
        own = [t * scale.get(s[ITEM], 1.0) for t, s in zip(own, spans)]
    return own


def rollup(spans: Sequence[list], scale: Optional[Dict[str, float]] = None) -> Dict[str, float]:
    """Per-layer metrics (all of PER_LAYER except ``trace.overhead_s``).

    ``calls`` counts entries into a layer: a span whose parent has the same
    name (``left_kernel_array`` calling ``right_kernel_array``) is not a new
    call.  Self times are multiplied by ``scale[item]`` when given.
    """
    own = _scaled_self_times(spans, scale)
    out: Dict[str, float] = {
        k: (0 if unit == "count" else 0.0) for k, (unit, _) in PER_LAYER.items() if k != "trace.overhead_s"
    }
    offered = gained = certs = sweep_h1 = 0
    for i, s in enumerate(spans):
        name, attrs = s[NAME], s[ATTRS] or {}
        if name == "catalog.builtin_catalog":
            out["catalog.builtin_catalog.self_s"] += own[i]
            continue
        if name not in TIMED_SPANS:
            continue
        out[f"{name}.self_s"] += own[i]
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] != name:
            out[f"{name}.calls"] += 1
        if name == "fp_linalg.rref":
            out["fp_linalg.rref.cells"] += attrs["cells"]
            out["fp_linalg.rref.max_cells"] = max(out["fp_linalg.rref.max_cells"], attrs["cells"])
        elif name == "fp_linalg.rowspace_add":
            offered += attrs["offered"]
            gained += attrs.get("gained", 0)
        elif name in ("cohomology.h1", "cohomology.h2"):
            out[f"{name}.unknowns"] += attrs["unknowns"]
            if name == "cohomology.h1" and _has_ancestor(spans, i, "noninner.engine_sweep"):
                sweep_h1 += 1
        elif name == "noninner.engine_sweep":
            certs += bool(attrs.get("cert"))
    out["fp_linalg.rowspace_add.useful_ratio"] = gained / offered if offered else 0.0
    out["noninner.cert_yield"] = certs / sweep_h1 if sweep_h1 else 0.0
    return out


def self_time_by(
    spans: Sequence[list], name: str, key: str, scale: Optional[Dict[str, float]] = None
) -> Dict[str, Dict[str, float]]:
    """Calls and self time of spans called ``name``, grouped by ``attrs[key]``."""
    own = _scaled_self_times(spans, scale)
    out: Dict[str, Dict[str, float]] = {}
    for i, s in enumerate(spans):
        if s[NAME] == name:
            row = out.setdefault(str(s[ATTRS][key]), {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own[i]
    return out


def write_trace(path: str, spans: Sequence[list], summary: Dict[str, object]) -> None:
    """Gzipped JSON lines: one summary object, then one object per span."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        fh.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
        for i, s in enumerate(spans):
            fh.write(
                json.dumps(
                    {"id": i, "name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT], "item": s[ITEM], "attrs": s[ATTRS]},
                    separators=(",", ":"),
                )
                + "\n"
            )
