"""Command-line interface.

Exit codes: 0 ok, 1 usage error, 2 a refusal (``error:``, e.g. a cap) or an
infrastructure error.  Counterexamples and diagnostics are findings; they
never change the exit status.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from .catalog import CatalogError, builtin_catalog, catalog_filter, find_entry, load_catalog, table_to_presentation
from .cohomology import (
    DEFAULT_H2_ORDER_CAP,
    Cochain,
    CohomologyError,
    cohomology,
    solve_size,
    zero_two_cocycle,
)
from .extensions import ExtensionError, build_extension
from .group_core import (
    DEFAULT_ORDER_CAP,
    GroupError,
    GroupTable,
    Subgroup,
    center,
    commutator_subgroup,
    frattini,
    from_pc_presentation,
    normal_subgroups,
    omega1,
    subgroup_center,
    subgroup_closure,
)
from .gmodule import DEFAULT_DIM_CAP, ModuleError, module_from_conjugation, trivial_module
from .noninner import (
    BRUTE_FORCE_LIMIT,
    Certificate,
    Diagnostic,
    NoninnerError,
    engine_sweep,
    find_noninner,
    verify_certificate,
)
from .presentations import PresentationError, parse_presentations, render_presentation
from .suite import UnknownCheckError, replay_counterexamples, report_to_json, resolve_check_ids, run_suite


# `pgv h2` says on stderr how large its solve is once its seed (see
# `cohomology.solve_size`) reaches this size (D16 with trivial:40 needs 94 MiB).
H2_ANNOUNCE_BYTES = 64 << 20


class UsageError(ValueError):
    pass


def _resolve_group(spec: str, order_cap: int) -> GroupTable:
    path = Path(spec)
    if path.exists():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise UsageError(f"cannot read group file {spec!r}: {e}") from None
        groups = parse_presentations(text)
        if len(groups) != 1:
            raise UsageError(f"{spec} holds {len(groups)} groups; --group FILE needs exactly one")
        g = from_pc_presentation(groups[0], order_cap=order_cap)
        g.name = groups[0].name
        return g
    return find_entry(spec).group(order_cap=order_cap)


def _check_out(path: str) -> None:
    """Refuse an --out path that can never be written before any work starts."""
    target = Path(path)
    if target.is_dir():
        raise UsageError(f"cannot write --out {path!r}: it is a directory")
    if not target.parent.is_dir():
        raise UsageError(f"cannot write --out {path!r}: no directory {str(target.parent)!r}")


def _write_out(path: str, text: str) -> None:
    """Write an --out file; a path that cannot be written is a usage error."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot write --out {path!r}: {e}") from None


def _positive_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise UsageError(f"{what} must be a positive integer, got {text!r}")
    return value


def _nonnegative_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise UsageError(f"{what} must be a non-negative integer, got {text!r}")
    return value


def _resolve_normal(g: GroupTable, spec: str) -> Subgroup:
    named = {
        "center": lambda: center(g),
        "frattini": lambda: frattini(g),
        "derived": lambda: commutator_subgroup(g),
        "trivial": lambda: Subgroup(g, [0], check=False),
        "full": lambda: Subgroup(g, np.arange(g.order), check=False),
    }
    if spec in named:
        sub = named[spec]()
    else:
        try:
            seeds = [int(s) for s in spec.split(",")]
        except ValueError:
            raise UsageError(f"--normal must be a named subgroup or element indices, got {spec!r}")
        if any(not 0 <= s < g.order for s in seeds):
            raise UsageError(f"--normal element indices must lie in 0..{g.order - 1}, got {spec!r}")
        sub = subgroup_closure(g, seeds)
    if not sub.is_normal():
        raise UsageError("requested subgroup is not normal")
    return sub


def cmd_catalog(args) -> int:
    if args.action == "list":
        cat = builtin_catalog(order_cap=args.order_cap)
        for e in filter(catalog_filter(args.filter), cat):
            print(f"{e.name}\torder {e.order}\tp={e.p}\t{','.join(e.tags)}")
        return 0
    raise UsageError(f"unknown catalog action {args.action!r}")


def cmd_group_info(args) -> int:
    g = _resolve_group(args.group, args.order_cap)
    z = center(g)
    phi = frattini(g)
    der = commutator_subgroup(g)
    print(f"name: {g.name}")
    print(f"order: {g.order} = {g.p}^{g.k}")
    print(f"abelian: {g.is_abelian()}")
    print(f"center: order {z.order}")
    print(f"derived subgroup: order {der.order}")
    print(f"frattini subgroup: order {phi.order}")
    print(f"exponent: {int(max(g.element_orders()))}")
    print(f"normal subgroups: {len(normal_subgroups(g))}")
    print(f"fingerprint: {g.fingerprint()}")
    return 0


def cmd_h1(args) -> int:
    g = _resolve_group(args.group, args.order_cap)
    n = _resolve_normal(g, args.normal)
    w = omega1(g, subgroup_center(g, n))
    if w.order == 1:
        print("W = Omega1(Z(N)) is trivial; H^1 = 0")
        return 0
    cm = module_from_conjugation(g, n, w)
    sp = cohomology(cm.module.group, cm.module, 1)
    print(f"quotient order: {cm.module.group.order}, module dim: {cm.module.dim}")
    print(f"Z^1: {sp.z_dim}  B^1: {sp.b_dim}  H^1: {sp.h_dim}")
    return 0


def cmd_h2(args) -> int:
    g = _resolve_group(args.group, args.order_cap)
    kind, _, param = args.module.partition(":")
    if kind != "trivial":
        raise UsageError("h2 supports --module trivial:<dim>")
    dim = _positive_int(param, "module dimension") if param else 1
    # The module alone holds |G| dim^2 int64, so the cap is checked first.
    if dim > DEFAULT_DIM_CAP:
        raise UsageError(f"module dimension {dim} exceeds the cap {DEFAULT_DIM_CAP}")
    h2_cap = _positive_int(args.h2_cap, "--h2-cap")
    unknowns, seed_bytes = solve_size(g, dim, 2)
    if g.order <= h2_cap and seed_bytes >= H2_ANNOUNCE_BYTES:
        mib = seed_bytes / 2**20
        print(f"h2: {unknowns} unknowns; the seed and each slice image take {mib:.0f} MiB", file=sys.stderr)
    sp = cohomology(g, trivial_module(g, dim), 2, h2_order_cap=h2_cap)
    print(f"Z^2: {sp.z_dim}  B^2: {sp.b_dim}  H^2: {sp.h_dim}")
    return 0


def cmd_extend(args) -> int:
    g = _resolve_group(args.group, args.order_cap)
    t = _positive_int(args.kernel, "--kernel")
    # p^t > cap once 2^t is; the first test keeps p^t from being computed for a huge t.
    if t >= args.order_cap.bit_length() or g.order * g.p**t > args.order_cap:
        raise UsageError(f"a rank-{t} kernel over order {g.order} exceeds --order-cap {args.order_cap}")
    m = trivial_module(g, t)
    if args.cocycle == "random":
        sp = cohomology(g, m, 2)
        if sp.h_dim == 0:
            f = zero_two_cocycle(g, m)
            print("H^2 is trivial; using the zero cocycle (split extension)")
        else:
            f = sp.h_reps[args.seed % sp.h_dim]
    else:
        try:
            table = np.asarray(json.loads(Path(args.cocycle).read_text(encoding="utf-8")), dtype=np.int64)
            if table.ndim != 3:
                raise CohomologyError("2-cochain table has wrong shape")
            f = Cochain(m, table)
        except (OSError, TypeError, ValueError) as e:  # CohomologyError is a ValueError
            raise UsageError(f"--cocycle must be a JSON {g.order}x{g.order}x{t} integer table: {e}")
        if not f.is_cocycle():
            print("not a cocycle", file=sys.stderr)
            return 1
    ext = build_extension(g, m, f, order_cap=args.order_cap)
    print(f"extension order: {ext.total.order}")
    print(f"kernel rank: {t}; projection fibers of size {ext.total.order // g.order}")
    print(f"fingerprint: {ext.total.fingerprint()}")
    if args.out:
        pres = table_to_presentation(ext.total, f"ext_{g.name}")
        _write_out(args.out, render_presentation(pres))
        print(f"presentation written to {args.out}")
    return 0


def cmd_find_noninner(args) -> int:
    g = _resolve_group(args.group, args.order_cap)
    result = find_noninner(g, args.mode)
    if isinstance(result, Certificate):
        text = result.to_json()
        if args.out:
            _write_out(args.out, text)
            print(f"certificate written to {args.out}")
        else:
            sys.stdout.write(text)
        ok, _ = verify_certificate(g, result)
        print(f"self-verification: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 2
    if isinstance(result, Diagnostic):
        text = result.to_json()
        if args.out:
            _write_out(args.out, text)
            print(f"diagnostic written to {args.out}")
        else:
            sys.stdout.write(text)
        cross = engine_sweep(g)
        print(
            "paper-mode route got stuck; search-mode certificate "
            + ("exists" if cross is not None else "not found either")
        )
        return 0
    if g.order <= BRUTE_FORCE_LIMIT:
        print("no non-inner automorphism of order p exists (exhaustive search over Aut(G))")
    else:
        print(
            "no non-inner automorphism of order p found; the search is exhaustive "
            f"only up to order {BRUTE_FORCE_LIMIT}, so one may still exist"
        )
    return 0


def cmd_verify(args) -> int:
    g = _resolve_group(args.group, args.order_cap)
    try:
        cert = Certificate.from_json(Path(args.cert).read_text(encoding="utf-8"))
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise UsageError(f"--cert {args.cert!r} is not certificate JSON: {e!r}")
    try:
        ok, transcript = verify_certificate(g, cert)
    except NoninnerError as e:
        print(f"verification error: {e}", file=sys.stderr)
        return 2
    for line in transcript:
        print(line)
    print("VALID" if ok else "INVALID")
    return 0


def cmd_check(args) -> int:
    catalog = load_catalog(args.catalog_file) if args.catalog_file else None
    report = run_suite(
        args.id,
        args.catalog,
        seed=args.seed,
        budget_ms=args.budget_ms,
        catalog=catalog,
    )
    if args.replay:
        mismatches = replay_counterexamples(report, catalog)
        report["replay_mismatches"] = mismatches
    text = report_to_json(report)
    if args.out:
        _write_out(args.out, text)
    else:
        sys.stdout.write(text)
    counts = report["counts"]
    print(
        f"PASS={counts['PASS']} COUNTEREXAMPLE={counts['COUNTEREXAMPLE']} "
        f"SKIPPED={counts['SKIPPED_HYPOTHESIS']} UNSUPPORTED={counts['UNSUPPORTED']}",
        file=sys.stderr,
    )
    # The checks this run never tested: with no instance, or with every
    # verdict SKIPPED or UNSUPPORTED.
    tested = {}
    for v in report["verdicts"]:
        tested[v["check_id"]] = tested.get(v["check_id"], False) or v["status"] in ("PASS", "COUNTEREXAMPLE")
    ids = list(dict.fromkeys(resolve_check_ids(args.id)))
    none, vacuous = [c for c in ids if c not in tested], [c for c in ids if tested.get(c) is False]
    print(f"no instance ({len(none)}): {' '.join(none) or '-'}", file=sys.stderr)
    print(f"no PASS or COUNTEREXAMPLE ({len(vacuous)}): {' '.join(vacuous) or '-'}", file=sys.stderr)
    return 2 if report["infra_errors"] else 0


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: building it costs more than a small command."""
    ap = argparse.ArgumentParser(prog="pgv", description="finite p-group verification lab")
    ap.add_argument("--order-cap", default=DEFAULT_ORDER_CAP)
    ap.add_argument("--seed", default=0)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catalog", help="catalog operations")
    p.add_argument("action", choices=["list"])
    p.add_argument("--filter", default="all")
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("group", help="group information")
    p.add_argument("action", choices=["info"])
    p.add_argument("group")
    p.set_defaults(fn=cmd_group_info)

    p = sub.add_parser("h1", help="first cohomology of the conjugation module")
    p.add_argument("--group", required=True)
    p.add_argument("--normal", required=True)
    p.set_defaults(fn=cmd_h1)

    p = sub.add_parser("h2", help="second cohomology with a trivial module")
    p.add_argument("--group", required=True)
    p.add_argument("--module", default="trivial:1")
    p.add_argument("--h2-cap", default=DEFAULT_H2_ORDER_CAP)
    p.set_defaults(fn=cmd_h2)

    p = sub.add_parser("extend", help="build an extension from a 2-cocycle")
    p.add_argument("--group", required=True)
    p.add_argument("--kernel", required=True, help="rank t of the elementary abelian kernel")
    p.add_argument("--cocycle", default="random", help="'random' or a JSON table file")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("find-noninner", help="certify a non-inner automorphism of order p")
    p.add_argument("--group", required=True)
    p.add_argument("--mode", choices=["search", "paper"], default="search")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_find_noninner)

    p = sub.add_parser("verify", help="re-verify a certificate")
    p.add_argument("--group", required=True)
    p.add_argument("--cert", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("check", help="run registry checks and write a report")
    p.add_argument("--id", default="all")
    p.add_argument("--catalog", default="all")
    p.add_argument("--catalog-file")
    p.add_argument("--budget-ms")
    p.add_argument("--replay", action="store_true", help="re-verify counterexamples")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_check)

    return ap


def main(argv: Optional[list] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    try:
        args.order_cap = _positive_int(args.order_cap, "--order-cap")
        args.seed = _nonnegative_int(args.seed, "--seed")
        if getattr(args, "budget_ms", None) is not None:
            args.budget_ms = _positive_int(args.budget_ms, "--budget-ms")
        if getattr(args, "out", None):
            _check_out(args.out)
        return args.fn(args)
    except (UsageError, CatalogError, PresentationError, UnknownCheckError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except (GroupError, ModuleError, NoninnerError, CohomologyError, ExtensionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # unexpected -> infrastructure
        print(f"infrastructure error: {e!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
