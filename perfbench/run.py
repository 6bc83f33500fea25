"""pgv benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload check_suite --seed 1 --seconds 35 --trace 0

Run from the root of a pgv checkout.  Each repetition is a fresh interpreter
(``child.py``), because pgv keeps built tables and subgroup lattices for the
life of a process and every CLI invocation pays for them again.  Repetitions
run one at a time: an untraced run makes at least three, then a new one
only if it should end within ``--seconds``.
With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced repetitions alternate, and the per-layer metrics and the
tracing overhead are printed.  The last stdout line is one JSON object; the
exit code is nonzero when any correctness gate fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mb": "MiB",
}
MIN_REPS = 3  # repetitions per run, so that a per-item median drops one stall
MIN_SETUPS = 5  # set-up samples per run; set-up-only children make up the rest
TIME_LIMIT_S = 170.0  # every child must end within this many seconds of the start
WORK_DIR = ".perfbench_work"
TRACE_DIR = ".perfbench_out"
PERCENTILES = (50, 75, 80, 85, 90, 95, 99, 99.9)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The highest listed percentile with at least ten of n samples beyond it."""
    fits = [q for q in PERCENTILES if n * (100 - q) / 100.0 >= 10]
    return fits[-1] if fits else 50


def tail_mean(values: Sequence[float], q: float) -> float:
    """Mean of the values ranked above the q-th percentile."""
    xs = sorted(values)
    beyond = int((len(xs) - 1) * q / 100.0) + 1
    return statistics.mean(xs[min(beyond, len(xs) - 1) :])


class ChildFailed(RuntimeError):
    pass


def run_child(request: dict, deadline: float) -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = nproc
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(request)]
    try:
        proc = subprocess.run(
            cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed("repetition ran past the time limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def summarize(reps: List[dict], setups: List[dict]) -> Tuple[Dict[str, float], Dict[str, object]]:
    """End-to-end metrics over the repetitions of one run.

    ``setup_s``, ``wall_s`` and ``peak_rss_mb`` are medians over repetitions.
    The item percentiles are taken over item times, where each item's time is
    its median over the (at least ``MIN_REPS``) repetitions: a stall that hits
    one item in one repetition then moves neither.  The tail is the mean of
    the items beyond the tail percentile, not the percentile itself: p80 of
    ``h2_extend`` sits at the top edge of a cluster of item times, so it
    jumped toward the next cluster whenever one item ran slow.

    Times are the speed-scaled ones (see child.py); the raw medians go in the
    second dict for the human-readable lines.
    """
    n = len(reps[0]["items"])
    tail = tail_percentile(n)
    item_ms = [statistics.median(row[2] for row in rows) for rows in zip(*(r["items"] for r in reps))]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "item_p50_ms": percentile(item_ms, 50),
        "item_tail_ms": tail_mean(item_ms, tail),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }
    info = {
        "tail_percentile": tail,
        "items_per_rep": n,
        "setup_raw_s": statistics.median(s["setup_raw_s"] for s in setups),
        "wall_raw_s": statistics.median(r["wall_raw_s"] for r in reps),
    }
    return metrics, info


def gate_failures(reps: List[dict]) -> List[str]:
    """Failed items of every repetition, plus output that changed between repetitions."""
    failures = []
    digests: Dict[str, str] = {}
    for k, r in enumerate(reps):
        for item_id, _, _, ok, reason, digest in r["items"]:
            if not ok:
                failures.append(f"rep {k} {item_id}: {reason}")
            elif digest and digests.setdefault(item_id, digest) != digest:
                failures.append(f"rep {k} {item_id}: report bytes differ from repetition 0")
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "pgv", "cli.py")):
        print("error: run from the root of a pgv checkout (src/pgv/cli.py not found)", file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    base = {"workload": args.workload, "seed": args.seed, "setup_only": False, "workdir": workdir, "trace_out": None}
    min_reps = 1 if args.trace else MIN_REPS
    plain: List[dict] = []
    traced: List[dict] = []
    trace_out = os.path.join(TRACE_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
    if args.trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
    try:
        while True:
            plain.append(run_child(dict(base, trace=False), deadline))
            if args.trace:
                traced.append(run_child(dict(base, trace=True, trace_out=None if traced else trace_out), deadline))
            # Start another repetition only if it should end within --seconds,
            # or if an untraced run has fewer than MIN_REPS.  A repetition
            # count that flips between runs would change what the per-item
            # median is; a traced run reports no item times.
            elapsed = time.monotonic() - start
            if len(plain) >= min_reps and elapsed + elapsed / len(plain) > args.seconds:
                break
        setups = list(plain)
        if not args.trace:
            while len(setups) < MIN_SETUPS:
                setups.append(run_child(dict(base, trace=False, setup_only=True), deadline))
    except ChildFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps = plain + traced
    failures = gate_failures(reps)
    attempted = sum(len(r["items"]) for r in reps)
    e2e, info = summarize(plain, setups)
    print(
        f"{args.workload} seed {args.seed}: {len(plain)} repetitions of {info['items_per_rep']} items, "
        f"{len(setups)} set-ups, {len(traced)} traced repetitions"
    )
    if args.trace:
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - e2e["wall_s"]
        metrics = {k: {"value": layers[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}
        print(f"trace: {traced[0]['spans']} spans per repetition, written to {trace_out}")
        print(f"tracing overhead: {layers['trace.overhead_s']:.3f} s over an untraced wall_s of {e2e['wall_s']:.3f} s")
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, unit in END_TO_END.items()}
        print(
            f"item_tail_ms is the mean of the items beyond p{info['tail_percentile']:g} "
            f"of {info['items_per_rep']} items per repetition"
        )
        print(f"unscaled medians: setup {info['setup_raw_s']:.3f} s, wall {info['wall_raw_s']:.3f} s")
    for k, m in metrics.items():
        print(f"  {k:42s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':42s} {len(failures) / attempted:14.6g} 1  ({len(failures)} of {attempted} items)")
    for f in failures:
        print(f"FAILED {f}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
