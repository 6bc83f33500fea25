"""One repetition of a workload in a fresh interpreter.

``run.py`` starts this script with ``PYTHONPATH`` pointing at the checkout's
``src`` and one JSON request as its only argument:

    {"workload": "h2_extend", "seed": 1, "trace": false, "setup_only": false,
     "workdir": ".perfbench_work/x", "trace_out": null}

It times set-up (``import pgv.cli`` plus ``builtin_catalog()``, which every
CLI invocation pays), runs every item through ``pgv.cli.main``, and prints
one JSON result as its last stdout line.  With ``trace`` the tracer is
installed after the import and before the catalog is built.

Speed scaling: on a shared host the CPU speed of this process swings by up
to 2x, in phases from a fraction of a second to tens of seconds, and no
number of repetitions averages that out.  So every timed interval is
reported raw and scaled to the speed at which one run of a fixed
interpreter loop (``speed_sample``) takes ``PROBE_NOMINAL_S``:

- set-up is scaled by the median of five loop timings just before it and
  five just after it;
- while items run, a ``SpeedProbe`` times the loop every ``PROBE_PERIOD_S``
  from a SIGALRM handler, so a long item is sampled all along.  An item's
  time, minus the samples taken inside it, is scaled by the mean sample in
  and next to it.

The loop runs no pgv code, so a change to pgv cannot move it.
"""

import bisect
import signal
import statistics
from time import perf_counter

PROBE_PERIOD_S = 0.01
PROBE_LOOPS = 5000
PROBE_NOMINAL_S = 0.0002  # about one loop in the fastest phase of the 2-vCPU Xeon baseline host


def speed_sample() -> float:
    """Seconds one fixed interpreter loop takes now."""
    t = perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i & 7
    return perf_counter() - t


class SpeedProbe:
    """Samples this process's speed by timing ``speed_sample`` from a timer signal."""

    def __init__(self) -> None:
        self.starts: list = []
        self.durations: list = []

    def _sample(self, signum, frame) -> None:
        t = perf_counter()
        self.durations.append(speed_sample())
        self.starts.append(t)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scaled(self, start: float, end: float) -> float:
        """Seconds in [start, end] not spent sampling, at the nominal speed.

        The speed is the mean over the samples inside the interval and the
        nearest sample on each side of it.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        busy = sum(self.durations[lo:hi])
        near = self.durations[max(0, lo - 1) : hi + 1]
        return (end - start - busy) * PROBE_NOMINAL_S * len(near) / sum(near)


SETUP_SAMPLES = [speed_sample() for _ in range(6)][1:]  # the first run warms the loop up
T0 = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def main(req: dict) -> dict:
    import pgv.catalog
    import pgv.checks
    import pgv.cli  # imports every pgv module

    tracer = None
    if req["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    catalog = pgv.catalog.builtin_catalog()
    setup_raw = perf_counter() - T0
    setup_scale = PROBE_NOMINAL_S / statistics.median(SETUP_SAMPLES + [speed_sample() for _ in range(5)])
    result = {"setup_raw_s": setup_raw, "setup_s": setup_raw * setup_scale}
    if req["setup_only"]:
        return result

    from workloads import build_items, run_item

    items = build_items(req["workload"], catalog, sorted(pgv.checks.CHECKS), req["seed"], req["workdir"])
    probe = SpeedProbe()
    probe.start()
    runs = []
    for item in items:
        if tracer is not None:
            tracer.item = item.id
        runs.append(run_item(pgv.cli.main, item))
    probe.stop()
    scaled = [probe.scaled(start, end) for _, start, end in runs]
    result["items"] = [
        [item.id, (end - start) * 1000.0, t * 1000.0, o.ok, o.reason, o.digest]
        for item, (o, start, end), t in zip(items, runs, scaled)
    ]
    result["wall_raw_s"] = sum(end - start for _, start, end in runs)
    result["wall_s"] = sum(scaled)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        from tracer import rollup, self_time_by, write_trace

        tracer.uninstall()
        # Spans are scaled by their item's speed factor.
        scale_of = {item.id: t / (end - start) for item, (_, start, end), t in zip(items, runs, scaled)}
        scale_of["setup"] = setup_scale
        result["layers"] = rollup(tracer.spans, scale_of)
        result["spans"] = len(tracer.spans)
        if req["trace_out"]:
            summary = {
                "workload": req["workload"],
                "seed": req["seed"],
                "layers": result["layers"],
                "per_check": self_time_by(tracer.spans, "checks.run", "check", scale_of),
                "speed_scale": scale_of,
            }
            write_trace(req["trace_out"], tracer.spans, summary)
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
