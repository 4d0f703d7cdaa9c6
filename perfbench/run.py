#!/usr/bin/env python3
"""Run one workload of the hypermono benchmark and print its metrics.

    python3 perfbench/run.py --workload weil_oracle --seed 1 --seconds 20 --trace 0

Run from the root of a hypermono checkout; the package is imported from
``src`` (pure Python, nothing to build).  One client runs the workload's
jobs in a closed loop, in an order shuffled by the seed, pass after pass,
until ``--seconds`` have gone by; every answer is checked.

With ``--trace 0`` the run reports the end-to-end metrics listed in
BENCHMARK.json: seconds per pass, request latencies (a request is one job:
one CLI command line, or one oracle/closure call) and throughput, all
scaled to a reference host speed sampled during the run (see
``Speedometer``), then the set-up time of a fresh interpreter and peak
memory, as measured.  With ``--trace 1`` it reports the
per-layer metrics instead: one untraced warm-up phase, then passes with
spans recorded at the package's module boundaries (see ``tracer.py``),
then the F_q kernel micro-measurement (see ``kernels.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it,
starting with ``#``, record the environment, sample counts and the
failure ratio.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

SETUP_RUNS = 7
MIN_TRACED_PASSES = 2  # so that work counts can be compared between passes
TICK_S = 0.02
REF_SECONDS = 2e-4  # nominal time of one reference loop, see ``Speedometer``


def reference_loop():
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) & 0xFFFF
    return acc


class Speedometer:
    """The host's speed while the jobs run.

    The speed of a shared host drifts by up to a third within seconds, and
    the workloads drift with it.  So every TICK_S a SIGALRM handler times
    ``reference_loop``, a fixed integer loop that allocates nothing (the
    program's heap cannot change its cost).  An interval is then reported
    at the reference speed: its length, less the handler's own time, times
    REF_SECONDS over the median loop time sampled in it.
    """

    def __init__(self):
        self.times, self.costs = [], []

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_loop()
        self.times.append(t0)
        self.costs.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, t0, t1):
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        own = sum(self.costs[lo:hi])
        window = self.costs[max(0, lo - 1) : hi + 1]  # a short interval takes its neighbours
        return (t1 - t0 - own) * REF_SECONDS / statistics.median(window)


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100 * len(ordered))) - 1]


def measure_setup(workload: str) -> float:
    """Median seconds for a fresh interpreter to import what the workload
    uses and build its job list (inputs and known answers)."""
    code = f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; import workloads; workloads.load({workload!r})"
    cmd = [sys.executable, "-c", code]

    def timed_run():
        # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd)
        killer = threading.Timer(120, proc.kill)  # a hung child must not hang the run
        killer.start()
        try:
            status = proc.wait()
        finally:
            killer.cancel()
        if status != 0:
            raise subprocess.CalledProcessError(status, cmd)
        return time.perf_counter() - t0

    timed_run()  # writes byte code in a fresh checkout
    return statistics.median(timed_run() for _ in range(SETUP_RUNS))


class Tally:
    """Runs passes over the job list and keeps every answer-check failure."""

    def __init__(self, jobs, seed):
        self.jobs = jobs
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failures = []

    def run_pass(self, invoke=lambda call: call()):
        """One pass in a seeded order; returns its (start, end) and each job's."""
        order = list(self.jobs)
        self.rng.shuffle(order)
        spans = []
        t_pass = time.perf_counter()
        for job in order:
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                result = invoke(job.call)
                error = None
            except Exception as exc:  # a failing job is counted; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            if error is None:
                try:
                    error = job.check(result)
                except Exception as exc:
                    error = f"answer check raised {type(exc).__name__}: {exc}"
            if error is not None:
                self.failures.append(f"{job.name}: {error}")
            spans.append((job.name, t0, t1))
        return (t_pass, time.perf_counter()), spans

    def passes_for(self, seconds):
        """Passes until ``seconds`` have gone by."""
        t_start = time.perf_counter()
        passes, spans = [], []
        while not passes or time.perf_counter() - t_start < seconds:
            p, s = self.run_pass()
            passes.append(p)
            spans.extend(s)
        return passes, spans


def end_to_end(tally, workload, seconds):
    setup_s = measure_setup(workload)
    with Speedometer() as speed:
        passes, spans = tally.passes_for(seconds)
    pass_s = [speed.scaled(a, b) for a, b in passes]
    latency = [speed.scaled(a, b) for _, a, b in spans]
    values = {
        "wall_s": statistics.median(pass_s),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "req_p50_ms": statistics.median(latency) * 1e3,
        "req_p99_ms": percentile(latency, 99) * 1e3,
        "req_per_s": len(latency) / sum(pass_s),
    }
    notes = {
        "passes": len(passes),
        "requests": len(latency),
        "setup_runs": SETUP_RUNS,
        "measured_wall_s": statistics.median(b - a for a, b in passes),
        "reference_loop_s": statistics.median(speed.costs),
        "reference_samples": len(speed.costs),
    }
    return values, notes, spans, []


def per_layer(tally, seed, seconds):
    import kernels
    from tracer import Tracer

    t_start = time.perf_counter()
    untraced, spans = tally.passes_for(seconds / 4)
    untraced = [b - a for a, b in untraced]
    tracer = Tracer()
    tracer.install()
    try:
        traced, snaps = [], []
        while len(traced) < MIN_TRACED_PASSES or time.perf_counter() - t_start < seconds:
            tracer.reset()
            (a, b), s = tally.run_pass(tracer.root)
            traced.append(b - a)
            spans.extend(s)
            snaps.append(tracer.snapshot())
    finally:
        tracer.uninstall()
    values, drift = {}, []
    for key, first in snaps[0].items():
        if key.endswith("_s"):
            values[key] = statistics.median(s[key] for s in snaps)
        else:  # a work count: must repeat exactly in every pass
            values[key] = first
            if any(s[key] != first for s in snaps):
                drift.append(key)
    values.update(kernels.measure(seed))
    values["trace.untraced_pass_s"] = statistics.median(untraced)
    values["trace.traced_pass_s"] = statistics.median(traced)
    values["trace.overhead_ratio"] = values["trace.traced_pass_s"] / values["trace.untraced_pass_s"]
    notes = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
    return values, notes, spans, drift


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--first-job-only", action="store_true", help="run only the workload's first job (self-test)")
    args = ap.parse_args(argv)

    if not (SRC / "hypermono" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: no hypermono checkout at {ROOT} (need src/hypermono and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    from hypermono.algebra.fq import KERNEL_IMPLEMENTATION

    jobs = workloads.load(args.workload)
    if args.first_job_only:
        jobs = jobs[:1]
    tally = Tally(jobs, args.seed)
    if args.trace:
        values, notes, spans, drift = per_layer(tally, args.seed, args.seconds)
    else:
        values, notes, spans, drift = end_to_end(tally, args.workload, args.seconds)
    latency = {}
    for name, a, b in spans:
        latency.setdefault(name, []).append(b - a)

    env = {
        "kernel": KERNEL_IMPLEMENTATION,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "loop": "closed, one client",
        **notes,
        "fail_ratio": len(tally.failures) / tally.attempted,
        "job_median_ms": {k: round(statistics.median(v) * 1e3, 3) for k, v in latency.items()},
    }
    print("# env " + json.dumps(env))
    print("# run " + json.dumps(run))
    for failure in tally.failures[:10]:
        print(f"# FAILED {failure}", file=sys.stderr)
    if drift:
        print(f"# work counts differ between traced passes: {drift}", file=sys.stderr)
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    result = {
        "correct": not tally.failures and not drift,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
