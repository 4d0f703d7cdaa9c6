#!/usr/bin/env python3
"""Fast self-test of the benchmark: every workload on its first job only.

    python3 perfbench/selftest.py

For each workload it runs ``run.py --first-job-only`` untraced once and
traced twice (two seeds), and checks that

* the last line has exactly the keys ``correct``, ``attempted``, ``failed``
  and ``metrics``, with every answer correct (failure ratio 0);
* the metrics are exactly the end-to-end (untraced) or per-layer (traced)
  metrics of BENCHMARK.json, with their units, as finite numbers, and every
  end-to-end value is above 0;
* every work count of the traced run repeats exactly between the two seeds.

It also checks that ``run.py`` exits non-zero, printing no result, in a
directory that holds only BENCHMARK.json and the benchmark, and that the
pinned m4 = 5 of the order-2048 monomial group agrees with a floating-point
evaluation of the same moment.  Exits 0 when every check passes.
"""

from __future__ import annotations

import cmath
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, f"{BENCH.name}/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.1", "--trace", str(trace), "--first-job-only"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(proc, names, problems, label, positive):
    if proc.returncode != 0:
        problems.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(out) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: keys {sorted(out)}")
    if not out["correct"] or out["failed"] != 0 or out["attempted"] < 1:
        problems.append(f"{label}: correct={out['correct']} failed={out['failed']}/{out['attempted']}: {proc.stderr.strip()}")
    got = {k: v["unit"] for k, v in out["metrics"].items()}
    want = {m["name"]: m["unit"] for m in names}
    if got != want:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
    for name, m in out["metrics"].items():
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v) or (positive and v <= 0):
            problems.append(f"{label}: {name} = {v!r}")
    return out["metrics"]


def check_pinned_m4(problems):
    """The order-2048 monomial group's m4, evaluated in floating point."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from hypermono import repkit
    from hypermono.algebra.cyc import zeta
    from workloads import monomial_group

    group = monomial_group(4, 3, repkit, zeta)

    def approx(c):  # power-basis coefficients of a Cyc
        return sum(a * cmath.exp(2j * cmath.pi * k / c.m) for k, a in enumerate(c.num)) / c.den

    moment = sum(abs(approx(g.trace())) ** 4 for g in group.elements) / group.order
    if group.order != 2048 or abs(moment - 5) > 1e-6:
        problems.append(f"monomial_2048: order {group.order}, float m4 {moment}")


def main() -> int:
    problems = []
    for w in (w["name"] for w in SPEC["workloads"]):
        check_result(run(w, 1, 0), SPEC["end_to_end"], problems, f"{w} trace 0", positive=True)
        counts = []
        for seed in (1, 2):
            metrics = check_result(run(w, seed, 1), SPEC["per_layer"], problems, f"{w} trace 1 seed {seed}", False)
            if metrics:
                counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
        if len(counts) == 2 and counts[0] != counts[1]:
            drift = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
            problems.append(f"{w}: work counts differ between seeds: {drift}")
        print(f"checked {w}", flush=True)

    with tempfile.TemporaryDirectory(dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, Path(bare) / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    print("checked the bare directory", flush=True)

    check_pinned_m4(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
