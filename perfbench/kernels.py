"""F_q kernel micro-measurement: microseconds per mat_mul and mat_rank call.

The cases of ``benchmarks/bench_kernels.py`` (F_2 and F_5 with n = 4, F_9
with n = 3), measured on the kernel the package selected at import
(``KERNEL_IMPLEMENTATION``).  Products are of invertible matrices, as in a
group closure; ranks are of uniform random matrices, as in kernel profiles.
Each figure is the median of several timed batches.
"""

from __future__ import annotations

import random
import statistics
import time

CASES = (("F2n4", 2, 1, 4), ("F5n4", 5, 1, 4), ("F9n3", 3, 2, 3))
BATCH = 2000
BATCHES = 5


def measure(seed: int) -> dict[str, float]:
    from hypermono.algebra import fq

    kernel = fq._kernel
    rng = random.Random(seed)
    out = {}
    for label, p, f, n in CASES:
        F = fq.field(p, f)
        q, mul, add, neg, inv = F.q, F.mul, F.add, F.neg, F.inv
        mats = [tuple(rng.randrange(q) for _ in range(n * n)) for _ in range(64)]
        units = []
        while len(units) < 64:
            a = tuple(rng.randrange(q) for _ in range(n * n))
            if kernel.mat_rank(a, n, q, mul, add, neg, inv) == n:
                units.append(a)
        mul_us, rank_us = [], []
        for _ in range(BATCHES):
            t0 = time.perf_counter()
            for i in range(BATCH):
                kernel.mat_mul(units[i & 63], units[(7 * i + 1) & 63], n, q, mul, add)
            mul_us.append((time.perf_counter() - t0) * 1e6 / BATCH)
            t0 = time.perf_counter()
            for i in range(BATCH):
                kernel.mat_rank(mats[i & 63], n, q, mul, add, neg, inv)
            rank_us.append((time.perf_counter() - t0) * 1e6 / BATCH)
        out[f"algebra.kernel.mat_mul_us.{label}"] = statistics.median(mul_us)
        out[f"algebra.kernel.mat_rank_us.{label}"] = statistics.median(rank_us)
    return out
