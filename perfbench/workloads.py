"""Workload inputs, made from the seed alone.

Each spec is plain JSON data.  The job process builds it in its set-up
and runs it; the orchestrator builds the same spec to check the answers.
Why each workload exists is in README.md.
"""

from __future__ import annotations

import random

# Sizes are chosen so that one job takes about 1.5-2 s on a 2-core
# machine without gmpy2, which leaves room for several fresh-process
# repetitions in one run; see README.md for the measured costs.
SCAN_RANGE = (2, 360)
SCAN_JOBS = 2
MAEDA_SMALL = range(12, 161, 2)
MAEDA_LARGE = (320, 340)
THETA_LIMIT = 200_000
BOUND_LEVELS = 5_000
LEVEL_MAX = 10**12
PRIMORIAL_COUNT = 2000

NAMES = ("scan", "maeda", "bounds", "primorial")


def make_spec(workload, seed, trace_run=False):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan":
        k_min, k_max = SCAN_RANGE
        # A traced run scans in one process so that the per-weight spans
        # are visible; its untraced repetitions use the same setting.
        return {"k_min": k_min, "k_max": k_max, "jobs": 1 if trace_run else SCAN_JOBS,
                "key": f"{k_min}..{k_max}"}
    if workload == "maeda":
        # Weight 14 has no cusp forms, so no polynomial to certify.
        weights = [k for k in MAEDA_SMALL if k != 14] + list(MAEDA_LARGE)
        rng.shuffle(weights)
        return {"weights": weights}
    if workload == "bounds":
        levels = [rng.randint(1, LEVEL_MAX) for _ in range(BOUND_LEVELS)]
        return {"theta_limit": THETA_LIMIT, "levels": levels}
    if workload == "primorial":
        ks = list(range(1, PRIMORIAL_COUNT + 1))
        rng.shuffle(ks)
        return {"ks": ks}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(NAMES)}")


def items(workload, spec):
    """How many answers one job produces (the unit of attempted/failed)."""
    if workload == "scan":
        return sum(1 for k in range(spec["k_min"], spec["k_max"] + 1) if k % 2 == 0)
    if workload == "maeda":
        return len(spec["weights"])
    if workload == "bounds":
        return 3 + len(spec["levels"])
    return len(spec["ks"])
