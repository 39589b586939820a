"""Answer checks for the benchmark workloads.

Nothing here imports heckescan: every expected value comes from this
file's own arithmetic (a plain sieve, the cusp-dimension formula, trial
division, a float evaluation of 4(log N + 1)^2) or from digests pinned
in pinned.json from the seed commit's output.  Each check returns the
number of failed items, so a corrupted answer is counted, never passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

PINNED = json.loads((Path(__file__).with_name("pinned.json")).read_text())

EXCEPTIONAL_SET = (
    tuple(range(1, 5)) + tuple(range(6, 13)) + tuple(range(30, 34)) + tuple(range(210, 245))
)
K24_CHARPOLY = (1, -1080, -20468736)
GOLDEN_RECORDS = ((12, 1, -24), (16, 1, 216))


def primes_upto(limit):
    """All primes <= limit, by a plain sieve of Eratosthenes."""
    flags = bytearray([1]) * (limit + 1)
    flags[: min(2, limit + 1)] = bytes(min(2, limit + 1))
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i, f in enumerate(flags) if f]


def first_primes(count):
    """The first `count` primes."""
    limit = 64
    while True:
        ps = primes_upto(limit)
        if len(ps) >= count:
            return ps[:count]
        limit *= 2


def cusp_dim(k):
    """Dimension of the weight-k level-1 cusp space (Miller's formula)."""
    if k % 2 or k < 12 or k == 14:
        return 0
    return k // 12 - 1 if k % 12 == 2 else k // 12


def digest(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def charpoly_digest(coeffs):
    return digest(" ".join(str(int(c)) for c in coeffs))[:16]


# --- scan ---------------------------------------------------------------

def check_scan(spec, answer):
    """Failed weights out of the scanned range.  A record-file digest
    mismatch or a wrong CLI summary fails every weight, because it does
    not say which record is wrong."""
    weights = [k for k in range(spec["k_min"], spec["k_max"] + 1) if k % 2 == 0]
    n = len(weights)
    if "error" in answer:
        return n
    lines = answer["file"].splitlines(keepends=True)
    records = {}
    bad = set()
    for line in lines:
        parts = line.rstrip("\n").split("\t")
        if not line.endswith("\n") or len(parts) != 3:
            return n
        k, dim, trace = (int(p) for p in parts)
        if k in records or dim != cusp_dim(k):
            bad.add(k)
        records[k] = (dim, trace)
    bad.update(k for k in weights if k not in records)
    for k, dim, trace in GOLDEN_RECORDS:
        if spec["k_min"] <= k <= spec["k_max"] and records.get(k) != (dim, trace):
            bad.add(k)
    groups = {}
    for k, (dim, trace) in records.items():
        if dim >= 1:
            groups.setdefault((dim, trace), []).append(k)
    for ks in groups.values():
        if len(ks) > 1:
            bad.update(ks)
    normalized = "".join(f"{k}\t{d}\t{t}\n" for k, (d, t) in sorted(records.items()))
    loaded = "".join(f"{k}\t{d}\t{t}\n" for k, d, t in answer["loaded"])
    first, resumed = answer["outputs"]
    summary_ok = (
        answer["exit_codes"] == [0, 0]
        and digest(normalized) == PINNED["scan"][spec["key"]]
        and loaded == normalized
        and first["records"] == n and first["computed"] == n and first["duplicates"] == []
        and resumed["records"] == n and resumed["resumed"] == n and resumed["computed"] == 0
        and resumed["duplicates"] == []
    )
    return n if not summary_ok else len(bad)


# --- maeda --------------------------------------------------------------

def check_maeda(spec, answer):
    """Failed weights: an error, a charpoly whose digest differs from the
    pinned one, or any verdict other than irreducible."""
    pinned = PINNED["maeda"]
    failed = 0
    seen = set()
    for item in answer["items"]:
        k = item["k"]
        ok = (
            "error" not in item
            and k not in seen
            and charpoly_digest(item["coeffs"]) == pinned.get(str(k))
            and len(item["coeffs"]) == cusp_dim(k) + 1
            and item["verdict"] == "irreducible"
        )
        if ok and k == 24:
            ok = tuple(int(c) for c in item["coeffs"]) == K24_CHARPOLY
        seen.add(k)
        failed += not ok
    return failed + len(set(spec["weights"]) - seen)


# --- bounds -------------------------------------------------------------

def smallest_nondivisor(n, primes):
    for p in primes:
        if n % p:
            return p
    raise ValueError(f"{n} is divisible by every prime up to {primes[-1]}")


def check_bounds(spec, answer):
    """Failed items among the two theta checks, the exceptional set and
    one bound report per level."""
    if "error" in answer:
        return 3 + len(spec["levels"])
    failed = 0
    checks = answer["theta"].get("checks", []) if answer["theta_exit"] == 0 else []
    if answer["theta"].get("limit") != spec["theta_limit"]:
        checks = []
    by_name = {c["name"]: c for c in checks}
    for name, points in PINNED["theta_check"][str(spec["theta_limit"])].items():
        rep = by_name.get(name)
        failed += not (rep and rep["ok"] and rep["violations"] == 0 and rep["points_checked"] == points)
    failed += tuple(answer["exceptional"]) != EXCEPTIONAL_SET
    primes = primes_upto(100)
    reports = answer["reports"]
    if len(reports) != len(spec["levels"]):
        return failed + len(spec["levels"])
    for n, rep in zip(spec["levels"], reports):
        if "error" in rep or rep["level"] != n:
            failed += 1
            continue
        p = smallest_nondivisor(n, primes)
        main = 4 * (math.log(n) + 1) ** 2
        ok = (
            rep["p"] == p
            and rep["murty_bound"] == p * p
            and abs(rep["main_bound"] - main) <= 1e-9 * main
            and rep["murty_bound"] <= math.floor(main)
        )
        failed += not ok
    return failed


# --- primorial ----------------------------------------------------------

def check_primorial(spec, answer):
    """Failed k: the answer must be p_(k+1) from this file's own sieve."""
    ps = first_primes(max(spec["ks"]) + 1)
    got = dict(answer["items"]) if "error" not in answer else {}
    return sum(got.get(k) != ps[k] for k in spec["ks"])


CHECKS = {
    "scan": check_scan,
    "maeda": check_maeda,
    "bounds": check_bounds,
    "primorial": check_primorial,
}
