"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured time so the whole gate is auditable from the log.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import math
import os
import random
import statistics
import time
from fractions import Fraction

import mpmath

from heckescan.bounds import (
    exceptional_levels,
    failure_intervals,
    main_bound,
    murty_bound,
    verify_dusart,
    verify_lemma_theta,
)
from heckescan.hecke import (
    charpoly_t2,
    check_irreducible,
    distinguish,
    eigenform_coeffs,
    t2_matrix,
    trace_t2,
)
from heckescan.modforms import miller_basis
from heckescan.primes import THETA_BITS, sieve, smallest_nondivisor_prime
from heckescan.scan import run_scan
from heckescan.series import IntSeries, series_mul

ONE_DIM_WEIGHTS = (12, 16, 18, 20, 22, 26)


def _report(num, elapsed, budget, detail):
    print(f"ACCEPTANCE {num}: PASS ({elapsed:.2f}s / budget {budget}s) - {detail}")


def test_acceptance_01_trace_golden_values():
    t0 = time.monotonic()
    assert trace_t2(12) == (1, -24)
    assert trace_t2(16) == (1, 216)
    assert trace_t2(2) == (0, 0)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(1, elapsed, 1, "traces at k=12, 16, 2 match the pinned oracle values")


def _burn(n):
    x = 3
    for _ in range(n):
        x = (x * x + 1) % 1000000007
    return x


def _parallel_ceiling():
    """Measured speedup this machine gives 4 pure-CPU processes; cloud
    runners often cap well below their advertised core count."""
    from concurrent.futures import ProcessPoolExecutor

    n = 2_000_000
    t0 = time.monotonic()
    for _ in range(4):
        _burn(n)
    serial = time.monotonic() - t0
    t0 = time.monotonic()
    with ProcessPoolExecutor(max_workers=4) as pool:
        list(pool.map(_burn, [n] * 4))
    return serial / (time.monotonic() - t0)


def test_acceptance_02_scan_to_1000_no_duplicates(tmp_path):
    t0 = time.monotonic()
    report = run_scan(2, 1000, workers=1, output_path=tmp_path / "scan.tsv")
    elapsed = time.monotonic() - t0
    assert report.duplicates == ()
    assert report.records_count == 500
    assert elapsed < 600.0

    # parallel path: identical records, and speedup near the machine's own
    # multi-process ceiling (near-linear when the cores are really there).
    # A shared host's usable cores change from second to second, so each
    # of three rounds measures the ceiling beside its own pair of re-scans,
    # and the medians are compared.
    rounds = []
    for rnd in range(1, 4):
        ceiling = _parallel_ceiling()
        sub0 = time.monotonic()
        sub_serial = run_scan(900, 1000, workers=1)
        t_serial = time.monotonic() - sub0
        sub0 = time.monotonic()
        sub_parallel = run_scan(900, 1000, workers=4)
        t_parallel = time.monotonic() - sub0
        assert sub_parallel.records == sub_serial.records
        assert sub_parallel.records == report.records[-len(sub_parallel.records) :]
        speedup = t_serial / t_parallel if t_parallel else float("inf")
        print(
            f"ACCEPTANCE 2 round {rnd}: machine ceiling {ceiling:.2f}x; re-scan of "
            f"900..1000 {t_serial:.2f}s serial, {t_parallel:.2f}s with 4 workers, "
            f"speedup {speedup:.2f}x"
        )
        rounds.append((ceiling, speedup))
    ceiling = statistics.median(c for c, _ in rounds)
    speedup = statistics.median(s for _, s in rounds)
    if ceiling > 1.2:
        assert speedup > 0.6 * ceiling, (
            f"median 4-worker speedup {speedup:.2f}x vs median machine ceiling "
            f"{ceiling:.2f}x over rounds {rounds}"
        )
    _report(
        2,
        elapsed,
        600,
        f"500 records over k=2..1000, zero duplicate (dim, trace) pairs; "
        f"median 4-worker speedup {speedup:.2f}x (median machine ceiling "
        f"{ceiling:.2f}x, {os.cpu_count()} cores) over three rounds",
    )


def test_acceptance_03_hecke_identities():
    t0 = time.monotonic()
    for k in ONE_DIM_WEIGHTS:
        a = (0,) + eigenform_coeffs(k, 10)
        assert a[4] == a[2] ** 2 - 2 ** (k - 1), k
        assert a[9] == a[3] ** 2 - 3 ** (k - 1), k
        assert a[6] == a[2] * a[3], k
        assert a[10] == a[2] * a[5], k
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(3, elapsed, 5, "a4/a9 recurrences and a6/a10 multiplicativity at all six weights")


def test_acceptance_04_distinguish_within_4():
    t0 = time.monotonic()
    coeffs = {k: eigenform_coeffs(k, 4) for k in ONE_DIM_WEIGHTS}
    pairs = 0
    for i, k1 in enumerate(ONE_DIM_WEIGHTS):
        for k2 in ONE_DIM_WEIGHTS[i + 1 :]:
            n = distinguish(coeffs[k1], coeffs[k2], 4)
            assert n is not None and n <= 4, (k1, k2, n)
            pairs += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(4, elapsed, 5, f"all {pairs} weight pairs separated by some n <= 4")


def test_acceptance_05_exceptional_set():
    t0 = time.monotonic()
    table = sieve(64)
    got = exceptional_levels(table)
    expected = (
        tuple(range(1, 5))
        + tuple(range(6, 13))
        + tuple(range(30, 34))
        + tuple(range(210, 245))
    )
    assert got == expected
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _report(5, elapsed, 1, "levels {1..4, 6..12, 30..33, 210..244} reproduced exactly")


def test_acceptance_06_shifted_theta_inequality_to_1e6():
    t0 = time.monotonic()
    table = sieve(10**6)
    rep = verify_lemma_theta(table)
    assert rep.ok and rep.violations == ()

    ivs = failure_intervals(table, x_max=Fraction(20))
    assert len(ivs) == 4
    with mpmath.workprec(THETA_BITS):
        tol = mpmath.mpf(10) ** -20
        for iv, lo_arg, hi in zip(
            ivs,
            (1, 6, 30, 210),
            (Fraction(3, 2), Fraction(5, 2), Fraction(7, 2), Fraction(11, 2)),
        ):
            assert iv.lo_log_arg == lo_arg
            assert iv.hi_exact == hi
            assert abs(iv.lo - mpmath.log(lo_arg)) < tol
            assert abs(iv.hi - mpmath.mpf(hi.numerator) / hi.denominator) < tol
    # the sweep and the intervals work from the primes alone
    assert "theta_prefix" not in vars(table)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report(
        6,
        elapsed,
        30,
        f"theta(2x+2) > x at all {rep.points_checked} critical points to 1e6; "
        "unshifted check fails exactly on the four known intervals",
    )


def test_acceptance_07_dusart_to_1e7():
    t0 = time.monotonic()
    table = sieve(10**7)
    rep = verify_dusart(table)
    assert rep.ok and rep.violations == ()
    assert "theta_prefix" not in vars(table)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(
        7,
        elapsed,
        120,
        f"|theta(x) - x| < 3.965 x/log^2 x at {rep.points_checked} points; "
        f"min slack {mpmath.nstr(rep.min_slack, 6)} at x={rep.min_slack_x}",
    )


def test_acceptance_08_primorial_law_to_1e4():
    t0 = time.monotonic()
    ps = sieve(120_000).primes
    assert len(ps) > 10_000
    n = 1
    for k in range(1, 10_001):
        n *= ps[k - 1]
        assert smallest_nondivisor_prime(n) == ps[k], k
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(8, elapsed, 60, "smallest non-divisor of the k-th primorial is p_(k+1), k <= 10^4")


def test_acceptance_09_bound_dominance_to_1e6():
    t0 = time.monotonic()
    # float prescreen with a wide safety margin, exact arithmetic at ties;
    # spot-check the screen against the production evaluation first
    rng = random.Random(4)
    for n in rng.sample(range(1, 10**6), 200):
        screen = 4.0 * (math.log(n) + 1.0) ** 2
        assert abs(screen - float(main_bound(n))) <= 1e-9 * screen
    exact_path = 0
    for n in range(1, 10**6 + 1):
        m = murty_bound(n)
        screen = 4.0 * (math.log(n) + 1.0) ** 2
        if screen - m > 1e-6 * screen:
            continue
        exact_path += 1
        assert m <= int(mpmath.floor(main_bound(n))), n
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _report(
        9,
        elapsed,
        60,
        f"murty_bound(N) <= floor(main_bound(N)) for N <= 10^6 ({exact_path} exact-path checks)",
    )


def test_acceptance_10_maeda_to_300():
    t0 = time.monotonic()
    checked = 0
    reran = []
    for k in range(12, 301, 2):
        poly = charpoly_t2(k)
        if poly.degree == 0:
            continue  # k = 14 has an empty cusp space
        verdict = check_irreducible(poly)
        assert verdict.kind != "reducible", (k, verdict)
        if verdict.kind == "inconclusive":
            reran.append(k)
            verdict = check_irreducible(poly, prime_budget=4 * 25 * poly.degree)
            assert verdict.kind == "irreducible", (k, verdict)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _report(
        10,
        elapsed,
        600,
        f"T2 characteristic polynomial irreducible for all {checked} weights 12..300"
        + (f" (rerun with 4x budget at k={reran})" if reran else ", none inconclusive"),
    )


def test_acceptance_11_property_suites():
    t0 = time.monotonic()

    # series kernel vs independent double loop, 500 random cases
    rng = random.Random(12345)
    for _ in range(500):
        la, lb = rng.randint(1, 17), rng.randint(1, 17)
        a = [rng.randint(-9, 9) for _ in range(la)]
        b = [rng.randint(-9, 9) for _ in range(lb)]
        n_out = min(la, lb)
        ref = [0] * n_out
        for i in range(la):
            for j in range(lb):
                if i + j < n_out:
                    ref[i + j] += a[i] * b[j]
        assert list(series_mul(IntSeries(a), IntSeries(b)).coeffs) == ref

    # echelon shape and integrality for 20 random even weights <= 500
    for k in rng.sample(range(12, 501, 2), 20):
        basis = miller_basis(k)
        basis.validate()
        for f in basis.forms:
            assert all(isinstance(c, int) for c in f.coeffs)

    # trace vs matrix vs charpoly for every even weight <= 300
    for k in range(2, 301, 2):
        d, t = trace_t2(k)
        m = t2_matrix(k)
        assert (m.dim, m.trace) == (d, t)
        poly = charpoly_t2(k, matrix=m)
        assert poly.degree == d
        if d:
            assert poly.coeffs[1] == -t

    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    _report(
        11,
        elapsed,
        300,
        "series oracle (500 cases), echelon basis (20 weights), "
        "trace/matrix/charpoly agreement (even k <= 300)",
    )
