import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest

from heckescan.bounds import (
    DUSART_COEFF,
    UNSHIFTED_X_MAX,
    bound_report,
    exceptional_levels,
    failure_intervals,
    main_bound,
    murty_bound,
    verify_dusart,
    verify_lemma_theta,
)
from heckescan.primes import THETA_BITS, sieve

EXPECTED_LEVELS = (
    tuple(range(1, 5)) + tuple(range(6, 13)) + tuple(range(30, 34)) + tuple(range(210, 245))
)


def test_murty_examples():
    assert murty_bound(1) == 4
    assert murty_bound(2) == 9
    assert murty_bound(210) == 121


def test_main_bound_at_one():
    assert main_bound(1) == 4


def test_main_bound_identity_at_log_one():
    # the expression 4*(log N + 1)^2 equals 16 exactly when log N = 1
    with mpmath.workprec(96):
        assert 4 * (mpmath.mpf(1) + 1) ** 2 == 16


def test_main_bound_at_10_against_independent_evaluation():
    got = main_bound(10)
    with mpmath.workprec(300):
        want = 4 * (mpmath.log(10) + 1) ** 2
        assert abs(got - want) < mpmath.mpf(2) ** -80
    assert float(got) == pytest.approx(43.628273, abs=1e-5)


def test_main_bound_rejects_zero():
    with pytest.raises(ValueError):
        main_bound(0)


def test_bound_report_fields():
    rep = bound_report(210)
    assert rep.level == 210
    assert rep.p == 11
    assert rep.murty_bound == 121
    assert rep.asymptotic is not None and len(rep.asymptotic) == 3
    rep1 = bound_report(1)
    assert rep1.asymptotic is None
    assert rep1.main_bound == 4
    # the closed-form bound sits at 4 only for N = 1
    assert bound_report(2).main_bound > 4


def test_dominance_sampled():
    for n in range(1, 20001):
        m = murty_bound(n)
        mb = 4.0 * (math.log(n) + 1.0) ** 2
        if mb - m > 1e-6 * max(1.0, mb):
            continue
        assert m <= int(mpmath.floor(main_bound(n))), n


def test_asymptotic_smallest_input():
    e1, e2, e3 = bound_report(3).asymptotic
    assert all(mpmath.isfinite(v) and v > 0 for v in (e1, e2, e3))


def test_asymptotic_rejects_small_n():
    # log log n is not positive below 3, so no shape is evaluated there
    for n in (1, 2):
        assert bound_report(n).asymptotic is None


def test_asymptotic_against_independent_evaluation():
    e1, e2, e3 = bound_report(10**6).asymptotic
    big_l = math.log(10**6)
    log_l = math.log(big_l)
    assert float(e1) == pytest.approx((big_l + big_l**0.525) ** 2, rel=1e-12)
    assert float(e2) == pytest.approx((big_l + math.sqrt(big_l) * log_l) ** 2, rel=1e-12)
    assert float(e3) == pytest.approx((big_l + log_l**2) ** 2, rel=1e-12)
    # evaluated ordering at this N (the fully unconditional shape is the
    # largest only at astronomically large N; here the RH shape dominates)
    assert e2 > e3 > e1


def test_asymptotic_near_e_to_the_e():
    # at N = 15 (closest integer to e^e) the third shape sits near (e+1)^2
    e3 = bound_report(15).asymptotic[2]
    with mpmath.workprec(96):
        target = (mpmath.e + 1) ** 2
        assert abs(e3 - target) < mpmath.mpf("0.2")


# --- workprec oracle for the bound functions -------------------------------
#
# The bound functions as they were before they moved onto raw libmp tuples:
# mpf arithmetic under workprec, one log n per function.


def oracle_main_bound(n):
    with mpmath.workprec(THETA_BITS):
        return 4 * (mpmath.log(n) + 1) ** 2


def oracle_asymptotic_bounds(n):
    with mpmath.workprec(THETA_BITS):
        big_l = mpmath.log(n)
        log_l = mpmath.log(big_l)
        e1 = (big_l + big_l ** mpmath.mpf("0.525")) ** 2
        e2 = (big_l + mpmath.sqrt(big_l) * log_l) ** 2
        e3 = (big_l + log_l**2) ** 2
        return (e1, e2, e3)


def _oracle_levels():
    rng = random.Random(20100)
    return (
        list(range(1, 3001))
        + [rng.randint(1, 10**12) for _ in range(2000)]
        + [10**300 + rng.randint(-(10**9), 10**9) for _ in range(50)]
    )


def test_bound_functions_equal_the_workprec_oracle():
    for n in _oracle_levels():
        main = oracle_main_bound(n)._mpf_
        asym = tuple(v._mpf_ for v in oracle_asymptotic_bounds(n)) if n >= 3 else None
        assert main_bound(n)._mpf_ == main, n
        rep = bound_report(n)
        assert rep.level == n
        assert rep.murty_bound == rep.p**2 == murty_bound(n)
        assert rep.main_bound._mpf_ == main, n
        assert _bits(rep.asymptotic) == asym, n


def test_bound_functions_keep_their_level_checks():
    for n in (0, -6):
        for fn in (main_bound, bound_report):
            with pytest.raises(ValueError):
                fn(n)
    assert bound_report(1).asymptotic is None
    assert bound_report(2).asymptotic is None


def _interleaved(*targets):
    """Run each target in its own thread, switching between them as
    finely as the interpreter allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=t) for t in targets]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_results_never_depend_on_mpmath_global_precision():
    # bound reports, both sweeps and the failure intervals in four threads,
    # interleaved as finely as the interpreter allows beside a bystander
    # that sets mpmath's precision to 53 and 300 bits in turn and takes
    # log 3 at each: every result must equal the serial one, and so must
    # every log 3 of the bystander
    levels = range(3, 2003)
    big, small = sieve(3000), sieve(64)

    def results():
        reports = [bound_report(n) for n in levels]
        reports += [verify_lemma_theta(big), verify_dusart(big), *failure_intervals(small)]
        return [_fields(r) for r in reports]

    want = results()
    mp_prec = mpmath.mp.prec
    log3 = {}
    for prec in (53, 300):
        with mpmath.workprec(prec):
            log3[prec] = mpmath.log(3)._mpf_
    got = [()] * 4
    finished = []
    wrong_logs = []

    def work(i):
        try:
            got[i] = results()
        finally:
            finished.append(i)

    def bystander():
        try:
            while len(finished) < len(got):
                for prec in (53, 300):
                    mpmath.mp.prec = prec
                    if mpmath.log(3)._mpf_ != log3[prec]:
                        wrong_logs.append(prec)
        finally:
            mpmath.mp.prec = mp_prec

    _interleaved(bystander, *(lambda i=i: work(i) for i in range(len(got))))
    mismatches = sum(a != b for g in got for a, b in zip(g, want))
    assert (mismatches, [len(g) for g in got], wrong_logs) == (0, [len(want)] * 4, [])
    assert mpmath.mp.prec == mp_prec


def test_verify_lemma_small_table(table_10k):
    rep = verify_lemma_theta(table_10k)
    assert rep.ok
    assert rep.violations == ()
    # the tight spot is the very first segment: theta(2) >= 1/2
    with mpmath.workprec(THETA_BITS):
        want = mpmath.log(2) - Fraction(1, 2)
        assert abs(rep.min_slack - want) < mpmath.mpf(2) ** -80
    assert rep.min_slack_x == 0.5


def test_verify_lemma_first_segment_by_hand(table64):
    rep = verify_lemma_theta(table64)
    assert rep.ok
    assert math.log(2) > 0.5  # the hand check the first segment reduces to


def test_verify_dusart_limit_10():
    t_small = __import__("heckescan").sieve(10)
    rep = verify_dusart(t_small)
    assert rep.ok
    assert rep.points_checked == 2 * 4  # jump + left limit at 2, 3, 5, 7
    # hand check at x = 3: |theta(3) - 3| = 3 - log 6 < 3.965 * 3 / log(3)^2
    assert abs(math.log(6) - 3) < 3.965 * 3 / math.log(3) ** 2


def test_verify_dusart_10k(table_10k):
    rep = verify_dusart(table_10k)
    assert rep.ok
    assert rep.violations == ()
    # tightest point: left limit at 59 (theta(53) lags x = 59 by almost
    # exactly the allowance); value frozen from a high-precision run
    assert rep.min_slack_x == 59
    assert float(rep.min_slack) == pytest.approx(0.000679, abs=2e-6)


def test_dusart_violated_with_smaller_constant(table_10k):
    # sanity that the checker can fail: shrink the allowance and the
    # x = 59 left limit must break through
    import heckescan.bounds as b

    coeff = b.DUSART_COEFF
    try:
        b.DUSART_COEFF = Fraction(3964, 1000)
        rep = verify_dusart(table_10k)
        assert not rep.ok
        assert any(p == 59 for p, side, slack in rep.violations)
    finally:
        b.DUSART_COEFF = coeff


def test_failure_intervals_match_known_endpoints(table64):
    ivs = failure_intervals(table64)
    assert len(ivs) == 4
    assert [iv.lo_log_arg for iv in ivs] == [1, 6, 30, 210]
    assert [iv.hi_exact for iv in ivs] == [
        Fraction(3, 2),
        Fraction(5, 2),
        Fraction(7, 2),
        Fraction(11, 2),
    ]
    with mpmath.workprec(THETA_BITS):
        tol = mpmath.mpf(10) ** -30
        for iv, arg in zip(ivs, (1, 6, 30, 210)):
            assert abs(iv.lo - mpmath.log(arg)) < tol
            assert abs(iv.hi - mpmath.mpf(iv.hi_exact.numerator) / iv.hi_exact.denominator) < tol
            assert iv.lo < iv.hi


def test_no_failures_past_threshold(table_10k):
    # extending the cap far past 8.356 discovers no further intervals
    ivs = failure_intervals(table_10k, x_max=Fraction(2000))
    assert len(ivs) == 4
    assert ivs[-1].hi_exact == Fraction(11, 2)


def test_threshold_literal_consistent_with_its_derivation():
    # 8.356 must dominate (1/2) exp(sqrt(2 * 3.965))
    with mpmath.workprec(128):
        derived = mpmath.exp(mpmath.sqrt(2 * mpmath.mpf(3965) / 1000)) / 2
        cap = mpmath.mpf(UNSHIFTED_X_MAX.numerator) / UNSHIFTED_X_MAX.denominator
        assert derived <= cap
        assert abs(derived - cap) < mpmath.mpf(1) / 1000
    assert DUSART_COEFF == Fraction(3965, 1000)


def test_exceptional_levels_exact(table64):
    assert exceptional_levels(table64) == EXPECTED_LEVELS


def test_exceptional_levels_membership(table64):
    levels = set(exceptional_levels(table64))
    assert 5 not in levels
    assert 244 in levels
    assert 245 not in levels
    assert 29 not in levels
    assert 30 in levels


def test_failure_intervals_need_enough_primes():
    t_tiny = __import__("heckescan").sieve(5)
    with pytest.raises(ValueError):
        failure_intervals(t_tiny)


def _exact(x):
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


def test_theta_comparison_near_tie_reruns_at_higher_precision(table64, monkeypatch):
    # a bound equal to the exact rational value of a stored 96-bit theta
    # is a tie no stored value can settle; the interval verdict must match
    # a 400-bit evaluation from the primes
    import heckescan.bounds as b

    ps = table64.primes
    for idx in range(len(ps)):
        tie = _exact(table64.theta_prefix[idx])
        with mpmath.workprec(400):
            diff = mpmath.log(math.prod(ps[: idx + 1])) - mpmath.mpf(tie.numerator) / tie.denominator
            assert abs(diff) > mpmath.mpf(2) ** -300
        below = b._below(b._interval_context(), b._theta_enclosure(ps[: idx + 1]), tie)
        assert below == (diff < 0)
    # a screen that reads theta(7) within 2^-40 of its segment's bound 9/2
    # takes that point for the minimum and sends it to the exact primes,
    # where theta(7) = log 210 clears 9/2: a wrong screen cannot fake a
    # violation, and the reported slack is the true one
    idx = ps.index(7)
    with mpmath.workprec(400):
        true_slack = mpmath.log(210) - mpmath.mpf(9) / 2
    floats = b._theta_floats
    for shift in (0, -(2**-40), 2**-40):

        def skewed(primes, shift=shift):
            t, e = floats(primes)
            t[idx] = 4.5 + shift
            return t, e

        monkeypatch.setattr(b, "_theta_floats", skewed)
        slack, delta = b._lemma_screen(table64)
        assert slack[idx + 1] == shift  # lemma point k reads theta(p_(k-1)), k >= 1
        assert idx + 1 in b._candidates((slack, delta))
        rep = verify_lemma_theta(table64)
        assert rep.ok and rep.violations == ()
        assert rep.min_slack_x == 4.5 and abs(rep.min_slack - true_slack) < mpmath.mpf(2) ** -90


def test_dusart_near_tie_at_59_matches_a_400_bit_reference(table64, dusart_tie_coeffs, monkeypatch):
    import heckescan.bounds as b

    iv_prec = mpmath.iv.prec
    for coeff in dusart_tie_coeffs:
        monkeypatch.setattr(b, "DUSART_COEFF", coeff)
        with mpmath.workprec(400):
            lag = 59 - mpmath.log(math.prod(p for p in table64.primes if p < 59))
            slack = mpmath.mpf(coeff.numerator) / coeff.denominator * 59 / mpmath.log(59) ** 2 - lag
            assert 0 < abs(slack) < mpmath.mpf(10) ** -29
        rep = verify_dusart(table64)
        assert rep.min_slack_x == 59 and abs(rep.min_slack) < _screen_margin(table64)
        assert rep.ok == (slack > 0)
        assert [(p, side) for p, side, _ in rep.violations] == ([] if slack > 0 else [(59, "left-limit")])
    assert mpmath.iv.prec == iv_prec  # the escalation ran in a private context


def test_exp_floor_decided_within_2_to_the_minus_100_of_an_integer(table64, monkeypatch):
    # a failure interval ending at a rational r with exp(r) just below or
    # just above 245: the level set must stop at 244 or at 245
    import heckescan.bounds as b

    with mpmath.workprec(400):
        scaled = mpmath.log(245) * 2**120
        below, above = int(mpmath.floor(scaled)), int(mpmath.ceil(scaled))
    for num, last in ((below, 244), (above, 245)):
        r = Fraction(num, 2**120)
        with mpmath.workprec(400):
            gap = mpmath.exp(mpmath.mpf(r.numerator) / r.denominator) - 245
            assert 0 < abs(gap) < mpmath.mpf(2) ** -100
        iv = b.FailureInterval(mpmath.log(210), mpmath.mpf(5.5), 210, r)
        monkeypatch.setattr(b, "failure_intervals", lambda table, iv=iv: (iv,))
        assert exceptional_levels(table64) == tuple(range(210, last + 1))


def test_undecided_enclosures_raise(table64, dusart_tie_coeffs, undecidable_enclosures, monkeypatch):
    import heckescan.bounds as b

    iv_prec = mpmath.iv.prec
    monkeypatch.setattr(b, "DUSART_COEFF", dusart_tie_coeffs[1])
    with pytest.raises(ArithmeticError, match="undecided at 1536 bits"):
        verify_dusart(table64)
    with pytest.raises(ArithmeticError):
        exceptional_levels(table64)
    assert mpmath.iv.prec == iv_prec


def test_failure_intervals_tiny_cap(table64):
    ivs = failure_intervals(table64, x_max=Fraction(1, 2))
    assert len(ivs) == 1
    assert ivs[0].hi_exact == Fraction(1, 2)
    assert ivs[0].lo_log_arg == 1


# --- all-points 96-bit oracle for the screened sweeps ---------------------
#
# The sweeps as they were before the double screen: every critical point
# through mpmath at the table's precision from the stored prefix sums,
# with a margin for their rounding and the same `_certified` escalation.
# `slacks`, if given, collects the 96-bit slack of every point in index
# order.


def _screen_margin(table):
    """Bound on the rounding error of every slack the oracles compute from
    the stored prefix sums; a slack this close to 0 goes to `_certified`.

    With u = 2^-THETA_BITS, n primes and T the last prefix sum, a stored
    theta (logs within 2 ulp, one rounding per addition) is off by at most
    E = 4(n + 2)(T + 2)u.  Dusart reads log p as a difference of two of
    them, off by at most 2E + u log p; while that is below log(2)/10 (any
    table that fits in memory) c p / log^2 p moves by at most
    3 c p / log^3 p times it, and p / log^3 p on [2, limit] peaks at an
    end, A = max(6.01, limit / log^3 limit).  Every other rounding in
    either slack stays below 30 limit u, so both are off by less than
    (1 + 6 c A)(E + 30 limit u)."""
    import heckescan.bounds as b

    u = 2.0**-THETA_BITS
    n, limit = len(table.primes), table.limit
    err = 4 * (n + 2) * (float(table.theta_prefix[-1]) + 2) * u
    amp = max(6.01, limit / math.log(limit) ** 3)
    return mpmath.mpf((1 + 6 * float(b.DUSART_COEFF) * amp) * (err + 30 * limit * u))


def oracle_lemma_theta(table, slacks=None):
    import heckescan.bounds as b

    ps = table.primes
    prefix = table.theta_prefix
    n = len(ps)
    margin = _screen_margin(table)
    ctx = b._interval_context()
    violations = []
    min_slack = None
    min_x = None
    checked = 0
    with mpmath.workprec(THETA_BITS):
        sups = [(0, Fraction(1, 2))]
        sups.extend((i, Fraction(ps[i + 1] - 2, 2)) for i in range(n - 1))
        sups.append((n - 1, Fraction(table.limit - 2, 2)))
        for idx, sup in sups:
            sup_mpf = mpmath.mpf(sup.numerator) / sup.denominator
            slack = prefix[idx] - sup_mpf
            if slacks is not None:
                slacks.append(slack)
            checked += 1
            if min_slack is None or slack < min_slack:
                min_slack = slack
                min_x = sup_mpf
            if slack < margin and (
                slack <= -margin or b._below(ctx, b._theta_enclosure(ps[: idx + 1]), sup)
            ):
                violations.append((ps[idx], sup, slack))
    return b.CheckReport("theta(2x+2) > x", not violations, checked, min_slack, min_x, tuple(violations))


def oracle_dusart(table, slacks=None):
    import heckescan.bounds as b

    ps = table.primes
    margin = _screen_margin(table)
    ctx = b._interval_context()
    violations = []
    min_slack = None
    min_x = None
    checked = 0
    with mpmath.workprec(THETA_BITS):
        coeff = mpmath.mpf(b.DUSART_COEFF.numerator) / b.DUSART_COEFF.denominator
        prev = mpmath.mpf(0)
        for i, p in enumerate(ps):
            th = table.theta_prefix[i]
            logp = th - prev
            bound = coeff * p / (logp * logp)
            for value in (prev, th):
                slack = bound - abs(value - p)
                if slacks is not None:
                    slacks.append(slack)
                checked += 1
                if min_slack is None or slack < min_slack:
                    min_slack = slack
                    min_x = p
                if slack < margin and (
                    slack <= -margin
                    or b._certified(ctx, b._dusart_slack(ps[: i + (value is th)], p), b._sign) < 0
                ):
                    violations.append((p, "jump" if value is th else "left-limit", slack))
            prev = th
    return b.CheckReport(
        "|theta(x) - x| < 3.965 x / log(x)^2",
        not violations,
        checked,
        min_slack,
        min_x,
        tuple(violations),
    )


def _bits(value):
    """A report field with every mpf replaced by its raw tuple."""
    if isinstance(value, mpmath.mpf):
        return value._mpf_
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return value


def _fields(rep):
    return {name: _bits(getattr(rep, name)) for name in rep._fields}


def _assert_matches_oracle(rep, want, margin):
    """rep has every field of the oracle's report want, except that each
    slack may differ from the oracle's by its rounding margin."""
    exact = ("name", "ok", "points_checked", "min_slack_x")
    assert [_bits(getattr(rep, f)) for f in exact] == [_bits(getattr(want, f)) for f in exact]
    assert [v[:-1] for v in rep.violations] == [v[:-1] for v in want.violations]
    slacks = [(r.min_slack, *(v[-1] for v in r.violations)) for r in (rep, want)]
    for got, exp in zip(*slacks):
        assert abs(_exact(got) - _exact(exp)) < _exact(margin)


@pytest.mark.parametrize("coeff", [Fraction(3965, 1000), Fraction(3964, 1000), Fraction(3)])
@pytest.mark.parametrize("size", ["table_10k", "table_100k"])
def test_screened_sweeps_equal_the_all_points_oracle(size, coeff, request, monkeypatch):
    import heckescan.bounds as b

    table = request.getfixturevalue(size)
    monkeypatch.setattr(b, "DUSART_COEFF", coeff)
    margin = _screen_margin(table)
    for sweep, oracle in ((verify_lemma_theta, oracle_lemma_theta), (verify_dusart, oracle_dusart)):
        _assert_matches_oracle(sweep(table), oracle(table), margin)
    # the smaller constant breaks through at the x = 59 left limit, and
    # c = 3 at many points besides the minimum, every one of them reported
    rep = verify_dusart(table)
    if coeff == 3:
        assert len(rep.violations) > 1 and not rep.ok
    else:
        want = [] if coeff == DUSART_COEFF else [(59, "left-limit")]
        assert [(p, side) for p, side, _ in rep.violations] == want


@pytest.mark.parametrize(
    "screen, oracle", [("_lemma_screen", oracle_lemma_theta), ("_dusart_screen", oracle_dusart)]
)
def test_screen_bound_covers_the_double_error_at_every_point(table_100k, screen, oracle):
    # d covers the distance to the 96-bit slack plus that slack's own
    # rounding bound, so it covers the distance to the true slack
    import heckescan.bounds as b

    slack, delta = getattr(b, screen)(table_100k)
    want = []
    oracle(table_100k, slacks=want)
    margin = _exact(_screen_margin(table_100k))
    assert len(slack) == len(delta) == len(want)
    for s, d, s96 in zip(slack, delta, want):
        assert abs(Fraction(s) - _exact(s96)) + margin <= Fraction(d)
    # and the screen settles all but the tightest points: the doubled first
    # segment of the lemma, the x = 59 left limit of Dusart
    assert list(b._candidates((slack, delta))) == ([0, 1] if screen == "_lemma_screen" else [32])


def _dusart_crossing(table):
    """The constant c* = 4.33... at which the left limits at 29 and at 59
    have equal Dusart slack (near it these two are the smallest slacks of
    any point), rounded to a multiple of 2^-80, and the slack of each as
    (slope, lag) at 400 bits."""
    ps = table.primes
    with mpmath.workprec(400):
        lines = [(p / mpmath.log(p) ** 2, p - mpmath.log(math.prod(ps[: ps.index(p)]))) for p in (29, 59)]
        (a29, b29), (a59, b59) = lines
        return Fraction(int(mpmath.nint((b59 - b29) / (a59 - a29) * 2**80)), 2**80), lines


@pytest.mark.parametrize("shift", [-(2**-80), 2**-80])
def test_screen_tie_goes_to_the_96_bit_minimum(table_10k, shift, monkeypatch):
    # c within 2^-79 of c*: the left limits at 29 and at 59 tie in doubles
    # but not at 96 bits, where 59 is the minimum below c* and 29 above it
    import heckescan.bounds as b

    crossing, lines = _dusart_crossing(table_10k)
    coeff = crossing + Fraction(shift)
    monkeypatch.setattr(b, "DUSART_COEFF", coeff)
    with mpmath.workprec(400):
        c = mpmath.mpf(coeff.numerator) / coeff.denominator
        s29, s59 = (a * c - lag for a, lag in lines)
        assert mpmath.mpf(2) ** -90 < abs(s29 - s59) < mpmath.mpf(2) ** -70
    slack, delta = b._dusart_screen(table_10k)
    at29, at59 = 2 * table_10k.primes.index(29), 2 * table_10k.primes.index(59)
    assert abs(slack[at29] - slack[at59]) <= delta[at29] + delta[at59]
    assert [at29, at59] == list(b._candidates((slack, delta)))
    rep = verify_dusart(table_10k)
    _assert_matches_oracle(rep, oracle_dusart(table_10k), _screen_margin(table_10k))
    assert rep.min_slack_x == (59 if s59 < s29 else 29)
    assert (s59 < s29) == (shift < 0)


def test_screen_keeps_a_near_tie_that_is_not_the_minimum(table64, dusart_tie_coeffs, monkeypatch):
    # the x = 59 left limit a hair below its bound (a violation only the
    # exact primes can decide), while a screen that reads theta(61) 1000
    # too high sees far deeper violations at 61: the near tie must still
    # be reported, and the screen's violations at 61 must not be
    import heckescan.bounds as b

    monkeypatch.setattr(b, "DUSART_COEFF", dusart_tie_coeffs[0])
    want = oracle_dusart(table64)
    floats = b._theta_floats

    def skewed(primes):
        t, e = floats(primes)
        t[-1] += 1000
        return t, e

    monkeypatch.setattr(b, "_theta_floats", skewed)
    slack, delta = b._dusart_screen(table64)
    assert min(slack) < -900 and slack.index(min(slack)) > 32
    assert 32 in b._candidates((slack, delta))  # the x = 59 left limit
    rep = verify_dusart(table64)
    _assert_matches_oracle(rep, want, _screen_margin(table64))
    assert [(p, side) for p, side, _ in rep.violations] == [(59, "left-limit")]
    assert rep.min_slack_x == 59 and not rep.ok


def test_lemma_counts_the_first_segment_twice_without_comparing_the_tie(table_10k, undecidable_enclosures):
    # points 0 and 1 are the same comparison theta(2) >= 1/2: both reach
    # their enclosures, the exact tie keeps the first as the minimum, and no
    # escalation (which would raise here) is ever asked to order them
    import heckescan.bounds as b

    assert list(b._candidates(b._lemma_screen(table_10k))) == [0, 1]
    rep = verify_lemma_theta(table_10k)
    assert rep.ok and rep.min_slack_x == Fraction(1, 2)
    assert rep.points_checked == len(table_10k.primes) + 1


def test_math_log_within_its_allowance_to_1e5(table_100k):
    # the screens take math.log(p) as within A = 2^-40 of log p relative;
    # it is within 2^-52 for every prime up to 10^5
    import heckescan.bounds as b

    assert b._LOG_ALLOWANCE >= 2.0**-52
    with mpmath.workprec(120):
        for p in table_100k.primes:
            ref = mpmath.log(p)
            assert abs(mpmath.mpf(math.log(p)) - ref) <= mpmath.ldexp(ref, -52), p


def test_sweeps_and_failure_intervals_never_build_the_prefix_sums():
    table = sieve(3000)
    verify_lemma_theta(table)
    verify_dusart(table)
    failure_intervals(table)
    assert "theta_prefix" not in vars(table)


def test_failure_interval_lo_is_log_of_its_argument_at_theta_precision():
    ivs = failure_intervals(sieve(64))
    with mpmath.workprec(THETA_BITS):
        assert [iv.lo._mpf_ for iv in ivs] == [mpmath.log(iv.lo_log_arg)._mpf_ for iv in ivs]
