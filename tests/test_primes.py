import math

import mpmath
import pytest

from heckescan.primes import (
    THETA_BITS,
    primes_above,
    primorial_row,
    sieve,
    smallest_nondivisor_prime,
)


def is_prime_trial(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def test_sieve_of_10():
    assert sieve(10).primes == (2, 3, 5, 7)


def test_sieve_boundary():
    assert sieve(2).primes == (2,)


def test_sieve_100_has_25_primes():
    t = sieve(100)
    assert len(t.primes) == 25
    assert t.primes == tuple(n for n in range(2, 101) if is_prime_trial(n))


def test_sieve_rejects_tiny_limit():
    with pytest.raises(ValueError):
        sieve(1)


def test_sieve_prefix_equals_sequential_mpmath_log_sum():
    table = sieve(10**4)
    want = []
    with mpmath.workprec(THETA_BITS):
        total = mpmath.mpf(0)
        for p in table.primes:
            total += mpmath.log(p)
            want.append(total._mpf_)
    assert [x._mpf_ for x in table.theta_prefix] == want
    assert THETA_BITS == 96


def test_sieve_membership_matches_trial_division(table_10k):
    members = set(table_10k.primes)
    for n in range(2, 10001):
        assert (n in members) == is_prime_trial(n), n


def test_theta_empty_sum():
    # the prefix sums start from the empty sum: the first is log 2 alone,
    # rounded once at THETA_BITS
    with mpmath.workprec(THETA_BITS):
        assert sieve(2).theta_prefix == (mpmath.log(2),)


def test_theta_at_10_is_log_210(table_10k):
    with mpmath.workprec(THETA_BITS):
        want = mpmath.log(210)
        assert abs(table_10k.theta_prefix[3] - want) < mpmath.mpf(2) ** -80


def test_theta_includes_boundary_prime(table_10k):
    # a table whose limit is the prime 7 sums log 7 too, bit for bit as a
    # longer table does
    assert sieve(7).theta_prefix[-1] == table_10k.theta_prefix[3]
    assert sieve(6).theta_prefix[-1] == table_10k.theta_prefix[2]


def test_theta_beyond_limit(table_10k):
    # one sum per prime of the table, none past its limit
    assert len(table_10k.theta_prefix) == len(table_10k.primes) == 1229
    assert len(sieve(10).theta_prefix) == 4


def test_theta_jumps_by_log_p(table_10k):
    ps = table_10k.primes
    pre = table_10k.theta_prefix
    with mpmath.workprec(THETA_BITS):
        for i in (0, 1, 5, 100, 1000):
            before = pre[i - 1] if i else mpmath.mpf(0)
            # each prefix entry carries at most a few ulps of accumulated
            # rounding at its own magnitude
            tol = (i + 2) * pre[i] * mpmath.mpf(2) ** -94
            assert abs((pre[i] - before) - mpmath.log(ps[i])) < tol


def test_theta_nondecreasing(table_10k):
    pre = table_10k.theta_prefix
    assert all(pre[i] < pre[i + 1] for i in range(len(pre) - 1))


def test_smallest_nondivisor_examples():
    assert smallest_nondivisor_prime(1) == 2
    assert smallest_nondivisor_prime(210) == 11
    assert smallest_nondivisor_prime(33) == 2


def test_smallest_nondivisor_rejects_zero():
    with pytest.raises(ValueError):
        smallest_nondivisor_prime(0)


def _screen_inputs(ps):
    """N that reach every branch after the word screen: a gap below p_62
    while p_62 * p_63 divides N, multiples of the word, smooth huge N and
    random even N, some of them multiples of 210."""
    import random

    yield math.prod(ps[:70]) // ps[29]
    word = 210 * ps[61] * ps[62]
    for m in range(1, 30_001):
        yield word * m
    yield 2**100_000
    yield math.prod(ps[:15]) * 3**100_000
    yield math.prod(ps[:40]) * 7**5000
    yield 210**3000 * 11**2000
    yield math.prod(ps[:63]) * 13**4000
    rng = random.Random(27)
    for _ in range(200):
        n = rng.getrandbits(rng.randint(1000, 30_000)) | 1 << 999
        yield 2 * n
        yield 210 * n


def test_smallest_nondivisor_brute_force_oracle(table_10k):
    ps = table_10k.primes
    for n in range(1, 2001):
        expect = next(p for p in ps if n % p)
        assert smallest_nondivisor_prime(n) == expect, n
    for n in _screen_inputs(ps):
        assert smallest_nondivisor_prime(n) == _oracle(n, ps), n


def test_primorial_law_small(table_10k):
    ps = table_10k.primes
    n = 1
    for k in range(1, 501):
        n *= ps[k - 1]
        assert smallest_nondivisor_prime(n) == ps[k], k


def test_primorial_row_basics(table_10k):
    r1 = primorial_row(1, table_10k)
    assert (r1.k, r1.p_k, r1.gap) == (1, 2, 1)
    with mpmath.workprec(THETA_BITS):
        assert abs(r1.log_primorial - mpmath.log(2)) < mpmath.mpf(2) ** -88

    r4 = primorial_row(4, table_10k)
    assert (r4.k, r4.p_k, r4.gap) == (4, 7, 4)
    with mpmath.workprec(THETA_BITS):
        assert abs(r4.log_primorial - mpmath.log(210)) < mpmath.mpf(2) ** -80

    r5 = primorial_row(5, table_10k)
    assert (r5.k, r5.p_k, r5.gap) == (5, 11, 2)
    with mpmath.workprec(THETA_BITS):
        assert abs(r5.log_primorial - mpmath.log(2310)) < mpmath.mpf(2) ** -80


def test_primorial_row_gaps_even_past_first(table_10k):
    for k in range(2, 200):
        assert primorial_row(k, table_10k).gap % 2 == 0


def test_primorial_row_log_increasing(table_10k):
    rows = [primorial_row(k, table_10k) for k in range(1, 100)]
    assert all(a.log_primorial < b.log_primorial for a, b in zip(rows, rows[1:]))


def test_primorial_row_table_too_small():
    t = sieve(10)
    with pytest.raises(ValueError):
        primorial_row(4, t)  # needs p_5 = 11 > 10


def test_exp_theta_matches_exact_primorial(table_10k):
    n = 1
    with mpmath.workprec(THETA_BITS):
        for k in range(1, 301):
            n *= table_10k.primes[k - 1]
            approx = mpmath.exp(table_10k.theta_prefix[k - 1])
            assert abs(approx / n - 1) < mpmath.mpf(2) ** -70, k


def test_smallest_nondivisor_pure_int_fallback(monkeypatch, table_10k):
    import heckescan.primes as pr

    # Every cache of the search (segment trees, the partial primorials of each
    # segment, the log prefixes) hangs off _segments, so this reset leaves
    # no mpz from earlier calls in the int run.
    monkeypatch.setattr(pr, "_mpz", int)
    monkeypatch.setattr(pr, "_segments", [])
    monkeypatch.setattr(pr, "_seg_prime_pool", [])
    monkeypatch.setattr(pr, "_seg_pool_limit", 0)
    assert smallest_nondivisor_prime(1) == 2
    assert smallest_nondivisor_prime(210) == 11
    assert smallest_nondivisor_prime(2 * 3 * 5 * 7 * 11 * 13) == 17
    assert smallest_nondivisor_prime(2**200) == 3
    # p_1 * ... * p_70 passes the first segments and takes the theta jump
    ps = table_10k.primes
    assert pr._theta_jump(math.prod(ps[:70])) == ps[70]
    assert smallest_nondivisor_prime(math.prod(ps[:70])) == ps[70]
    for n in _screen_inputs(ps):
        assert smallest_nondivisor_prime(n) == _oracle(n, ps), n
    assert all(type(seg.product) is int for seg in pr._segments)
    assert all(type(mark) is int for seg in pr._segments for mark in seg.marks)


def test_segment_products_for_the_theta_jump():
    import heckescan.primes as pr

    seen = []
    for i in range(9):
        seg = pr._segment(i)
        assert seg.start == len(seen) and len(seg.primes) == 1 << i
        # from segment 4 on, one mark step spans several primes
        assert seg.mark_level == max(0, i - 3)
        assert len(seg.marks) == min(1 << i, pr._MARK_STEPS) + 1
        assert seg.marks[0] == math.prod(seen)
        for m in range(len(seg.primes) + 1):
            assert seg.primorial(m) == math.prod(seen + list(seg.primes[:m]))
        assert seg.marks[-1] == pr._segment(i + 1).marks[0]
        seen.extend(seg.primes)
        assert seg.log_prefix[-1] == pytest.approx(math.log(math.prod(seen)), rel=1e-12)


def test_segments_cache_at_most_nine_marks():
    import heckescan.primes as pr

    for i in range(12):
        assert len(pr._segment(i).marks) <= 9


def test_theta_jump_across_mark_boundaries(monkeypatch):
    import heckescan.primes as pr

    ps = sieve(20_000).primes
    seen_m = []
    primorial = pr._SegmentTree.primorial

    def spy(seg, m):
        seen_m.append((seg.start, m))
        return primorial(seg, m)

    monkeypatch.setattr(pr._SegmentTree, "primorial", spy)
    for i, t in ((9, 3), (10, 5)):
        seg = pr._segment(i)
        step = 1 << seg.mark_level
        assert step > 1
        boundary = t * step
        for m in (boundary - 1, boundary, boundary + 1):
            j = seg.start + m  # P_J = p_1 * ... * p_j
            p_j = math.prod(ps[:j])
            # one P_J short of P_(J+1): the jump divides by exactly P_J
            seen_m.clear()
            n = p_j * (ps[j] - 1)
            assert pr._theta_jump(n) == _oracle(n, ps) == ps[j]
            assert seen_m == [(seg.start, m)]
            # p_(J+1)^3 on top of P_J: p_(J+2) is missing
            n = p_j * ps[j] ** 3
            assert pr._theta_jump(n) in (None, ps[j + 1])
            assert smallest_nondivisor_prime(n) == _oracle(n, ps) == ps[j + 1]
            # one prime past p_63 taken out, found by the jump or the search
            for gone in (63, j - 2):
                n = p_j // ps[gone]
                assert pr._theta_jump(n) in (None, ps[gone])
                assert smallest_nondivisor_prime(n) == _oracle(n, ps) == ps[gone]


def _oracle(n, ps):
    return next(p for p in ps if n % p)


def _count_walk(monkeypatch, pr):
    calls = []
    nth = pr._nth_prime
    monkeypatch.setattr(pr, "_nth_prime", lambda i: calls.append(i) or nth(i))
    return calls


def test_theta_jump_walks_the_quotient(monkeypatch, table_10k):
    import heckescan.primes as pr

    ps = table_10k.primes
    calls = _count_walk(monkeypatch, pr)
    for j in (40, 100, 700):
        # P_J * q with q = p_(J+1) * p_(J+2): the estimate stops below
        # p_(J+2), so the walk must divide q by at least one prime
        n = math.prod(ps[:j]) * ps[j] * ps[j + 1]
        calls.clear()
        assert pr._theta_jump(n) == _oracle(n, ps) == ps[j + 2]
        assert len(calls) >= 2
        assert smallest_nondivisor_prime(n) == ps[j + 2]
    # an estimate that undershoots by 30 nats leaves several primes in q
    log = pr._log
    monkeypatch.setattr(pr, "_log", lambda n: log(n) - 30.0)
    n = math.prod(ps[:300])
    calls.clear()
    assert pr._theta_jump(n) == _oracle(n, ps) == ps[300]
    assert len(calls) >= 5


def test_theta_jump_falls_back_when_a_prime_is_missing(table_10k):
    import heckescan.primes as pr

    ps = table_10k.primes
    for j, gone in ((60, 30), (500, 250), (500, 400)):
        n = math.prod(ps[:j]) // ps[gone]
        assert pr._theta_jump(n) is None
        assert smallest_nondivisor_prime(n) == _oracle(n, ps) == ps[gone]


def test_theta_jump_just_below_next_primorial(monkeypatch, table_10k):
    import heckescan.primes as pr

    ps = table_10k.primes
    for j in (40, 300):
        # P_J * (p_(J+1) - 1) is one P_J short of P_(J+1)
        n = math.prod(ps[:j]) * (ps[j] - 1)
        assert pr._theta_jump(n) == _oracle(n, ps) == ps[j]
        assert smallest_nondivisor_prime(n) == ps[j]
    # an estimate past N picks P_J > N: q = 0, r = N, and the segment
    # search must still give the exact answer
    log = pr._log
    monkeypatch.setattr(pr, "_log", lambda n: log(n) + 20.0)
    for j in (40, 300):
        n = math.prod(ps[:j]) * (ps[j] - 1)
        assert pr._theta_jump(n) is None
        assert smallest_nondivisor_prime(n) == _oracle(n, ps) == ps[j]


def test_primes_above_matches_trial_division(monkeypatch):
    import itertools

    import heckescan.primes as pr

    monkeypatch.setattr(pr, "_seg_prime_pool", [])
    monkeypatch.setattr(pr, "_seg_pool_limit", 0)
    assert list(itertools.islice(primes_above(1), 6)) == [2, 3, 5, 7, 11, 13]
    assert list(itertools.islice(primes_above(24), 3)) == [29, 31, 37]
    # runs past the first 1024-wide sieve pool, which must grow
    got = list(itertools.islice(primes_above(1000), 300))
    assert got == [n for n in range(1001, got[-1] + 1) if is_prime_trial(n)]
    assert pr._seg_pool_limit > 1024


def test_small_segments_answer_before_the_theta_jump(monkeypatch, table_10k):
    import heckescan.primes as pr

    ps = table_10k.primes
    jumps = []
    jump = pr._theta_jump
    monkeypatch.setattr(pr, "_theta_jump", lambda nz: jumps.append(nz) or jump(nz))
    # divisible by p_1 .. p_15 but nowhere near a primorial: a plain mod by
    # the next small segment answers, no P_J is built
    n = math.prod(ps[:15]) * 3**100000
    assert smallest_nondivisor_prime(n) == _oracle(n, ps) == ps[15]
    n = math.prod(ps[:40]) * 7**5000
    assert smallest_nondivisor_prime(n) == _oracle(n, ps) == ps[40]
    assert jumps == []
    # past p_63 the jump is taken
    assert smallest_nondivisor_prime(math.prod(ps[:70])) == ps[70]
    assert len(jumps) == 1


def test_word_screen_routes_even_n(monkeypatch, table_10k):
    import sys

    import heckescan.primes as pr

    ps = table_10k.primes
    jumps, searches = [], []
    jump, search = pr._theta_jump, pr._segment_search
    monkeypatch.setattr(pr, "_theta_jump", lambda nz: jumps.append(nz) or jump(nz))
    monkeypatch.setattr(
        pr, "_segment_search", lambda r, i: searches.append(i) or search(r, i)
    )
    # a typical even N is settled by the word alone
    for n in (2 * 11 * (10**9 + 7) ** 1000, 2 * 3 * 13**5000, 2 * 3 * 5 * 11**3000):
        assert smallest_nondivisor_prime(n) == _oracle(n, ps)
    assert jumps == [] and searches == []
    # a primorial past p_63 goes straight to one theta jump
    for k in (64, 100, 700):
        jumps.clear()
        assert smallest_nondivisor_prime(math.prod(ps[:k])) == ps[k]
        assert len(jumps) == 1 and searches == []
    # the word is 210 * p_62 * p_63, one int digit
    assert pr._word() == 210 * ps[61] * ps[62] == 18_889_710
    assert pr._word() < 2**sys.int_info.bits_per_digit


def test_smallest_nondivisor_threads_share_fresh_caches(monkeypatch, table_10k):
    import sys
    import threading

    import heckescan.primes as pr

    # Threads race to build the segments and the jump's caches from empty;
    # a reader must never see a segment without its marks or log prefix.
    monkeypatch.setattr(pr, "_segments", [])
    monkeypatch.setattr(pr, "_seg_prime_pool", [])
    monkeypatch.setattr(pr, "_seg_pool_limit", 0)
    ps = table_10k.primes
    wrong = []

    def work(offset):
        for k in range(20 + offset, 700, 37):
            n = math.prod(ps[:k])
            if smallest_nondivisor_prime(n) != ps[k]:
                wrong.append(k)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []


def test_primes_above_threads_share_a_growing_pool(monkeypatch, table_10k):
    import itertools
    import sys
    import threading

    import heckescan.primes as pr

    # Readers walk the pool while others grow it (and build segments from
    # it); every reader must see the same increasing run of primes.
    monkeypatch.setattr(pr, "_segments", [])
    monkeypatch.setattr(pr, "_seg_prime_pool", [])
    monkeypatch.setattr(pr, "_seg_pool_limit", 0)
    ps = table_10k.primes
    expected = [p for p in ps if p > 500][:600]
    wrong = []

    def read():
        if list(itertools.islice(primes_above(500), 600)) != expected:
            wrong.append("primes_above")

    def search():
        if smallest_nondivisor_prime(math.prod(ps[:900])) != ps[900]:
            wrong.append("nondivisor")

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=f) for f in (read, search) * 3]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []

