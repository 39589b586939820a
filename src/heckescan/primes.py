"""Prime sieve, Chebyshev theta prefix sums, primorial rows, and the
smallest prime not dividing N.

theta values are extended-precision reals of THETA_BITS = 96 bits; they
come from summing logs of the exact sieved primes, so the table is a
faithful sample of the step function, not an analytic approximation.
They are summed on first read: the theta sweeps work from the primes alone.
"""

from __future__ import annotations

import bisect
import collections
import functools
import math
import sys
import threading
from array import array
from itertools import compress
from typing import NamedTuple

try:
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mpz = int

THETA_BITS = 96


class PrimeTable(collections.namedtuple("PrimeTable", "limit primes")):
    """All primes <= limit (an int), ascending in the tuple primes.
    Immutable; share freely across threads.

    The one record that subclasses collections.namedtuple rather than
    typing.NamedTuple: a NamedTuple class has no instance dict, and the
    cached theta_prefix lives in one.  The fields stay read-only."""

    @functools.cached_property
    def theta_prefix(self):
        """theta_prefix[i] is sum(log p) over the first i+1 primes at
        THETA_BITS, built on first read (`primorial_row`, `theta-plot`)."""
        import mpmath

        # the raw-tuple form of total += mpmath.log(p) under workprec(THETA_BITS):
        # the same libmp calls at the same precision and rounding, bit for bit
        prec, libmp = THETA_BITS, mpmath.libmp
        log, add, from_int, make_mpf = libmp.mpf_log, libmp.mpf_add, libmp.from_int, mpmath.mp.make_mpf
        prefix = []
        total = libmp.fzero
        for p in self.primes:
            total = add(total, log(from_int(p), prec, "n"), prec, "n")
            prefix.append(make_mpf(total))
        return tuple(prefix)


class PrimorialRow(NamedTuple):
    """k-th primorial summary: the k-th prime, the gap to the next one,
    and log(p_1 * ... * p_k) = theta(p_k)."""

    k: int
    p_k: int
    gap: int
    log_primorial: object


def _sieve_flags(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    i = 2
    while i * i <= limit:
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, limit + 1, i)))
        i += 1
    return flags


def sieve(limit):
    """Sieve all primes <= limit into a table; no log is taken here."""
    if limit < 2:
        raise ValueError("sieve limit must be at least 2")
    flags = _sieve_flags(limit)
    return PrimeTable(limit, tuple(compress(range(limit + 1), flags)))


def primorial_row(k, table):
    """(k, p_k, p_(k+1) - p_k, theta(p_k)); the table must reach p_(k+1)."""
    if k < 1:
        raise ValueError("primorial index must be positive")
    if k >= len(table.primes):
        raise ValueError(f"table holds {len(table.primes)} primes; need p_{k + 1}")
    p_k = table.primes[k - 1]
    return PrimorialRow(k, p_k, table.primes[k] - p_k, table.theta_prefix[k - 1])


# --- smallest prime not dividing N ------------------------------------
#
# Primes are grouped into segments of doubling size (segment i holds
# p_(2^i) .. p_(2^(i+1)-1)), each with a cached product tree.  Segment
# products are squarefree, so product | N iff each prime in it divides N,
# and descending the tree of the first failing segment on a shrinking
# remainder finds the leftmost non-divisor.
#
# Odd N are settled by the parity test.  Every even N first meets one mod
# by a word W = 2 * 3 * 5 * 7 * p_62 * p_63 = 18 889 710: 210 times the
# largest primes of P_63 = p_1 * ... * p_63 (the first _SMALL_SEGMENTS
# segments) that keep W within one int digit, so the mod is one pass over
# the digits of N.  If 3, 5 or 7 does not divide w = N mod W, that prime
# is the answer.  Otherwise one mod by the cached P_63 leaves a small
# remainder, and the search over those segments runs on it, since each
# segment product divides P_63.
#
# If the answer is p, every prime below p divides N, so theta(p-) <= log N
# (the paper's bound).  The search uses this when W divides N, which
# P_63 | N needs: a float estimate of log N picks J with p_1 * ... * p_J
# just at or below N, and one exact division by that primorial P_J, whose
# quotient is tiny, settles all of p_1 .. p_J at once.  If P_J does not
# divide N, the mod by P_63 and the segment search follow as for any
# other N.  The estimate only chooses where to look; every verdict is an
# exact divisibility test.  Costs, with |N| the size of N:
#   - N missing 3, 5 or 7: one mod of N by the word W;
#   - N divisible by every prime up to the theta bound: the mod by W,
#     then building P_J as a cached mark times a few tree nodes (one
#     lopsided product of sizes |N| and at most |N|/8, see below), one
#     near-linear division and a few small mods on the quotient;
#   - N missing some other prime below p_64: the mod by W and one mod of
#     N by P_63 (smooth N such as P_15 * 3^100000 pay the first on top);
#   - any other N: the segment search, one mod of N per segment, which is
#     quadratic in |N| with pure Python integers (subquadratic with GMP).
# An N that W divides but P_J does not also pays for building P_J in vain.
#
# Each segment caches at most _MARK_STEPS + 1 partial primorials, its
# marks: marks[t] is the product of every prime before the segment and
# the first t nodes of the lowest tree level with at most _MARK_STEPS
# nodes.  They sit 1/_MARK_STEPS of the segment apart, so P_J is the mark
# at or below J times the product of a few nodes below that level.

_SMALL_SEGMENTS = 6
_MARK_STEPS = 8


class _SegmentTree:
    """Product tree over one segment of consecutive primes.  `marks` are
    the cached partial primorials (marks[0] is the product of all primes
    before the segment, marks[-1] that of all primes through it), and
    `log_prefix[j]` is a float estimate of log(p_1 * ... * p_(start+j+1));
    both serve the jump to the theta bound."""

    __slots__ = ("start", "primes", "levels", "mark_level", "marks", "log_prefix")

    def __init__(self, start, ps, below, log_below):
        self.start = start
        self.primes = ps
        level = [_mpz(p) for p in ps]
        levels = [level]
        while len(level) > 1:
            level = [
                level[i] * level[i + 1] if i + 1 < len(level) else level[i]
                for i in range(0, len(level), 2)
            ]
            levels.append(level)
        self.levels = levels
        mark_level = 0
        while len(levels[mark_level]) > _MARK_STEPS:
            mark_level += 1
        marks = [below]
        for node in levels[mark_level]:
            marks.append(marks[-1] * node)
        self.mark_level = mark_level
        self.marks = tuple(marks)
        log_prefix = array("d")
        for p in ps:
            log_below += math.log(p)
            log_prefix.append(log_below)
        self.log_prefix = log_prefix

    @property
    def product(self):
        return self.levels[-1][0]

    def first_nondivisor(self, r):
        # r = N mod product, nonzero.  N mod child = r mod child since the
        # child divides its parent.  A node promoted without a sibling is
        # its own left child, so r mod left != 0 there and the descent
        # never goes to a missing right child.
        idx = 0
        for lvl in range(len(self.levels) - 2, -1, -1):
            left = self.levels[lvl][2 * idx]
            rem = r % left
            if rem:
                idx, r = 2 * idx, rem
            else:
                idx, r = 2 * idx + 1, r % self.levels[lvl][2 * idx + 1]
        return self.primes[idx]

    def primorial(self, m):
        """Product of every prime before the segment and its first m
        primes: the mark at or below m times the tree nodes below the mark
        level that cover the rest."""
        t = m >> self.mark_level
        tail = _mpz(1)
        pos = t << self.mark_level
        for lvl in range(self.mark_level - 1, -1, -1):
            if m >> lvl & 1:
                tail *= self.levels[lvl][pos >> lvl]
                pos += 1 << lvl
        return self.marks[t] * tail


_seg_lock = threading.Lock()
_segments: list[_SegmentTree] = []
_seg_prime_pool: list[int] = []
_seg_pool_limit = 0


def _grow_pool(count):
    # Caller holds _seg_lock.  The pool only ever grows to a longer list of
    # the first primes, so a reader holding it sees the same prefix.
    global _seg_pool_limit
    while len(_seg_prime_pool) < count:
        _seg_pool_limit = max(1024, _seg_pool_limit * 2)
        _seg_prime_pool[:] = sieve(_seg_pool_limit).primes


def primes_above(n):
    """Yield every prime p > n in increasing order, drawn from the sieved
    pool that the segment trees share (no theta sums, no products)."""
    i = 0
    while True:
        if i >= len(_seg_prime_pool):
            with _seg_lock:
                _grow_pool(i + 1)
        p = _seg_prime_pool[i]
        if p > n:
            yield p
        i += 1


@functools.cache
def _word():
    """W: 210 times the largest primes of P_63, as many as keep the product
    below 2^bits_per_digit, so 210 * p_62 * p_63 for 30-bit digits.  Read
    from the pool on first use: a sieve at import, though freed, raised
    the peak memory of later work."""
    count = (1 << _SMALL_SEGMENTS) - 1
    with _seg_lock:
        _grow_pool(count)
        small = _seg_prime_pool[:count]
    word = 210
    for p in reversed(small):
        if word * p >> sys.int_info.bits_per_digit:
            break
        word *= p
    return word


def _segment(i):
    if i < len(_segments):
        return _segments[i]
    with _seg_lock:
        while i >= len(_segments):
            size = 1 << len(_segments)
            start = size - 1
            _grow_pool(start + size)
            if _segments:
                prev = _segments[-1]
                below, log_below = prev.marks[-1], prev.log_prefix[-1]
            else:
                below, log_below = _mpz(1), 0.0
            _segments.append(
                _SegmentTree(start, _seg_prime_pool[start : start + size], below, log_below)
            )
    return _segments[i]


def _nth_prime(i):
    """p_(i+1), the prime at 0-based index i of the segment pool."""
    seg = _segment((i + 1).bit_length() - 1)
    return seg.primes[i - seg.start]


_LOG2 = math.log(2)


def _log(n):
    # float(n) overflows past 2^1024 (and float(mpz) raises), so read the
    # top 64 bits and add the shift back.
    shift = max(n.bit_length() - 64, 0)
    return math.log(int(n >> shift)) + shift * _LOG2


def _theta_jump(nz):
    """Smallest non-divisor of nz via one division by the primorial P_J
    at the theta bound, or None when P_J does not divide nz."""
    log_n = _log(nz)
    # Bias the estimate low: an undershoot only leaves a few more primes
    # in the quotient for the walk, while an overshoot (P_J > nz, so
    # q = 0 and r = nz) sends nz to the segment search.  The slack dwarfs
    # the float rounding of the sums.
    target = log_n - (1e-6 * log_n + 1.0)
    i = 0
    while _segment(i).log_prefix[-1] <= target:
        i += 1
    seg = _segment(i)
    m = bisect.bisect_right(seg.log_prefix, target)
    q, r = divmod(nz, seg.primorial(m))
    if r:
        return None
    j = seg.start + m  # p_1 .. p_j divide nz; q = nz / (p_1 * ... * p_j)
    while True:
        p = _nth_prime(j)
        if q % p:
            return p
        q //= p
        j += 1


def smallest_nondivisor_prime(n):
    """Least prime p with p not dividing n (n >= 1)."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    nz = _mpz(n)
    if nz & 1:
        return 2
    w = nz % _word()
    if w % 210:
        return 3 if w % 3 else 5 if w % 5 else 7
    if not w:
        p = _theta_jump(nz)
        if p is not None:
            return p
    r = nz % _segment(_SMALL_SEGMENTS).marks[0]
    if r:
        return _segment_search(r, 1)
    return _segment_search(nz, _SMALL_SEGMENTS)


def _segment_search(r, i):
    """First non-divisor of r from segment i on, given that r is divisible
    by every prime before segment i and is not divisible by some prime."""
    while True:
        seg = _segment(i)
        rem = r % seg.product
        if rem:
            return seg.first_nondivisor(rem)
        i += 1
