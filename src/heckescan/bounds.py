"""Distinguishing-index bounds and step-function inequality checks.

The continuum inequalities about theta are decided at their finitely many
critical points (prime jump positions and left limits), never by dense
sampling.  On a half-open step [lo, hi) the supremum of x is not attained,
so "theta > x on the whole step" is checked as the non-strict
"theta >= hi".

Each sweep takes two steps.  A double screen computes every slack in
floating point with a bound on its distance from the true slack, and
settles all points that can be neither the minimum nor a violation.  Each
remaining point is evaluated as an interval enclosure from exact data
(theta as logs of exact prime products) at THETA_BITS: its midpoint is the
reported slack, and `_certified` decides its sign.  Each comparison of
`failure_intervals` and the exp step of `exceptional_levels` are decided
by `_certified` too: the enclosure evaluated at THETA_BITS and doubled
until it decides, or ArithmeticError after five tries.

The bound functions take one L = log n per level.  Every value here is
computed on raw libmp tuples at THETA_BITS, round to nearest, or in a
private interval context: nothing reads or sets mpmath's global precision,
so no result depends on it, and tables and reports can be used from
threads at once.

mpmath is imported inside the functions that make or read its values, so
the exact half of the package (traces, charpolys, scans) runs without
loading it.
"""

from __future__ import annotations

import functools
import math
from array import array
from fractions import Fraction
from itertools import accumulate, compress, repeat
from operator import add, mul, sub
from typing import NamedTuple

from .primes import THETA_BITS, smallest_nondivisor_prime

# Quoted constants, kept as exact decimal literals.
DUSART_COEFF = Fraction(3965, 1000)
UNSHIFTED_X_MAX = Fraction(8356, 1000)

ASYMPTOTIC_NOTE = "shape only: implied constants taken as 1"


def murty_bound(n):
    """p**2 for the smallest prime p not dividing n."""
    return smallest_nondivisor_prime(n) ** 2


def _log_level(libmp, n):
    """L = log n as a raw tuple, after the level check the bound functions
    share.  libmp is mpmath.libmp, bound once per call by the caller."""
    if n < 1:
        raise ValueError("level must be a positive integer")
    return libmp.mpf_log(libmp.from_int(n), THETA_BITS, "n")


def _square_plus(libmp, big_l, t):  # (L + t)**2
    s = libmp.mpf_add(big_l, t, THETA_BITS, "n")
    return libmp.mpf_mul(s, s, THETA_BITS, "n")


def _closed_form(libmp, big_l):
    # 4 (L + 1)**2: the shift is exact, as multiplying by 4 would be
    return libmp.mpf_shift(_square_plus(libmp, big_l, libmp.fone), 2)


@functools.cache
def _exponent():
    """0.525 = 21/40 at THETA_BITS, the exponent of L in the first shape."""
    import mpmath

    return mpmath.libmp.from_rational(21, 40, THETA_BITS, "n")


def _asymptotic(libmp, big_l):
    """The three asymptotic bound shapes with implied constant 1:
    (L + L^0.525)^2, (L + sqrt(L) log L)^2 and (L + (log L)^2)^2, as raw
    tuples.  Only the shapes mean anything (ASYMPTOTIC_NOTE); bound_report
    asks only for n >= 3, where log L is positive."""
    prec = THETA_BITS
    log_l = libmp.mpf_log(big_l, prec, "n")
    return (
        _square_plus(libmp, big_l, libmp.mpf_pow(big_l, _exponent(), prec, "n")),
        _square_plus(libmp, big_l, libmp.mpf_mul(libmp.mpf_sqrt(big_l, prec, "n"), log_l, prec, "n")),
        _square_plus(libmp, big_l, libmp.mpf_mul(log_l, log_l, prec, "n")),
    )


def main_bound(n):
    """4*(log n + 1)**2 as an extended-precision real; integer callers
    take the floor."""
    import mpmath

    libmp = mpmath.libmp
    return mpmath.mp.make_mpf(_closed_form(libmp, _log_level(libmp, n)))


class BoundReport(NamedTuple):
    """All bound values for one level, from one L = log n."""

    level: int
    p: int
    murty_bound: int
    main_bound: object
    asymptotic: tuple | None


def bound_report(n):
    import mpmath

    libmp, make_mpf = mpmath.libmp, mpmath.mp.make_mpf
    big_l = _log_level(libmp, n)
    p = smallest_nondivisor_prime(n)
    asymptotic = tuple(map(make_mpf, _asymptotic(libmp, big_l))) if n >= 3 else None
    return BoundReport(n, p, p * p, make_mpf(_closed_form(libmp, big_l)), asymptotic)


class CheckReport(NamedTuple):
    """Outcome of a pointwise inequality sweep."""

    name: str
    ok: bool
    points_checked: int
    min_slack: object
    min_slack_x: object
    violations: tuple


class FailureInterval(NamedTuple):
    """Maximal interval [lo, hi) on which theta(2x) <= x.

    Endpoints carry exact tags alongside their numeric values: lo is
    log(lo_log_arg) for an exact integer lo_log_arg (the first interval
    opens at 0 = log 1); hi is always the exact rational hi_exact."""

    lo: object
    hi: object
    lo_log_arg: int
    hi_exact: Fraction


def _interval_context():
    """A private mpmath interval context for one top-level call.
    `_certified` sets its prec, and mpmath.iv.prec is global while a table
    may be shared across threads."""
    import mpmath

    return type(mpmath.iv)()


def _certified(ctx, enclose, verdict):
    """verdict(enclose(ctx)) for an interval enclosure of the true value,
    where verdict returns None while the interval is too wide.  Tries
    THETA_BITS and four doublings of it in the interval context ctx, then
    raises ArithmeticError."""
    for k in range(5):
        ctx.prec = THETA_BITS << k
        answer = verdict(enclose(ctx))
        if answer is not None:
            return answer
    raise ArithmeticError(f"interval enclosure undecided at {ctx.prec} bits")


def _sign(x):
    """+1 or -1 once the interval x excludes 0."""
    return 1 if x.a > 0 else (-1 if x.b < 0 else None)


def _floor(x):
    """N once the interval x lies strictly between N and N + 1 (x > 0)."""
    n = int(x.b)
    return n if n < x.a else None


def _rational(ctx, r):
    return ctx.mpf(r.numerator) / r.denominator


def _quotient(r):
    """r at THETA_BITS, rounded as mpf(r.numerator) / r.denominator rounds it."""
    import mpmath

    libmp = mpmath.libmp
    num = libmp.from_int(r.numerator, THETA_BITS, "n")
    return mpmath.mp.make_mpf(libmp.mpf_div(num, libmp.from_int(r.denominator), THETA_BITS, "n"))


def _minus(theta_p, x):
    return lambda ctx: theta_p(ctx) - _rational(ctx, x)


def _below(ctx, theta_p, x):
    """theta < x for an enclosure theta_p of theta and an exact rational x."""
    return _certified(ctx, _minus(theta_p, x), _sign) < 0


def _dusart_slack(primes, p):
    """c p / log^2 p - |theta - p| as an enclosure, for theta at the last
    of `primes` (the first k primes)."""
    theta_x = _theta_enclosure(primes)
    return lambda ctx: _rational(ctx, DUSART_COEFF) * p / ctx.log(p) ** 2 - abs(theta_x(ctx) - p)


def _theta_enclosure(primes):
    """theta at the last of `primes` (the first k primes) as an enclosure:
    the sum of interval logs of exact products of 4096 consecutive primes,
    so an escalation costs k / 4096 logs of big integers."""
    products = [math.prod(primes[i : i + 4096]) for i in range(0, len(primes), 4096)]
    return lambda ctx: sum((ctx.log(m) for m in products), ctx.mpf(0))


# The double screen.  Each sweep first computes every slack s in doubles,
# with a bound d on |s - S| for the true slack S.  Only a point with
# s - d <= max(0, min(s + d)) over all points (it may hold the minimum or
# be a violation) goes on to its interval enclosure, in index order.
#
# With u = 2^-53 and A = 2^-40, a relative allowance per math.log far
# above its error (within 2^-52 for every prime the tests check):
#   - t_i, the running double sum of math.log over the first i + 1 primes,
#     adds terms within A theta_i of theta_i in total, with i roundings
#     each below 1.001 u t_i, so |t_i - theta_i| <= E_i = 2(A + i u) t_i
#     (`_theta_floats`).  The sups (p' - 2)/2 and the primes p are exact.
#   - Lemma, s = t - sup: |s - S| <= E + u |s| <= d = E + 4u (t + |s|).
#   - Dusart takes L = math.log(p), within A L of log p, so (log p / L)^2
#     is within 2.001 A of 1, and with the four roundings of B = c p / (L L)
#     (c, c p, L L, the quotient) B is off from c p / log^2 p by less than
#     B (2.01 A + 4.01 u) <= dB = B (3A + 8u).  A side with theta value
#     t_v has |s - S| <= dB + E_v + u (|t_v - p| + |s|) <=
#     d = dB + E_v + 4u (t_v + |t_v - p| + |s|).
# So d is at least 1.49 times the error bound it stands for, which also
# covers the rounding in computing d.
_U = 2.0**-53
_LOG_ALLOWANCE = 2.0**-40


def _theta_floats(primes):
    """(t, e): t[i] the running double sum of math.log over the first
    i + 1 primes, and e[i] = 2(A + i u) t[i] a bound on |t[i] - theta|."""
    t = array("d", accumulate(map(math.log, primes)))
    return t, array("d", [2 * (_LOG_ALLOWANCE + i * _U) * ti for i, ti in enumerate(t)])


def _lemma_screen(table):
    """(s, d) in index order over the lemma's points: theta(2) against
    1/2, then theta(p) against (p' - 2)/2, then the tail to the limit."""
    t, e = _theta_floats(table.primes)
    sups = array("d", [0.5])
    sups.extend([(p - 2) / 2 for p in table.primes[1:]])
    sups.append((table.limit - 2) / 2)
    values, errs = t[:1] + t, e[:1] + e
    slack = array("d", map(sub, values, sups))
    return slack, array("d", map(add, errs, map(mul, repeat(4 * _U), map(add, values, map(abs, slack)))))


def _dusart_screen(table):
    """(s, d) in index order over Dusart's points: the left limit, then
    the jump, at each prime."""
    coeff = DUSART_COEFF.numerator / DUSART_COEFF.denominator
    rel, u4, log = 3 * _LOG_ALLOWANCE + 8 * _U, 4 * _U, math.log
    slack, delta = array("d"), array("d")
    put_s, put_d = slack.append, delta.append
    prev = prev_e = 0.0
    for p, th, err in zip(table.primes, *_theta_floats(table.primes)):
        log_p = log(p)
        bound = coeff * p / (log_p * log_p)
        d_bound = bound * rel
        a = abs(prev - p)
        s = bound - a
        put_s(s)
        put_d(d_bound + prev_e + u4 * (prev + a + abs(s)))
        a = abs(th - p)
        s = bound - a
        put_s(s)
        put_d(d_bound + err + u4 * (th + a + abs(s)))
        prev, prev_e = th, err
    return slack, delta


def _candidates(screen):
    """Indices, in order, of the points the screen cannot settle: lower
    end s - d at most max(0, min(s + d))."""
    slack, delta = screen
    cut = max(0.0, min(map(add, slack, delta)))
    return compress(range(len(slack)), map(cut.__ge__, map(sub, slack, delta)))


def _sweep(name, screen, point, points_checked):
    """The report of one sweep.  point(k) gives, for each point k the screen
    cannot settle, (x, where, enclose): enclose(ctx) is the interval
    enclosure of its slack, whose midpoint at THETA_BITS, round to nearest,
    is the reported slack.  The first minimum is kept on a tie."""
    import mpmath

    libmp, make_mpf = mpmath.libmp, mpmath.mp.make_mpf
    ctx = _interval_context()
    violations = []
    min_slack = min_x = None
    for k in _candidates(screen):
        x, where, enclose = point(k)
        ctx.prec = THETA_BITS  # an escalation leaves it raised
        lo, hi = enclose(ctx)._mpi_
        slack = libmp.mpf_shift(libmp.mpf_add(lo, hi, THETA_BITS, "n"), -1)
        if min_slack is None or libmp.mpf_lt(slack, min_slack):
            min_slack, min_x = slack, x
        if libmp.mpf_le(lo, libmp.fzero) and _certified(ctx, enclose, _sign) < 0:
            violations.append((*where, make_mpf(slack)))
    return CheckReport(
        name, not violations, points_checked, make_mpf(min_slack), min_x, tuple(violations)
    )


def verify_lemma_theta(table):
    """Check theta(2x + 2) > x for every x >= 0 with 2x + 2 <= table.limit.

    theta(2x + 2) is constant, equal to theta(p), for x in
    [(p - 2)/2, (p' - 2)/2) between consecutive primes p < p', so the
    whole sweep reduces to theta(p) >= (p' - 2)/2 per segment plus the
    initial segment theta(2) >= 1/2 and the tail up to the table limit.

    The initial segment and the segment of p = 2 are the same comparison,
    theta(2) >= 1/2, so points_checked is n + 1 for n primes, the count
    every earlier report gave.  The two points tie exactly, and the first
    is kept as the minimum without comparing them."""
    if table.limit < 5:
        raise ValueError("table limit below 5 leaves nothing to check")
    ps, n = table.primes, len(table.primes)

    def point(k):  # theta(p_idx) against the segment's sup
        idx = max(k - 1, 0)
        sup = Fraction(1, 2) if k == 0 else Fraction((ps[k] if k < n else table.limit) - 2, 2)
        x = _quotient(sup)
        return x, (ps[idx], sup), _minus(_theta_enclosure(ps[: idx + 1]), sup)

    return _sweep("theta(2x+2) > x", _lemma_screen(table), point, n + 1)


def verify_dusart(table):
    """Check |theta(x) - x| < 3.965 x / log(x)^2 at every jump point p and
    every left limit (x = p with the pre-jump theta), all of which have
    x > 1.  Reports the minimal slack and where it occurs."""
    if table.limit < 10:
        raise ValueError("table limit below 10 leaves nothing worth checking")
    ps = table.primes

    def point(k):
        i, jump = divmod(k, 2)
        p = ps[i]
        return p, (p, "jump" if jump else "left-limit"), _dusart_slack(ps[: i + jump], p)

    return _sweep("|theta(x) - x| < 3.965 x / log(x)^2", _dusart_screen(table), point, 2 * len(ps))


def failure_intervals(table, x_max=None):
    """Maximal intervals in [0, x_max] (default 8.356) where the unshifted
    inequality theta(2x) > x fails, read off the step structure: on
    x in [p/2, p'/2) theta(2x) equals theta(p), so the failure part of the
    segment is [max(p/2, theta(p)), p'/2), merged across segments."""
    cap = UNSHIFTED_X_MAX if x_max is None else Fraction(x_max)
    if cap <= 0:
        raise ValueError("x_max must be positive")
    if table.limit < 2 * cap:
        raise ValueError(f"table limit {table.limit} below 2*x_max = {float(2 * cap)}")
    import mpmath

    libmp, make_mpf = mpmath.libmp, mpmath.mp.make_mpf
    ps = table.primes
    ctx = _interval_context()
    intervals = []
    # x in [0, 1): theta(2x) = 0 <= x always, so the failure set opens
    # at 0 (= log 1, which keeps the endpoint exact for exp later).
    cur = [make_mpf(libmp.fzero), 1, min(Fraction(1), cap)]
    primorial = 1
    for i, p in enumerate(ps):
        seg_lo = Fraction(p, 2)
        if seg_lo >= cap:
            break
        if i + 1 >= len(ps):
            raise ValueError("table too small: need the next prime past the cap")
        primorial *= p
        seg_hi = min(Fraction(ps[i + 1], 2), cap)
        theta_p = lambda c: c.log(primorial)
        if _below(ctx, theta_p, seg_lo):
            # fails on the whole segment; cur is open: theta(p_prev) < theta(p) < seg_lo
            cur[2] = seg_hi
            continue
        if cur is not None:
            intervals.append(cur)
        # failure starts inside the segment, at theta(p) = log(primorial),
        # unless theta(p) clears the segment too
        inside = _below(ctx, theta_p, seg_hi)
        lo = make_mpf(libmp.mpf_log(libmp.from_int(primorial), THETA_BITS, "n"))
        cur = [lo, primorial, seg_hi] if inside else None
    if cur is not None:
        intervals.append(cur)
    return tuple(
        FailureInterval(lo, _quotient(hi), log_arg, hi)
        for lo, log_arg, hi in intervals
    )


def exceptional_levels(table):
    """All integers N >= 1 with theta(2 log N) <= log N, i.e. the levels
    whose log falls in a failure interval [log m, hi) of the unshifted
    inequality: m <= N < exp(hi)."""
    ctx = _interval_context()
    out = []
    for iv in failure_intervals(table):
        # exp of a nonzero rational is irrational, so a narrow enough
        # enclosure of exp(hi) always lies between two integers
        exp_hi = _certified(ctx, lambda c: c.exp(_rational(c, iv.hi_exact)), _floor)
        out.extend(range(iv.lo_log_arg, exp_hi + 1))
    return tuple(out)
