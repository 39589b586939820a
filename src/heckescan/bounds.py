"""Distinguishing-index bounds and step-function inequality checks.

The continuum inequalities about theta are decided at their finitely many
critical points (prime jump positions and left limits), never by dense
sampling.  On a half-open step [lo, hi) the supremum of x is not attained,
so "theta > x on the whole step" is checked as the non-strict
"theta >= hi".

Every near-tie takes one route.  The sweeps screen each slack computed from
the stored prefix sums against one margin per table that bounds its
accumulated rounding (`_screen_margin`).  A slack inside the margin, each
comparison of `failure_intervals` and the exp step of `exceptional_levels`
are decided by `_certified`: an interval enclosure from exact data (theta
as logs of exact prime products), evaluated at prec_bits and doubled until
it decides, or ArithmeticError after five tries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .primes import DEFAULT_THETA_BITS, smallest_nondivisor_prime

# Quoted constants, kept as exact decimal literals.
DUSART_COEFF = Fraction(3965, 1000)
UNSHIFTED_X_MAX = Fraction(8356, 1000)

ASYMPTOTIC_NOTE = "shape only: implied constants taken as 1"


def murty_bound(n):
    """p**2 for the smallest prime p not dividing n."""
    return smallest_nondivisor_prime(n) ** 2


def main_bound(n, prec_bits=DEFAULT_THETA_BITS):
    """4*(log n + 1)**2 as an extended-precision real; integer callers
    take the floor."""
    if n < 1:
        raise ValueError("level must be a positive integer")
    with mpmath.workprec(prec_bits):
        return 4 * (mpmath.log(n) + 1) ** 2


def asymptotic_bounds(n, prec_bits=DEFAULT_THETA_BITS):
    """The three asymptotic bound shapes evaluated with implied constant 1:
    (L + L^0.525)^2, (L + sqrt(L)*log L)^2, (L + (log L)^2)^2 for L = log n.
    Only the shapes are meaningful (see ASYMPTOTIC_NOTE); needs n >= 3 so
    log log n is defined and positive."""
    if n < 3:
        raise ValueError("asymptotic expressions need n >= 3 (log log n > 0)")
    with mpmath.workprec(prec_bits):
        big_l = mpmath.log(n)
        log_l = mpmath.log(big_l)
        e1 = (big_l + big_l ** mpmath.mpf("0.525")) ** 2
        e2 = (big_l + mpmath.sqrt(big_l) * log_l) ** 2
        e3 = (big_l + log_l**2) ** 2
        return (e1, e2, e3)


@dataclass(frozen=True)
class BoundReport:
    """All bound values for one level."""

    level: int
    p: int
    murty_bound: int
    main_bound: object
    asymptotic: tuple | None
    prec_bits: int


def bound_report(n, prec_bits=DEFAULT_THETA_BITS):
    p = smallest_nondivisor_prime(n)
    asym = asymptotic_bounds(n, prec_bits) if n >= 3 else None
    return BoundReport(n, p, p * p, main_bound(n, prec_bits), asym, prec_bits)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of a pointwise inequality sweep."""

    name: str
    ok: bool
    points_checked: int
    min_slack: object
    min_slack_x: object
    violations: tuple
    prec_bits: int


@dataclass(frozen=True)
class FailureInterval:
    """Maximal interval [lo, hi) on which theta(2x) <= x.

    Endpoints carry exact tags alongside their numeric values: lo is
    log(lo_log_arg) for an exact integer lo_log_arg (the first interval
    opens at 0 = log 1 and also carries lo_exact = 0); hi is always the
    exact rational hi_exact."""

    lo: object
    hi: object
    lo_log_arg: int
    lo_exact: Fraction | None
    hi_exact: Fraction


def _certified(enclose, verdict, prec_bits):
    """verdict(enclose(ctx)) for an interval enclosure of the true value,
    where verdict returns None while the interval is too wide.  Tries
    prec_bits and four doublings of it in a private context (mpmath.iv.prec
    is global), then raises ArithmeticError."""
    ctx = type(mpmath.iv)()
    for k in range(5):
        ctx.prec = prec_bits << k
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


def _below(theta_p, x, prec_bits):
    """theta < x for an enclosure theta_p of theta and an exact rational x."""
    return _certified(lambda ctx: theta_p(ctx) - _rational(ctx, x), _sign, prec_bits) < 0


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


def _screen_margin(table):
    """Bound on the rounding error of every slack the sweeps compute from
    the stored prefix sums; a slack this close to 0 goes to `_certified`.

    With u = 2^-prec_bits, n primes and T the last prefix sum, a stored
    theta (logs within 2 ulp, one rounding per addition) is off by at most
    E = 4(n + 2)(T + 2)u.  Dusart reads log p as a difference of two of
    them, off by at most 2E + u log p; while that is below log(2)/10 (any
    table that fits in memory) c p / log^2 p moves by at most
    3 c p / log^3 p times it, and p / log^3 p on [2, limit] peaks at an
    end, A = max(6.01, limit / log^3 limit).  Every other rounding in
    either slack stays below 30 limit u, so both are off by less than
    (1 + 6 c A)(E + 30 limit u)."""
    u = 2.0 ** -table.prec_bits
    n, limit = len(table.primes), table.limit
    err = 4 * (n + 2) * (float(table.theta_prefix[-1]) + 2) * u
    amp = max(6.01, limit / math.log(limit) ** 3)
    return mpmath.mpf((1 + 6 * float(DUSART_COEFF) * amp) * (err + 30 * limit * u))


def verify_lemma_theta(table):
    """Check theta(2x + 2) > x for every x >= 0 with 2x + 2 <= table.limit.

    theta(2x + 2) is constant, equal to theta(p), for x in
    [(p - 2)/2, (p' - 2)/2) between consecutive primes p < p', so the
    whole sweep reduces to theta(p) >= (p' - 2)/2 per segment plus the
    initial segment theta(2) >= 1/2 and the tail up to the table limit."""
    if table.limit < 5:
        raise ValueError("table limit below 5 leaves nothing to check")
    ps = table.primes
    prefix = table.theta_prefix
    n = len(ps)
    margin = _screen_margin(table)
    violations = []
    min_slack = None
    min_x = None
    checked = 0
    with mpmath.workprec(table.prec_bits):
        sups = [(0, Fraction(1, 2))]
        sups.extend((i, Fraction(ps[i + 1] - 2, 2)) for i in range(n - 1))
        sups.append((n - 1, Fraction(table.limit - 2, 2)))
        for idx, sup in sups:
            sup_mpf = mpmath.mpf(sup.numerator) / sup.denominator
            slack = prefix[idx] - sup_mpf
            checked += 1
            if min_slack is None or slack < min_slack:
                min_slack = slack
                min_x = sup_mpf
            if slack < margin and (
                slack <= -margin or _below(_theta_enclosure(ps[: idx + 1]), sup, table.prec_bits)
            ):
                violations.append((ps[idx], sup, slack))
    return CheckReport(
        "theta(2x+2) > x", not violations, checked, min_slack, min_x, tuple(violations), table.prec_bits
    )


def verify_dusart(table):
    """Check |theta(x) - x| < 3.965 x / log(x)^2 at every jump point p and
    every left limit (x = p with the pre-jump theta), all of which have
    x > 1.  Reports the minimal slack and where it occurs."""
    if table.limit < 10:
        raise ValueError("table limit below 10 leaves nothing worth checking")
    ps = table.primes
    margin = _screen_margin(table)
    violations = []
    min_slack = None
    min_x = None
    checked = 0
    with mpmath.workprec(table.prec_bits):
        coeff = mpmath.mpf(DUSART_COEFF.numerator) / DUSART_COEFF.denominator
        prev = mpmath.mpf(0)
        for i, p in enumerate(ps):
            th = table.theta_prefix[i]
            # log p recovered from adjacent prefix sums; its rounding is
            # part of the screen margin
            logp = th - prev
            bound = coeff * p / (logp * logp)
            for value in (prev, th):
                slack = bound - abs(value - p)
                checked += 1
                if min_slack is None or slack < min_slack:
                    min_slack = slack
                    min_x = p
                if slack < margin and (
                    slack <= -margin
                    or _certified(_dusart_slack(ps[: i + (value is th)], p), _sign, table.prec_bits) < 0
                ):
                    violations.append((p, "jump" if value is th else "left-limit", slack))
            prev = th
    return CheckReport(
        "|theta(x) - x| < 3.965 x / log(x)^2",
        not violations,
        checked,
        min_slack,
        min_x,
        tuple(violations),
        table.prec_bits,
    )


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
    ps = table.primes
    intervals = []
    with mpmath.workprec(table.prec_bits):
        # x in [0, 1): theta(2x) = 0 <= x always, so the failure set opens
        # at 0 (= log 1, which keeps the endpoint exact for exp later).
        cur = [mpmath.mpf(0), 1, Fraction(0), min(Fraction(1), cap)]
        primorial = 1
        for i, p in enumerate(ps):
            seg_lo = Fraction(p, 2)
            if seg_lo >= cap:
                break
            if i + 1 >= len(ps):
                raise ValueError("table too small: need the next prime past the cap")
            primorial *= p
            seg_hi = min(Fraction(ps[i + 1], 2), cap)
            theta_p = lambda ctx: ctx.log(primorial)
            if _below(theta_p, seg_lo, table.prec_bits):
                # fails on the whole segment; cur is open: theta(p_prev) < theta(p) < seg_lo
                cur[3] = seg_hi
                continue
            if cur is not None:
                intervals.append(cur)
            # failure starts inside the segment, at theta(p) = log(primorial),
            # unless theta(p) clears the segment too
            inside = _below(theta_p, seg_hi, table.prec_bits)
            cur = [table.theta_prefix[i], primorial, None, seg_hi] if inside else None
        if cur is not None:
            intervals.append(cur)
        out = []
        for lo_mpf, log_arg, lo_exact, hi in intervals:
            hi_mpf = mpmath.mpf(hi.numerator) / hi.denominator
            out.append(FailureInterval(lo_mpf, hi_mpf, log_arg, lo_exact, hi))
    return tuple(out)


def exceptional_levels(table):
    """All integers N >= 1 with theta(2 log N) <= log N, i.e. the levels
    whose log falls in a failure interval [log m, hi) of the unshifted
    inequality: m <= N < exp(hi)."""
    out = []
    for iv in failure_intervals(table):
        # exp of a nonzero rational is irrational, so a narrow enough
        # enclosure of exp(hi) always lies between two integers
        exp_hi = _certified(lambda ctx: ctx.exp(_rational(ctx, iv.hi_exact)), _floor, table.prec_bits)
        out.extend(range(iv.lo_log_arg, exp_hi + 1))
    return tuple(out)
