"""Level-1 modular forms as exact q-expansions.

Provides Bernoulli numbers, the normalized Eisenstein series E4/E6/...,
the discriminant cusp form, the dimension of the weight-k cusp space,
and the echelonized integral basis f_1, ..., f_d of that space with
f_j = q^j + O(q^(d+1)).

The weight-independent series every basis is built from, E4 and E6
through q^(P+1) and Delta/q and q*j = E4^3 / (Delta/q) through q^P, live
in one process-wide cache, `_level1_cache`.  It only grows: a call that
needs a precision above P rebuilds it at exactly that precision, and
every caller reads exact truncations of it, so a result never depends
on what the process computed before.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction

from .series import IntSeries, series_inv, series_mul, series_pow

_bern_cache: list[Fraction] = [Fraction(1)]
_bern_lock = threading.Lock()

# (P, E4, E6, Delta/q, q*j), see the module docstring; None until first use.
_level1_cache: tuple[int, IntSeries, IntSeries, IntSeries, IntSeries] | None = None
_level1_lock = threading.Lock()

# k mod 12 -> exponents (a, b) with E4^a * E6^b of weight k mod 12
# (weight 14 when k = 2 mod 12, since weight 2 has no Eisenstein series).
_EIS_MONOMIAL = {0: (0, 0), 2: (2, 1), 4: (1, 0), 6: (0, 1), 8: (2, 0), 10: (1, 1)}


def bernoulli(n):
    """Bernoulli number B_n (convention B_1 = -1/2) as an exact Fraction.

    Uses the defining recurrence sum_{j=0}^{m} C(m+1, j) B_j = 0, filled
    incrementally and cached.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    if n < len(_bern_cache):
        return _bern_cache[n]
    with _bern_lock:
        for m in range(len(_bern_cache), n + 1):
            acc = Fraction(0)
            for j in range(m):
                acc += math.comb(m + 1, j) * _bern_cache[j]
            _bern_cache.append(-acc / (m + 1))
    return _bern_cache[n]


def _divisor_power_sums(power, prec):
    """[sigma_power(n) for n = 0..prec], with the n = 0 slot unused (0)."""
    sums = [0] * (prec + 1)
    for d in range(1, prec + 1):
        dp = d**power
        for m in range(d, prec + 1, d):
            sums[m] += dp
    return sums


def eisenstein(k, prec):
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n.

    Only weights where -2k/B_k is an integer are representable as an
    IntSeries (k in {4, 6, 8, 10, 14} among small weights); other weights
    are rejected rather than silently returning rationals.
    """
    if k % 2 != 0 or k < 4:
        raise ValueError(f"Eisenstein weight must be even and >= 4, got {k}")
    if prec < 0:
        raise ValueError("precision must be nonnegative")
    factor = Fraction(-2 * k) / bernoulli(k)
    if factor.denominator != 1:
        raise ValueError(f"-2k/B_k is not an integer for k={k}; no integral E_{k}")
    factor = int(factor)
    sums = _divisor_power_sums(k - 1, prec)
    coeffs = [1] + [factor * sums[n] for n in range(1, prec + 1)]
    return IntSeries(coeffs)


def delta(prec):
    """The discriminant cusp form q - 24q^2 + 252q^3 - ..., weight 12."""
    if prec < 0:
        raise ValueError("precision must be nonnegative")
    dq = _level1(max(prec - 1, 0))[2]
    return IntSeries((0,) + dq.coeffs[:prec])


def _level1(prec):
    """(E4, E6, Delta/q, q*j), the first two through q^(prec+1) and the
    others through q^prec, cut from the process-wide cache; a cache
    shorter than prec is first rebuilt at exactly prec."""
    global _level1_cache
    cache = _level1_cache
    if cache is None or cache[0] < prec:
        with _level1_lock:
            cache = _level1_cache
            if cache is None or cache[0] < prec:
                e4 = eisenstein(4, prec + 1)
                e6 = eisenstein(6, prec + 1)
                e4_cubed = series_pow(e4, 3)
                dq = IntSeries(_discriminant(e4_cubed, e6).coeffs[1:])
                qj = series_mul(e4_cubed, series_inv(dq))
                cache = _level1_cache = (prec, e4, e6, dq, qj)
    _, e4, e6, dq, qj = cache
    return (
        IntSeries(e4.coeffs[: prec + 2]),
        IntSeries(e6.coeffs[: prec + 2]),
        IntSeries(dq.coeffs[: prec + 1]),
        IntSeries(qj.coeffs[: prec + 1]),
    )


def _discriminant(e4_cubed, e6):
    """Delta = (E4^3 - E6^2) / 1728, the division checked to be exact."""
    num = e4_cubed - series_mul(e6, e6)
    out = []
    for n, c in enumerate(num.coeffs):
        q, r = divmod(c, 1728)
        if r:
            raise ArithmeticError(
                f"E4^3 - E6^2 not divisible by 1728 at q^{n}: series kernel is broken"
            )
        out.append(q)
    return IntSeries(out)


def dim_cusp(k):
    """Dimension of the weight-k cusp space on the full modular group."""
    if k % 2 != 0 or k < 12 or k == 14:
        return 0
    if k % 12 == 2:
        return k // 12 - 1
    return k // 12


@dataclass(frozen=True)
class MillerBasis:
    """Echelon basis of the weight-k cusp space: a_i(f_j) = [i == j] for
    1 <= i, j <= dim, every coefficient an integer."""

    weight: int
    dim: int
    forms: tuple[IntSeries, ...]

    def form(self, j):
        """The basis form f_j, 1-based."""
        if not 1 <= j <= self.dim:
            raise IndexError(f"basis has forms f_1..f_{self.dim}, asked for f_{j}")
        return self.forms[j - 1]

    def validate(self):
        """Check the echelon shape; raises on violation."""
        for j, f in enumerate(self.forms, start=1):
            if f[0] != 0:
                raise AssertionError(f"f_{j} is not cuspidal: a_0 = {f[0]}")
            for i in range(1, self.dim + 1):
                want = 1 if i == j else 0
                if f[i] != want:
                    raise AssertionError(f"a_{i}(f_{j}) = {f[i]}, expected {want}")


def miller_basis(k, prec=None):
    """The unique echelon basis of the weight-k cusp space, each form
    computed through q^prec (default: twice the dimension).

    Row r (1 <= r <= d) is Delta^d * head * j^(d-r), with head = E4^a E6^b
    of weight k - 12d and j = E4^3 / Delta the modular invariant; it
    equals Delta^r * E4^(3(d-r)) * head, so it starts at q^r with
    coefficient 1 and the rows are lower triangular with unit diagonal.
    Written with D = Delta/q, row r is q^r * g_(d-r) along the chain of
    _j_chain, one series product per row.  D has constant term 1, so 1/D
    is an integer series (prod (1 - q^n)^-24) and every g_m stays
    integral.  The rows are then reduced above the diagonal by integer
    back-substitution, so integrality never has to be cleared.  The chain
    runs at precision prec - 1, all that row 1 (the one that needs most)
    reads after its own shift by q.
    """
    if k % 2 != 0:
        raise ValueError(f"weight must be even, got {k}")
    d = dim_cusp(k)
    if prec is None:
        prec = 2 * d
    if prec < 2 * d:
        raise ValueError(f"precision {prec} below 2*dim = {2 * d}")
    if d == 0:
        return MillerBasis(k, 0, ())

    # rows d, d-1, ..., 1 from g_0, g_1, ..., g_(d-1), row r through q^prec
    chain = _j_chain(k, d, [prec - 1] * d)
    raw = [[0] * (d - m) + list(g[: prec + 1 - d + m]) for m, g in enumerate(chain)]
    raw.reverse()

    # Back-substitute: rows below are already final when row j is reduced,
    # and each reaches as far as row j.
    for j in range(d - 2, -1, -1):
        row = raw[j]
        for i in range(j + 1, d):
            c = row[i + 1]
            if c:
                fi = raw[i]
                for n in range(i + 1, len(row)):
                    row[n] -= c * fi[n]

    forms = tuple(IntSeries(row) for row in raw)
    basis = MillerBasis(k, d, forms)
    basis.validate()
    return basis


def _j_chain(k, d, precs):
    """Yield the coefficients of g_0, g_1, ... through q^precs[0],
    q^precs[1], ..., one for each entry of precs, which must not
    increase: the chain g_0 = D^d * head, g_(m+1) = g_m * (q*j) of the
    weight-k span, whose row d - m is q^(d-m) * g_m (see miller_basis).

    Each product is cut at the precision its g_m is asked for, so a
    caller whose rows read less further down the chain (trace_t2)
    multiplies ever shorter series.  Every g_m must start with 1, the
    leading coefficient of its row.
    """
    e4, e6, dq, qj = _level1(precs[0])
    a, b = _EIS_MONOMIAL[k % 12]
    g = series_pow(dq, d)
    for factor in [e4] * a + [e6] * b:  # times head = E4^a E6^b
        g = series_mul(g, factor)
    for m, prec in enumerate(precs):
        if m:
            if qj.prec > prec:
                qj = IntSeries(qj.coeffs[: prec + 1])
            g = series_mul(g, qj)
        if g[0] != 1:
            raise ArithmeticError(f"leading coefficient of span form {d - m} is {g[0]}")
        yield g.coeffs
