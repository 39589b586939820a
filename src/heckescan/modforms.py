"""Level-1 modular forms as exact q-expansions.

Provides the integral normalized Eisenstein series E4, E6, E8, E10, E14,
the discriminant cusp form, the dimension of the weight-k cusp space,
and the echelonized integral basis f_1, ..., f_d of that space with
f_j = q^j + O(q^(d+1)).

The one weight-independent series every basis is built from,
q*j = E4^3 / (Delta/q) through q^P, lives in a process-wide cache,
`_level1_cache`.  It only grows: a call that needs a precision above P
rebuilds it at exactly that precision, and every caller reads exact
truncations of it, so a result never depends on what the process
computed before.
"""

from __future__ import annotations

import threading
from operator import mul
from typing import NamedTuple

from .series import IntSeries, series_mul, series_pow

# (P, q*j), see the module docstring; None until first use.
_level1_cache: tuple[int, IntSeries] | None = None
_level1_lock = threading.Lock()


def _divisor_power_sums(power, prec):
    """[sigma_power(n) for n = 0..prec], with the n = 0 slot unused (0)."""
    sums = [0] * (prec + 1)
    for d in range(1, prec + 1):
        dp = d**power
        for m in range(d, prec + 1, d):
            sums[m] += dp
    return sums


# -2k/B_k for the weights where it is an integer, the factor of E_k.  No
# other weight has one: at k = 12 and 16 it is 65520/691 and 16320/3617,
# and from k = 18 on |B_k| > 2k.
_EISENSTEIN_FACTORS = {4: 240, 6: -504, 8: 480, 10: -264, 14: -24}


def eisenstein(k, prec):
    """Normalized Eisenstein series E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n.

    Only weights where -2k/B_k is an integer are representable as an
    IntSeries (k in {4, 6, 8, 10, 14}); other weights are rejected rather
    than silently returning rationals.
    """
    if k % 2 != 0 or k < 4:
        raise ValueError(f"Eisenstein weight must be even and >= 4, got {k}")
    if prec < 0:
        raise ValueError("precision must be nonnegative")
    factor = _EISENSTEIN_FACTORS.get(k)
    if factor is None:
        raise ValueError(f"-2k/B_k is not an integer for k={k}; no integral E_{k}")
    sums = _divisor_power_sums(k - 1, prec)
    coeffs = [1] + [factor * sums[n] for n in range(1, prec + 1)]
    return IntSeries(coeffs)


def delta(prec):
    """The discriminant cusp form q - 24q^2 + 252q^3 - ..., weight 12."""
    if prec < 0:
        raise ValueError("precision must be nonnegative")
    return IntSeries((0,) + _delta_q_power(1, max(prec - 1, 0)).coeffs[:prec])


def _level1(prec):
    """q*j through q^prec, cut from the process-wide cache; a cache
    shorter than prec is first rebuilt at exactly prec."""
    global _level1_cache
    cache = _level1_cache
    if cache is None or cache[0] < prec:
        with _level1_lock:
            cache = _level1_cache
            if cache is None or cache[0] < prec:
                qj = series_mul(series_pow(eisenstein(4, prec), 3), _delta_q_power(-1, prec))
                cache = _level1_cache = (prec, qj)
    return IntSeries(cache[1].coeffs[: prec + 1])


def _delta_q_power(e, prec):
    """(Delta/q)^e through q^prec, for any integer e, by J.C.P. Miller's
    power recurrence; e = -1 gives 1/(Delta/q) = prod (1 - q^n)^-24.

    Delta/q = prod (1 - q^n)^24 = J^8, where J = prod (1 - q^n)^3 =
    sum_m (-1)^m (2m + 1) q^(m(m+1)/2) (Jacobi's identity) has only about
    sqrt(2 prec) nonzero terms through q^prec.  So g = J^(8e) has g_0 = 1
    and n g_n = sum ((8e + 1) j - n) J_j g_(n-j) over the triangular
    j <= n (Knuth, TAOCP vol. 2, 4.7): O(prec^1.5) small-by-big products
    and no series product.  Each division by n is checked to be exact.
    """
    terms = []  # (j, J_j) for the triangular j = m(m+1)/2 <= prec, m >= 1
    m = 1
    while m * (m + 1) // 2 <= prec:
        terms.append((m * (m + 1) // 2, -(2 * m + 1) if m % 2 else 2 * m + 1))
        m += 1
    a = 8 * e + 1
    g = [1]
    for n in range(1, prec + 1):
        s = 0
        for j, c in terms:
            if j > n:
                break
            s += (a * j - n) * c * g[n - j]
        q, r = divmod(s, n)
        if r:
            raise ArithmeticError(
                f"(Delta/q)^{e} not integral at q^{n}: power recurrence is broken"
            )
        g.append(q)
    return IntSeries(g)


def dim_cusp(k):
    """Dimension of the weight-k cusp space on the full modular group."""
    if k % 2 != 0 or k < 12 or k == 14:
        return 0
    if k % 12 == 2:
        return k // 12 - 1
    return k // 12


class MillerBasis(NamedTuple):
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

    Row r (1 <= r <= d) is Delta^d * head * j^(d-r), with j = E4^3 / Delta
    the modular invariant and head the Eisenstein series E_w of weight
    w = k - 12d in {4, 6, 8, 10, 14}, or 1 when w = 0; each such M_w is
    one-dimensional, so E_w = E4^a E6^b for every 4a + 6b = w.  Row r
    equals Delta^r * E4^(3(d-r)) * head, so it starts at q^r with
    coefficient 1 and the rows are lower triangular with unit diagonal.
    Written with D = Delta/q, row r is q^r * g_(d-r) along the chain of
    _j_chain, one series product per row after D^d * head, whose D^d
    comes from the power recurrence of _delta_q_power, not from series
    products.  D has constant term 1, so 1/D is an integer series
    (prod (1 - q^n)^-24, from the same recurrence) and every g_m stays
    integral.  Form f_r is the unit head q^r followed by the entries of
    the columns d+1..prec that _echelon_columns reduces from the rows, so
    integrality never has to be cleared.  The chain runs at precision
    prec - 1, all that row 1 (the one that needs most) reads after its
    own shift by q.
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

    cols = _echelon_columns(_j_chain(k, d, [prec - 1] * d), d, range(d + 1, prec + 1))
    forms = tuple(
        IntSeries([0] * r + [1] + [0] * (d - r) + [col[d - r] for col in cols])
        for r in range(1, d + 1)
    )
    basis = MillerBasis(k, d, forms)
    basis.validate()
    return basis


def _j_chain(k, d, precs):
    """Yield the coefficients of g_0, g_1, ... through q^precs[0],
    q^precs[1], ..., one for each entry of precs, which must not
    increase: the chain g_0 = D^d * head, g_(m+1) = g_m * (q*j) of the
    weight-k span, whose row d - m is q^(d-m) * g_m (see miller_basis).

    D^d is built by _delta_q_power from Jacobi's sparse series for
    prod (1 - q^n)^3, with no series product; then the head E_w, built
    directly by eisenstein, and each step of the chain take one
    series_mul each.  Each product is cut at the precision its g_m is
    asked for, so a caller whose rows read less further down the chain
    (trace_t2) multiplies ever shorter series.
    Every g_m must start with 1, the leading coefficient of its row.
    """
    qj = _level1(precs[0])
    g = _delta_q_power(d, precs[0])
    if k > 12 * d:  # times head = E_(k - 12d)
        g = series_mul(g, eisenstein(k - 12 * d, precs[0]))
    for m, prec in enumerate(precs):
        if m:
            if qj.prec > prec:
                qj = IntSeries(qj.coeffs[: prec + 1])
            g = series_mul(g, qj)
        if g[0] != 1:
            raise ArithmeticError(f"leading coefficient of span form {d - m} is {g[0]}")
        yield g.coeffs


def _echelon_columns(chain, d, positions):
    """Column n of the echelon basis for each of the increasing positions
    n > d: [a_n(f_d), a_n(f_(d-1)), ...], read from the raw rows
    q^d * g_0, q^(d-1) * g_1, ... of chain (the coefficients _j_chain
    yields).

    The rows are lower triangular with unit diagonal, and f_i is raw row
    i minus r_i[m] * f_m for every m in i+1..d, with r_i[m] the raw
    coefficient itself, because every f_m below is already echelon.  So
    a_n(f_i) = r_i[n] - sum_(m > i) r_i[m] a_n(f_m), an integer
    back-substitution that never divides.  Each column stops at the last
    row that reaches q^n: series_mul cuts every product to its shorter
    operand, so each row of the chain reaches less far than the row above
    it, a column once stopped stays stopped, and a column still open holds
    one entry for every row above.
    """
    cols = [[] for _ in positions]
    for m, g in enumerate(chain):
        i = d - m  # raw row i is q^i * g, so r_i[n] = g[n - i]
        above = g[m:0:-1]  # r_i[d], r_i[d-1], ..., r_i[i+1]
        for n, col in zip(positions, cols):
            if n - i >= len(g):
                break
            col.append(g[n - i] - sum(map(mul, above, col)))
    return cols
