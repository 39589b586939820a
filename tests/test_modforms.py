import math
import random
from fractions import Fraction

import pytest

import heckescan.modforms
from heckescan.modforms import (
    MillerBasis,
    delta,
    dim_cusp,
    eisenstein,
    miller_basis,
    _delta_q_power,
    _echelon_columns,
    _j_chain,
    _level1,
)
from heckescan.hecke import trace_t2
from heckescan.series import IntSeries, series_mul, series_pow
from test_bounds import _interleaved
from test_series import series_inv_oracle

# --- independent oracles -------------------------------------------------


def conv(a, b, n):
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai:
            for j, bj in enumerate(b[: n + 1 - i]):
                out[i + j] += ai * bj
    return out


def sigma_oracle(n, power):
    return sum(d**power for d in range(1, n + 1) if n % d == 0)


def delta_product_oracle(prec):
    """q * prod_{n<=prec} (1 - q^n)^24, expanded term by term."""
    out = [0] * (prec + 1)
    if prec >= 1:
        out[1] = 1
    for n in range(1, prec + 1):
        factor = [0] * (prec + 1)
        factor[0] = 1
        if n <= prec:
            factor[n] = -1
        for _ in range(24):
            out = conv(out, factor, prec)
    return out


def delta_over_q_1728(prec):
    """Delta/q through q^prec by the route that shares nothing with the
    power recurrence: (E4^3 - E6^2) / 1728, shifted down by q."""
    e4 = eisenstein(4, prec + 1)
    e6 = eisenstein(6, prec + 1)
    num = [a - b for a, b in zip(series_pow(e4, 3).coeffs, series_mul(e6, e6).coeffs)]
    assert all(c % 1728 == 0 for c in num)
    return IntSeries([c // 1728 for c in num[1:]])


def bernoulli_double_sum(n):
    """Worpitzky-style double sum, independent of the recurrence."""
    total = Fraction(0)
    for k in range(n + 1):
        inner = Fraction(0)
        for r in range(k + 1):
            inner += Fraction((-1) ** r * math.comb(k, r) * r**n)
        total += inner / (k + 1)
    return total


def spanning_set_echelon(k, prec):
    """All Delta^i E4^a E6^b of weight k with i >= 1, Gauss-reduced over
    exact rationals: the reduced echelon form is the unique echelon basis.
    Built from scratch (divisor sums + eta product), no package code."""
    e4 = [1] + [240 * sigma_oracle(n, 3) for n in range(1, prec + 1)]
    e6 = [1] + [-504 * sigma_oracle(n, 5) for n in range(1, prec + 1)]
    dlt = delta_product_oracle(prec)
    rows = []
    for i in range(1, k // 12 + 1):
        w = k - 12 * i
        for b in range(w // 6 + 1):
            rest = w - 6 * b
            if rest % 4:
                continue
            a = rest // 4
            row = [1] + [0] * prec
            for _ in range(i):
                row = conv(row, dlt, prec)
            for _ in range(a):
                row = conv(row, e4, prec)
            for _ in range(b):
                row = conv(row, e6, prec)
            rows.append([Fraction(c) for c in row])
    # Gauss-Jordan to reduced row echelon form
    pivot_row = 0
    for col in range(prec + 1):
        pr = next((r for r in range(pivot_row, len(rows)) if rows[r][col] != 0), None)
        if pr is None:
            continue
        rows[pivot_row], rows[pr] = rows[pr], rows[pivot_row]
        inv = 1 / rows[pivot_row][col]
        rows[pivot_row] = [x * inv for x in rows[pivot_row]]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [x - c * y for x, y in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        if pivot_row == len(rows):
            break
    return rows[:pivot_row]


# --- eisenstein ----------------------------------------------------------


def test_e4_first_coefficients():
    assert eisenstein(4, 3).coeffs == (1, 240, 2160, 6720)


def test_e6_first_coefficients():
    assert eisenstein(6, 2).coeffs == (1, -504, -16632)


def test_e4_zero_precision():
    assert eisenstein(4, 0).coeffs == (1,)


def test_eisenstein_against_divisor_oracle():
    e = eisenstein(4, 30)
    for n in range(1, 31):
        assert e[n] == 240 * sigma_oracle(n, 3)
    e = eisenstein(6, 30)
    for n in range(1, 31):
        assert e[n] == -504 * sigma_oracle(n, 5)


def test_miller_basis_rejects_negative_precision_at_every_weight():
    for k in (2, 14, 24):
        with pytest.raises(ValueError, match="precision -1 below 2\\*dim"):
            miller_basis(k, -1)
    assert miller_basis(14, 0).dim == 0


def test_eisenstein_rejects_bad_weights():
    with pytest.raises(ValueError):
        eisenstein(5, 4)
    with pytest.raises(ValueError):
        eisenstein(2, 4)
    # -2k/B_k is not an integer at k = 12; no integral normalization exists
    with pytest.raises(ValueError):
        eisenstein(12, 4)


def test_eisenstein_integral_weights():
    for k, a1 in ((4, 240), (6, -504), (8, 480), (10, -264), (14, -24)):
        assert eisenstein(k, 1)[1] == a1


def test_bernoulli_base_cases():
    # the oracle's own values: B_0, B_1 = -1/2, B_3 = 0, and -2k/B_k at
    # the two smallest weights is the table's first two entries
    assert [bernoulli_double_sum(n) for n in (0, 1, 3)] == [1, Fraction(-1, 2), 0]
    assert Fraction(-8) / bernoulli_double_sum(4) == 240 == eisenstein(4, 1)[1]
    assert Fraction(-12) / bernoulli_double_sum(6) == -504 == eisenstein(6, 1)[1]


def test_bernoulli_12():
    # B_12 = -691/2730, so -24/B_12 = 65520/691 and E_12 has no integral
    # normalisation; the same holds at k = 16 with 16320/3617
    assert bernoulli_double_sum(12) == Fraction(-691, 2730)
    assert Fraction(-24) / bernoulli_double_sum(12) == Fraction(65520, 691)
    assert Fraction(-32) / bernoulli_double_sum(16) == Fraction(16320, 3617)
    for k in (12, 16):
        with pytest.raises(ValueError, match="not an integer"):
            eisenstein(k, 1)


def test_bernoulli_against_double_sum_oracle():
    # the table is -2k/B_k wherever that is an integer, and every other
    # even k <= 100 gives a proper fraction
    factors = {}
    for k in range(4, 101, 2):
        factor = Fraction(-2 * k) / bernoulli_double_sum(k)
        if factor.denominator == 1:
            factors[k] = int(factor)
            assert eisenstein(k, 1)[1] == factors[k], k
        else:
            with pytest.raises(ValueError, match="not an integer"):
                eisenstein(k, 1)
    assert factors == heckescan.modforms._EISENSTEIN_FACTORS


# --- delta ---------------------------------------------------------------


def test_delta_small():
    assert delta(2).coeffs == (0, 1, -24)
    assert delta(6).coeffs == (0, 1, -24, 252, -1472, 4830, -6048)
    assert delta(0).coeffs == (0,)


def test_delta_rejects_negative_precision():
    with pytest.raises(ValueError, match="precision must be nonnegative"):
        delta(-1)


def test_delta_matches_product_expansion_to_64():
    assert list(delta(64).coeffs) == delta_product_oracle(64)


def test_delta_q_power_equals_repeated_squaring_of_delta_over_q():
    dq = delta_over_q_1728(180).coeffs
    for e in range(91):
        for prec in sorted({0, 1, e // 2, e, max(2 * e - 1, 0), 2 * e}):
            want = series_pow(IntSeries(dq[: prec + 1]), e)
            assert _delta_q_power(e, prec) == want, (e, prec)


def test_delta_q_power_at_minus_e_is_the_inverse_at_e():
    for e in range(1, 31):
        for prec in sorted({0, 1, 2, e, 2 * e + 1, 60}):
            want = series_inv_oracle(_delta_q_power(e, prec))
            assert _delta_q_power(-e, prec) == want, (e, prec)


def test_delta_q_power_one_is_the_product_expansion_shifted():
    assert list(_delta_q_power(1, 63).coeffs) == delta_product_oracle(64)[1:]


def test_delta_q_power_checks_every_division():
    # e = 1/16 asks for J^(1/2) = prod (1 - q^n)^(3/2) = 1 - (3/2) q + ...,
    # which the recurrence reaches only through an inexact division by n
    with pytest.raises(ArithmeticError, match="not integral at q\\^1:"):
        _delta_q_power(Fraction(1, 16), 5)
    # e = -1/16 asks for J^(-1/2) = 1 + (3/2) q + ..., as inexact at n = 1
    with pytest.raises(ArithmeticError, match="not integral at q\\^1:"):
        _delta_q_power(Fraction(-1, 16), 5)


def test_e4_cubed_minus_e6_squared_divisible_by_1728():
    # E4^3 - E6^2 = 1728 Delta, with Delta from the power recurrence, at
    # every precision through q^200
    for prec in range(201):
        e4 = eisenstein(4, prec)
        e6 = eisenstein(6, prec)
        num = [a - b for a, b in zip(series_pow(e4, 3).coeffs, series_mul(e6, e6).coeffs)]
        dq = _delta_q_power(1, prec - 1).coeffs if prec else ()
        assert num == [0] + [1728 * c for c in dq], prec


def test_products_of_e4_and_e6_are_the_eisenstein_series_of_their_weight():
    # M_8, M_10 and M_14 are one-dimensional, so E4^2 = E8, E4 E6 = E10 and
    # E4^2 E6 = E14: the premise of the chain head E_w in _j_chain
    for prec in range(201):
        e4 = eisenstein(4, prec)
        e6 = eisenstein(6, prec)
        e4e4 = series_mul(e4, e4)
        assert e4e4 == eisenstein(8, prec), prec
        assert series_mul(e4, e6) == eisenstein(10, prec), prec
        assert series_mul(e4e4, e6) == eisenstein(14, prec), prec


# --- dim_cusp ------------------------------------------------------------


def test_dim_known_values():
    assert dim_cusp(12) == 1
    assert dim_cusp(26) == 1
    assert dim_cusp(2) == 0
    assert dim_cusp(14) == 0
    assert dim_cusp(24) == 2
    assert dim_cusp(0) == 0
    assert dim_cusp(-4) == 0
    assert dim_cusp(13) == 0


def test_dim_matches_monomial_count():
    for k in range(4, 502, 2):
        monomials = sum(1 for b in range(k // 6 + 1) if (k - 6 * b) % 4 == 0)
        assert dim_cusp(k) == monomials - 1, k


# --- miller basis --------------------------------------------------------


def test_basis_weight_12():
    basis = miller_basis(12, 2)
    assert basis.dim == 1
    assert basis.form(1).coeffs == (0, 1, -24)


def test_basis_weight_16():
    basis = miller_basis(16, 2)
    assert basis.form(1).coeffs == (0, 1, 216)


def test_basis_weight_24_echelon_shape():
    basis = miller_basis(24, 4)
    f1, f2 = basis.forms
    assert f1[1] == 1 and f1[2] == 0
    assert f2[1] == 0 and f2[2] == 1
    # pinned by the rational-elimination oracle
    assert f1.coeffs == (0, 1, 0, 195660, 12080128)
    assert f2.coeffs == (0, 0, 1, -48, 1080)


def test_basis_empty_for_small_weights():
    for k in (2, 4, 10, 14, 0, -6):
        basis = miller_basis(k)
        assert basis.dim == 0
        assert basis.forms == ()


def test_basis_rejects_odd_weight():
    with pytest.raises(ValueError):
        miller_basis(13)


def test_basis_rejects_insufficient_precision():
    with pytest.raises(ValueError):
        miller_basis(24, 3)


def test_basis_default_precision_is_twice_dim():
    basis = miller_basis(48)
    assert basis.dim == 4
    assert all(f.prec == 8 for f in basis.forms)


def test_basis_matches_rational_elimination_oracle():
    # default precision 2*dim, then the larger ones eigenform_coeffs and
    # `vmbasis --prec` ask for
    cases = [(k, 2 * dim_cusp(k)) for k in (12, 16, 18, 20, 22, 24, 26, 28, 36, 48)]
    cases += [(12, 7), (24, 10), (26, 13), (36, 9), (38, 20), (48, 11)]
    for k, prec in cases:
        d = dim_cusp(k)
        rows = spanning_set_echelon(k, prec)
        assert len(rows) == d
        basis = miller_basis(k, prec)
        for j in range(d):
            oracle = rows[j]
            assert all(c.denominator == 1 for c in oracle)
            assert tuple(int(c) for c in oracle) == basis.forms[j].coeffs, (k, prec, j)


def test_basis_echelon_and_integrality_random_weights():
    rng = random.Random(99)
    for k in rng.sample(range(12, 301, 2), 8):
        basis = miller_basis(k)
        basis.validate()
        for f in basis.forms:
            assert all(isinstance(c, int) for c in f.coeffs)


def trace_rows(k):
    """{r: raw row r = q^r * g_(d-r) through q^(2r)} for the rows r > d/2,
    the ones trace_t2 reads, from the chain at the precisions it asks."""
    d = dim_cusp(k)
    low = d // 2 + 1
    chain = _j_chain(k, d, range(d, low - 1, -1))
    return {d - m: (0,) * (d - m) + g for m, g in enumerate(chain)}


def test_trace_rows_are_the_basis_rows_through_q_2r():
    # raw row r reduces to f_r by subtracting its own coefficient at q^m
    # times f_m for every m above r, so it is f_r + sum row[m] * f_m
    for k in (12, 24, 26, 38, 48, 100, 122, 240, 302, 480):
        d = dim_cusp(k)
        forms = miller_basis(k).forms
        rows = trace_rows(k)
        assert sorted(rows) == list(range(d // 2 + 1, d + 1)), k
        for r, row in rows.items():
            want = list(forms[r - 1].coeffs[: 2 * r + 1])
            for m in range(r + 1, d + 1):
                for n, c in enumerate(forms[m - 1].coeffs[: 2 * r + 1]):
                    want[n] += row[m] * c
            assert row == tuple(want), (k, r)


def test_trace_columns_are_the_basis_coefficients_to_200():
    # column 2j of the trace's chain runs from row d down to row j, and
    # every entry is a coefficient of the full basis, not only the last
    for k in range(12, 201, 2):
        d = dim_cusp(k)
        if d == 0:
            continue
        low = d // 2 + 1
        forms = miller_basis(k).forms
        positions = range(2 * low, 2 * d + 1, 2)
        cols = _echelon_columns(_j_chain(k, d, range(d, low - 1, -1)), d, positions)
        assert len(cols) == len(positions), k
        for n, col in zip(positions, cols):
            assert col == [forms[i - 1][n] for i in range(d, n // 2 - 1, -1)], (k, n)


def test_trace_makes_one_chain_product_per_row_below_the_top(monkeypatch):
    # ceil(d/2) - 1 products by q*j, the m-th cut at q^(d-m), after one
    # product by the head E_(k - 12d), none when k = 0 mod 12; D^d comes
    # from no series product at all
    qj = _level1(2 * dim_cusp(1000)).coeffs
    precs = []
    calls = {"mul": 0, "pow": 0}

    def counting_mul(f, g):
        calls["mul"] += 1
        if g.coeffs == qj[: g.prec + 1]:
            precs.append(min(f.prec, g.prec))
        return series_mul(f, g)

    def counting_pow(f, e):
        calls["pow"] += 1
        return series_pow(f, e)

    monkeypatch.setattr(heckescan.modforms, "series_mul", counting_mul)
    monkeypatch.setattr(heckescan.modforms, "series_pow", counting_pow)
    for k in (12, 24, 26, 36, 48, 70, 80, 100, 366, 612, 1000):
        d = dim_cusp(k)
        head = 0 if k % 12 == 0 else 1
        precs.clear()
        calls.update(mul=0, pow=0)
        trace_t2(k)
        assert precs == list(range(d - 1, d - (d + 1) // 2, -1)), k
        assert calls == {"mul": head + (d + 1) // 2 - 1, "pow": 0}, k


def test_both_chain_precisions_check_the_leading_coefficients(monkeypatch):
    power = _delta_q_power

    def doubled_inv(e, prec):  # q*j then starts at 2, and g_m at 2^m
        g = power(e, prec)
        return IntSeries([2 * c for c in g.coeffs]) if e == -1 else g

    # an empty cache, so that the level-1 series are built with the broken
    # inverse; the cache of the session comes back at undo
    monkeypatch.setattr(heckescan.modforms, "_level1_cache", None)
    monkeypatch.setattr(heckescan.modforms, "_delta_q_power", doubled_inv)
    with pytest.raises(ArithmeticError, match="span form 1 is 2$"):
        miller_basis(24)
    # weight 48 (dim 4): the trace reads rows 4 and 3 = q^3 * g_1
    with pytest.raises(ArithmeticError, match="span form 3 is 2$"):
        trace_t2(48)
    # weight 24 (dim 2): the trace reads only row 2 = q^2 * D^2, no q*j
    assert trace_t2(24) == (2, 1080)
    monkeypatch.undo()
    assert trace_t2(24) == (2, 1080)


# --- the level-1 cache -------------------------------------------------


def fresh_level1(prec):
    """q*j built from nothing at precision prec, 1/(Delta/q) by the
    term-by-term inverse of (E4^3 - E6^2) / 1728."""
    e4 = eisenstein(4, prec)
    return series_mul(series_pow(e4, 3), series_inv_oracle(delta_over_q_1728(prec)))


@pytest.fixture
def empty_level1(monkeypatch):
    """An empty level-1 cache; the cache of the session comes back after."""
    monkeypatch.setattr(heckescan.modforms, "_level1_cache", None)


def test_level1_cache_cuts_equal_fresh_series_in_any_order(empty_level1):
    want = {prec: fresh_level1(prec) for prec in range(121)}
    ascending = list(range(121))
    shuffled = ascending[:]
    random.Random(7).shuffle(shuffled)
    for order in (ascending, ascending[::-1], shuffled):
        heckescan.modforms._level1_cache = None
        for prec in order:
            assert _level1(prec) == want[prec], prec
        assert heckescan.modforms._level1_cache[0] == 120


def test_level1_cache_is_rebuilt_at_exactly_the_precision_asked(empty_level1):
    for asked, held in ((5, 5), (3, 5), (40, 40), (12, 40), (41, 41)):
        _level1(asked)
        assert heckescan.modforms._level1_cache[0] == held, asked
    cache = heckescan.modforms._level1_cache
    assert delta(60).prec == 60
    assert heckescan.modforms._level1_cache is cache


def test_cold_and_warm_cache_give_identical_bases(empty_level1):
    def bases(k):
        return miller_basis(k), trace_rows(k) if dim_cusp(k) else None

    weights = range(0, 301, 2)
    cold = {}
    for k in weights:
        heckescan.modforms._level1_cache = None
        cold[k] = bases(k)
    _level1(2 * dim_cusp(300))
    for k in weights:
        assert bases(k) == cold[k], k
    assert heckescan.modforms._level1_cache[0] == 2 * dim_cusp(300)


def test_level1_cache_across_threads(empty_level1):
    # four threads ask for precisions in different orders, interleaved as
    # finely as the interpreter allows: each gets the fresh series, and
    # the cache ends at the largest precision any of them asked for
    precs = list(range(0, 97, 3))
    want = {prec: fresh_level1(prec) for prec in precs}
    wrong = []

    def work(seed):
        order = precs[:]
        random.Random(seed).shuffle(order)
        for prec in order:
            if _level1(prec) != want[prec]:
                wrong.append((seed, prec))

    _interleaved(*(lambda i=i: work(i) for i in range(4)))
    assert wrong == []
    assert heckescan.modforms._level1_cache[0] == 96


def test_delta_is_q_times_the_delta_over_q_recurrence(monkeypatch):
    # one implementation of Delta: a planted recurrence shows through delta
    def planted(e, prec):
        assert (e, prec) == (1, 2)
        return IntSeries([1, 5, 7])

    monkeypatch.setattr(heckescan.modforms, "_delta_q_power", planted)
    assert delta(3).coeffs == (0, 1, 5, 7)


def test_validate_catches_broken_basis():
    from heckescan.series import IntSeries

    bad = MillerBasis(12, 1, (IntSeries([0, 1, 0, 5], prec=3),))
    bad.validate()  # fine: only positions 1..dim constrained
    really_bad = MillerBasis(12, 1, (IntSeries([1, 1], prec=1),))
    with pytest.raises(AssertionError):
        really_bad.validate()
