import math
import random
from fractions import Fraction

import pytest

from heckescan.modforms import (
    MillerBasis,
    bernoulli,
    delta,
    dim_cusp,
    eisenstein,
    miller_basis,
)

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


# --- bernoulli -----------------------------------------------------------


def test_bernoulli_base_cases():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(3) == 0


def test_bernoulli_12():
    assert bernoulli(12) == Fraction(-691, 2730)


def test_bernoulli_against_double_sum_oracle():
    for n in range(0, 18):
        assert bernoulli(n) == bernoulli_double_sum(n), n


def test_bernoulli_negative_index():
    with pytest.raises(ValueError):
        bernoulli(-1)


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


# --- delta ---------------------------------------------------------------


def test_delta_small():
    assert delta(2).coeffs == (0, 1, -24)
    assert delta(6).coeffs == (0, 1, -24, 252, -1472, 4830, -6048)
    assert delta(0).coeffs == (0,)


def test_delta_matches_product_expansion_to_64():
    assert list(delta(64).coeffs) == delta_product_oracle(64)


def test_e4_cubed_minus_e6_squared_divisible_by_1728():
    prec = 40
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)
    num = (e4 * e4 * e4) - (e6 * e6)
    assert all(c % 1728 == 0 for c in num.coeffs)


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


def test_validate_catches_broken_basis():
    from heckescan.series import IntSeries

    bad = MillerBasis(12, 1, (IntSeries([0, 1, 0, 5], prec=3),))
    bad.validate()  # fine: only positions 1..dim constrained
    really_bad = MillerBasis(12, 1, (IntSeries([1, 1], prec=1),))
    with pytest.raises(AssertionError):
        really_bad.validate()
