import random

import pytest

from heckescan.series import IntSeries, _convolve_schoolbook, series_mul, series_pow


def conv_reference(a, b, n_out):
    """Independent double-loop Cauchy product used as the oracle."""
    out = [0] * n_out
    for i in range(len(a)):
        for j in range(len(b)):
            if i + j < n_out:
                out[i + j] += a[i] * b[j]
    return out


def series_add(f, g):
    """f + g truncated to the smaller precision."""
    return IntSeries([a + b for a, b in zip(f.coeffs, g.coeffs)])


def series_inv_oracle(f):
    """1/f at the precision of f, for f with constant term +1 or -1, term
    by term from f * g = 1: g_n = -c * sum f_i g_(n-i) with c = f_0."""
    c = f.coeffs[0]
    if c not in (1, -1):
        raise ValueError(f"constant term {c} is not a unit; 1/f is not integral")
    fs = f.coeffs
    g = [c]
    for n in range(1, f.prec + 1):
        g.append(-c * sum(fs[i] * g[n - i] for i in range(1, n + 1)))
    return IntSeries(g)


def test_mul_telescoping():
    f = IntSeries([1, 1])
    g = IntSeries([1, -1])
    assert series_mul(f, g) == IntSeries([1, 0])


def test_mul_identity():
    f = IntSeries([5, -3, 2, 9])
    assert series_mul(f, IntSeries([1], prec=3)) == f


def test_mul_q_times_q():
    q = IntSeries([0, 1], prec=4)
    assert series_mul(q, q) == IntSeries([0, 0, 1, 0, 0])


def test_mul_truncates_to_min_precision():
    f = IntSeries([1, 1, 1, 1, 1, 1])
    g = IntSeries([1, 1])
    assert series_mul(f, g).prec == 1


def test_mul_mixed_kinds_rejected():
    with pytest.raises(TypeError):
        series_mul(IntSeries([1]), [1])
    with pytest.raises(TypeError):
        series_pow([1, 1], 2)


def test_pow_zero_is_one():
    f = IntSeries([7, 7, 7])
    assert series_pow(f, 0) == IntSeries([1], prec=2)


def test_pow_one_is_identity():
    f = IntSeries([2, -5, 1])
    assert series_pow(f, 1) == f


def test_pow_binomial():
    assert series_pow(IntSeries([1, 1], prec=3), 3) == IntSeries([1, 3, 3, 1])


def test_pow_matches_iterated_mul():
    rng = random.Random(11)
    for _ in range(40):
        prec = rng.randint(0, 10)
        f = IntSeries([rng.randint(-9, 9) for _ in range(prec + 1)])
        for e in range(9):
            by_mul = IntSeries([1], prec=prec)
            for _ in range(e):
                by_mul = series_mul(by_mul, f)
            assert series_pow(f, e) == by_mul


def test_mul_against_reference_500_random_cases():
    rng = random.Random(2024)
    for _ in range(500):
        la = rng.randint(1, 17)
        lb = rng.randint(1, 17)
        a = [rng.randint(-9, 9) for _ in range(la)]
        b = [rng.randint(-9, 9) for _ in range(lb)]
        f = IntSeries(a)
        g = IntSeries(b)
        n_out = min(la, lb)
        assert list(series_mul(f, g).coeffs) == conv_reference(a, b, n_out)


def test_mul_commutative_associative_distributive():
    rng = random.Random(5)
    for _ in range(60):
        prec = rng.randint(0, 12)
        mk = lambda: IntSeries([rng.randint(-9, 9) for _ in range(prec + 1)])
        f, g, h = mk(), mk(), mk()
        assert series_mul(f, g) == series_mul(g, f)
        assert series_mul(series_mul(f, g), h) == series_mul(f, series_mul(g, h))
        assert series_mul(f, series_add(g, h)) == series_add(series_mul(f, g), series_mul(f, h))


def test_schoolbook_matches_reference_on_truncated_products_with_zeros():
    # the schoolbook loop adds zero products instead of skipping a zero
    # factor; sparse operands, zero runs and all-zero operands check that
    rng = random.Random(29)
    for _ in range(120):
        density = rng.choice([0.0, 0.1, 0.5])
        a, b = (
            [rng.randint(-(2**40), 2**40) if rng.random() < density else 0 for _ in range(n)]
            for n in (rng.randint(1, 70), rng.randint(1, 70))
        )
        # operands longer than n_out included: the loop cuts them itself
        n_out = rng.randint(1, len(a) + len(b) - 1)
        expected = conv_reference(a, b, n_out)
        assert _convolve_schoolbook(a, b, n_out) == expected, (a, b, n_out)


def test_large_series_mul_uses_exact_arithmetic():
    # 100 terms of up to 101 bits each through the public surface, against
    # the independent double loop
    rng = random.Random(3)
    a = [rng.randint(-(2**100), 2**100) for _ in range(100)]
    b = [rng.randint(-(2**100), 2**100) for _ in range(100)]
    f = IntSeries(a)
    g = IntSeries(b)
    assert list(series_mul(f, g).coeffs) == conv_reference(a, b, 100)


def test_coefficient_access_beyond_precision_is_error():
    f = IntSeries([1, 2, 3])
    assert f[2] == 3
    with pytest.raises(IndexError):
        f[3]
    with pytest.raises(IndexError):
        f[-1]


def test_explicit_precision_pads_and_truncates():
    assert IntSeries([1, 2], prec=4).coeffs == (1, 2, 0, 0, 0)
    assert IntSeries([1, 2, 3, 4], prec=1).coeffs == (1, 2)


def test_non_integer_coefficients_rejected():
    with pytest.raises(TypeError):
        IntSeries([1.5])


# --- series_inv_oracle, the check on (Delta/q)^-e in test_modforms ---


def test_inverse_times_series_is_one():
    rng = random.Random(41)
    for prec in (0, 1, 2, 5, 31, 32, 80):
        for c0 in (1, -1):
            f = IntSeries([c0] + [rng.randint(-10**6, 10**6) for _ in range(prec)])
            g = series_inv_oracle(f)
            assert g.prec == prec
            assert series_mul(f, g) == IntSeries([1], prec=prec)
            assert series_mul(g, f) == IntSeries([1], prec=prec)


def test_inverse_of_one_minus_q_is_geometric():
    assert series_inv_oracle(IntSeries([1, -1], prec=6)) == IntSeries([1] * 7)
    assert series_inv_oracle(IntSeries([-1, 0, 1], prec=5)) == IntSeries([-1, 0, -1, 0, -1, 0])


def test_inverse_needs_a_unit_constant_term():
    for c0 in (0, 2, -2, 1728):
        with pytest.raises(ValueError):
            series_inv_oracle(IntSeries([c0, 1, 1]))
