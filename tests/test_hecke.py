import itertools
import math
import random
from fractions import Fraction

import pytest

from heckescan.hecke import (
    CharPoly,
    charpoly_t2,
    check_irreducible,
    distinguish,
    eigenform_coeffs,
    t2_coefficient,
    t2_matrix,
    trace_t2,
    _factor_degrees_mod_q,
)
from heckescan.modforms import delta, miller_basis

# frozen by the eta-product / divisor-sum oracle run before the build
A2_BY_WEIGHT = {12: -24, 16: 216, 18: -528, 20: 456, 22: -288, 26: -48}
TAU = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)
EIGEN16 = (1, 216, -3348, 13888, 52110, -723168)
ONE_DIM_WEIGHTS = (12, 16, 18, 20, 22, 26)


def test_t2_coefficient_odd_index():
    assert t2_coefficient(delta(2), 1, 12) == -24


def test_t2_coefficient_even_index_adds_weight_term():
    # a_4 + 2^11 a_1 = -1472 + 2048
    assert t2_coefficient(delta(4), 2, 12) == 576
    assert 576 == (-24) ** 2  # the square relation at p = 2


def test_t2_coefficient_j1_is_a2():
    f = miller_basis(16, 2).form(1)
    assert t2_coefficient(f, 1, 16) == f[2]


def test_t2_coefficient_requires_precision():
    with pytest.raises(ValueError, match="precision"):
        t2_coefficient(delta(3), 2, 12)


def test_trace_golden_values():
    assert trace_t2(12) == (1, -24)
    assert trace_t2(16) == (1, 216)
    assert trace_t2(2) == (0, 0)


def test_trace_weight_24():
    assert trace_t2(24) == (2, 1080)


def test_matrix_weight_12():
    m = t2_matrix(12)
    assert m.dim == 1
    assert m.entries == ((-24,),)


def test_matrix_weight_24_pinned():
    m = t2_matrix(24)
    assert m.entries == ((0, 1), (20468736, 1080))
    assert m.trace == trace_t2(24)[1]


def test_matrix_empty_space():
    m = t2_matrix(2)
    assert m.dim == 0
    assert m.entries == ()


def test_charpoly_weight_12():
    p = charpoly_t2(12)
    assert p.coeffs == (1, 24)
    assert str(p) == "x + 24"


def test_charpoly_weight_24_against_determinant_oracle():
    m = t2_matrix(24).entries
    # det(xI - M) for the 2x2 case, expanded by hand
    c1 = -(m[0][0] + m[1][1])
    c0 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert charpoly_t2(24).coeffs == (1, c1, c0)
    assert charpoly_t2(24).coeffs == (1, -1080, -20468736)


def _det_poly_oracle(m):
    """det(xI - M) by cofactor expansion over polynomial coefficient lists
    (ascending), independent of the production recurrence."""

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def padd(a, b):
        n = max(len(a), len(b))
        return [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]

    def det(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        acc = [0]
        for j in range(n):
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            term = pmul(rows[0][j], det(minor))
            acc = padd(acc, term if j % 2 == 0 else [-c for c in term])
        return acc

    n = len(m)
    rows = [
        [[-m[i][j], 1] if i == j else [-m[i][j]] for j in range(n)]
        for i in range(n)
    ]
    return det(rows)


@pytest.mark.parametrize("k", [12, 24, 28, 36])
def test_charpoly_against_cofactor_oracle(k):
    m = t2_matrix(k)
    asc = _det_poly_oracle(list(list(r) for r in m.entries))
    assert tuple(reversed(asc)) == charpoly_t2(k).coeffs


def test_charpoly_empty_space():
    assert charpoly_t2(2).coeffs == (1,)
    assert charpoly_t2(2).degree == 0


def test_charpoly_second_coefficient_is_minus_trace():
    for k in (12, 24, 36, 48, 60, 120, 244):
        d, t = trace_t2(k)
        p = charpoly_t2(k)
        assert p.degree == d
        assert p.coeffs[1] == -t


def eichler_selberg_trace_t2(k):
    """Tr T2 on the weight-k cusp space from the Eichler-Selberg trace
    formula (Zagier 1977), independent of any q-expansion:
    -1/2 sum_{|t|<=2} P_k(t, 2) H(8 - t^2) - 1/2 sum_{dd'=2} min(d, d')^(k-1),
    plus sigma_1(2) = 3 at k = 2.  P_k(t, 2) = U_(k-2) with U_0 = 1,
    U_1 = t, U_(m+1) = t U_m - 2 U_(m-1); the Hurwitz class numbers are
    H(8) = H(7) = 1 and H(4) = 1/2."""
    hurwitz = {8: Fraction(1), 7: Fraction(1), 4: Fraction(1, 2)}
    total = Fraction(0)
    for t in range(-2, 3):
        u_prev, u = 0, 1  # U_(-1), U_0
        for _ in range(k - 2):
            u_prev, u = u, t * u - 2 * u_prev
        total += u * hurwitz[8 - t * t]
    trace = -total / 2 - 1 + (3 if k == 2 else 0)
    assert trace.denominator == 1
    return int(trace)


def test_trace_matches_eichler_selberg_formula_to_360():
    for k in range(2, 361, 2):
        assert trace_t2(k)[1] == eichler_selberg_trace_t2(k), k


def test_trace_matrix_charpoly_agree_sampled_to_600():
    for k in (12, 26, 48, 122, 240, 360, 480, 600):
        basis = miller_basis(k)
        d, t = trace_t2(k, basis=basis)
        m = t2_matrix(k, basis=basis)
        assert m.trace == t
        assert charpoly_t2(k, matrix=m).coeffs[1] == -t


# --- irreducibility ------------------------------------------------------


def test_linear_is_irreducible():
    v = check_irreducible(CharPoly(12, (1, 24)))
    assert v.kind == "irreducible"


def test_x_squared_minus_one_reducible():
    v = check_irreducible([1, 0, -1])
    assert v.kind == "reducible"
    assert v.factor_degrees == (1, 1)


def test_charpoly_24_irreducible_with_small_witness():
    v = check_irreducible(charpoly_t2(24))
    assert v.kind == "irreducible"
    assert v.witness_prime is not None and v.witness_prime <= 100


def test_products_with_roots_never_certified_irreducible():
    rng = random.Random(31)
    for _ in range(30):
        # roots across the whole +-10^6 window, including ones far outside
        # the direct root scan
        r = rng.choice([rng.randint(-50, 50), rng.randint(-(10**6), 10**6)])
        # (x - r) * (x^2 + a x + b)
        a, b = rng.randint(-9, 9), rng.randint(-9, 9)
        poly = [1, a - r, b - r * a, -r * b]
        assert poly[0] * r**3 + poly[1] * r**2 + poly[2] * r + poly[3] == 0
        v = check_irreducible(poly, prime_budget=30)
        assert v.kind != "irreducible", (r, a, b, v)


def _int_poly_mul(a, b):
    """Product of two descending integer coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _no_rational_root(f):
    """True iff the monic integer f (descending, nonzero constant term) has
    no rational root; monic, so any rational root is a divisor of f(0)."""
    c = abs(f[-1])
    divisors = [t for t in range(1, c + 1) if c % t == 0]
    return all(_eval_desc(f, s * t) != 0 for t in divisors for s in (1, -1))


def _eval_desc(f, x):
    v = 0
    for c in f:
        v = v * x + c
    return v


def test_products_without_rational_roots_never_certified_irreducible():
    # Each factor has degree 2 or 3 and no rational root, so the product is
    # reducible over Q, yet the root search finds nothing: the degree sets
    # must never empty and the honest verdict is inconclusive.
    rng = random.Random(59)
    cases = [[1, 1, 2, 1, 1]]  # (x^2 + 1)(x^2 + x + 1)
    while len(cases) < 25:
        poly = [1]
        for _ in range(rng.randint(2, 3)):
            while True:
                factor = [1] + [rng.randint(-6, 6) for _ in range(rng.randint(2, 3))]
                if factor[-1] != 0 and _no_rational_root(factor):
                    break
            poly = _int_poly_mul(poly, factor)
        cases.append(poly)
    for poly in cases:
        assert check_irreducible(poly, prime_budget=40).kind == "inconclusive", poly
        as_charpoly = check_irreducible(CharPoly(60, tuple(poly)), prime_budget=40)
        assert as_charpoly.kind == "inconclusive", poly
        assert as_charpoly.primes_tried == 40


def test_reducible_mod_every_prime_stays_inconclusive():
    # x^4 - 10x^2 + 1 (minimal polynomial of sqrt2 + sqrt3) is irreducible
    # over Q but splits mod every prime into factors of degree <= 2, so
    # degree 2 survives every degree set: no certificate, no false claim.
    v = check_irreducible([1, 0, -10, 0, 1], prime_budget=60)
    assert v.kind == "inconclusive"
    assert v.primes_tried == 60


def test_perfect_square_is_inconclusive_not_irreducible():
    # (x^2 + 1)^2 has no rational root and no irreducible reduction mod
    # any prime, so the honest verdict under a finite budget is inconclusive
    v = check_irreducible([1, 0, 2, 0, 1], prime_budget=30)
    assert v.kind == "inconclusive"
    assert v.primes_tried == 30


def test_constant_polynomial_rejected():
    with pytest.raises(ValueError):
        check_irreducible([1])


def test_nonmonic_rejected():
    with pytest.raises(ValueError):
        check_irreducible([2, 0, -1])


def _pq_mul(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % q
    return out


def _pq_divmod(a, b, q):
    """(quotient, remainder) of a by the monic b; ascending lists mod q."""
    a = list(a)
    db = len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        quo[i - db] = c
        for j in range(db + 1):
            a[i - db + j] = (a[i - db + j] - c * b[j]) % q
    return quo, a[:db]


def brute_force_factors_mod_q(f, q):
    """Monic irreducible factors of the monic f mod q, with multiplicity,
    by trial division with every monic polynomial of degree 1, 2, ...: a
    divisor of least degree is irreducible.  Complete for deg <= 4."""

    def monics(deg):
        for tail in range(q**deg):
            cs = []
            for _ in range(deg):
                cs.append(tail % q)
                tail //= q
            yield cs + [1]

    factors = []
    rest = list(f)
    deg = 1
    while len(rest) - 1 >= 2 * deg:
        for g in monics(deg):
            while len(rest) > len(g):
                quo, rem = _pq_divmod(rest, g, q)
                if any(rem):
                    break
                factors.append(tuple(g))
                rest = quo
        deg += 1
    if len(rest) > 1:
        factors.append(tuple(rest))
    return factors


def test_factor_degrees_mod_q_against_brute_force():
    rng = random.Random(8)
    for q in (2, 3, 5):
        patterns = set()
        for _ in range(80):
            d = rng.randint(2, 4)
            f = [rng.randrange(q) for _ in range(d)] + [1]
            factors = brute_force_factors_mod_q(f, q)
            assert math.prod(len(g) - 1 for g in factors) >= 1
            assert sum(len(g) - 1 for g in factors) == d
            if len(set(factors)) < len(factors):
                expected = None
            else:
                expected = tuple(sorted(len(g) - 1 for g in factors))
            assert _factor_degrees_mod_q(f, q) == expected, (f, q, factors)
            patterns.add(expected)
        # every squarefree shape of degree <= 4 shows up, and repeats too
        assert None in patterns and (4,) in patterns and (1, 3) in patterns, (q, patterns)


def _pq_powmod(base, e, f, q):
    result = [1]
    while e:
        if e & 1:
            result = _pq_divmod(_pq_mul(result, base, q), f, q)[1]
        base = _pq_divmod(_pq_mul(base, base, q), f, q)[1]
        e >>= 1
    return result


def _pq_gcd_degree(a, b, q):
    a, b = list(a), list(b)
    while any(b):
        while b[-1] == 0:
            b.pop()
        inv = pow(b[-1], -1, q)
        b = [c * inv % q for c in b]
        a, b = b, _pq_divmod(a, b, q)[1] if len(a) >= len(b) else a
    while a and a[-1] == 0:
        a.pop()
    return len(a) - 1


def _irreducible_mod_q_oracle(f, q):
    """The single-witness test, rebuilt from plain arithmetic: f is
    irreducible mod q iff gcd(x^(q^i) - x, f) = 1 for i = 1..deg/2."""
    d = len(f) - 1
    h = [0, 1]
    for _ in range(d // 2):
        h = _pq_powmod(h, q, f, q)
        diff = list(h) + [0] * (2 - len(h))
        diff[1] = (diff[1] - 1) % q
        if _pq_gcd_degree(f, diff, q) > 0:
            return False
    return True


def test_verdicts_agree_with_single_witness_route_to_160():
    for k in range(12, 161, 2):
        poly = charpoly_t2(k)
        d = poly.degree
        if d < 2:
            continue
        asc = poly.coeffs[::-1]
        # the single-witness route: the first of 25 * d primes from 2 whose
        # reduction is irreducible
        primes = (p for p in itertools.count(2) if all(p % t for t in range(2, math.isqrt(p) + 1)))
        witness = next(
            (q for q in itertools.islice(primes, 25 * d) if _irreducible_mod_q_oracle([c % q for c in asc], q)),
            None,
        )
        v = check_irreducible(poly)
        assert witness is not None and v.kind == "irreducible", (k, witness, v)
        assert v.witness_prime > k
        # at the prime that closed the certificate, the factorization
        # agrees with the witness test on whether the reduction is whole
        w = v.witness_prime
        fw = [c % w for c in asc]
        assert (_factor_degrees_mod_q(fw, w) == (d,)) == _irreducible_mod_q_oracle(fw, w), k


# --- eigenforms and distinguishing ---------------------------------------


def test_eigenform_weight_12_is_tau():
    assert eigenform_coeffs(12, 10) == TAU


def test_eigenform_weight_16():
    assert eigenform_coeffs(16, 6) == EIGEN16


def test_eigenform_normalization():
    for k in ONE_DIM_WEIGHTS:
        assert eigenform_coeffs(k, 1) == (1,)


def test_eigenform_rejects_other_dimensions():
    with pytest.raises(ValueError):
        eigenform_coeffs(24, 4)
    with pytest.raises(ValueError):
        eigenform_coeffs(2, 4)


def test_hecke_identities_one_dim_weights():
    for k in ONE_DIM_WEIGHTS:
        a = (0,) + eigenform_coeffs(k, 10)
        assert a[4] == a[2] ** 2 - 2 ** (k - 1), k
        assert a[9] == a[3] ** 2 - 3 ** (k - 1), k
        assert a[6] == a[2] * a[3], k
        assert a[10] == a[2] * a[5], k


def test_a2_values_pinned():
    for k, a2 in A2_BY_WEIGHT.items():
        assert eigenform_coeffs(k, 2)[1] == a2


def test_distinguish_12_vs_16():
    a = eigenform_coeffs(12, 4)
    b = eigenform_coeffs(16, 4)
    assert distinguish(a, b, 4) == 2


def test_distinguish_18_vs_20():
    a = eigenform_coeffs(18, 4)
    b = eigenform_coeffs(20, 4)
    assert distinguish(a, b, 4) == 2


def test_distinguish_identical_returns_none():
    f = eigenform_coeffs(12, 10)
    assert distinguish(f, f, 10) is None


def test_distinguish_all_pairs_within_4():
    coeffs = {k: eigenform_coeffs(k, 4) for k in ONE_DIM_WEIGHTS}
    for i, k1 in enumerate(ONE_DIM_WEIGHTS):
        for k2 in ONE_DIM_WEIGHTS[i + 1 :]:
            n = distinguish(coeffs[k1], coeffs[k2], 4)
            assert n is not None and n <= 4, (k1, k2)


def test_distinguish_requires_enough_coefficients():
    with pytest.raises(ValueError):
        distinguish((1, 2), (1, 2), 3)


def test_distinguish_accepts_external_sequences():
    assert distinguish([5, 7, 9], [5, 7, 2], 3) == 3
