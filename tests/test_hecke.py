import itertools
import math
import random
from fractions import Fraction

import pytest

from heckescan.hecke import (
    CharPoly,
    T2Matrix,
    charpoly_t2,
    check_irreducible,
    distinguish,
    eigenform_coeffs,
    t2_coefficient,
    t2_matrix,
    trace_t2,
    _deflate,
    _eval_int,
    _factor_degrees_mod_q,
    _integer_roots,
    _inverse_mod_p,
    _pm_mulmod,
    _pm_rem,
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


def faddeev_leverrier_charpoly(k, matrix=None):
    """Characteristic polynomial of T2 on the weight-k cusp space, by the
    Faddeev-LeVerrier recurrence (all intermediate matrices stay integral;
    each division is checked exact)."""
    if matrix is None:
        matrix = t2_matrix(k)
    d = matrix.dim
    if d == 0:
        return CharPoly(k, (1,))
    m = matrix.entries
    work = [list(row) for row in m]
    coeffs = [1, -sum(work[i][i] for i in range(d))]
    for step in range(2, d + 1):
        c = coeffs[-1]
        for i in range(d):
            work[i][i] += c
        work = _matmul(m, work)
        t = sum(work[i][i] for i in range(d))
        q, r = divmod(-t, step)
        if r:
            raise ArithmeticError(f"characteristic polynomial trace not divisible by {step}")
        coeffs.append(q)
    # Cayley-Hamilton termination: A_d + c_d I must vanish.
    for i in range(d):
        work[i][i] += coeffs[-1]
    if any(v != 0 for row in work for v in row):
        raise ArithmeticError("Faddeev-LeVerrier termination check failed")
    return CharPoly(k, tuple(coeffs))


def _matmul(a, b):
    n = len(a)
    bt = list(zip(*b))
    out = []
    for i in range(n):
        ai = a[i]
        out.append([sum(x * y for x, y in zip(ai, col) if x) for col in bt])
    return out


def test_charpoly_against_faddeev_leverrier_to_300():
    for k in range(2, 301, 2):
        m = t2_matrix(k)
        assert charpoly_t2(k, matrix=m) == faddeev_leverrier_charpoly(k, matrix=m), k


def test_charpoly_falls_back_to_the_next_lifting_prime():
    p = 2**61 - 1
    m = T2Matrix(0, 2, ((3, 1), (p, 5)))
    # the Krylov matrix [e_1, A e_1] = [[1, 3], [0, p]] is singular mod p
    assert _inverse_mod_p(((1, 3), (0, p)), p) is None
    assert charpoly_t2(0, matrix=m).coeffs == (1, -8, 15 - p)


def test_charpoly_refuses_a_non_cyclic_first_vector():
    m = T2Matrix(0, 2, ((5, 0), (0, 5)))
    with pytest.raises(ArithmeticError, match="singular"):
        charpoly_t2(0, matrix=m)


def test_charpoly_one_by_one():
    assert charpoly_t2(0, matrix=T2Matrix(0, 1, ((-7,),))).coeffs == (1, 7)
    assert charpoly_t2(0, matrix=T2Matrix(0, 1, ((0,),))).coeffs == (1, 0)


def test_charpoly_with_large_negative_coefficients():
    # lower triangular with a unit subdiagonal: e_1 is cyclic, and the
    # charpoly is the product of x - a_ii whatever lies below the diagonal
    a, b, c = 3**100, 2**200, 5**90 + 1
    rows = ((a, 0, 0, 0), (1, b, 0, 0), (-(10**40), 1, c, 0), (7**50, -(3**70), 1, 7))
    expected = [1]
    for root in (a, b, c, 7):
        expected = _int_poly_mul(expected, [1, -root])
    assert expected[1] < -(2**200) and expected[3] < -(2**390)
    matrix = T2Matrix(0, 4, rows)
    assert charpoly_t2(0, matrix=matrix).coeffs == tuple(expected)
    assert faddeev_leverrier_charpoly(0, matrix=matrix).coeffs == tuple(expected)


def test_charpoly_random_matrices_against_faddeev_leverrier():
    rng = random.Random(23)
    for _ in range(40):
        d = rng.randint(1, 7)
        size = rng.choice([3, 10**6, 10**40])
        rows = tuple(tuple(rng.randint(-size, size) for _ in range(d)) for _ in range(d))
        matrix = T2Matrix(0, d, rows)
        assert charpoly_t2(0, matrix=matrix) == faddeev_leverrier_charpoly(0, matrix=matrix), rows


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


def test_trace_matches_eichler_selberg_formula_to_600():
    for k in range(2, 601, 2):
        assert trace_t2(k)[1] == eichler_selberg_trace_t2(k), k


def test_staircase_trace_equals_the_full_basis_trace_to_300():
    # trace_t2 reads the upper half of the raw rows from a chain cut at
    # q^(d-m), t2_matrix the full basis of miller_basis
    for k in range(2, 301, 2):
        m = t2_matrix(k)
        assert trace_t2(k) == (m.dim, m.trace), k


def test_trace_matrix_charpoly_agree_sampled_to_600():
    for k in (12, 26, 48, 122, 240, 360, 480, 600):
        m = t2_matrix(k)
        d, t = trace_t2(k)
        assert (m.dim, m.trace) == (d, t)
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


def _integer_roots_unfiltered(coeffs):
    """The root search evaluating every candidate, whether or not it
    divides the constant term: the reference for the divisor filter."""
    candidates = set(range(-100, 101))
    a0 = coeffs[-1]
    if a0 == 0:
        candidates.add(0)
    elif abs(a0) <= 10**9:
        m = abs(a0)
        f = 1
        while f * f <= m:
            if m % f == 0:
                candidates.update((f, -f, m // f, -(m // f)))
            f += 1
    work = list(coeffs)
    degrees = []
    for r in sorted(candidates, key=abs):
        while len(work) > 1 and _eval_int(work, r) == 0:
            work = _deflate(work, r)
            degrees.append(1)
    if not degrees:
        return None
    if len(work) > 1:
        degrees.append(len(work) - 1)
    return tuple(sorted(degrees))


def test_integer_roots_match_the_unfiltered_search():
    rng = random.Random(18)
    kinds = set()
    for _ in range(400):
        # roots with repeats, zero among them, some beyond the +-100 window
        roots = [rng.choice([0, 1, -1, 2, -3, 7, 97, -101, 1000, rng.randint(-60, 60)])
                 for _ in range(rng.randint(0, 4))]
        poly = [1] + [rng.randint(-20, 20) for _ in range(rng.randint(0, 3))]
        for r in roots:
            poly = _int_poly_mul(poly, [1, -r])
        if len(poly) < 2:
            continue
        got = _integer_roots(poly)
        assert got == _integer_roots_unfiltered(poly), poly
        kinds.add((len(roots) > len(set(roots)), poly[-1] == 0, got is not None))
    # repeated roots, a zero constant term and root-free inputs all occur
    assert {(True, True, True), (True, False, True), (False, False, False)} <= kinds


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


@pytest.mark.parametrize("budget", [0, -3])
def test_prime_budget_below_one_rejected_before_the_shortcuts(budget):
    # degree 1 and an integer root are settled without trying a prime, yet
    # a budget below 1 is an error there too
    assert check_irreducible([1, 5], prime_budget=1).kind == "irreducible"
    assert check_irreducible([1, -3, 2], prime_budget=1).factor_degrees == (1, 1)
    for poly in ([1, 5], CharPoly(12, (1, 24)), [1, -3, 2]):
        with pytest.raises(ValueError, match="prime budget must be positive"):
            check_irreducible(poly, prime_budget=budget)


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


# The schoolbook kernels the certificate ran on before it took the series
# product, kept as the oracle for it.


def _schoolbook_rem(a, f, q):
    """a mod f, reduced mod q; a may hold unreduced integers."""
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % q
        if c:
            off = i - df
            for j in range(df):
                a[off + j] -= c * f[j]
    return _trimmed([c % q for c in a[:df]])


def _schoolbook_mulmod(a, b, f, q):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _schoolbook_rem(out, f, q)


def _trimmed(a):
    while a and a[-1] == 0:
        a.pop()
    return a


@pytest.mark.parametrize("q", [2, 331, 2**61 - 1])
def test_mod_q_kernels_against_the_schoolbook_oracle(q):
    # 1..70 terms puts the products on both sides of _KRONECKER_MIN_TERMS
    rng = random.Random(q)
    for _ in range(80):
        f = [rng.randrange(q) for _ in range(rng.randint(1, 70))] + [1]
        a, b = ([rng.randrange(q) for _ in range(rng.randint(1, 70))] for _ in range(2))
        assert _pm_mulmod(a, b, f, q) == _schoolbook_mulmod(a, b, f, q), (a, b, f)
        # unreduced integers and a zero tail, as a product hands them over
        a_wide = [rng.randint(-(q**2), q**2) for _ in range(rng.randint(1, 70))]
        a_wide += [0] * rng.randint(0, 3)
        for a in (a, a_wide):
            rem = _pm_rem(a, f, q)
            assert rem == _schoolbook_rem(a, f, q), (a, f)
            assert rem == _trimmed([c % q for c in _pq_divmod(a, f, q)[1]]), (a, f)
            assert len(rem) < len(f)


def brute_force_factors_mod_q(f, q):
    """Monic irreducible factors of the monic f mod q, with multiplicity,
    by trial division with every monic polynomial of degree 1, 2, ...: a
    divisor of least degree is irreducible, and what is left once no
    divisor of at most half its degree remains is irreducible too."""

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
    # From degree 5 on, a step i can run after factors of a smaller degree
    # dividing i were found, and their degrees must come off deg gcd: the
    # patterns (1, 2, 2) and (1, 3, 3) need that correction.
    rng = random.Random(8)
    seen = set()
    for q, d_max in ((2, 8), (3, 8), (5, 6)):
        patterns = set()
        for _ in range(120):
            d = rng.randint(2, d_max)
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
        # irreducible, mixed and repeated-factor shapes show up at every q
        assert None in patterns and (4,) in patterns and (1, 3) in patterns, (q, patterns)
        seen |= patterns
    assert {(1, 2, 2), (1, 3, 3)} <= seen, seen


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
