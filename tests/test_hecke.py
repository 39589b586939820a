import hashlib
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
    t2_matrix,
    trace_t2,
    _deflate,
    _eval_int,
    _integer_roots,
)
from heckescan.modforms import delta, dim_cusp, miller_basis
from heckescan.modp import (
    _LIFT_PRIMES,
    _dixon_solve,
    _factor_degrees_mod_q,
    _inverse_mod_p,
    _pack,
    _reducer,
    _unpack,
    _window,
)
from heckescan.primes import primes_above
from test_modforms import spanning_set_echelon

# frozen by the eta-product / divisor-sum oracle run before the build
A2_BY_WEIGHT = {12: -24, 16: 216, 18: -528, 20: 456, 22: -288, 26: -48}
TAU = (1, -24, 252, -1472, 4830, -6048, -16744, 84480, -113643, -115920)
EIGEN16 = (1, 216, -3348, 13888, 52110, -723168)
ONE_DIM_WEIGHTS = (12, 16, 18, 20, 22, 26)


# --- the T2 coefficient oracle ------------------------------------------


def t2_coefficient(a, j, k):
    """Coefficient of q^j in T2 f for f of weight k with coefficients
    a = (a_0, a_1, ...): a_{2j}(f) + 2^(k-1) a_{j/2}(f), the second term
    only for even j, read straight off the sequence.  Running short of
    q^(2j) is an error, never a silent zero."""
    if len(a) <= 2 * j:
        raise ValueError(f"need precision >= {2 * j} for the q^{j} coefficient, have {len(a) - 1}")
    value = a[2 * j]
    if j % 2 == 0:
        value += (1 << (k - 1)) * a[j // 2]
    return value


def t2_matrix_oracle(forms, k):
    """entries[j - 1][i - 1] = t2_coefficient(f_i, j, k) for the basis
    forms f_1, ..., f_d given as coefficient sequences."""
    return tuple(tuple(t2_coefficient(f, j, k) for f in forms) for j in range(1, len(forms) + 1))


def test_t2_coefficient_odd_index():
    assert t2_coefficient(delta(2).coeffs, 1, 12) == -24


def test_t2_coefficient_even_index_adds_weight_term():
    # a_4 + 2^11 a_1 = -1472 + 2048
    assert t2_coefficient(delta(4).coeffs, 2, 12) == 576
    assert 576 == (-24) ** 2  # the square relation at p = 2


def test_t2_coefficient_j1_is_a2():
    f = miller_basis(16, 2).form(1)
    assert t2_coefficient(f.coeffs, 1, 16) == f[2]


def test_t2_coefficient_requires_precision():
    with pytest.raises(ValueError, match="precision"):
        t2_coefficient(delta(3).coeffs, 2, 12)


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


def test_matrix_equals_the_coefficient_reads_of_the_basis():
    # t2_matrix reads a_(2j) from echelon columns and places the
    # 2^(k-1) a_(j/2) term itself; the oracle reads both off whole forms,
    # of miller_basis to 300 and of the rational elimination to 96
    for k in range(2, 301, 2):
        forms = [f.coeffs for f in miller_basis(k).forms]
        assert t2_matrix(k).entries == t2_matrix_oracle(forms, k), k
    for k in range(12, 97, 2):
        rows = spanning_set_echelon(k, 2 * dim_cusp(k))
        assert t2_matrix(k).entries == t2_matrix_oracle(rows, k), k


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
    p = _LIFT_PRIMES[0]
    m = T2Matrix(0, 2, ((3, 1), (p, 5)))
    # the Krylov matrix [e_1, A e_1] = [[1, 3], [0, p]] is singular mod p
    assert _inverse_mod_p(((1, 3), (0, p)), p) is None
    assert _inverse_mod_p(((1, 3), (0, p)), _LIFT_PRIMES[1]) is not None
    assert charpoly_t2(0, matrix=m).coeffs == (1, -8, 15 - p)


def _inverse_mod_p_scalar(m, p):
    """Gauss-Jordan on lists, every entry reduced after every row
    operation: the kernel _inverse_mod_p ran before it packed its rows,
    kept as its oracle."""
    n = len(m)
    work = [[v % p for v in row] + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col]), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv = pow(work[col][col], -1, p)
        prow = [v * inv % p for v in work[col]]
        work[col] = prow
        for i in range(n):
            f = work[i][col]
            if i != col and f:
                work[i] = [(a - f * b) % p for a, b in zip(work[i], prow)]
    return [row[n:] for row in work]


@pytest.mark.parametrize("p", [2, 3, 331, *_LIFT_PRIMES])
def test_packed_inverse_against_the_scalar_gauss_jordan(p):
    # singular and invertible matrices, entries far beyond p and negative,
    # and all p - 1 so that the windows of the rows grow as fast as they can
    rng = random.Random(p)
    kinds = set()
    for _ in range(60):
        n = rng.randint(1, 12)
        pick = rng.choice([
            lambda: rng.randrange(p),
            lambda: rng.choice([0, 0, 1, p - 1]),
            lambda: rng.randint(-(10**40), 10**40),
        ])
        m = [[pick() for _ in range(n)] for _ in range(n)]
        got = _inverse_mod_p(m, p)
        assert got == _inverse_mod_p_scalar(m, p), (m, p)
        kinds.add(got is None)
    for n in (1, 5, 12):
        # residues p - 1 and 1 only: additions of (p - 1) times a pivot
        # row, with the windows far from reduced
        m = [[p - 1 if j >= i else 1 for j in range(n)] for i in range(n)]
        assert _inverse_mod_p(m, p) == _inverse_mod_p_scalar(m, p), (n, p)
    assert kinds == {True, False}


def test_dixon_solve_on_integer_systems():
    rng = random.Random(26)
    for n in (1, 2, 5, 9):
        m = [[rng.randint(-(10**30), 10**30) for _ in range(n)] for _ in range(n)]
        c = [rng.randint(-(10**200), 10**200) for _ in range(n)]
        b = [sum(x * y for x, y in zip(row, c)) for row in m]
        assert _dixon_solve(m, b, max(map(abs, c))) == c
    assert _dixon_solve([[1, 2], [2, 4]], [3, 6], 10) is None
    # the solution 3/2 is no integer: its digits run past any bound
    with pytest.raises(ArithmeticError, match="exceeded the coefficient bound after 1 digits"):
        _dixon_solve([[2]], [3], 1)
    with pytest.raises(ArithmeticError, match="exceeded the coefficient bound after 1 digits"):
        _dixon_solve([[1]], [2**200], 1)


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
    # q^(d-m), the oracle matrix the full basis of miller_basis
    for k in range(2, 301, 2):
        forms = [f.coeffs for f in miller_basis(k).forms]
        m = t2_matrix_oracle(forms, k)
        assert trace_t2(k) == (len(forms), sum(m[i][i] for i in range(len(forms)))), k


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
    for _ in range(600):
        # roots with repeats, zero among them, some beyond the +-100 window
        # and some next to its edge, up to six of them, so that the search
        # deflates several times and filters the quotients
        roots = [rng.choice([0, 1, -1, 2, -3, 7, 97, 100, -101, 1000, rng.randint(-60, 60)])
                 for _ in range(rng.randint(0, 6))]
        poly = [1] + [rng.randint(-20, 20) for _ in range(rng.randint(0, 3))]
        for r in roots:
            poly = _int_poly_mul(poly, [1, -r])
        if len(poly) < 2:
            continue
        got = _integer_roots(poly)
        assert got == _integer_roots_unfiltered(poly), poly
        kinds.add((len(roots) > len(set(roots)), poly[-1] == 0, got is not None))
        if got is not None:
            kinds.add(("roots found", min(got.count(1), 3)))
    # repeated roots, a zero constant term and root-free inputs all occur,
    # and so do polynomials with two and with three or more integer roots
    assert {(True, True, True), (True, False, True), (False, False, False)} <= kinds
    assert {("roots found", 2), ("roots found", 3)} <= kinds
    # constant terms that the divisor set covers in full, at its 10^9 edge
    # among them: a prime, two primes next to the square root, and
    # 735 134 400 = 2^6 3^3 5^2 7 11 13 17 with 1344 divisors; roots among
    # the largest divisors, and none at all
    p = 999_999_937
    fixed = []
    for cofactor, roots in [
        ([1, 0, 1], [-1]), ([1, 1, 1], [1]),
        ([1], [10**9, 1]), ([1, 1], [-5 * 10**8, -2]),
        ([1], [p, 1]), ([1, 1, p], []), ([1], [31_601, 31_607]),
        ([1], [735_134_400, -1]), ([1, 0, 1], [367_567_200, 2]), ([1, 1, 735_134_400], []),
    ]:
        poly = cofactor
        for r in roots:
            poly = _int_poly_mul(poly, [1, -r])
        fixed.append(poly)
        assert _integer_roots(poly) == _integer_roots_unfiltered(poly), poly
    assert {poly[-1] for poly in fixed} == {1, -1, 10**9, p, 31_601 * 31_607, 735_134_400, -735_134_400}


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


# The scalar kernels the certificate ran on before its products were
# packed, kept as the oracle for the packed ones: a schoolbook product, a
# long-division remainder, x^e by square-and-multiply, and the Frobenius
# step entry by entry.


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


def _schoolbook_xpow(e, f, q):
    """x^e mod f, left to right: square, and multiply by x as a shift."""
    result = [1]
    for bit in bin(e)[2:]:
        result = _schoolbook_mulmod(result, result, f, q)
        if bit == "1":
            result = _schoolbook_rem([0] + result, f, q)
    return result


def _factor_degrees_scalar(f, q):
    """_factor_degrees_mod_q on the scalar kernels, with the gcd degrees
    from this file's own Euclid."""
    d = len(f) - 1
    if _pq_gcd_degree(f, [i * c % q for i, c in enumerate(f)][1:], q) > 0:
        return None
    xq = _schoolbook_xpow(q, f, q)
    row = [1]
    rows = []
    for _ in range(d):
        rows.append(row + [0] * (d - len(row)))
        row = _schoolbook_mulmod(row, xq, f, q)
    frobenius = list(zip(*rows))
    h = [0, 1]
    left = d
    degrees = []
    i = 0
    while 2 * (i + 1) <= left:
        i += 1
        h = [sum(x * y for x, y in zip(h, col)) % q for col in frobenius]
        h_minus_x = list(h)
        h_minus_x[1] = (h_minus_x[1] - 1) % q
        found = _pq_gcd_degree(f, h_minus_x, q) - sum(j for j in degrees if i % j == 0)
        degrees += [i] * (found // i)
        left -= found
    if left:
        degrees.append(left)
    return tuple(degrees)


def _trimmed(a):
    while a and a[-1] == 0:
        a.pop()
    return a


@pytest.mark.parametrize("q", [2, 331, 2**61 - 1])
def test_mod_q_kernels_against_the_schoolbook_oracle(q):
    rng = random.Random(q)
    for _ in range(80):
        f = [rng.randrange(q) for _ in range(rng.randint(1, 70))] + [1]
        d = len(f) - 1
        nb, rem = _reducer(f, q)
        a, b = ([rng.randrange(q) for _ in range(rng.randint(1, d))] for _ in range(2))
        assert _unpack(_pack(a, nb), nb, len(a) + 2) == a + [0, 0]
        assert _trimmed(rem(_pack(a, nb) * _pack(b, nb))) == _schoolbook_mulmod(a, b, f, q), (a, b, f)
        # any 2d windows below the stated bound, as a product hands them over
        a_wide = [rng.randint(0, d * (q - 1) ** 2 + q) for _ in range(rng.randint(1, 2 * d))]
        r = rem(_pack(a_wide, nb))
        assert len(r) == d
        assert _trimmed(r) == _schoolbook_rem(a_wide, f, q), (a_wide, f)
        assert _trimmed(r) == _trimmed([c % q for c in _pq_divmod(a_wide, f, q)[1]]), (a_wide, f)


@pytest.mark.parametrize("q", [2, 3, 331, 65537, 2**61 - 1])
def test_windows_reach_their_bound_when_every_coefficient_is_q_minus_1(q):
    for d in (1, 2, 7, 40):
        full = [q - 1] * d
        bound = d * (q - 1) ** 2 + q
        widest = 0
        # f = 1 + x + ... + x^d, whose first table row x^d mod f is q - 1
        # in every window, and f = x^d - 1, whose rows are the units x^(j-d)
        for f in ([1] * (d + 1), [q - 1] + [0] * (d - 1) + [1]):
            nb, rem = _reducer(f, q)
            assert bound < 256**nb
            # rem of the unit x^j reads back table row j
            rows = [rem(_pack([0] * j + [1], nb)) for j in range(d, 2 * d)]
            assert [_trimmed(list(r)) for r in rows] == [
                _schoolbook_rem([0] * j + [1], f, q) for j in range(d, 2 * d)
            ], (f, q)
            # a product of two all-(q - 1) lists peaks at d (q - 1)^2
            product = _pack(full, nb) * _pack(full, nb)
            assert max(_unpack(product, nb, 2 * d)) == d * (q - 1) ** 2
            assert _trimmed(rem(product)) == _schoolbook_mulmod(full, full, f, q), (f, q)
            # 2d windows at that peak, and at the largest input rem takes
            for top in ([d * (q - 1) ** 2] * (2 * d), [bound] * (2 * d)):
                assert _trimmed(rem(_pack(top, nb))) == _schoolbook_rem(top, f, q), (f, q)
            # the widest window rem sums: q - 1 in the low half plus q - 1
            # times every row there
            widest = max(widest, max((q - 1) * (1 + sum(col)) for col in zip(*rows)))
            if q < 2**61:
                assert _factor_degrees_mod_q(f, q) == _factor_degrees_scalar(f, q), (f, q)
        assert widest < bound
        if d == 1:
            # x = q - 1 mod x + 1, so the one row meets the bound
            assert widest == bound - 1


def test_window_widths_follow_their_bound():
    assert [_window(b) for b in (1, 255, 256, 2**16, 2**32 - 1, 2**32, 2**64 - 1)] == [1, 1, 2, 4, 4, 8, 8]
    # beyond the widest cast, whole bytes
    assert _window(2**64) == 9 and _window(2**127) == 16 and _window(2**128) == 17
    for nb in (1, 2, 4, 8, 9, 16):
        top = 256**nb - 1
        assert _unpack(_pack([top, 0, 1, top], nb), nb, 4) == [top, 0, 1, top]
        assert _unpack(_pack([top, 5], nb) << 8 * nb, nb, 2) == [0, top]
    # the k = 340 certificate (d = 28) starts at q = 347, where
    # 28 * 346^2 + 347 fits 4 bytes
    assert dim_cusp(340) == 28 and next(iter(primes_above(340))) == 347
    assert _reducer([1] * 29, 347)[0] == 4


def test_packed_certificate_equals_the_scalar_route_on_2800_polynomials():
    rng = random.Random(17)
    primes = (2, 3, 5, 7, 11, 331, 2**61 - 1)
    shapes = {q: set() for q in primes}
    for i in range(2800):
        q = primes[i % len(primes)]
        if i % 5 == 0:
            # a forced square factor g^2, so never squarefree mod q
            d = rng.randint(2, 16)
            e = rng.randint(1, d // 2)
            g = [rng.randrange(q) for _ in range(e)] + [1]
            f = _pq_mul(_pq_mul(g, g, q), [rng.randrange(q) for _ in range(d - 2 * e)] + [1], q)
        else:
            f = [rng.randrange(q) for _ in range(rng.randint(1, 16))] + [1]
        got = _factor_degrees_mod_q(f, q)
        assert got == _factor_degrees_scalar(f, q), (f, q)
        if i % 5 == 0:
            assert got is None, (f, q)
        shapes[q].add(got if got is None else len(got) > 1)
    # squarefree reductions, irreducible and split, and repeated factors at every q
    assert all(found == {None, True, False} for found in shapes.values()), shapes


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


# sha256 over (k, coeffs, kind, witness_prime, primes_tried) for every even
# k <= 300 with a nonempty cusp space and the maeda benchmark's 320 and 340,
# taken from the scalar Gauss-Jordan and certificate, with 2^61 - 1 the
# first lifting prime
VERDICT_DIGEST = "b9ff7d7f4fb3882b356587d663a093d410052e275fdd5756e2b2c3bf6a14cba8"


def test_charpolys_and_verdicts_are_pinned():
    digest = hashlib.sha256()
    for k in [*range(2, 301, 2), 320, 340]:
        poly = charpoly_t2(k)
        if poly.degree == 0:
            continue
        v = check_irreducible(poly)
        digest.update(repr((k, poly.coeffs, v.kind, v.witness_prime, v.primes_tried)).encode())
    assert digest.hexdigest() == VERDICT_DIGEST


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
