"""The T2 Hecke action on the weight-k cusp space.

Everything is exact integer arithmetic on the echelon basis: the
coefficient formula a_{2j}(f) + 2^(k-1) a_{j/2}(f), the trace, the full
matrix, its characteristic polynomial (a Krylov system solved by p-adic
lifting), an irreducibility certificate from factor-degree sets mod
primes, eigenform coefficients for the one-dimensional spaces, and the
search for the first Fourier coefficient separating two coefficient
sequences.
"""

from __future__ import annotations

import decimal
from dataclasses import dataclass
from operator import mul

from .modforms import _j_chain, dim_cusp, miller_basis
from .primes import primes_above
from .series import IntSeries, _int_convolve


def t2_coefficient(f, j, k):
    """Coefficient of q^j in T2 f for f of weight k:
    a_{2j}(f) + 2^(k-1) a_{j/2}(f), the second term only for even j.

    The series must carry at least 2j coefficients; running short is an
    error, never a silent zero.
    """
    if not isinstance(f, IntSeries):
        raise TypeError("IntSeries expected")
    if j < 1:
        raise ValueError("coefficient index must be positive")
    if f.prec < 2 * j:
        raise ValueError(f"need precision >= {2 * j} for the q^{j} coefficient of T2 f, have {f.prec}")
    value = f[2 * j]
    if j % 2 == 0:
        value += (1 << (k - 1)) * f[j // 2]
    return value


def trace_t2(k):
    """(dim, trace) of T2 on the weight-k cusp space; (0, 0) for an empty
    space.

    On the echelon basis the diagonal entry of T2 at f_j is a_(2j)(f_j):
    the 2^(k-1) a_(j/2)(f_j) term is 0, and so is a_(2j)(f_j) for 2j <= d.
    The trace is therefore the sum of a_(2j)(f_j) over j > d/2, and only
    the upper half of the basis is read, each row only at q^(2j) and at
    the positions above its diagonal.  Back-substitution subtracts
    r_i[m] * f_m for the raw coefficient r_i[m] of row i at every m in
    i+1..d, since the forms f_m below are already echelon, so
    a_n(f_i) = r_i[n] - sum_(m > i) r_i[m] a_n(f_m), needed only at even
    n in (d, 2d] and for i >= n/2.  Row i = q^i * g_(d-i) is read through
    q^(2i), so the chain runs only to g_(ceil(d/2)-1), g_m at precision
    d - m.
    """
    d = dim_cusp(k)
    if d == 0:
        return (0, 0)
    low = d // 2 + 1
    # cols[j - low] holds a_(2j)(f_i) for i = d, d-1, ... down to the last
    # row reduced
    cols = [[] for _ in range(low, d + 1)]
    trace = 0
    for m, g in enumerate(_j_chain(k, d, range(d, low - 1, -1))):
        i = d - m  # raw row i is q^i * g, so r_i[n] = g[n - i]
        above = g[m:0:-1]  # r_i[d], r_i[d-1], ..., r_i[i+1]
        for n, col in zip(range(2 * low - i, i + 1, 2), cols):
            col.append(g[n] - sum(map(mul, above, col)))
        trace += cols[i - low][-1]
    return (d, trace)


@dataclass(frozen=True)
class T2Matrix:
    """Matrix of T2 in the echelon basis: column i holds the coordinates
    of T2 f_(i+1), which on an echelon basis are plain coefficient reads."""

    weight: int
    dim: int
    entries: tuple[tuple[int, ...], ...]

    @property
    def trace(self):
        return sum(self.entries[i][i] for i in range(self.dim))


def t2_matrix(k):
    d = dim_cusp(k)
    if d == 0:
        return T2Matrix(k, 0, ())
    basis = miller_basis(k, 2 * d)
    rows = tuple(
        tuple(t2_coefficient(basis.form(i + 1), j + 1, k) for i in range(d))
        for j in range(d)
    )
    return T2Matrix(k, d, rows)


def _decimal(n):
    """The integer n in decimal at any length: str(n) stops at 4300 digits."""
    return str(decimal.Decimal(n))


@dataclass(frozen=True)
class CharPoly:
    """Monic integer characteristic polynomial, coefficients stored from
    the leading term down: coeffs[0] = 1, degree = len(coeffs) - 1."""

    weight: int
    coeffs: tuple[int, ...]

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __str__(self):
        if self.degree == 0:
            return "1"
        parts = []
        for i, c in enumerate(self.coeffs):
            e = self.degree - i
            if c == 0:
                continue
            if e == self.degree:
                term = f"x^{e}" if e > 1 else "x"
            else:
                mag = _decimal(abs(c))
                if e == 0:
                    term = mag
                elif e == 1:
                    term = f"{mag}*x" if mag != "1" else "x"
                else:
                    term = f"{mag}*x^{e}" if mag != "1" else f"x^{e}"
                term = ("- " if c < 0 else "+ ") + term
            parts.append(term)
        return " ".join(parts)


# Moduli for the p-adic lifting: Mersenne primes, so none needs a
# primality test.  A Krylov matrix singular modulo one is tried at the next.
_LIFT_PRIMES = (2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1)


def charpoly_t2(k, matrix=None):
    """Characteristic polynomial of T2 on the weight-k cusp space (of the
    given matrix, when one is supplied).

    The Krylov matrix K = [v, Av, ..., A^(d-1) v] of v = e_1 and b = A^d v
    give the system K c = b, solved by Dixon's p-adic lifting modulo a prime
    p at which K is invertible: balanced digits x_i = K^-1 r_i mod p, with
    r_0 = b and r_(i+1) = (r_i - K x_i) / p checked exact, until r is zero.
    Then K c = b holds over the integers, and K invertible mod p makes it
    invertible over Q, so x^d - sum c_i x^i is the degree-d minimal
    polynomial of v: the characteristic polynomial, by Cayley-Hamilton.
    The digits are capped by the bound C(d, i) * ||A||^(d-i) on |c_i|
    (||A|| the largest absolute row sum), through its sum (||A|| + 1)^d.
    K singular modulo every lifting prime (v not cyclic, for one), a
    remainder in a division or a lift past the cap raises ArithmeticError,
    never a guess.
    """
    if matrix is None:
        matrix = t2_matrix(k)
    d = matrix.dim
    if d == 0:
        return CharPoly(k, (1,))
    rows = matrix.entries
    cols = [[1] + [0] * (d - 1)]
    for _ in range(d):
        cols.append([sum(map(mul, row, cols[-1])) for row in rows])
    r = cols.pop()
    krylov = list(zip(*cols))
    for p in _LIFT_PRIMES:
        inverse = _inverse_mod_p(krylov, p)
        if inverse is not None:
            break
    else:
        raise ArithmeticError("Krylov matrix of e_1 is singular modulo every lifting prime")
    bound = (max(sum(map(abs, row)) for row in rows) + 1) ** d
    digits = []
    reach = 1  # p^len(digits): the solution must be found while reach <= 2 * bound
    half = p // 2
    while any(r):
        if reach > 2 * bound:
            raise ArithmeticError(
                f"p-adic lifting exceeded the coefficient bound after {len(digits)} digits"
            )
        r_mod = [v % p for v in r]
        x = [sum(map(mul, row, r_mod)) % p for row in inverse]
        x = [v - p if v > half else v for v in x]
        nxt = []
        for v, row in zip(r, krylov):
            q, rem = divmod(v - sum(map(mul, row, x)), p)
            if rem:
                raise ArithmeticError("p-adic lifting residual not divisible by the prime")
            nxt.append(q)
        r = nxt
        digits.append(x)
        reach *= p
    c = [0] * d
    for x in reversed(digits):
        c = [ci * p + xi for ci, xi in zip(c, x)]
    return CharPoly(k, (1,) + tuple(-ci for ci in reversed(c)))


def _inverse_mod_p(m, p):
    """Inverse of the square matrix m modulo the prime p by Gauss-Jordan
    elimination, as a list of rows; None when m is singular mod p."""
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


@dataclass(frozen=True)
class IrreducibilityVerdict:
    """Outcome of check_irreducible.

    kind is "irreducible" (with the witness prime that closed the degree-set
    certificate, or None for degree 1), "reducible" (with the degrees of a
    certified factorization over Q, factors not necessarily irreducible),
    or "inconclusive" (prime budget exhausted; no claim either way).
    """

    kind: str
    witness_prime: int | None = None
    factor_degrees: tuple[int, ...] | None = None
    primes_tried: int = 0

    @property
    def is_irreducible(self):
        return self.kind == "irreducible"


def check_irreducible(poly, prime_budget=None):
    """Certify irreducibility of a monic integer polynomial over Q.

    A factor of degree e over Q reduces, at any prime q where the
    polynomial stays squarefree, to a product of irreducible factors mod q
    whose degrees sum to e.  So e is a subset sum of the factor degrees
    mod q at every such q, and the polynomial is irreducible once no
    proper degree 1..deg-1 survives the intersection of those subset-sum
    sets (Musser's degree-set test; one irreducible reduction is the
    special case).  The primes only choose where to look: every degree set
    comes from an exact distinct-degree factorization mod q.

    For a CharPoly of weight k the primes start above k, where reductions
    are far more often squarefree and informative; a plain coefficient
    list starts at 2.  A prime whose reduction is not squarefree is
    skipped but still counts against the budget (default 25 * degree;
    below 1 it is an error, whatever the degree).
    witness_prime is the prime that closed the certificate (None for
    degree 1).  Reducibility is certified only through an exhibited
    rational root.  If no verdict is reached within the budget, the result
    is inconclusive -- never a false claim in either direction.
    """
    coeffs = _monic_int_coeffs(poly)
    d = len(coeffs) - 1
    if d == 0:
        raise ValueError("constant polynomial has no irreducibility verdict")
    if prime_budget is None:
        prime_budget = 25 * d
    if prime_budget < 1:
        raise ValueError("prime budget must be positive")
    if d == 1:
        return IrreducibilityVerdict("irreducible")
    degrees = _integer_roots(coeffs)
    if degrees:
        return IrreducibilityVerdict("reducible", factor_degrees=degrees)
    asc = coeffs[::-1]
    # bit e set: a factor of degree e over Q is not yet ruled out
    open_degrees = (1 << d) - 2
    tried = 0
    for q in primes_above(poly.weight if isinstance(poly, CharPoly) else 1):
        if tried >= prime_budget:
            break
        tried += 1
        pattern = _factor_degrees_mod_q([c % q for c in asc], q)
        if pattern is None:
            continue
        sums = 1
        for e in pattern:
            sums |= sums << e
        open_degrees &= sums
        if not open_degrees:
            return IrreducibilityVerdict("irreducible", witness_prime=q, primes_tried=tried)
    return IrreducibilityVerdict("inconclusive", primes_tried=tried)


def _monic_int_coeffs(poly):
    if isinstance(poly, CharPoly):
        cs = list(poly.coeffs)
    else:
        cs = [int(c) for c in poly]
    if not cs or cs[0] != 1:
        raise ValueError("monic integer polynomial expected (leading coefficient 1)")
    return cs


def _integer_roots(coeffs):
    """Search small integer roots; on success return the factor degrees
    (one per root found, plus the degree of the cofactor)."""
    candidates = set(range(-100, 101))
    a0 = coeffs[-1]
    if a0 == 0:
        candidates.add(0)
    elif abs(a0) <= 10**9:
        # full divisor set of the constant term is affordable here
        m = abs(a0)
        f = 1
        while f * f <= m:
            if m % f == 0:
                candidates.update((f, -f, m // f, -(m // f)))
            f += 1
    work = list(coeffs)
    degrees = []
    for r in sorted(candidates, key=abs):
        # an integer root divides the constant term (rational root theorem)
        while len(work) > 1 and not (r and work[-1] % r) and _eval_int(work, r) == 0:
            work = _deflate(work, r)
            degrees.append(1)
    if not degrees:
        return None
    if len(work) > 1:
        degrees.append(len(work) - 1)
    return tuple(sorted(degrees))


def _eval_int(coeffs, x):
    v = 0
    for c in coeffs:
        v = v * x + c
    return v


def _deflate(coeffs, r):
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(out[-1] * r + c)
    return out


# --- polynomials mod q ----------------------------------------------------
#
# Ascending coefficient lists over the integers mod q, trimmed of zero
# leading terms ([] is the zero polynomial); moduli f are monic.


def _factor_degrees_mod_q(f, q):
    """Degrees of the irreducible factors of the monic f mod q, ascending,
    by distinct-degree factorization; None when f is not squarefree mod q.

    Step i takes h = x^(q^i) mod f to x^(q^(i+1)) by one product with the
    Frobenius matrix (rows x^(q*j) mod f, built from a single x^q).  As f
    is squarefree, gcd(h - x, f) is the product of its factors of degree
    dividing i: deg gcd, less the degrees found so far that divide i, is
    i times the number of degree-i factors, and no factor is divided out.
    """
    d = len(f) - 1
    if len(_pm_gcd(_pm_trim([i * c % q for i, c in enumerate(f)][1:]), f, q)) > 1:
        return None
    xq = _pm_xpow(q, f, q)
    row = [1]
    rows = []
    for _ in range(d):
        rows.append(row + [0] * (d - len(row)))
        row = _pm_mulmod(row, xq, f, q)
    frobenius = list(zip(*rows))  # column t holds coefficient t of each row
    h = [0, 1]
    left = d
    degrees = []
    i = 0
    while 2 * (i + 1) <= left:
        i += 1
        h = [sum(map(mul, h, col)) % q for col in frobenius]
        h_minus_x = list(h)
        h_minus_x[1] = (h_minus_x[1] - 1) % q
        g = _pm_gcd(_pm_trim(h_minus_x), f, q)
        found = len(g) - 1 - sum(j for j in degrees if i % j == 0)
        degrees += [i] * (found // i)
        left -= found
    if left:
        degrees.append(left)
    return tuple(degrees)


def _pm_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_rem(a, f, q):
    """a mod the monic f, reduced mod q; a may hold unreduced integers."""
    a = list(a)
    df = len(f) - 1
    for i in range(len(a) - 1, df - 1, -1):
        c = a[i] % q
        if c:
            off = i - df
            for j in range(df):
                a[off + j] -= c * f[j]
    return _pm_trim([c % q for c in a[:df]])


def _pm_mulmod(a, b, f, q):
    """a * b mod f, reduced mod q, on the series layer's product."""
    return _pm_rem(_int_convolve(a, b, len(a) + len(b) - 1), f, q)


def _pm_xpow(e, f, q):
    """x^e mod f, left to right: square, and multiply by x as a shift."""
    result = [1]
    for bit in bin(e)[2:]:
        result = _pm_mulmod(result, result, f, q)
        if bit == "1":
            result = _pm_rem([0] + result, f, q)
    return result


def _pm_gcd(a, b, q):
    """Monic gcd of a and b mod q (b nonzero)."""
    a = _pm_trim(list(a))
    b = _pm_trim(list(b))
    while b:
        # make b monic, then reduce a by it
        inv = pow(b[-1], -1, q)
        b = [(c * inv) % q for c in b]
        a = _pm_rem(a, b, q)
        a, b = b, a
    return a


def eigenform_coeffs(k, n_max):
    """a_1..a_n_max of the unique normalized eigenform of weight k; only
    the one-dimensional spaces (k in {12, 16, 18, 20, 22, 26}) qualify."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if dim_cusp(k) != 1:
        raise ValueError(f"weight {k} cusp space has dimension {dim_cusp(k)}, not 1")
    basis = miller_basis(k, max(2, n_max))
    f = basis.form(1)
    return tuple(f[n] for n in range(1, n_max + 1))


def distinguish(seq_a, seq_b, n_max):
    """Smallest 1-based index n <= n_max where the two coefficient
    sequences differ, or None when no difference shows up in that range
    (which bounds the scan, it does not prove equality)."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if len(seq_a) < n_max or len(seq_b) < n_max:
        raise ValueError(f"both sequences must carry at least {n_max} coefficients")
    for n in range(n_max):
        if seq_a[n] != seq_b[n]:
            return n + 1
    return None
