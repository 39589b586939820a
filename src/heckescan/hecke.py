"""The T2 Hecke action on the weight-k cusp space.

Everything is exact integer arithmetic on the echelon basis, whose
columns come from the one back-substitution of modforms._echelon_columns:
the trace and the full matrix of a_j(T2 f) = a_{2j}(f) + 2^(k-1) a_{j/2}(f),
its characteristic polynomial (a Krylov system solved by p-adic
lifting), an irreducibility certificate from factor-degree sets mod
primes, eigenform coefficients for the one-dimensional spaces, and the
search for the first Fourier coefficient separating two coefficient
sequences.
"""

from __future__ import annotations

import decimal
import math
import sys
from array import array
from dataclasses import dataclass
from operator import mul

from .modforms import _echelon_columns, _j_chain, dim_cusp, miller_basis
from .primes import primes_above


def trace_t2(k):
    """(dim, trace) of T2 on the weight-k cusp space; (0, 0) for an empty
    space.

    On the echelon basis the diagonal entry of T2 at f_j is a_(2j)(f_j):
    the 2^(k-1) a_(j/2)(f_j) term is 0, and so is a_(2j)(f_j) for 2j <= d.
    The trace is therefore the sum of a_(2j)(f_j) over j > d/2, the last
    entry of each column _echelon_columns returns at the even positions in
    (d, 2d].  Only the upper half of the basis is read: column 2j stops at
    row j, and row i = q^i * g_(d-i) is read through q^(2i), so the chain
    runs only to g_(ceil(d/2)-1), g_m at precision d - m.
    """
    d = dim_cusp(k)
    if d == 0:
        return (0, 0)
    low = d // 2 + 1
    chain = _j_chain(k, d, range(d, low - 1, -1))
    cols = _echelon_columns(chain, d, range(2 * low, 2 * d + 1, 2))
    return (d, sum(col[-1] for col in cols))


@dataclass(frozen=True)
class T2Matrix:
    """Matrix of T2 in the echelon basis: entries[j - 1][i - 1] is
    a_j(T2 f_i) = a_(2j)(f_i) + 2^(k-1) a_(j/2)(f_i) (the second term only
    for even j), so column i - 1 holds the coordinates of T2 f_i."""

    weight: int
    dim: int
    entries: tuple[tuple[int, ...], ...]

    @property
    def trace(self):
        return sum(self.entries[i][i] for i in range(self.dim))


def t2_matrix(k):
    """T2 in the echelon basis.  Row j reads a_(2j) from the unit head
    for 2j <= d and from echelon column 2j above it; a_(j/2)(f_i) is 1 at
    i = j/2 and 0 elsewhere, so 2^(k-1) lands on that one entry."""
    d = dim_cusp(k)
    if d == 0:
        return T2Matrix(k, 0, ())
    low = d // 2 + 1
    cols = _echelon_columns(_j_chain(k, d, [2 * d - 1] * d), d, range(2 * low, 2 * d + 1, 2))
    rows = [[int(i == 2 * j) for i in range(1, d + 1)] for j in range(1, low)]
    rows += [col[::-1] for col in cols]
    for j in range(2, d + 1, 2):
        rows[j - 1][j // 2 - 1] += 1 << (k - 1)
    return T2Matrix(k, d, tuple(map(tuple, rows)))


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
# primality test, largest first, so each Dixon digit carries the most bits.
# A Krylov matrix singular modulo one is tried at the next.
_LIFT_PRIMES = (2**127 - 1, 2**107 - 1, 2**89 - 1, 2**61 - 1)


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
    # each digit K^-1 r mod p is sum_j (r_j mod p) * column j, packed: the
    # windows sum d products of residues, below d (p - 1)^2
    nb = _window(d * (p - 1) ** 2)
    inverse_cols = [_pack(col, nb) for col in zip(*inverse)]
    digits = []
    reach = 1  # p^len(digits): the solution must be found while reach <= 2 * bound
    half = p // 2
    while any(r):
        if reach > 2 * bound:
            raise ArithmeticError(
                f"p-adic lifting exceeded the coefficient bound after {len(digits)} digits"
            )
        x = _unpack(sum(v % p * col for v, col in zip(r, inverse_cols)), nb, d)
        x = [v - p if v > half else v for v in (v % p for v in x)]
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
    elimination, as a list of rows; None when m is singular mod p.

    Each row of [m | I] is one packed int, window 0 holding the column
    being cleared: a cleared column is shifted off every row, so after n
    steps the rows hold the inverse.  Clearing a column from a row adds
    (p - f) times the pivot row, f the row's entry there reduced mod p,
    and the pivot row was reduced when it became the pivot, so each
    addition raises a window by at most (p - 1)^2.  A row takes at most
    n additions before it is reduced, as the pivot or at the end, so no
    window exceeds p + n (p - 1)^2.
    """
    n = len(m)
    nb = _window(p + n * (p - 1) ** 2)
    w = 8 * nb
    mask = (1 << w) - 1
    rows = [_pack([v % p for v in row] + [int(i == j) for j in range(n)], nb) for i, row in enumerate(m)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if (rows[i] & mask) % p), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        prow = [v % p for v in _unpack(rows[col], nb, 2 * n - col)]
        inv = pow(prow[0], -1, p)
        top = _pack([v * inv % p for v in prow], nb)
        for i, row in enumerate(rows):
            f = (row & mask) % p
            if f and i != col:
                row += (p - f) * top
            rows[i] = row >> w
        rows[col] = top >> w
    return [[v % p for v in _unpack(row, nb, n)] for row in rows]


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


# For every candidate root r in -100..100, r, r - 1 and r + 1 lie in
# -101..101, so they divide this: the residues of f(0), f(1) and f(-1)
# modulo it, taken once, answer all their divisibility tests.
_LCM_TO_101 = math.lcm(*range(1, 102))


def _integer_roots(coeffs):
    """Search small integer roots; on success return the factor degrees
    (one per root found, plus the degree of the cofactor).

    An integer root r of f divides f(0), and r - s divides f(s) - f(r) =
    f(s) for every integer s; so r - 1 divides f(1) and r + 1 divides
    f(-1).  Only candidates passing these tests are evaluated exactly.
    """
    candidates = set(range(-100, 101))
    a0 = coeffs[-1]
    if 0 < abs(a0) <= 10**9:
        # full divisor set of the constant term is affordable here
        m = abs(a0)
        f = 1
        while f * f <= m:
            if m % f == 0:
                candidates.update((f, -f, m // f, -(m // f)))
            f += 1
    work = list(coeffs)
    degrees = []
    f0, f1, fm1 = (_eval_int(work, s) % _LCM_TO_101 for s in (0, 1, -1))
    for r in sorted(candidates, key=abs):
        if abs(r) <= 100:
            if (r and f0 % r) or (r != 1 and f1 % (1 - r)) or (r != -1 and fm1 % (-1 - r)):
                continue
        elif work[-1] % r:
            continue
        while len(work) > 1 and _eval_int(work, r) == 0:
            work = _deflate(work, r)
            degrees.append(1)
            f0, f1, fm1 = (_eval_int(work, s) % _LCM_TO_101 for s in (0, 1, -1))
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
# leading terms ([] is the zero polynomial); moduli f are monic.  The
# products run packed: a list of residues is one Python int of
# fixed-width byte windows (Kronecker substitution), so a product, a
# matrix-vector product or a row operation is one big-integer operation,
# and the windows are reduced mod q once, on unpacking (Dumas, Fousse and
# Salvy, J. Symb. Comput. 46, 2011).  Each window width comes from a
# bound on every sum its windows accumulate, stated where it is chosen.

# Window widths memoryview.cast reads in one step, by their byte counts:
# native unsigned formats, on a little-endian host only.
_CAST = {array(c).itemsize: c for c in "BHIQ"} if sys.byteorder == "little" else {}


def _window(bound):
    """Bytes per window holding every integer 0..bound: the whole bytes
    it needs, rounded up to a width memoryview.cast reads when one fits."""
    need = (bound.bit_length() + 7) // 8
    return min((s for s in _CAST if s >= need), default=need)


def _pack(cs, nb):
    """The nonnegative integers cs, each below 256^nb, as one int with
    cs[i] in window i (bytes i*nb .. (i+1)*nb - 1, little-endian)."""
    code = _CAST.get(nb)
    if code:
        return int.from_bytes(array(code, cs), "little")
    return int.from_bytes(b"".join([c.to_bytes(nb, "little") for c in cs]), "little")


def _unpack(x, nb, n):
    """Windows 0..n-1 of the nonnegative int x, as a list."""
    data = x.to_bytes(max(n * nb, (x.bit_length() + 7) // 8), "little")[: n * nb]
    code = _CAST.get(nb)
    if code:
        return memoryview(data).cast(code).tolist()
    from_bytes = int.from_bytes
    return [from_bytes(data[i : i + nb], "little") for i in range(0, n * nb, nb)]


def _reducer(f, q):
    """(nb, rem) for the monic f of degree d >= 1 mod the prime q: rem
    takes a packed polynomial a of at most 2d windows of nb bytes, each at
    most d (q - 1)^2 + q, to its remainder mod f, reduced mod q, as a list
    of d residues.

    The table holds the rows x^j mod f for j = d .. 2d - 1, built once:
    x^d mod f is -f less its top term, and each row after is x times the
    row before, less its top coefficient times f.  rem reduces the 2d
    windows of a mod q and adds sum_j a_j (x^j mod f) to its low half, one
    packed matrix-vector product, then reduces again.  A window of that
    sum is a residue plus d products of two residues, so nb holds
    d (q - 1)^2 + q, which also bounds every product the certificate
    hands over: a product of two lists of at most d residues sums at most
    d terms below (q - 1)^2 per window.
    """
    d = len(f) - 1
    nb = _window(d * (q - 1) ** 2 + q)
    row = [-c % q for c in f[:d]]
    table = []
    for _ in range(d):
        table.append(_pack(row, nb))
        top = row[-1]
        row = [-top * f[0] % q] + [(c - top * fc) % q for c, fc in zip(row, f[1:d])]

    def rem(a):
        cs = [c % q for c in _unpack(a, nb, 2 * d)]
        return [c % q for c in _unpack(sum(map(mul, cs[d:], table), _pack(cs[:d], nb)), nb, d)]

    return nb, rem


def _factor_degrees_mod_q(f, q):
    """Degrees of the irreducible factors of the monic f mod q, ascending,
    by distinct-degree factorization; None when f is not squarefree mod q.

    x^q mod f comes from packed squarings (a multiplication by x is a
    shift by one window) and the Frobenius rows x^(q*j) mod f from one
    packed product with x^q each, all reduced by _reducer's table of
    x^j mod f, so every step is a packed product.  Step i takes
    h = x^(q^i) mod f to x^(q^(i+1)) = sum_j h_j x^(q*j) by one packed
    matrix-vector product with those rows.  As f is squarefree,
    gcd(h - x, f) is the product of its factors of degree dividing i:
    deg gcd, less the degrees found so far that divide i, is i times the
    number of degree-i factors, and no factor is divided out.
    """
    d = len(f) - 1
    if len(_pm_gcd(f, [i * c % q for i, c in enumerate(f)][1:], q)) > 1:
        return None
    nb, rem = _reducer(f, q)
    w = 8 * nb
    xq = [1]
    for bit in bin(q)[2:]:
        x = _pack(xq, nb)
        xq = rem(x * x << w if bit == "1" else x * x)
    xq = _pack(xq, nb)
    rows = [1]  # x^(q*j) mod f, packed, from x^0
    for _ in range(d - 1):
        rows.append(_pack(rem(rows[-1] * xq), nb))
    h = [0, 1]
    left = d
    degrees = []
    i = 0
    while 2 * (i + 1) <= left:
        i += 1
        h = [c % q for c in _unpack(sum(map(mul, h, rows)), nb, d)]
        h_minus_x = list(h)
        h_minus_x[1] = (h_minus_x[1] - 1) % q
        found = len(_pm_gcd(f, h_minus_x, q)) - 1 - sum(j for j in degrees if i % j == 0)
        degrees += [i] * (found // i)
        left -= found
    if left:
        degrees.append(left)
    return tuple(degrees)


def _pm_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pm_gcd(a, b, q):
    """A gcd of a and b mod q by Euclid's algorithm with schoolbook
    division; it is not made monic, as callers read only its degree.  The
    divisor changes at every step, so a table of x^j mod the divisor, as
    _reducer builds, would serve one remainder only."""
    a = _pm_trim(list(a))
    b = _pm_trim(list(b))
    while b:
        # reduce a by b, each quotient term scaled by b's leading inverse
        inv = pow(b[-1], -1, q)
        db = len(b) - 1
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i] * inv % q
            if c:
                off = i - db
                for j in range(db):
                    a[off + j] -= c * b[j]
        a, b = b, _pm_trim([c % q for c in a[:db]])
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
