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
from operator import mul
from typing import NamedTuple

from .modforms import _echelon_columns, _j_chain, dim_cusp, miller_basis
from .modp import _dixon_solve, _factor_degrees_mod_q
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


class T2Matrix(NamedTuple):
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


class CharPoly(NamedTuple):
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


def charpoly_t2(k, matrix=None):
    """Characteristic polynomial of T2 on the weight-k cusp space (of the
    given matrix, when one is supplied).

    The Krylov matrix K = [v, Av, ..., A^(d-1) v] of v = e_1 and b = A^d v
    give the system K c = b, solved over the integers by modp._dixon_solve,
    which also makes K invertible over Q; so x^d - sum c_i x^i is the
    degree-d minimal polynomial of v: the characteristic polynomial, by
    Cayley-Hamilton.  The lift is capped by the bound C(d, i) * ||A||^(d-i)
    on |c_i| (||A|| the largest absolute row sum), through its sum
    (||A|| + 1)^d.  K singular modulo every lifting prime (v not cyclic,
    for one) raises ArithmeticError, as the solver's own failures do.
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
    c = _dixon_solve(list(zip(*cols[:d])), cols[d], (max(sum(map(abs, row)) for row in rows) + 1) ** d)
    if c is None:
        raise ArithmeticError("Krylov matrix of e_1 is singular modulo every lifting prime")
    return CharPoly(k, (1,) + tuple(-ci for ci in reversed(c)))


class IrreducibilityVerdict(NamedTuple):
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
        # full divisor set of the constant term, from its factorization by
        # trial division up to the square root of the cofactor left
        m = abs(a0)
        divisors = [1]
        p = 2
        while p * p <= m:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                divisors = [x * p**i for x in divisors for i in range(e + 1)]
            p += 1 if p == 2 else 2
        if m > 1:
            divisors += [x * m for x in divisors]
        candidates.update(divisors, [-x for x in divisors])
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
