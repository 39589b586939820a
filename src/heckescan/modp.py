"""Packed arithmetic modulo a prime.

A list of residues is one Python int of fixed-width byte windows
(Kronecker substitution), so a product, a matrix-vector product or a row
operation is one big-integer operation, and the windows are reduced mod
the prime once, on unpacking (Dumas, Fousse and Salvy, J. Symb. Comput.
46, 2011).  Each window width comes from a bound on every sum its windows
accumulate, stated where it is chosen.  On this format run Gauss-Jordan
inversion mod p, Dixon's p-adic solver of integer linear systems, the
remainder mod a monic f by a table of x^j mod f, and distinct-degree
factorization mod q.  Polynomials mod q are ascending coefficient lists,
trimmed of zero leading terms ([] is the zero polynomial); moduli f are
monic.
"""

import sys
from array import array
from operator import mul

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


# Moduli for the p-adic lifting: Mersenne primes, so none needs a
# primality test, largest first, so each Dixon digit carries the most bits.
# A matrix singular modulo one is tried at the next.
_LIFT_PRIMES = (2**127 - 1, 2**107 - 1, 2**89 - 1, 2**61 - 1)


def _dixon_solve(m, b, bound):
    """The integer solution c of m c = b, m a square integer matrix given
    by its rows, when every |c_i| <= bound; None when m is singular modulo
    every lifting prime.

    Dixon's p-adic lifting modulo the first lifting prime p at which m is
    invertible: balanced digits x_i = m^-1 r_i mod p, with r_0 = b and
    r_(i+1) = (r_i - m x_i) / p checked exact, until r is zero, and
    c = sum x_i p^i.  Then m c = b holds over the integers, and m
    invertible mod p makes it invertible over Q, so c is the only
    solution.  A remainder in a division or a lift past the bound raises
    ArithmeticError, never a guess.
    """
    d = len(m)
    for p in _LIFT_PRIMES:
        inverse = _inverse_mod_p(m, p)
        if inverse is not None:
            break
    else:
        return None
    # each digit m^-1 r mod p is sum_j (r_j mod p) * column j, packed: the
    # windows sum d products of residues, below d (p - 1)^2
    nb = _window(d * (p - 1) ** 2)
    inverse_cols = [_pack(col, nb) for col in zip(*inverse)]
    digits = []
    reach = 1  # p^len(digits): the solution must be found while reach <= 2 * bound
    half = p // 2
    r = b
    while any(r):
        if reach > 2 * bound:
            raise ArithmeticError(
                f"p-adic lifting exceeded the coefficient bound after {len(digits)} digits"
            )
        x = _unpack(sum(v % p * col for v, col in zip(r, inverse_cols)), nb, d)
        x = [v - p if v > half else v for v in (v % p for v in x)]
        nxt = []
        for v, row in zip(r, m):
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
    return c


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
