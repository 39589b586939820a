"""Exact truncated power series over big integers.

A series of precision P stores the coefficients of q^0 .. q^P inclusive
and nothing beyond.  Every operation is exact; binary operations truncate
to the smaller operand precision, so callers that need N coefficients must
build their inputs at precision >= N to begin with.

Multiplication is the plain Cauchy product.  For long operands with
narrow coefficients the same product is computed by Kronecker
substitution (coefficients packed into a single big integer, one big
multiply, then unpacked); the two paths are bit-for-bit identical and the
test suite checks them against each other.
"""

from __future__ import annotations

from itertools import islice

try:
    from gmpy2 import mpz as _mpz
except ImportError:  # pragma: no cover - exercised only without gmpy2
    _mpz = None

class IntSeries:
    """Truncated q-expansion with exact integer coefficients.

    coeffs[n] is the coefficient of q^n; len(coeffs) == prec + 1.
    Instances are immutable and safe to share between threads.
    """

    __slots__ = ("coeffs", "prec")

    def __init__(self, coeffs, prec=None):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficient expected, got {type(c).__name__}")
        if prec is not None:
            if prec < 0:
                raise ValueError("precision must be nonnegative")
            if len(cs) < prec + 1:
                cs.extend([0] * (prec + 1 - len(cs)))
            else:
                del cs[prec + 1 :]
        elif not cs:
            raise ValueError("a series needs at least its q^0 coefficient")
        self.coeffs = tuple(cs)
        self.prec = len(cs) - 1

    def __getitem__(self, n):
        if not 0 <= n <= self.prec:
            raise IndexError(f"coefficient of q^{n} not stored (precision {self.prec})")
        return self.coeffs[n]

    def __eq__(self, other):
        if isinstance(other, IntSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        shown = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.prec >= 8 else ""
        return f"IntSeries([{shown}{tail}], prec={self.prec})"


def series_mul(f, g):
    """Cauchy product truncated to min(prec(f), prec(g))."""
    if not (isinstance(f, IntSeries) and isinstance(g, IntSeries)):
        raise TypeError("series_mul needs two IntSeries")
    n_out = min(f.prec, g.prec) + 1
    return IntSeries(_int_convolve(f.coeffs, g.coeffs, n_out))


def series_pow(f, e):
    """f**e at the precision of f, by repeated squaring; f**0 == 1."""
    if not isinstance(e, int) or e < 0:
        raise ValueError("exponent must be a nonnegative integer")
    if not isinstance(f, IntSeries):
        raise TypeError("IntSeries operand expected")
    result = IntSeries([1], prec=f.prec)
    base = f
    while e:
        if e & 1:
            result = series_mul(result, base)
        e >>= 1
        if e:
            base = series_mul(base, base)
    return result


def _int_convolve(a, b, n_out):
    """First n_out coefficients of the integer convolution a*b.

    Kronecker substitution packs every coefficient into a window sized
    for the largest, so it wins on many terms of similar size and loses
    where the largest coefficient is far wider than the typical one, as
    along the j-chain of modforms, whose coefficients grow like
    exp(4 pi sqrt(n)).  Measured without gmpy2 on the products of the
    traces to k = 1000 and of the level-1 series, Kronecker runs at most
    1.3x as fast as the schoolbook loop below 32 terms, at any width,
    and loses once the largest coefficients of the two operands together
    take more than 4 bits per term; see README.md for the table.
    """
    a = a[:n_out]
    b = b[:n_out]
    terms = min(len(a), len(b))
    if terms < 32 or _bits(a) + _bits(b) > 4 * terms:
        return _convolve_schoolbook(a, b, n_out)
    return _convolve_kronecker(a, b, n_out)


def _bits(cs):
    return max(map(abs, cs)).bit_length()


def _convolve_schoolbook(a, b, n_out):
    out = [0] * n_out
    for i, ai in enumerate(a):
        if ai:
            # islice, not b[: n_out - i]: a list copy per row adds about
            # 0.25 MiB to the peak RSS of a scan's workers
            for j, bj in enumerate(islice(b, n_out - i), i):
                out[j] += ai * bj
    return out


def _convolve_kronecker(a, b, n_out):
    # Evaluate both polynomials at 2^w with w wide enough that every
    # coefficient of the product fits in a signed w-bit window, multiply
    # once, then slice the windows back out.
    amax = max(abs(c) for c in a)
    bmax = max(abs(c) for c in b)
    if amax == 0 or bmax == 0:
        return [0] * n_out
    w = (amax * bmax * min(len(a), len(b))).bit_length() + 2
    w = (w + 7) & ~7
    nbytes = w // 8
    x = _pack_signed(a, nbytes)
    y = _pack_signed(b, nbytes)
    if _mpz is not None:
        prod = int(_mpz(x) * _mpz(y))
    else:
        prod = x * y
    # Shift every window by 2^(w-1) so the signed digits become plain
    # byte-aligned fields, then extract.  Masking keeps only the windows
    # we need; higher ones cannot disturb lower ones because the offset
    # leaves no carries.
    half = 1 << (w - 1)
    offset = int.from_bytes((b"\x00" * (nbytes - 1) + b"\x80") * n_out, "little")
    mask = (1 << (w * n_out)) - 1
    data = ((prod + offset) & mask).to_bytes(n_out * nbytes, "little")
    return [
        int.from_bytes(data[i * nbytes : (i + 1) * nbytes], "little") - half
        for i in range(n_out)
    ]


def _pack_signed(cs, nbytes):
    pos = b"".join((c if c > 0 else 0).to_bytes(nbytes, "little") for c in cs)
    neg = b"".join((-c if c < 0 else 0).to_bytes(nbytes, "little") for c in cs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")
