"""Exact truncated power series over big integers.

A series of precision P stores the coefficients of q^0 .. q^P inclusive
and nothing beyond.  Every operation is exact; binary operations truncate
to the smaller operand precision, so callers that need N coefficients must
build their inputs at precision >= N to begin with.

Multiplication is the plain Cauchy product by the schoolbook loop, and
has no other path.  Most products the package makes have fewer than 32
terms, or coefficients that grow like exp(4 pi sqrt(n)) along the
j-chain; Kronecker substitution, which packs every coefficient into a
window sized for the largest, loses on both (README.md, "Performance").
"""

from __future__ import annotations

from itertools import islice


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
    return IntSeries(_convolve_schoolbook(f.coeffs, g.coeffs, n_out))


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


def _convolve_schoolbook(a, b, n_out):
    """First n_out coefficients of the integer convolution a*b."""
    out = [0] * n_out
    for i, ai in enumerate(islice(a, n_out)):
        if ai:
            # islice, not b[: n_out - i]: a list copy per row adds about
            # 0.25 MiB to the peak RSS of a scan's workers
            for j, bj in enumerate(islice(b, n_out - i), i):
                out[j] += ai * bj
    return out
