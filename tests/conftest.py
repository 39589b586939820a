import math
from fractions import Fraction

import mpmath
import pytest

from heckescan import sieve


@pytest.fixture(scope="session")
def table64():
    return sieve(64)


@pytest.fixture(scope="session")
def table_10k():
    return sieve(10_000)


@pytest.fixture(scope="session")
def table_100k():
    return sieve(100_000)


@pytest.fixture(scope="session")
def dusart_tie_coeffs(table64):
    """Rationals within 1e-30 below and above the Dusart constant at which
    the left limit at x = 59 (theta(53) against 59) is an exact tie."""
    with mpmath.workprec(400):
        lag = 59 - mpmath.log(math.prod(p for p in table64.primes if p < 59))
        scaled = int(mpmath.floor(lag * mpmath.log(59) ** 2 / 59 * 10**30))
    return Fraction(scaled, 10**30), Fraction(scaled + 1, 10**30)


@pytest.fixture
def undecidable_enclosures(monkeypatch):
    """Widen every interval enclosure by [-1, 1], so that none ever
    excludes 0 or lies between two integers."""
    import heckescan.bounds as b

    certified = b._certified

    def widened(ctx, enclose, verdict):
        return certified(ctx, lambda c: enclose(c) + c.mpf([-1, 1]), verdict)

    monkeypatch.setattr(b, "_certified", widened)
