"""The Artin-Hasse coefficients over exact rationals, then reduced mod p^N.

AH(x) = exp(sum x^(p^n)/p^n) is formed with ``Fraction`` coefficients by
the O(D^2) exponential recurrence, and a coefficient is reduced mod p^N
only after its denominator is seen to be prime to p.  This is the route
``series.artin_hasse_ints`` replaced with an integer recurrence; the tests
compare the two coefficient by coefficient.
"""

import functools
from fractions import Fraction

from wittlab.errors import InvalidParameter, NonIntegralResult


def exp_fractions(f, degree):
    """exp of a rational series with f(0) = 0, to the given degree."""
    if f and f[0]:
        raise InvalidParameter(f"exp needs f(0) = 0, have {f[0]}")
    g = [Fraction(1)] + [Fraction(0)] * degree
    fp = [k * (f[k] if k < len(f) else 0) for k in range(degree + 1)]
    for k in range(1, degree + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            if j < len(fp) and fp[j]:
                acc += fp[j] * g[k - j]
        g[k] = acc / k
    return g


@functools.lru_cache(maxsize=None)
def artin_hasse_fractions(p, degree):
    """AH(x) = exp(sum x^(p^n)/p^n) as exact rationals."""
    f = [Fraction(0)] * (degree + 1)
    n = 0
    while p**n <= degree:
        f[p**n] = Fraction(1, p**n)
        n += 1
    return tuple(exp_fractions(f, degree))


def reduce_fraction(c, p, pn):
    if c.denominator % p == 0:
        raise NonIntegralResult(f"coefficient {c} is not {p}-integral")
    return c.numerator * pow(c.denominator, -1, pn) % pn


def artin_hasse_reduced(p, degree, nprec):
    """The rational coefficients of AH reduced mod p^nprec."""
    pn = p**nprec
    return tuple(reduce_fraction(c, p, pn) for c in artin_hasse_fractions(p, degree))
