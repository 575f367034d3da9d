"""Small finite fields F_q = F_p[y]/(h) with a deterministic modulus.

The modulus h is the lexicographically least monic irreducible of degree s
(coefficient tuples (c_0, ..., c_{s-1}) compared left to right), so that the
unramified lifts used elsewhere reduce consistently.  Fields here are desk
scale; everything is exhaustive-friendly.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .errors import InvalidParameter, NotGaloisStable, NotUnit, RingMismatch, check_int


def convolve(a, b):
    """The exact product of two integer coefficient lists (index = degree).

    Schoolbook (von zur Gathen & Gerhard, *Modern Computer Algebra*, ch. 2);
    zero entries of either factor are skipped.
    """
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def reduction_rows(low, mod):
    """Rows x^(k+u) mod (f, mod) for u < k - 1, where f = x^k + low[k-1] x^(k-1)
    + ... + low[0] is monic of degree k = len(low): enough to fold every degree
    of a product of two polynomials of degree < k."""
    first = tuple(-c % mod for c in low)
    rows = [first] if len(low) > 1 else []
    for _ in range(len(low) - 2):
        prev = rows[-1]
        top = prev[-1]
        rows.append(tuple((x + top * f) % mod for x, f in zip((0,) + prev[:-1], first)))
    return tuple(rows)


def mul_mod(a, b, rows, mod):
    """a * b mod (f, mod) for coefficient lists a, b of length k = deg f,
    given f's ``reduction_rows``: convolve, fold the high degrees with the
    rows, then reduce mod ``mod``."""
    prod = convolve(a, b)
    k = len(a)
    for d, row in enumerate(rows, k):
        c = prod[d]
        if c:
            for j, r in enumerate(row):
                prod[j] += c * r
    return tuple([c % mod for c in prod[:k]])


def _is_irreducible(coeffs, p):
    """Crude irreducibility test for a monic poly given by (c_0..c_{s-1})."""
    s = len(coeffs)
    if s == 1:
        return True
    modulus = list(coeffs) + [1]
    # x^(p^k) mod h by repeated Frobenius; h irreducible iff x^(p^s) = x
    # and gcd-degree conditions hold; at this scale, trial division is fine.
    for d in range(1, s // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            if _poly_divides(div, modulus, p):
                return False
    return True


def _poly_divides(d, f, p):
    f = list(f)
    dd = len(d) - 1
    inv_lead = pow(d[-1], -1, p)
    for i in range(len(f) - 1, dd - 1, -1):
        c = f[i] * inv_lead % p
        if c:
            for j in range(dd + 1):
                f[i - dd + j] = (f[i - dd + j] - c * d[j]) % p
    return not any(f[:dd])


def is_prime(n):
    """Trial division up to the square root."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def check_prime(p):
    """The one rule for a prime parameter: ``check_int``, then primality."""
    check_int("p", p)
    if not is_prime(p):
        raise InvalidParameter(f"p = {p} is not prime")


def pow_ladder(x, n, mul=operator.mul):
    """x^n for n >= 1 by square-and-multiply from the low bit: n.bit_length() - 1
    squarings and one multiply per further set bit, none by one."""
    if n < 1:
        raise InvalidParameter(f"power ladder needs an exponent >= 1, have {n}")
    acc = None
    while True:
        if n & 1:
            acc = x if acc is None else mul(acc, x)
        n >>= 1
        if not n:
            return acc
        x = mul(x, x)


@functools.lru_cache(maxsize=None)
def min_poly_coeffs(p, s):
    """(c_0..c_{s-1}) of the lexicographically least monic irreducible."""
    if s == 1:
        return (0,)
    for tail in itertools.product(range(p), repeat=s):
        coeffs = tuple(tail)
        if coeffs[0] == 0:
            continue  # divisible by y
        if _is_irreducible(coeffs, p):
            return coeffs
    raise InvalidParameter(f"no monic irreducible of degree {s} mod {p}: is p prime?")


@functools.lru_cache(maxsize=None, typed=True)  # so 2.0 or True misses 2 or 1 and is refused
def finite_field(p, s):
    return Fq(p, s)


class FqElem:
    """An element of ``field`` on the power basis; the constructor reduces
    the s coordinates mod p and refuses any other number of them, or one
    that is not an integer (``check_int``'s rule, read only for a coordinate
    whose type is not ``int``)."""

    __slots__ = ("field", "co")

    def __init__(self, field, co):
        if len(co) != field.s:
            raise InvalidParameter(
                f"an element of F_{field.q} has {field.s} coordinates, not {len(co)}"
            )
        for c in co:
            if type(c) is not int:
                check_int("a coordinate", c)
        p = field.p
        self.field = field
        self.co = tuple([c % p for c in co])

    def _binary(self, other):
        if not isinstance(other, FqElem) or other.field is not self.field:
            raise RingMismatch(f"cannot combine an element of F_{self.field.q} with {other!r}")
        return other

    def __add__(self, other):
        other = self._binary(other)
        return FqElem(self.field, tuple(map(int.__add__, self.co, other.co)))

    def __sub__(self, other):
        other = self._binary(other)
        return FqElem(self.field, tuple(map(int.__sub__, self.co, other.co)))

    def __neg__(self):
        return FqElem(self.field, tuple(-a for a in self.co))

    def __mul__(self, other):
        other = self._binary(other)
        field = self.field
        return FqElem(field, mul_mod(self.co, other.co, field.rows, field.p))

    def __pow__(self, n):
        check_int("exponent", n)
        if n < 0:
            return self.inverse() ** (-n)
        return pow_ladder(self, n) if n else self.field.one()

    def __eq__(self, other):
        return isinstance(other, FqElem) and self.field is other.field and self.co == other.co

    def __hash__(self):
        return hash((id(self.field), self.co))

    def __bool__(self):
        return any(self.co)

    def __repr__(self):
        return f"Fq({self.field.p}^{self.field.s}):{list(self.co)}"

    def scale_int(self, c):
        check_int("scale", c)
        return FqElem(self.field, tuple(a * c for a in self.co))

    def from_int_like(self, c):
        return self.field.from_int(c)

    def inverse(self):
        if not self:
            raise NotUnit("zero is not invertible")
        return self ** (self.field.q - 2)

    def frobenius(self):
        """x -> x^p."""
        return self ** self.field.p

    def index(self):
        """Integer index sum c_j p^j; fixes the canonical enumeration order."""
        p = self.field.p
        return sum(c * p**j for j, c in enumerate(self.co))


class Fq:
    """The field with p^s elements."""

    def __init__(self, p, s):
        check_prime(p)
        check_int("s", s, 1)
        self.p = p
        self.s = s
        self.q = p**s
        self.modulus = min_poly_coeffs(p, s)  # (c_0..c_{s-1}), monic implied
        self.rows = reduction_rows(self.modulus, p)

    def __repr__(self):
        return f"Fq(p={self.p},s={self.s})"

    def zero(self):
        return FqElem(self, (0,) * self.s)

    def one(self):
        return FqElem(self, (1,) + (0,) * (self.s - 1))

    def gen(self):
        if self.s == 1:
            return self.one()
        return FqElem(self, (0, 1) + (0,) * (self.s - 2))

    def from_int(self, c):
        check_int("c", c)
        return FqElem(self, (c,) + (0,) * (self.s - 1))

    def from_coeffs(self, co):
        return FqElem(self, tuple(co))

    def from_index(self, idx):
        """The element of index ``idx`` (see ``FqElem.index``), 0 <= idx < q."""
        check_int("index", idx)
        if not 0 <= idx < self.q:
            raise InvalidParameter(f"index {idx} outside 0..{self.q - 1}")
        return FqElem(self, tuple(idx // self.p**j for j in range(self.s)))

    def elements(self):
        """All elements in index order (deterministic)."""
        return [self.from_index(i) for i in range(self.q)]

    def units(self):
        return [x for x in self.elements() if x]

    def multiplicative_generator(self):
        for x in self.elements():
            if not x:
                continue
            order = 1
            acc = x
            while acc != self.one():
                acc = acc * x
                order += 1
            if order == self.q - 1:
                return x
        raise InvalidParameter(f"F_{self.q} has no multiplicative generator: is p prime?")

    def absolute_trace(self, x):
        """Tr_{F_q/F_p}(x) as an integer in [0, p)."""
        acc = x
        tot = x
        for _ in range(self.s - 1):
            acc = acc.frobenius()
            tot = tot + acc
        if any(tot.co[1:]):
            raise NotGaloisStable(f"trace of {x} is not in F_{self.p}")
        return tot.co[0]

    def embedding_into(self, big):
        """Embedding F_q -> F_{q^r} = ``big`` (big.s must be a multiple of s).

        Deterministic: the generator maps to the first root of our modulus
        in ``big``'s enumeration order.  Returns (map, inverse_map) where
        inverse_map raises KeyError off the image.
        """
        if big.p != self.p or big.s % self.s:
            raise RingMismatch(f"F_{self.q} does not embed into F_{big.q}")
        if big is self:
            ident = {x.co: x for x in self.elements()}
            return (lambda x: x), (lambda x: ident[x.co])

        def evaluate(coeffs, z):
            """sum c_i z^i in ``big`` for integers c_0, c_1, ..."""
            acc, val = big.from_int(1), big.zero()
            for c in coeffs:
                val = val + acc.scale_int(c)
                acc = acc * z
            return val

        monic = (*self.modulus, 1)
        root = next((z for z in big.elements() if not evaluate(monic, z)), None)
        if root is None:
            raise RingMismatch(f"the modulus of F_{self.q} has no root in F_{big.q}")
        fwd = {x.co: evaluate(x.co, root) for x in self.elements()}
        back = {img.co: self.from_coeffs(co) for co, img in fwd.items()}

        def embed(x):
            return fwd[x.co]

        def unembed(x):
            return back[x.co]

        return embed, unembed
