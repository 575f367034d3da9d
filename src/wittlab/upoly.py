"""Universal Witt polynomials over the integers.

The ghost polynomial fant_n(X_0..X_n) = sum p^i X_i^(p^(n-i)) and the
structural families S (sum), P (product), I (negation) and F (Frobenius)
are built here with exact integer arithmetic.  The families are obtained by
solving their defining ghost identities degree by degree: the candidate
numerator is assembled on the ghost side and divided by p^n, and the
division is certified exact (IntegralityFailure otherwise).

Polynomials are stored sparsely: a term is a packed integer key (16 bits
per indeterminate, X-block then Y-block) mapping to an integer coefficient.
"""

from __future__ import annotations

import math
import time
from functools import lru_cache, partial

from .errors import (
    FamilyTooLarge, IntegralityFailure, InvalidParameter, TimeBudgetExceeded, check_int,
)
from .fields import check_prime, pow_ladder

_SHIFT = 16
_MASK = (1 << _SHIFT) - 1

_STRUCTURAL_KINDS = ("sum", "prod", "neg", "frob")

# Limits of the key layout: a block has MAX_LENGTH + 1 slots (F uses
# X_0..X_length), and no exponent, at most p^length, overflows its 16-bit
# slot (7^5 < 2^16).
MAX_PRIME = 7
MAX_LENGTH = 5

# Fixed key layout: X_i lives in bit slot i, Y_i in bit slot _YBLOCK + i,
# so keys are stable no matter how many indeterminates a family uses.
_YBLOCK = MAX_LENGTH + 1

# Largest family_size_bound that structural_polys agrees to build.  The
# largest family built in practice, S_4 at p = 3 (bound 115,602; 83,640
# terms), takes about 11 s from a cold cache.  Above the limit: F_4 at
# p = 5 (642,457) needs F_3^5, about 1e9 coefficient operations; P_4 at
# p = 5 spans 1.4e7 monomials and S_4 at p = 5 spans 1.3e8, which do not
# fit in memory as a dict.
MAX_FAMILY_MONOMIALS = 200_000


def _limit(seconds):
    """The time.monotonic() reading a budget of ``seconds`` ends at (None: never)."""
    return math.inf if seconds is None else time.monotonic() + seconds


def _mul_terms(a, b, limit=math.inf):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    get = out.get
    items_b = list(b.items())
    for ka, va in a.items():
        if time.monotonic() > limit:
            raise TimeBudgetExceeded("polynomial construction ran over its time budget")
        for kb, vb in items_b:
            k = ka + kb
            c = get(k, 0) + va * vb
            if c:
                out[k] = c
            elif k in out:
                del out[k]
    return out


class UniversalPoly:
    """Sparse polynomial in X_0..X_{nx-1}, Y_0..Y_{ny-1} over the integers."""

    __slots__ = ("prime", "nx", "ny", "terms", "_plan")

    def __init__(self, prime, nx, ny, terms=None):
        self.prime = prime
        self.nx = nx
        self.ny = ny
        self.terms = terms if terms is not None else {}
        self._plan = None

    # -- construction helpers -------------------------------------------------

    def _slot(self, v):
        return v if v < self.nx else _YBLOCK + (v - self.nx)

    def _key(self, exps):
        """Packed key of the monomial with (variable index, exponent) pairs exps."""
        return sum(e << (_SHIFT * self._slot(v)) for v, e in exps)

    @classmethod
    def monomial(cls, prime, nx, ny, exps, coeff=1):
        poly = cls(prime, nx, ny)
        if coeff:
            poly.terms[poly._key(exps)] = coeff
        return poly

    def _same_shape(self, terms):
        return UniversalPoly(self.prime, self.nx, self.ny, terms)

    # -- ring operations -------------------------------------------------------

    def __add__(self, other):
        out = dict(self.terms)
        get = out.get
        for k, v in other.terms.items():
            c = get(k, 0) + v
            if c:
                out[k] = c
            elif k in out:
                del out[k]
        return self._same_shape(out)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self._same_shape({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return self._same_shape({})
            return self._same_shape({k: v * other for k, v in self.terms.items()})
        return self._same_shape(_mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, n):
        return self._same_shape(pow_ladder(self.terms, n, _mul_terms) if n else {0: 1})

    def __eq__(self, other):
        return (
            isinstance(other, UniversalPoly)
            and self.terms == other.terms
            and self.nx == other.nx
            and self.ny == other.ny
        )

    def __len__(self):
        return len(self.terms)

    def divide_exact(self, divisor):
        out = {}
        for k, v in self.terms.items():
            q, r = divmod(v, divisor)
            if r:
                raise IntegralityFailure(
                    f"coefficient {v} of {self._factors(self._decode(k)) or '1'} "
                    f"is not divisible by {divisor}"
                )
            out[k] = q
        return self._same_shape(out)

    # -- inspection -------------------------------------------------------------

    def _decode(self, key):
        return tuple(
            (key >> (_SHIFT * self._slot(i))) & _MASK
            for i in range(self.nx + self.ny)
        )

    def var_names(self):
        return tuple(f"X{i}" for i in range(self.nx)) + tuple(f"Y{i}" for i in range(self.ny))

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order."""
        decoded = [(self._decode(k), v) for k, v in self.terms.items()]
        decoded.sort(key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return decoded

    def _factors(self, exps):
        """"X0^1 Y0^2" for a decoded exponent vector ("" for the constant)."""
        names = self.var_names()
        return " ".join(f"{names[i]}^{e}" for i, e in enumerate(exps) if e)

    def to_text(self):
        lines = []
        for exps, coeff in self.sorted_terms():
            factors = self._factors(exps)
            lines.append(f"{coeff} * {factors}" if factors else f"{coeff} *")
        return "\n".join(lines)

    def to_json_obj(self):
        names = self.var_names()
        rows = []
        for exps, coeff in self.sorted_terms():
            rows.append(
                {
                    "coeff": str(coeff),
                    "exps": {names[i]: e for i, e in enumerate(exps) if e},
                }
            )
        return rows

    def __repr__(self):
        n = len(self.terms)
        head = ", ".join(f"{c}*{self._factors(e) or '1'}" for e, c in self.sorted_terms()[:4])
        tail = ", ..." if n > 4 else ""
        return f"UniversalPoly({head}{tail}; {n} terms)"

    # -- evaluation ---------------------------------------------------------------

    def eval_plan(self):
        """Cached [(coeff, ((var_index, exponent), ...)), ...] for evaluation."""
        if self._plan is None:
            plan = []
            for k, v in self.terms.items():
                exps = self._decode(k)
                plan.append((v, tuple((i, e) for i, e in enumerate(exps) if e)))
            self._plan = plan
        return self._plan


def eval_plan_at(poly, values):
    """Evaluate with values listed in variable order (X-block then Y-block).

    Elements must support +, *, ``scale_int`` and ``from_int_like``.  The
    result's precision is the least over the variables the polynomial uses.
    """
    if not values or len(values) < poly.nx + poly.ny:
        raise InvalidParameter(
            f"a polynomial in {poly.nx + poly.ny} variables needs as many values"
            f" (and at least one), have {len(values)}"
        )
    zero = values[0].from_int_like(0)
    acc = zero
    powcache = {}

    def power(i, e):
        got = powcache.get((i, e))
        if got is None:
            got = powcache[(i, e)] = pow_ladder(values[i], e)
        return got

    for coeff, factors in poly.eval_plan():
        term = None
        for i, e in factors:
            term = power(i, e) if term is None else term * power(i, e)
        if term is None:
            acc = acc + zero.from_int_like(coeff)
        else:
            acc = acc + term.scale_int(coeff)
    return acc


def ghost_poly(p, n):
    """fant_n(X_0..X_n) = X_0^(p^n) + p X_1^(p^(n-1)) + ... + p^n X_n."""
    check_int("ghost polynomial index", n)
    if n < 0:
        raise InvalidParameter(f"ghost polynomial index must be >= 0, have {n}")
    return _ghost_in(p, n, n + 1, 0, 0)


def _ghost_in(p, n, nx, ny, block):
    """fant_n over the X block (block=0) or the Y block (block=1)."""
    poly = UniversalPoly(p, nx, ny)
    for i in range(n + 1):
        poly.terms[poly._key([(block * nx + i, p ** (n - i))])] = p**i
    return poly


def _count_weighted(weights, degree):
    """Number of monomials of weighted degree ``degree`` in variables of the
    given weights (coin-change count)."""
    ways = [1] + [0] * degree
    for w in weights:
        for t in range(w, degree + 1):
            ways[t] += ways[t - w]
    return ways[degree]


@lru_cache(maxsize=None)
def family_size_bound(kind, p, n):
    """Upper bound on the number of terms of the n-th member of a family.

    Give X_i and Y_i the weight p^i.  Then S_n and I_n are isobaric of
    weight p^n (S_n in both blocks together), P_n has weight p^n in each
    block separately, and F_n is isobaric of weight p^(n+1) in
    X_0..X_{n+1}.  The bound counts every monomial of that weight.
    """
    block = [p**i for i in range(n + 1)]
    if kind == "sum":
        return _count_weighted(block * 2, p**n)
    if kind == "prod":
        return _count_weighted(block, p**n) ** 2
    if kind == "neg":
        return _count_weighted(block, p**n)
    return _count_weighted(block + [p ** (n + 1)], p ** (n + 1))


def check_family(kind, p, length):
    """Raise the error structural_polys would refuse (kind, p, length) with."""
    if kind not in _STRUCTURAL_KINDS:
        raise InvalidParameter(
            f"unknown kind {kind!r}, expected one of {_STRUCTURAL_KINDS}"
        )
    check_int("length", length)
    if length < 1:
        raise InvalidParameter("length must be >= 1")
    check_prime(p)
    if length > MAX_LENGTH or p > MAX_PRIME:
        raise InvalidParameter(
            f"universal polynomial generation capped at length {MAX_LENGTH}, p <= {MAX_PRIME}"
        )
    bound = family_size_bound(kind, p, length - 1)
    if bound > MAX_FAMILY_MONOMIALS:
        raise FamilyTooLarge(
            f"{kind} family at p = {p}, length {length}: member {length - 1} may "
            f"have up to {bound} terms, above the limit of {MAX_FAMILY_MONOMIALS}"
        )


_structural_cache = {}


def _ghost_target(kind, p, n, nx, ny, limit):
    """The n-th ghost coordinate the family must reproduce (S: X + Y, P:
    X * Y, I: -X, F: the shift fant_(n+1)(X))."""
    if kind == "sum":
        return _ghost_in(p, n, nx, ny, 0) + _ghost_in(p, n, nx, ny, 1)
    if kind == "prod":
        a = _ghost_in(p, n, nx, ny, 0)
        b = _ghost_in(p, n, nx, ny, 1)
        return a._same_shape(_mul_terms(a.terms, b.terms, limit))
    if kind == "neg":
        return -_ghost_in(p, n, nx, ny, 0)
    return _ghost_in(p, n + 1, nx, ny, 0)


def _ladder_power(state, p, i, e, limit):
    """Terms of phi_i ** e for a cached family, memoized along the p-power
    ladder e = p, p^2, ..."""
    if e == 1:
        return state["polys"][i].terms
    got = state["powers"].get((i, e))
    if got is None:
        base = _ladder_power(state, p, i, e // p, limit)
        got = pow_ladder(base, p, partial(_mul_terms, limit=limit))
        state["powers"][(i, e)] = got
    return got


def _power_sum(state, p, n, nx, ny, limit):
    """sum_{i<n} p^i phi_i^(p^(n-i)): fant_n of the family without its last term."""
    acc = UniversalPoly(p, nx, ny)
    for i in range(n):
        terms = _ladder_power(state, p, i, p ** (n - i), limit)
        acc = acc + p**i * UniversalPoly(p, nx, ny, terms)
    return acc


def structural_polys(kind, p, length, deadline_seconds=None):
    """S_0..S_{l-1} (resp. P, I, F) solving the defining ghost identities.

    Construction is divide-and-certify: the ghost-side combination minus the
    lower contributions is divided by p^n and every division is checked
    exact.  Results are cached per (kind, p).  A family whose
    family_size_bound exceeds MAX_FAMILY_MONOMIALS is refused with
    FamilyTooLarge before any construction.
    """
    check_family(kind, p, length)
    limit = _limit(deadline_seconds)
    state = _structural_cache.setdefault((kind, p), {"polys": [], "powers": {}})
    polys = state["polys"]
    nx = length + 1 if kind == "frob" else length
    ny = length if kind in ("sum", "prod") else 0
    while len(polys) < length:
        n = len(polys)
        acc = _ghost_target(kind, p, n, nx, ny, limit) - _power_sum(state, p, n, nx, ny, limit)
        polys.append(acc.divide_exact(p**n))
    return [UniversalPoly(p, nx, ny, q.terms) for q in polys[:length]]


def ghost_identity_residual(kind, p, length, deadline_seconds=None):
    """fant_n(phi_0..phi_n) minus its defining target, for n = length-1.

    Zero iff the ghost identity holds exactly; exposed so the identity can
    be re-checked after construction.  Powers memoized by the construction
    are reused, so the recheck mostly re-spends the final summation.
    """
    polys = structural_polys(kind, p, length, deadline_seconds)
    limit = _limit(deadline_seconds)
    n = length - 1
    nx, ny = polys[n].nx, polys[n].ny
    lhs = _power_sum(_structural_cache[(kind, p)], p, n, nx, ny, limit) + p**n * polys[n]
    return lhs - _ghost_target(kind, p, n, nx, ny, limit)

