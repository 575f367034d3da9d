"""Witt vectors of finite length over a TowerRing or a finite field.

The engine follows from the ring.  Over a TowerRing, where p is not a zero
divisor at working precision, sum, product, negation and Frobenius are
transported through the ghost map at every length: components are lifted
to a copy of the ring with guard digits, combined pointwise on ghost
coordinates, and recovered by exact division.  Component n of the result is
stamped with the least precision among the input components it depends on,
0..n (0..n+1 for Frobenius; a_n alone for negation at odd p, I_n = -X_n).
Over a finite field F_q, which is perfect, (a_0, ..., a_{n-1}) ->
sum p^i [a_i^(p^-i)] is a ring isomorphism W_n(F_q) = Z_q/p^n onto the
unramified TowerRing of precision n, so sum, product and negation are one
operation on coordinates mod p^n between two table maps, at every length:
the image of a vector sums the rows p^i [c^(p^-i)] of its components c, and
the way back peels digits r = x mod p, a_i = r^(p^i) read from a table, then
x <- (x - [r]) / p, one list a digit, checked mod p.  Frobenius reads a_i^p
from the same table.  The universal polynomials of upoly serve no Witt
operation.

The ghost map over a coefficient ring and its one inversion live here, one
loop each (``_ghosts``, ``_peel``) on the ring's values: a value is an int,
the coordinate itself, on a one-coordinate ring (Z/p^N) and the coordinate
tuple on any other.  Three primitives, closures chosen once per ring from
its shape (``_kit``), do the arithmetic: the p-th power of every value of a
list (Python's ``pow`` mod p^N on an int, else ``TowerRing.pow_co``), the
sum of p^i row[i] by Horner in p, and the exact division by p^n, p^n read
from a tuple, which raises NotDivisible.  Transport takes the loops on
values, with combines built once at import, so a Z/p^N coordinate is one
int from the lift through the combine to the peel; ``ghost_values`` and
``ghost_peel`` are the same loops on coordinate tuples, which ``ghost_map``,
``delta`` and the exact recovery ``from_ghosts`` (which builds varpi_m and
Delta(c)) take.  No precision is tracked inside; a ``RingElem`` is built
only for what a caller returns, stamped once as above.  The public
constructor refuses a component of another ring, so no operation reads
coordinates that mean nothing in its ring; a vector that wittvec builds
from components already checked, or made by the ring, skips the check
(``WittVec._own``).
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import repeat

from .errors import (
    InvalidParameter,
    NotDivisible,
    NotGaloisStable,
    RingMismatch,
    TooShort,
    check_int,
)
from .fields import Fq, finite_field, pow_ladder
from .rings import RingElem, TowerRing, ring_of


class WittVec:
    """Finite Witt vector; components live in ``ring``, and a component of
    another ring (or no ring element at all) is refused with RingMismatch."""

    __slots__ = ("ring", "comps")

    def __init__(self, ring, comps):
        self.ring = ring
        self.comps = tuple(comps)
        home = "field" if isinstance(ring, Fq) else "ring"
        if any(getattr(c, home, None) is not ring for c in self.comps):
            raise RingMismatch(f"a component of a vector over {ring!r} lives in another ring")

    @classmethod
    def _own(cls, ring, comps):
        """A vector of components already known to live in ``ring``: the
        components of a checked vector, or ones the ring made; no check."""
        vec = object.__new__(cls)
        vec.ring = ring
        vec.comps = tuple(comps)
        return vec

    def __len__(self):
        return len(self.comps)

    def __getitem__(self, i):
        return self.comps[i]

    def __eq__(self, other):
        return (
            isinstance(other, WittVec)
            and self.ring is other.ring
            and len(self) == len(other)
            and all(map(operator.eq, self.comps, other.comps))
        )

    def __hash__(self):
        raise TypeError("WittVec is unhashable")

    def __add__(self, other):
        return witt_add(self, other)

    def __sub__(self, other):
        return witt_add(self, witt_neg(other))

    def __neg__(self):
        return witt_neg(self)

    def __mul__(self, other):
        return witt_mul(self, other)

    def __pow__(self, n):
        check_int("exponent", n)
        return pow_ladder(self, n, witt_mul)

    def __repr__(self):
        return f"W({', '.join(repr(c) for c in self.comps)})"

    def truncate(self, length):
        _check_length(length)
        if length > len(self):
            raise InvalidParameter(f"cannot truncate a length-{len(self)} vector to {length}")
        return WittVec._own(self.ring, self.comps[:length])

    def is_zero(self):
        return all(_is_zero(c) for c in self.comps)


class GhostSeq:
    """A finite slice of the product-ring side (ghost coordinates)."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring, entries):
        self.ring = ring
        self.entries = tuple(entries)

    def __len__(self):
        return len(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other):
        return (
            isinstance(other, GhostSeq)
            and len(self) == len(other)
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    def _pair(self, other):
        if not isinstance(other, GhostSeq) or other.ring is not self.ring:
            raise RingMismatch("ghost slices over different rings")
        if len(other) != len(self):
            raise RingMismatch(f"ghost slices of lengths {len(self)} and {len(other)}")
        return zip(self.entries, other.entries)

    def __add__(self, other):
        return GhostSeq(self.ring, [a + b for a, b in self._pair(other)])

    def __mul__(self, other):
        return GhostSeq(self.ring, [a * b for a, b in self._pair(other)])

    def __repr__(self):
        return f"<{', '.join(repr(c) for c in self.entries)}>"


def _is_zero(c):
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return not c


def _check_pair(a, b):
    if a.ring is not b.ring:
        raise RingMismatch("Witt vectors over different rings")
    return min(len(a.comps), len(b.comps))


def _check_length(length):
    check_int("a Witt vector's length", length, 0)


def zero_vec(ring, length):
    _check_length(length)
    return WittVec._own(ring, [ring.zero() for _ in range(length)])


def one_vec(ring, length):
    return tau(ring, ring.one(), length)


def tau(ring, x, length):
    """The multiplicative section x -> (x, 0, ..., 0)."""
    _check_length(length)
    return WittVec(ring, [x][:length] + [ring.zero() for _ in range(length - 1)])


def versch(a, k=1):
    """Shift k zeros in front, keeping the declared length."""
    check_int("versch's shift k", k, 0)
    if k == 0:
        return a
    ring = a.ring
    zeros = [ring.zero() for _ in range(min(k, len(a)))]
    return WittVec._own(ring, (zeros + list(a.comps))[: len(a)])


def witt_map(fn, a, target_ring=None):
    """Apply a ring morphism componentwise."""
    ring = target_ring if target_ring is not None else a.ring
    return WittVec(ring, [fn(c) for c in a.comps])


@lru_cache(maxsize=None)
def _kit(ring):
    """(powers, weigh, divide): the primitives of the ghost map and its
    inversion over ``ring``, chosen once from its shape.  A value is an int,
    the coordinate itself, on a one-coordinate ring (Z/p^N) and the
    coordinate tuple on any other, where weigh and divide act coordinate by
    coordinate.  powers(xs) = [x^p for x in xs], one call a step of either
    loop; weigh(row) = sum p^i row[i] mod p^N, by Horner in p; divide(u, h,
    n) = (u - h) / p^n, or NotDivisible where a coordinate of u - h mod p^N
    is not divisible by p^n.  p^n is read from a tuple built here, and p^N
    stands for it past n = N: a value below p^N is divisible by p^n, n >= N,
    only when it is 0, and its quotient by either is 0."""
    p, pn, top = ring.p, ring.pn, ring.nprec
    scales = tuple([p**n for n in range(top)])

    def weigh(row):
        acc = 0
        for x in reversed(row):
            acc = acc * p + x
        return acc % pn

    def divide(u, h, n):
        q, r = divmod((u - h) % pn, scales[n] if n < top else pn)
        if r:
            raise NotDivisible(f"ghost coordinate {n} is not divisible by p^{n} at precision")
        return q

    if ring.dim == 1:
        return (lambda xs: [pow(x, p, pn) for x in xs]), weigh, divide
    pow_co = ring.pow_co
    return (
        lambda xs: [pow_co(x, p) for x in xs],
        lambda row: tuple(map(weigh, zip(*row))),
        lambda u, h, n: tuple([divide(x, y, n) for x, y in zip(u, h)]),
    )


def _ghosts(ring, values):
    """The ghost map on values: fant_n(a_0..a_n) for n < len(values)."""
    powers, weigh, _ = _kit(ring)
    out, pows = [], []  # pows[i] = a_i^(p^(n-i)) at step n
    for a_n in values:
        pows = powers(pows)
        pows.append(a_n)
        out.append(weigh(pows))
    return out


def _peel(ring, values):
    """The ghost inversion on values: a_n = (u_n - sum_{i<n} p^i
    a_i^(p^(n-i))) / p^n, one component at a time."""
    powers, weigh, divide = _kit(ring)
    comps, pows = [], []  # pows[i] = a_i^(p^(n-i)) at step n
    for n, u in enumerate(values):
        if n:
            pows = powers(pows)
            u = divide(u, weigh(pows), n)
        comps.append(u)
        pows.append(u)
    return comps


def _values(ring, coords):
    """The values of coordinate tuples of ``ring``."""
    return [x for (x,) in coords] if ring.dim == 1 else list(coords)


def _elem_values(ring, comps):
    """The values, in ``ring`` or a copy of it at another precision, of the
    coordinates of the elements ``comps``."""
    return [c.co[0] for c in comps] if ring.dim == 1 else [c.co for c in comps]


def _coords(ring, values):
    """The coordinate tuples, reduced mod p^N of ``ring``, of values of
    ``ring`` or of a copy of it at another precision."""
    pn = ring.pn
    if ring.dim == 1:
        return [(x % pn,) for x in values]
    return [tuple([x % pn for x in c]) for c in values]


def ghost_values(ring, comps):
    """The ghost coordinates fant_n(a_0..a_n), n < len(comps), of the vector
    whose components have the coordinate tuples ``comps`` in ``ring``: the
    p-th powers, the p^i scalings and the sums on the coordinates mod p^N."""
    return _coords(ring, _ghosts(ring, _values(ring, comps)))


def ghost_peel(ring, entries):
    """The coordinate tuples of the vector (a_n) whose ghost coordinates
    have the coordinate tuples ``entries`` in ``ring``, peeled one component
    at a time: a_n = (u_n - sum_{i<n} p^i a_i^(p^(n-i))) / p^n.

    Raises NotDivisible where a coordinate of the numerator is not divisible
    by p^n.  Otherwise a_n is known mod p^(N-n), and its coordinates are the
    quotients, below p^(N-n).
    """
    return _coords(ring, _peel(ring, _values(ring, entries)))


def ghost_map(a):
    """Ghost coordinates fant_n(a_0..a_n) for n < len(a), entry n declared
    at the least precision among components 0..n."""
    ring = a.ring
    if not isinstance(ring, TowerRing):
        raise RingMismatch("the ghost map needs a p-regular coefficient ring")
    ghosts = ghost_values(ring, [c.co for c in a.comps])
    precs = _prefix_min(ring, a.comps)
    return GhostSeq(ring, [RingElem(ring, g, prec) for g, prec in zip(ghosts, precs)])


def ghost_shift(u):
    """f_A: drop the first ghost entry."""
    return GhostSeq(u.ring, u.entries[1:])


def ghost_vshift(u):
    """v_A: prepend 0 and multiply the rest by p."""
    p = u.ring.p
    return GhostSeq(u.ring, [u.ring.zero()] + [c.scale_int(p) for c in u.entries])


# -- arithmetic dispatch ---------------------------------------------------------


@lru_cache(maxsize=None)
def _zq_table(field, n):
    """(ring, rows, frobs): row i < n maps c.co, c in F_q, to the coordinates
    of p^i [c^(p^-i)] in ring = Z_q/p^n; frobs[i] maps c.co to c^(p^i), i < s.
    The shorter tables are built first (frobs at n = 1), so one operation at
    the longest length warms every length."""
    p, s = field.p, field.s
    frobs = _zq_table(field, n - 1)[2] if n > 1 else [{c.co: c for c in field.elements()}]
    while len(frobs) < s:
        frobs.append({k: c.frobenius() for k, c in frobs[-1].items()})
    ring = ring_of(p, s, nprec=n)
    lifts = [
        {k: ring.teichmuller(c).co for k, c in frobs[-i % s].items()} for i in range(min(n, s))
    ]
    rows = [{k: _scale_co(ring, x, p**i) for k, x in lifts[i % s].items()} for i in range(n)]
    return ring, rows, frobs


def _to_zq(table, a):
    """Coordinates of the image of a's first n components: their rows' sum,
    not reduced mod p^n (every combine reduces its result)."""
    return tuple(map(sum, zip(*[row[c.co] for row, c in zip(table[1], a.comps)])))


def _from_zq(field, table, x):
    """The Witt vector of the element with coordinates x in Z_q/p^n: digit
    r = x mod p gives a_i = r^(p^i), then x <- (x - [r]) / p, one list a
    digit, each coordinate of x - [r] checked mod p (NotDivisible where one
    is not divisible).  Only x mod p is read after a division, so x is never
    reduced mod p^n."""
    rows, frobs = table[1], table[2]
    p, s, teich = field.p, field.s, rows[0]
    comps, last = [], len(rows) - 1
    for i in range(last + 1):
        r = tuple([c % p for c in x])
        comps.append(frobs[i % s][r])
        if i < last:
            pairs, x = zip(x, teich[r]), []
            for c, t in pairs:
                q, m = divmod(c - t, p)
                if m:
                    raise NotDivisible(f"digit {i} differs from its Teichmueller lift mod p")
                x.append(q)
    return WittVec._own(field, comps)


def _transport(ring, vecs, length, combine, precs):
    """The vector over ``ring`` whose ghost values in big, a copy of the ring
    with ``length`` guard digits so that the recovering divisions stay
    exact, are combine(big, ghost values of each of vecs); component n
    declared at precs[n].  No coordinate tuple is built between the lift
    and the returned components."""
    big = ring.with_precision(ring.nprec + length)
    ghosts = [_ghosts(big, _elem_values(big, v.comps[:length])) for v in vecs]
    comps = _coords(ring, _peel(big, combine(big, *ghosts)))
    return WittVec._own(ring, map(RingElem, repeat(ring), comps, precs))


def from_ghosts(ring, length, ghosts):
    """The length-``length`` vector over ``ring`` whose ghost coordinates
    have the coordinate tuples ``ghosts(big)``, exact mod p^N, every
    component declared at ``ring.cap``.

    ``ghosts`` forms the coordinates, exactly, in big, a copy of the ring
    with L = ``length`` guard digits, where transport peels them.
    If a'_i = a_i mod p^(N+L-i) for i < n, then p^i a'_i^(p^(n-i)) =
    p^i a_i^(p^(n-i)) mod p^(N+L), so the peel returns a_n mod p^(N+L-n),
    which covers p^N for every n < L.
    """
    _check_length(length)
    big = ring.with_precision(ring.nprec + length)
    comps = _coords(ring, _peel(big, _values(big, ghosts(big))))
    return WittVec._own(ring, [RingElem(ring, c) for c in comps])


def _prefix_min(ring, *comps):
    """Entry n: the least precision among entries 0..n of the component
    sequences ``comps`` of ``ring``, up to the shortest, in one pass."""
    out, least = [], ring.cap
    for cs in zip(*comps):
        for c in cs:
            if c.prec < least:
                least = c.prec
        out.append(least)
    return out


def _pointwise(co_op, int_op):
    """A transport combine: int_op entry by entry on the ghost ints of a
    one-coordinate ring, co_op(big, ...) on coordinate tuples otherwise."""
    return lambda big, *ghosts: list(
        map(int_op, *ghosts) if big.dim == 1 else map(co_op, repeat(big), *ghosts)
    )


def _binary(a, b, co_op, combine):
    """co_op(ring, x, y) on the coordinates of the images in Z_q/p^n over
    F_q; otherwise ``combine``, co_op on each pair of ghost values."""
    length = _check_pair(a, b)
    if length == 0:
        return WittVec._own(a.ring, [])
    if isinstance(a.ring, Fq):
        table = _zq_table(a.ring, length)
        return _from_zq(a.ring, table, co_op(table[0], _to_zq(table, a), _to_zq(table, b)))
    return _transport(a.ring, [a, b], length, combine, _prefix_min(a.ring, a.comps, b.comps))


def _add_co(ring, x, y):
    pn = ring.pn
    return tuple([(u + v) % pn for u, v in zip(x, y)])


def _scale_co(ring, x, c):
    pn = ring.pn
    return tuple([u * c % pn for u in x])


# the transport combines, built once
_ADD = _pointwise(_add_co, operator.add)
_MUL = _pointwise(TowerRing.mul_co, operator.mul)
_NEG = _pointwise(lambda ring, x: _scale_co(ring, x, -1), operator.neg)


def witt_add(a, b):
    return _binary(a, b, _add_co, _ADD)


def witt_mul(a, b):
    return _binary(a, b, TowerRing.mul_co, _MUL)


def witt_neg(a):
    ring, length = a.ring, len(a)
    if length == 0:
        return a
    if isinstance(ring, Fq):
        table = _zq_table(ring, length)
        return _from_zq(ring, table, _scale_co(table[0], _to_zq(table, a), -1))
    precs = [c.prec for c in a.comps] if ring.p % 2 else _prefix_min(ring, a.comps)
    return _transport(ring, [a], length, _NEG, precs)


def frob(a):
    """Witt Frobenius; shortens the vector by one component."""
    ring, length = a.ring, len(a)
    if length < 2:
        raise TooShort("frob needs length >= 2")
    if isinstance(ring, Fq):
        frobs = _zq_table(ring, 1)[2][1 % ring.s]
        return WittVec._own(ring, [frobs[c.co] for c in a.comps[:-1]])
    return _transport(ring, [a], length, lambda big, g: g[1:], _prefix_min(ring, a.comps)[1:])


def scalar_nat(a, n):
    """n * a in the Witt ring (n a natural number), by the power ladder on
    witt_add."""
    check_int("scalar_nat's n", n, 0)
    return pow_ladder(a, n, witt_add) if n else zero_vec(a.ring, len(a))


def witt_div_p(a):
    """The unique c with p*c = a, or NotDivisible.

    Solved through ghost coordinates with guard digits; p must not be a
    zero divisor in the coefficient ring.
    """
    ring, length = a.ring, len(a)
    if not isinstance(ring, TowerRing):
        raise RingMismatch("witt_div_p needs a p-regular coefficient ring")
    if length == 0:
        return WittVec(ring, [])
    prec = max(0, min(c.prec for c in a.comps) - ring.e)

    def divide_by_p(big, ga):
        divide, (zero,) = _kit(big)[2], _values(big, [big.zero().co])
        return [divide(g, zero, 1) for g in ga]

    try:
        return _transport(ring, [a], length, divide_by_p, [prec] * length)
    except NotDivisible:
        raise NotDivisible("vector is not in p*W(A) at working precision") from None


def delta(x, length):
    """The unique vector with constant ghost <x, x, ...> (x over Z/p^N).

    No congruence check is needed: sigma = id, so every division is exact.
    Component n loses n digits, because x is only known mod p^N: it is
    declared at max(0, prec(x) - n).
    """
    ring = x.ring
    if not (isinstance(ring, TowerRing) and ring.m == -1 and ring.s == 1):
        raise RingMismatch(f"delta needs x over Z/p^N, have x in {ring!r}")
    _check_length(length)
    comps = ghost_peel(ring, [x.co] * length)
    return WittVec._own(ring, [RingElem(ring, c, max(0, x.prec - n)) for n, c in enumerate(comps)])


def te_lift(y, target, length):
    """Componentwise Teichmueller lift, zero padded to ``length``."""
    _check_length(length)
    if length < len(y):
        raise InvalidParameter(f"cannot lift a length-{len(y)} vector to length {length}")
    comps = [target.teichmuller(c) for c in y.comps]
    comps += [target.zero() for _ in range(length - len(y))]
    return WittVec(target, comps)


def witt_trace(y, s, r):
    """Trace W_l(F_{q^r}) -> W_l(F_q): sum of the r Frobenius-power twists."""
    check_int("s", s, 1)
    check_int("r", r, 1)
    field = y.ring
    if not isinstance(field, Fq) or field.s != s * r:
        raise RingMismatch("witt_trace expects a vector over F_{q^r}")
    base = finite_field(field.p, s)
    q = base.q
    acc = None
    for i in range(r):
        twist = WittVec(field, [c ** (q**i) for c in y.comps])
        acc = twist if acc is None else witt_add(acc, twist)
    for c in acc.comps:
        if c**q != c:
            raise NotGaloisStable("trace output has a component not fixed by x -> x^q")
    _, unembed = base.embedding_into(field)
    return WittVec(base, [unembed(c) for c in acc.comps])


def series_development(a):
    """sum_n V^n(tau(a_n)); equals a (used as a test invariant)."""
    ring = a.ring
    acc = zero_vec(ring, len(a))
    for n, c in enumerate(a.comps):
        acc = witt_add(acc, versch(tau(ring, c, len(a)), n))
    return acc
