"""Witt vectors of finite length over any coefficient ring.

The engine follows from the ring.  Over a TowerRing, where p is not a zero
divisor at working precision, sum, product, negation and Frobenius are
transported through the ghost map at every length: components are lifted
to a copy of the ring with guard digits, combined pointwise on ghost
coordinates, and recovered by exact division.  Component n of the result is
stamped with the least precision among the input components it depends on,
0..n (0..n+1 for Frobenius; a_n alone for negation at odd p, I_n = -X_n).
Over any other ring (F_q) the universal polynomials of upoly are evaluated,
or upoly's refusal is raised.
"""

from __future__ import annotations

from itertools import accumulate

from .errors import NotDivisible, NotGaloisStable, RingMismatch, TooShort
from .fields import Fq
from .rings import RingElem, TowerRing
from .upoly import (
    MAX_LENGTH,
    GhostSolveInput,
    check_family,
    eval_plan_at,
    ghost_invert,
    ghost_peel,
    ghost_values,
    structural_polys,
)


class WittVec:
    """Finite Witt vector; components live in ``ring``."""

    __slots__ = ("ring", "comps")

    def __init__(self, ring, comps):
        self.ring = ring
        self.comps = tuple(comps)

    def __len__(self):
        return len(self.comps)

    def __getitem__(self, i):
        return self.comps[i]

    def __eq__(self, other):
        return (
            isinstance(other, WittVec)
            and self.ring is other.ring
            and len(self) == len(other)
            and all(a == b for a, b in zip(self.comps, other.comps))
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
        assert n >= 1
        acc = self
        for _ in range(n - 1):
            acc = witt_mul(acc, self)
        return acc

    def __repr__(self):
        return f"W({', '.join(repr(c) for c in self.comps)})"

    def truncate(self, length):
        assert length <= len(self)
        return WittVec(self.ring, self.comps[:length])

    def is_zero(self):
        return all(_is_zero(c) for c in self.comps)

    def to_json_obj(self):
        return {
            "length": len(self),
            "components": [
                c.to_json_obj() if hasattr(c, "to_json_obj") else list(c.co)
                for c in self.comps
            ],
        }


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

    def __add__(self, other):
        return GhostSeq(self.ring, [a + b for a, b in zip(self.entries, other.entries)])

    def __mul__(self, other):
        return GhostSeq(self.ring, [a * b for a, b in zip(self.entries, other.entries)])

    def __repr__(self):
        return f"<{', '.join(repr(c) for c in self.entries)}>"


def _is_zero(c):
    if hasattr(c, "is_zero"):
        return c.is_zero()
    return not c


def _check_pair(a, b):
    if a.ring is not b.ring:
        raise RingMismatch("Witt vectors over different rings")
    return min(len(a), len(b))


def zero_vec(ring, length):
    return WittVec(ring, [ring.zero() for _ in range(length)])


def one_vec(ring, length):
    return WittVec(ring, [ring.one()] + [ring.zero() for _ in range(length - 1)])


def tau(ring, x, length):
    """The multiplicative section x -> (x, 0, ..., 0)."""
    return WittVec(ring, [x] + [ring.zero() for _ in range(length - 1)])


def versch(a, k=1):
    """Shift k zeros in front, keeping the declared length."""
    if k == 0:
        return a
    ring = a.ring
    zeros = [ring.zero() for _ in range(min(k, len(a)))]
    return WittVec(ring, (zeros + list(a.comps))[: len(a)])


def witt_map(fn, a, target_ring=None):
    """Apply a ring morphism componentwise."""
    ring = target_ring if target_ring is not None else a.ring
    return WittVec(ring, [fn(c) for c in a.comps])


def ghost_map(a):
    """Ghost coordinates fant_n(a_0..a_n) for n < len(a)."""
    return GhostSeq(a.ring, ghost_values(a.ring.p, a.comps))


def ghost_shift(u):
    """f_A: drop the first ghost entry."""
    return GhostSeq(u.ring, u.entries[1:])


def ghost_vshift(u):
    """v_A: prepend 0 and multiply the rest by p."""
    p = u.ring.p
    return GhostSeq(u.ring, [u.ring.zero()] + [c.scale_int(p) for c in u.entries])


# -- arithmetic dispatch ---------------------------------------------------------


def _is_p_regular(ring):
    return isinstance(ring, TowerRing)


_family_cache = {}


def _family(kind, p, n):
    """The n-th structural polynomial, cast to its minimal frame and cached
    so its evaluation plan is reused across calls."""
    got = _family_cache.get((kind, p, n))
    if got is None:
        poly = structural_polys(kind, p, n + 1)[n]
        if kind in ("sum", "prod"):
            got = poly.cast(n + 1, n + 1)
        elif kind == "neg":
            got = poly.cast(n + 1, 0)
        else:
            got = poly.cast(n + 2, 0)
        _family_cache[(kind, p, n)] = got
    return got


def _universal(kind, vecs, length):
    """Components 0..length-1 of the Witt op ``kind`` on ``vecs`` by its
    universal polynomials: component n reads components 0..n of every input
    (0..n+1 for frob)."""
    ring = vecs[0].ring
    if length > MAX_LENGTH:
        raise RingMismatch(
            f"Witt {kind} at length {length} > {MAX_LENGTH} needs a p-regular "
            "coefficient ring"
        )
    check_family(kind, ring.p, length)
    reach = 2 if kind == "frob" else 1
    out = []
    for n in range(length):
        values = [c for v in vecs for c in v.comps[: n + reach]]
        out.append(eval_plan_at(_family(kind, ring.p, n), values))
    return WittVec(ring, out)


def _lifted_ghosts(ring, vecs, length):
    """Ghost coordinates 0..length-1 of each vector, over a copy of the ring
    with ``length`` guard digits, so the recovering divisions stay exact."""
    big = ring.with_precision(ring.nprec + length)
    return [
        ghost_values(ring.p, [RingElem(big, c.co) for c in v.comps[:length]]) for v in vecs
    ]


def _recover(ring, entries, precs):
    """The vector with ghost coordinates ``entries``, reduced to ``ring``;
    component n declared at precision precs[n]."""
    comps = ghost_peel(ring.p, entries)
    return WittVec(
        ring, [RingElem(ring, ring.reduce_from(c).co, prec) for c, prec in zip(comps, precs)]
    )


def _prefix_min(vecs, length):
    """Entry n: the least precision among components 0..n of the inputs."""
    return list(accumulate((min(v.comps[i].prec for v in vecs) for i in range(length)), min))


def _binary(kind, op, a, b):
    length = _check_pair(a, b)
    if length == 0:
        return WittVec(a.ring, [])
    if not _is_p_regular(a.ring):
        return _universal(kind, [a, b], length)
    ga, gb = _lifted_ghosts(a.ring, [a, b], length)
    return _recover(a.ring, [op(x, y) for x, y in zip(ga, gb)], _prefix_min([a, b], length))


def witt_add(a, b):
    return _binary("sum", lambda x, y: x + y, a, b)


def witt_mul(a, b):
    return _binary("prod", lambda x, y: x * y, a, b)


def witt_neg(a):
    ring, length = a.ring, len(a)
    if not _is_p_regular(ring):
        return _universal("neg", [a], length)
    (ga,) = _lifted_ghosts(ring, [a], length)
    precs = [c.prec for c in a.comps] if ring.p % 2 else _prefix_min([a], length)
    return _recover(ring, [-x for x in ga], precs)


def frob(a):
    """Witt Frobenius; shortens the vector by one component."""
    ring, length = a.ring, len(a)
    if length < 2:
        raise TooShort("frob needs length >= 2")
    if not _is_p_regular(ring):
        return _universal("frob", [a], length - 1)
    (ga,) = _lifted_ghosts(ring, [a], length)
    return _recover(ring, ga[1:], _prefix_min([a], length)[1:])


def scalar_nat(a, n):
    """n * a in the Witt ring (n a natural number), by double-and-add."""
    assert n >= 0
    acc = zero_vec(a.ring, len(a))
    base = a
    while n:
        if n & 1:
            acc = witt_add(acc, base)
        base = witt_add(base, base)
        n >>= 1
    return acc


def witt_div_p(a):
    """The unique c with p*c = a, or NotDivisible.

    Solved through ghost coordinates with guard digits; p must not be a
    zero divisor in the coefficient ring.
    """
    ring = a.ring
    if not _is_p_regular(ring):
        raise RingMismatch("witt_div_p needs a p-regular coefficient ring")
    length = len(a)
    (ga,) = _lifted_ghosts(ring, [a], length)
    prec = min(c.prec for c in a.comps) - ring.e
    try:
        return _recover(ring, [x.exact_div_p(1) for x in ga], [prec] * length)
    except NotDivisible:
        raise NotDivisible("vector is not in p*W(A) at working precision") from None


def delta(x, length):
    """The unique vector with constant ghost <x, x, ...> (x over Z/p^N).

    Component n loses n guard digits to the exact divisions.
    """
    ring = x.ring
    assert isinstance(ring, TowerRing) and ring.m == -1 and ring.s == 1
    comps = ghost_invert(
        GhostSolveInput(ring, [x] * length, lambda t: t, headroom=length)
    )
    return WittVec(ring, comps)


def te_lift(y, target, length):
    """Componentwise Teichmueller lift, zero padded to ``length``."""
    assert length >= len(y)
    comps = [target.teichmuller(c) for c in y.comps]
    comps += [target.zero() for _ in range(length - len(y))]
    return WittVec(target, comps)


def witt_trace(y, s, r):
    """Trace W_l(F_{q^r}) -> W_l(F_q): sum of the r Frobenius-power twists."""
    field = y.ring
    if not isinstance(field, Fq) or field.s != s * r:
        raise RingMismatch("witt_trace expects a vector over F_{q^r}")
    from .fields import finite_field

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
