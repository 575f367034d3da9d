"""The ghost map and its inversion on ``RingElem`` values, step by step.

This is the element-level form of ``wittvec.ghost_values`` and
``wittvec.ghost_peel``, with transport built on it the same way: lift to a
copy of the ring with guard digits, combine on ghost coordinates, peel,
reduce and stamp.  Every intermediate value is a ``RingElem`` and every
division is ``RingElem.exact_div_p``, so the tests can compare the
package's coordinate engine with it in coordinates, precision and
``NotDivisible``.
"""

from itertools import accumulate

from wittlab.errors import NotDivisible
from wittlab.rings import RingElem
from wittlab.wittvec import WittVec


def ghost_values(p, comps):
    """The ghost coordinates fant_n(a_0..a_n), n < len(comps)."""
    out = []
    pows = []  # pows[i] = a_i^(p^(n-i)) at step n
    for n, a_n in enumerate(comps):
        for i in range(n):
            pows[i] = pows[i] ** p
        pows.append(a_n)
        acc = pows[0]
        for i in range(1, n + 1):
            acc = acc + pows[i].scale_int(p**i)
        out.append(acc)
    return out


def ghost_peel(p, entries):
    """The vector (a_n) with ghost coordinates ``entries``:
    a_n = (u_n - sum_{i<n} p^i a_i^(p^(n-i))) / p^n."""
    comps = []
    pows = []  # pows[i] = a_i^(p^(n-1-i)) entering step n
    for n, u in enumerate(entries):
        acc = u
        for i in range(n):
            pows[i] = pows[i] ** p
            acc = acc - pows[i].scale_int(p**i)
        a_n = acc if n == 0 else acc.exact_div_p(n)
        comps.append(a_n)
        pows.append(a_n)
    return comps


def _lifted_ghosts(ring, vecs, length):
    big = ring.with_precision(ring.nprec + length)
    return [ghost_values(ring.p, [RingElem(big, c.co) for c in v.comps[:length]]) for v in vecs]


def _recover(ring, entries, precs):
    comps = ghost_peel(ring.p, entries)
    return WittVec(ring, [
        RingElem(ring, tuple(x % ring.pn for x in c.co), prec) for c, prec in zip(comps, precs)
    ])


def _prefix_min(vecs, length):
    return list(accumulate((min(v.comps[i].prec for v in vecs) for i in range(length)), min))


def _binary(op, a, b):
    length = min(len(a), len(b))
    if length == 0:
        return WittVec(a.ring, [])
    ga, gb = _lifted_ghosts(a.ring, [a, b], length)
    return _recover(a.ring, [op(x, y) for x, y in zip(ga, gb)], _prefix_min([a, b], length))


def witt_add(a, b):
    return _binary(lambda x, y: x + y, a, b)


def witt_mul(a, b):
    return _binary(lambda x, y: x * y, a, b)


def witt_neg(a):
    ring, length = a.ring, len(a)
    if length == 0:
        return a
    (ga,) = _lifted_ghosts(ring, [a], length)
    precs = [c.prec for c in a.comps] if ring.p % 2 else _prefix_min([a], length)
    return _recover(ring, [-x for x in ga], precs)


def frob(a):
    (ga,) = _lifted_ghosts(a.ring, [a], len(a))
    return _recover(a.ring, ga[1:], _prefix_min([a], len(a))[1:])


def witt_div_p(a):
    ring, length = a.ring, len(a)
    if length == 0:
        return WittVec(ring, [])
    (ga,) = _lifted_ghosts(ring, [a], length)
    prec = max(0, min(c.prec for c in a.comps) - ring.e)
    return _recover(ring, [x.exact_div_p(1) for x in ga], [prec] * length)


def from_ghosts(ring, length, ghosts):
    """``ghosts(big)`` gives the ghost coordinates as elements of big."""
    big = ring.with_precision(ring.nprec + length)
    return _recover(ring, ghosts(big), [ring.cap] * length)


def ghost_map(a):
    return ghost_values(a.ring.p, a.comps)


def delta(x, length):
    """Components of delta(x, length), each at the precision the element
    peel tracks for it: prec(x) - n(n+1)/2 for component n."""
    return ghost_peel(x.ring.p, [x] * length)


def raises_not_divisible(fn, *args):
    """fn(*args), or the string "NotDivisible" if it raises that."""
    try:
        return fn(*args)
    except NotDivisible:
        return "NotDivisible"
