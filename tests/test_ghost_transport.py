"""Ghost transport on coordinate tuples against the element-level oracle.

``ghost_oracle`` runs the ghost map and its inversion on ``RingElem``
values, tracking precision through every step; the package runs them on
bare coordinates and stamps precision once.  Both must give the same
coordinates, the same declared precisions and the same ``NotDivisible``.
"""

import random

import ghost_oracle as oracle
import pytest

from wittlab import series
from wittlab.errors import NotDivisible, RingMismatch
from wittlab.fields import finite_field
from wittlab.rings import LubinTateSeries, RingElem, RingSpec, make_ring, ring_of
from wittlab.wittvec import (
    GhostSeq,
    WittVec,
    delta,
    frob,
    from_ghosts,
    ghost_map,
    ghost_peel,
    one_vec,
    scalar_nat,
    witt_add,
    witt_div_p,
    witt_map,
    witt_mul,
    witt_neg,
)
from wittlab.wittvec import _zq_table

CYC2, CYC3 = LubinTateSeries.cyclotomic(2), LubinTateSeries.cyclotomic(3)

RINGS = [
    ring_of(2, nprec=10),
    ring_of(3, nprec=8),
    ring_of(5, nprec=5),
    ring_of(7, nprec=4),
    ring_of(2, 2, nprec=8),
    make_ring(RingSpec(3, 1, 1, CYC3, 5)),
    make_ring(RingSpec(2, 1, 1, CYC2, 8)),
    make_ring(RingSpec(2, 2, 1, CYC2, 6)),
]


def rand_vec(ring, rng, length):
    """Random components, about a third of them below full precision."""
    return WittVec(ring, [
        ring.random(rng, rng.randrange(ring.cap + 1) if rng.random() < 0.35 else None)
        for _ in range(length)
    ])


def cells(v):
    if isinstance(v, str):
        return v
    return [(c.co, c.prec) for c in v.comps]


def oracle_nat(a, n):
    acc = a
    for _ in range(n - 1):
        acc = oracle.witt_add(acc, a)
    return acc


def step(rng, x, y):
    """One random op applied to the package's x and the oracle's y."""
    ring, length = x.ring, len(x)
    kinds = ["add", "mul", "neg", "truncate", "div_p", "div_p p*"] + ["frob"] * (length >= 2)
    kind = rng.choice(kinds)
    if kind in ("add", "mul"):
        other = rand_vec(ring, rng, length)
        fn, ofn = (witt_add, oracle.witt_add) if kind == "add" else (witt_mul, oracle.witt_mul)
        return kind, fn(x, other), ofn(y, other)
    if kind == "neg":
        return kind, witt_neg(x), oracle.witt_neg(y)
    if kind == "frob":
        return kind, frob(x), oracle.frob(y)
    if kind == "truncate":
        cut = rng.randrange(length + 1)
        return kind, x.truncate(cut), y.truncate(cut)
    if kind == "div_p p*":
        x, y = scalar_nat(x, ring.p), oracle_nat(y, ring.p)
    got = oracle.raises_not_divisible(witt_div_p, x)
    want = oracle.raises_not_divisible(oracle.witt_div_p, y)
    return kind, got, want


@pytest.mark.parametrize("ring", RINGS, ids=repr)
def test_chains_match_the_element_oracle(ring):
    rng = random.Random(f"chains {ring!r}")
    ops = set()
    for _ in range(14):
        x = rand_vec(ring, rng, rng.randrange(1, 6))
        y = x
        for _ in range(rng.randrange(1, 6)):
            kind, x, y = step(rng, x, y)
            ops.add(kind if not isinstance(x, str) else kind + " refused")
            assert cells(x) == cells(y), (ring, kind)
            if isinstance(x, str) or not len(x):
                break
    assert {"add", "mul", "neg", "div_p p*", "div_p refused"} <= ops, ops


@pytest.mark.parametrize("ring", RINGS[:2], ids=repr)
def test_long_chains_match_the_element_oracle(ring):
    # lengths 6-8 over Z/2^10 and Z/3^8: the peel divides by p^n up to
    # n = 7 in a guard ring of precision N + 8, the largest of the
    # workload's shapes and past them
    rng = random.Random(f"long chains {ring!r}")
    for length in (6, 7, 8):
        a, b = rand_vec(ring, rng, length), rand_vec(ring, rng, length)
        for fn, ofn in ((witt_add, oracle.witt_add), (witt_mul, oracle.witt_mul)):
            assert cells(fn(a, b)) == cells(ofn(a, b)), (ring, length, fn.__name__)
        assert cells(witt_neg(a)) == cells(oracle.witt_neg(a)), (ring, length)
        assert cells(frob(a)) == cells(oracle.frob(a)), (ring, length)
        x = y = a
        for _ in range(4):
            kind, x, y = step(rng, x, y)
            assert cells(x) == cells(y), (ring, length, kind)
            if isinstance(x, str) or not len(x):
                break


@pytest.mark.parametrize("ring", RINGS[:4], ids=repr)
def test_peel_past_the_ring_precision_matches_the_element_oracle(ring):
    # at n >= N the peel divides by p^N in place of p^n: a value mod p^N is
    # divisible by either only when it is 0, and then the quotient is 0
    rng = random.Random(f"past N {ring!r}")
    length = ring.nprec + 3
    seen = set()
    for k in range(8):
        x = ring.random(rng)
        assert [c.co for c in delta(x, length).comps] == [c.co for c in oracle.delta(x, length)]
        entries = oracle.ghost_values(ring.p, [ring.random(rng) for _ in range(length)])
        if k % 2:  # a ghost vector up to N only: the peel refuses at n >= N
            entries[ring.nprec + k % 3] += ring.one()
        got = oracle.raises_not_divisible(ghost_peel, ring, [u.co for u in entries])
        want = oracle.raises_not_divisible(
            lambda: [c.co for c in oracle.ghost_peel(ring.p, entries)]
        )
        assert got == want, ring
        seen.add(want == "NotDivisible")
    assert seen == {True, False}


def pairs(ring, rng):
    """Pairs of elements of ``ring``: identical coordinates at declared
    precisions from 0 to cap, zeros, neighbours p^k apart and unrelated
    draws."""
    out = []
    precs = [0, 1, ring.cap // 2, ring.cap - 1, ring.cap]
    for _ in range(30):
        a = ring.random(rng)
        zero = ring.zero()
        for pa in precs:
            pb = rng.choice(precs)
            out.append((RingElem(ring, a.co, pa), RingElem(ring, a.co, pb)))
            out.append((RingElem(ring, zero.co, pa), RingElem(ring, zero.co, pb)))
            out.append((RingElem(ring, zero.co, pa), RingElem(ring, a.co, pb)))
        k = rng.randrange(ring.nprec + 1)
        shift = [rng.randrange(ring.p ** (ring.nprec - k)) * ring.p**k for _ in a.co]
        near = tuple((x + y) % ring.pn for x, y in zip(a.co, shift))
        for _ in range(3):
            pa, pb = rng.randrange(ring.cap + 1), rng.randrange(ring.cap + 1)
            out.append((RingElem(ring, a.co, pa), RingElem(ring, near, pb)))
            out.append((RingElem(ring, a.co, pa), ring.random(rng, pb)))
    return out


def test_ring_equality_matches_its_definition():
    # a == b iff val_co(a - b) >= min(prec): on identical coordinates the
    # short-circuit answers True, which the definition gives as v = cap;
    # over every ring of RINGS and the rings Z_4/2^n the F_4 path computes in
    f4 = finite_field(2, 2)
    rng = random.Random(808)
    seen = set()
    for ring in RINGS + [_zq_table(f4, n)[0] for n in range(1, 5)]:
        for a, b in pairs(ring, rng):
            want = (a - b).valuation() >= min(a.prec, b.prec)
            assert (a == b) is want, (a, b)
            assert (b == a) is want, (a, b)
            seen.add((a.co == b.co, want))
    assert seen == {(True, True), (False, True), (False, False)}


def test_vector_equality_matches_its_definition():
    # WittVec equality is equality of every component, in the same ring and
    # at the same length, whatever the engine; over F_4 components compare
    # exactly
    f4 = finite_field(2, 2)
    rng = random.Random(909)
    seen = set()
    for ring in RINGS + [f4]:
        for length in range(6):
            for _ in range(12):
                if ring is f4:
                    a = WittVec(f4, [f4.from_index(rng.randrange(4)) for _ in range(length)])
                    b = WittVec(f4, [
                        f4.from_index(rng.randrange(4)) if rng.random() < 0.2 else c
                        for c in a.comps
                    ])
                else:
                    a = rand_vec(ring, rng, length)
                    b = WittVec(ring, [
                        ring.random(rng, rng.randrange(ring.cap + 1)) if rng.random() < 0.2
                        else RingElem(ring, c.co, rng.randrange(ring.cap + 1))
                        for c in a.comps
                    ])
                if ring is f4:
                    agree = [x.co == y.co for x, y in zip(a.comps, b.comps)]
                else:
                    agree = [
                        (x - y).valuation() >= min(x.prec, y.prec)
                        for x, y in zip(a.comps, b.comps)
                    ]
                assert (a == b) is all(agree), (a, b)
                assert (b == a) is all(agree), (a, b)
                assert a == a
                if length:
                    assert a != a.truncate(length - 1)
                seen.add(all(agree))
    assert seen == {True, False}


def test_ghost_map_matches_the_element_oracle():
    rng = random.Random(404)
    for ring in RINGS:
        for length in range(6):
            a = rand_vec(ring, rng, length)
            got = ghost_map(a).entries
            want = oracle.ghost_map(a)
            assert [(g.co, g.prec) for g in got] == [(w.co, w.prec) for w in want], ring


def test_ghost_peel_matches_the_element_oracle():
    # the peel over the ring itself, with no guard digits: where the element
    # peel divides exactly the coordinate peel returns the same coordinates,
    # and where it raises NotDivisible so does the coordinate peel
    rng = random.Random(505)
    seen = set()
    for ring in RINGS:
        for _ in range(20):
            entries = [ring.random(rng) for _ in range(rng.randrange(1, 5))]
            if rng.random() < 0.5:
                entries = oracle.ghost_values(ring.p, [ring.random(rng) for _ in entries])
            try:
                want = [c.co for c in oracle.ghost_peel(ring.p, entries)]
            except NotDivisible:
                want = "NotDivisible"
            got = oracle.raises_not_divisible(ghost_peel, ring, [u.co for u in entries])
            seen.add(want == "NotDivisible")
            assert got == want, ring
    assert seen == {True, False}


@pytest.mark.parametrize(
    "spec,m",
    [((2, 1, 1, CYC2, 10), 1), ((3, 1, 1, LubinTateSeries.plain(3), 10), 0),
     ((2, 2, 1, CYC2, 8), 1), ((2, 1, 2, CYC2, 8), 2)],
)
def test_varpi_matches_the_element_oracle(spec, m):
    ring = make_ring(RingSpec(*spec))
    for length in (1, 3, 5):
        got = series.varpi(ring, m, length)
        want = oracle.from_ghosts(
            ring, length,
            lambda big: [big.pi_level(m - n) if n <= m else big.zero() for n in range(length)],
        )
        assert cells(got) == cells(want), (spec, length)


def test_delta_vector_matches_the_element_oracle():
    for ring in RINGS:
        for c in (0, 1, ring.p, -3, 12345):
            got = series.delta_vector(ring, c, 4)
            want = oracle.from_ghosts(ring, 4, lambda big: [big.from_int(c)] * 4)
            assert cells(got) == cells(want), (ring, c)


def test_from_ghosts_of_length_zero():
    ring = RINGS[0]
    assert len(from_ghosts(ring, 0, lambda big: [])) == 0


def test_delta_matches_the_element_oracle_in_coordinates():
    rng = random.Random(606)
    for p, nprec in ((2, 12), (3, 12), (5, 6)):
        ring = ring_of(p, nprec=nprec)
        for _ in range(10):
            x = RingElem(ring, (rng.randrange(ring.pn),), rng.randrange(ring.cap + 1))
            got, want = delta(x, 6), oracle.delta(x, 6)
            assert [c.co for c in got.comps] == [c.co for c in want]
            assert [c.prec for c in got.comps] == [max(0, x.prec - n) for n in range(6)]


def test_delta_declares_the_precision_a_perturbation_shows():
    # x known mod 3^6: perturbing it by 3^6 r moves component n exactly at
    # 3^(6-n) for some draws and never below, so n digits are lost, not
    # n(n+1)/2; and no component is declared below zero
    ring = ring_of(3, nprec=12)
    rng = random.Random(707)
    least = [ring.cap] * 5
    for _ in range(200):
        x = RingElem(ring, (rng.randrange(ring.pn),), 6)
        y = RingElem(ring, ((x.co[0] + 3**6 * rng.randrange(1, 3**6)) % ring.pn,), 6)
        dx, dy = delta(x, 5), delta(y, 5)
        assert [c.prec for c in dx.comps] == [6, 5, 4, 3, 2]
        assert dx == dy
        for n in range(5):
            least[n] = min(least[n], (dx[n] - dy[n]).valuation())
    assert least == [6, 5, 4, 3, 2]
    low = delta(RingElem(ring, (5,), 2), 5)
    assert [c.prec for c in low.comps] == [2, 1, 0, 0, 0]


def test_witt_div_p_of_the_empty_vector():
    ring = ring_of(3, nprec=8)
    assert witt_div_p(WittVec(ring, [])) == WittVec(ring, [])
    f9 = finite_field(3, 2)
    with pytest.raises(RingMismatch):
        witt_div_p(WittVec(f9, []))


def test_ghost_slices_refuse_a_length_or_ring_mismatch():
    ring, other = ring_of(3, nprec=8), ring_of(3, nprec=9)
    two = GhostSeq(ring, [ring.one(), ring.one()])
    one = GhostSeq(ring, [ring.one()])
    for op in (GhostSeq.__add__, GhostSeq.__mul__):
        with pytest.raises(RingMismatch):
            op(two, one)
        with pytest.raises(RingMismatch):
            op(one, two)
        with pytest.raises(RingMismatch):
            op(one, GhostSeq(other, [other.one()]))
        with pytest.raises(RingMismatch):
            op(one, [ring.one()])
    assert two + two == GhostSeq(ring, [ring.from_int(2)] * 2)


def test_transport_refuses_another_rings_component():
    # a vector refuses a component of another ring when it is built, so no
    # operation, on either engine, gets to read its coordinates: frob of an
    # F_4 vector of F_8 elements used to return an F_8 vector labelled F_4
    z8, z9 = ring_of(2, nprec=8), ring_of(2, nprec=9)
    f4, f8 = finite_field(2, 2), finite_field(2, 3)
    good = WittVec(z8, [z8.one()])
    calls = [
        lambda: witt_add(WittVec(z8, [z9.one()]), good),
        lambda: witt_neg(WittVec(z8, [z9.one()])),
        lambda: frob(WittVec(z8, [z8.one(), z9.one()])),
        lambda: ghost_map(WittVec(z8, [z8.one(), z9.one()])),
        lambda: frob(WittVec(f4, [f8.gen(), f8.one()])),
        lambda: witt_add(WittVec(f4, [f8.one()]), one_vec(f4, 1)),
        lambda: WittVec(z8, [f4.one()]),
        lambda: WittVec(f4, [z8.one()]),
        lambda: WittVec(z8, [1]),
        lambda: witt_map(lambda c: c.residue(), good),
    ]
    for call in calls:
        with pytest.raises(RingMismatch):
            call()
