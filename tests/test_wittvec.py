"""Witt vector ring laws and the Frobenius/shift relations."""

import functools
import itertools
import random

import pytest

from wittlab.errors import FamilyTooLarge, NotDivisible, RingMismatch, TooShort
from wittlab.fields import Fq, finite_field
from wittlab.rings import LubinTateSeries, RingElem, RingSpec, make_ring, ring_of
from wittlab.upoly import UniversalPoly, check_family, eval_plan_at, structural_polys
from wittlab.wittvec import (
    WittVec,
    delta,
    frob,
    ghost_map,
    ghost_peel,
    ghost_shift,
    ghost_vshift,
    one_vec,
    scalar_nat,
    series_development,
    tau,
    te_lift,
    versch,
    witt_add,
    witt_div_p,
    witt_map,
    witt_mul,
    witt_neg,
    witt_trace,
    zero_vec,
)


def rand_vec(ring, rng, length):
    return WittVec(ring, [ring.random(rng) for _ in range(length)])


def rand_fq_vec(field, rng, length):
    return WittVec(field, [field.from_index(rng.randrange(field.q)) for _ in range(length)])


@functools.lru_cache(maxsize=None)
def universal_family(kind, p, length):
    """S/P/I/F_0..length-1, member n cast to the frame it reads: X_0..X_n
    (X_0..X_(n+1) for frob) and, for sum and product, Y_0..Y_n; cached so
    each keeps its evaluation plan."""
    out = []
    for n, poly in enumerate(structural_polys(kind, p, length)):
        nx = n + 2 if kind == "frob" else n + 1
        ny = n + 1 if kind in ("sum", "prod") else 0
        out.append(UniversalPoly(p, nx, ny, poly.terms))
    return out


def universal(kind, vecs, length):
    """Components 0..length-1 of the Witt op ``kind`` on ``vecs``, evaluated
    from the universal polynomials independently of wittvec."""
    ring = vecs[0].ring
    out = []
    for poly in universal_family(kind, ring.p, length):
        values = [c for v in vecs for c in v.comps[: poly.nx]]
        out.append(eval_plan_at(poly, values))
    return WittVec(ring, out)


def lifted(op, vecs, ring):
    """op over F_q through W(ring) -> W(F_q): the vectors' coordinates lifted
    to integers in ``ring``, op taken there by ghost transport, and every
    component reduced by residue()."""
    ups = [WittVec(ring, [ring.from_ur(c.co) for c in v.comps]) for v in vecs]
    return witt_map(lambda c: c.residue(), op(*ups), vecs[0].ring)


def test_f2_addition_example():
    f2 = finite_field(2, 1)
    a = WittVec(f2, [f2.one(), f2.zero()])
    s = witt_add(a, a)
    assert s.comps[0] == f2.zero() and s.comps[1] == f2.one()


def test_unit_and_zero_laws():
    # length 0 too: W_0 holds only the empty vector, over a ring and a field
    rng = random.Random(1)
    ring = ring_of(3, nprec=8)
    f4 = finite_field(2, 2)
    for length in (4, 0):
        for base, x in ((ring, ring.from_int(2)), (f4, f4.gen())):
            assert len(one_vec(base, length)) == len(tau(base, x, length)) == length
        for _ in range(5):
            a = rand_vec(ring, rng, length)
            assert witt_add(a, zero_vec(ring, length)) == a
            assert witt_mul(a, one_vec(ring, length)) == a
            assert witt_add(a, witt_neg(a)).is_zero()


@pytest.mark.parametrize(
    "maker",
    [
        lambda: ("fq", finite_field(2, 2)),
        lambda: ("zp", ring_of(2, nprec=10)),
        lambda: ("zp", ring_of(3, nprec=8)),
    ],
)
def test_ring_axioms_random_triples(maker):
    kind, ring = maker()
    rng = random.Random(42)
    for trial in range(30):
        length = 1 + trial % 4
        if kind == "fq":
            a, b, c = (rand_fq_vec(ring, rng, length) for _ in range(3))
        else:
            a, b, c = (rand_vec(ring, rng, length) for _ in range(3))
        assert witt_add(a, b) == witt_add(b, a)
        assert witt_mul(a, b) == witt_mul(b, a)
        assert witt_add(witt_add(a, b), c) == witt_add(a, witt_add(b, c))
        assert witt_mul(witt_mul(a, b), c) == witt_mul(a, witt_mul(b, c))
        assert witt_mul(a, witt_add(b, c)) == witt_add(witt_mul(a, b), witt_mul(a, c))


@pytest.mark.parametrize(
    "ring", [finite_field(2, 2), ring_of(2, nprec=10), ring_of(3, nprec=8)], ids=str
)
def test_vector_operators_are_the_witt_operations(ring):
    # WittVec's +, - and * are witt_add, witt_add with witt_neg, and
    # witt_mul, component by component; over Z/p^N the components are
    # declared at random precisions, which the results must carry alike
    rng = random.Random(5)
    for length in range(1, 5):
        if isinstance(ring, Fq):
            a, b = rand_fq_vec(ring, rng, length), rand_fq_vec(ring, rng, length)
        else:
            a, b = (
                WittVec(ring, [ring.random(rng, rng.randrange(ring.cap + 1)) for _ in range(length)])
                for _ in range(2)
            )
        for got, want in (
            (a + b, witt_add(a, b)),
            (a - b, witt_add(a, witt_neg(b))),
            (-a, witt_neg(a)),
            (a * b, witt_mul(a, b)),
        ):
            assert got.ring is want.ring
            assert [c.co for c in got.comps] == [c.co for c in want.comps]
            assert [getattr(c, "prec", None) for c in got.comps] == [
                getattr(c, "prec", None) for c in want.comps
            ]


def test_ghost_map_is_morphism():
    rng = random.Random(9)
    ring = ring_of(3, nprec=9)
    for _ in range(10):
        a, b = rand_vec(ring, rng, 4), rand_vec(ring, rng, 4)
        assert ghost_map(witt_add(a, b)) == ghost_map(a) + ghost_map(b)
        assert ghost_map(witt_mul(a, b)) == ghost_map(a) * ghost_map(b)


def test_ghost_of_tau_and_v():
    ring = ring_of(5, nprec=6)
    x = ring.from_int(3)
    g = ghost_map(tau(ring, x, 4))
    assert all(g[n] == x ** (5**n) for n in range(4))
    gv = ghost_map(versch(one_vec(ring, 4), 1))
    assert gv[0].is_zero()
    assert all(gv[n] == ring.from_int(5) for n in range(1, 4))
    assert ghost_map(zero_vec(ring, 3)) == GhostZero(ring, 3)


def GhostZero(ring, n):
    from wittlab.wittvec import GhostSeq

    return GhostSeq(ring, [ring.zero()] * n)


def test_ghost_shift_relations():
    from wittlab.wittvec import GhostSeq

    ring = ring_of(3, nprec=8)
    u = GhostSeq(ring, [ring.from_int(1), ring.from_int(2), ring.from_int(3)])
    assert ghost_shift(u) == GhostSeq(ring, [ring.from_int(2), ring.from_int(3)])
    v = ghost_vshift(GhostSeq(ring, [ring.from_int(1), ring.from_int(1)]))
    assert v == GhostSeq(ring, [ring.zero(), ring.from_int(3), ring.from_int(3)])
    rng = random.Random(2)
    for _ in range(5):
        a = rand_vec(ring, rng, 4)
        assert ghost_map(versch(a, 1)).entries[:4] == ghost_vshift(ghost_map(a)).entries[:4]
        assert ghost_map(frob(a)) == ghost_shift(ghost_map(a))


def test_frob_of_tau_and_char_p():
    ring = ring_of(3, nprec=8)
    x = ring.from_int(7)
    assert frob(tau(ring, x, 4)) == tau(ring, x**3, 3)
    f9 = finite_field(3, 2)
    rng = random.Random(4)
    for _ in range(5):
        a = rand_fq_vec(f9, rng, 4)
        assert frob(a) == WittVec(f9, [c**3 for c in a.comps[:3]])


def test_frob_v_relations():
    rng = random.Random(8)
    for ring in (ring_of(2, nprec=12), ring_of(3, nprec=9)):
        p = ring.p
        for _ in range(4):
            a, b = rand_vec(ring, rng, 4), rand_vec(ring, rng, 4)
            # Frob(V(a)) = p a   (compare at output length 3)
            assert frob(versch(a, 1)) == scalar_nat(a, p).truncate(3)
            # V(a) x V(b) = p V(a x b)
            lhs = witt_mul(versch(a, 1), versch(b, 1))
            rhs = scalar_nat(versch(witt_mul(a, b), 1), p)
            assert lhs == rhs
            # V(a x Frob(b)) = V(a) x b
            lhs = versch(witt_mul(a.truncate(3), frob(b)), 1)
            rhs = witt_mul(versch(a, 1), b)
            assert lhs == rhs.truncate(3)
            # V(Frob(a)) = V(1) x a
            lhs = versch(frob(a), 1)
            rhs = witt_mul(versch(one_vec(ring, 4), 1), a)
            assert lhs == rhs.truncate(3)


def test_frob_congruent_to_p_power_mod_pW():
    rng = random.Random(3)
    ring = ring_of(3, nprec=10)
    for _ in range(5):
        a = rand_vec(ring, rng, 4)
        diff = witt_add(frob(a), witt_neg(a**3))
        c = witt_div_p(diff)  # must exist: Frob(a) = a^p mod pW(A)
        assert scalar_nat(c, 3) == WittVec(
            ring, [x for x in diff.comps]
        )


def test_witt_div_p_rejects_units():
    ring = ring_of(3, nprec=8)
    with pytest.raises(NotDivisible):
        witt_div_p(one_vec(ring, 3))


def test_witt_div_p_never_declares_a_negative_precision():
    # components at precision 0 over Z/2^8: p * c = a loses e = 1 digit,
    # and the declared precision stops at 0
    ring = ring_of(2, nprec=8)
    four = RingElem(ring, ring.from_int(4).co, 0)
    got = witt_div_p(WittVec(ring, [four, four]))
    assert [c.prec for c in got.comps] == [0, 0]


def test_transport_op_looks_up_its_guard_ring_once(monkeypatch):
    from wittlab import rings

    calls = []
    make_ring = rings.make_ring
    monkeypatch.setattr(rings, "make_ring", lambda spec: calls.append(spec) or make_ring(spec))
    ring = ring_of(3, nprec=8)
    a, b = rand_vec(ring, random.Random(12), 3), rand_vec(ring, random.Random(13), 3)
    for op in (lambda: witt_add(a, b), lambda: witt_mul(a, b), lambda: witt_neg(a),
               lambda: frob(a)):
        calls.clear()
        op()
        assert calls == [RingSpec(3, nprec=11)]


def test_tau_multiplicative_and_scaling():
    ring = ring_of(2, nprec=10)
    rng = random.Random(5)
    for _ in range(8):
        x, y = ring.random(rng), ring.random(rng)
        assert witt_mul(tau(ring, x, 4), tau(ring, y, 4)) == tau(ring, x * y, 4)
        a = rand_vec(ring, rng, 4)
        got = witt_mul(tau(ring, x, 4), a)
        want = WittVec(ring, [(x ** (2**n)) * a[n] for n in range(4)])
        assert got == want


def test_series_development():
    rng = random.Random(6)
    for ring in (ring_of(2, nprec=10), ring_of(3, nprec=8)):
        for _ in range(5):
            a = rand_vec(ring, rng, 4)
            assert series_development(a) == a


def test_witt_map_functorial():
    # componentwise reduction W(Z/p^2) -> W(F_p) commutes with Frob and V
    zp = ring_of(2, nprec=6)
    f2 = finite_field(2, 1)
    red = lambda c: c.residue()
    rng = random.Random(7)
    for _ in range(6):
        a = rand_vec(zp, rng, 4)
        assert witt_map(red, frob(a), f2) == frob(witt_map(red, a, f2))
        assert witt_map(red, versch(a, 1), f2) == versch(witt_map(red, a, f2), 1)
        b = rand_vec(zp, rng, 4)
        assert witt_map(red, witt_add(a, b), f2) == witt_add(
            witt_map(red, a, f2), witt_map(red, b, f2)
        )
    # kernel: vectors with components in ker(rho) map to zero
    a = WittVec(zp, [zp.from_int(2), zp.from_int(4), zp.from_int(6), zp.from_int(2)])
    assert witt_map(red, a, f2).is_zero()


def test_ideal_product_valuations():
    # W(I) W(J) in W(IJ): component valuations add up
    lt = LubinTateSeries.cyclotomic(3)
    ring = make_ring(RingSpec(3, 1, 1, lt, 8))
    rng = random.Random(11)
    pi = ring.pi()
    for _ in range(5):
        a = WittVec(ring, [pi * ring.random(rng) for _ in range(3)])
        b = WittVec(ring, [pi * pi * ring.random(rng) for _ in range(3)])
        prod = witt_mul(a, b)
        for c in prod.comps:
            assert c.valuation() >= 3


def test_truncation_is_morphism():
    ring = ring_of(3, nprec=8)
    rng = random.Random(13)
    for _ in range(6):
        a, b = rand_vec(ring, rng, 4), rand_vec(ring, rng, 4)
        assert witt_add(a, b).truncate(2) == witt_add(a.truncate(2), b.truncate(2))
        assert witt_mul(a, b).truncate(2) == witt_mul(a.truncate(2), b.truncate(2))
    # kernel of truncation: vectors supported above the cut
    v = versch(rand_vec(ring, rng, 4), 2)
    assert v.truncate(2).is_zero()


def test_delta_spec_examples():
    ring = ring_of(3, nprec=12)
    d1 = delta(ring.one(), 4)
    assert d1 == one_vec(ring, 4)
    d0 = delta(ring.zero(), 3)
    assert d0.is_zero()
    dp = delta(ring.from_int(3), 3)
    assert dp[0] == ring.from_int(3)
    assert dp[1] == ring.from_int(1 - 3**2)
    g = ghost_map(dp)
    assert all(e == ring.from_int(3) for e in g.entries)


def test_ghost_peel_constant_teichmuller_sequence():
    # u_n = a^(p^n) is the ghost of tau(a): the peel gives (a, 0, 0, ...)
    ring = ring_of(3, nprec=12)
    a = ring.from_int(5)
    comps = ghost_peel(ring, [(a ** (3**n)).co for n in range(4)])
    assert RingElem(ring, comps[0]) == a
    assert all(RingElem(ring, c).is_zero() for c in comps[1:])


def test_ghost_peel_roundtrip_random():
    rng = random.Random(7)
    for p in (2, 3):
        ring = ring_of(p, nprec=16)
        for _ in range(10):
            vec = [ring.random(rng) for _ in range(4)]
            seq = []
            for n in range(4):
                acc = ring.zero()
                for i in range(n + 1):
                    acc = acc + (vec[i] ** (p ** (n - i))).scale_int(p**i)
                seq.append(acc)
            # without guard digits component n is known mod p^(N-n)
            got = ghost_peel(ring, [x.co for x in seq])
            for n, (co, want) in enumerate(zip(got, vec)):
                assert RingElem(ring, co, ring.cap - n) == want


def test_delta_p2():
    ring = ring_of(2, nprec=12)
    dp = delta(ring.from_int(2), 3)
    assert dp[0] == ring.from_int(2) and dp[1] == ring.from_int(-1)


def test_long_vectors_via_ghost_transport():
    # length 7 > universal cap: transported ops still satisfy ring laws
    ring = ring_of(2, nprec=10)
    rng = random.Random(17)
    a, b, c = (rand_vec(ring, rng, 7) for _ in range(3))
    assert witt_add(a, b) == witt_add(b, a)
    assert witt_mul(witt_mul(a, b), c) == witt_mul(a, witt_mul(b, c))
    assert witt_mul(a, witt_add(b, c)) == witt_add(witt_mul(a, b), witt_mul(a, c))
    # truncation commutes with the product
    assert witt_mul(a, b).truncate(4) == witt_mul(a.truncate(4), b.truncate(4))
    # over F_4 the same length is one Z_4/2^7 operation, and agrees with the
    # reduction of the transported op over Z_4/2^10
    f4, z4 = finite_field(2, 2), ring_of(2, 2, nprec=10)
    x, y = rand_fq_vec(f4, rng, 7), rand_fq_vec(f4, rng, 7)
    assert witt_add(x, y) == lifted(witt_add, [x, y], z4)
    assert witt_mul(x, y) == lifted(witt_mul, [x, y], z4)
    assert witt_neg(x) == lifted(witt_neg, [x], z4)
    assert frob(x) == lifted(frob, [x], z4)


def test_p5_length5_ops_take_ghost_transport():
    # S_4 and P_4 at p = 5 are refused by upoly; over a p-regular ring the
    # length-5 sum and product are transported through ghost coordinates
    from wittlab.wittvec import GhostSeq

    for kind in ("sum", "prod"):
        with pytest.raises(FamilyTooLarge):
            check_family(kind, 5, 5)
    ring = ring_of(5, nprec=8)
    rng = random.Random(55)
    for _ in range(3):
        a, b = rand_vec(ring, rng, 5), rand_vec(ring, rng, 5)
        assert ghost_map(witt_add(a, b)) == ghost_map(a) + ghost_map(b)
        assert ghost_map(witt_mul(a, b)) == ghost_map(a) * ghost_map(b)
        minus = GhostSeq(ring, [-x for x in ghost_map(a).entries])
        assert ghost_map(witt_neg(a)) == minus
        assert ghost_map(frob(a)) == ghost_shift(ghost_map(a))


def test_p5_length5_over_finite_field_agrees_with_transport():
    # S_4 and P_4 at p = 5 are refused by upoly; over F_5 the length-5 ops
    # take Z_5/5^5 and must agree with the transported ops over Z/5^8 reduced
    for kind in ("sum", "prod"):
        with pytest.raises(FamilyTooLarge):
            check_family(kind, 5, 5)
    f5, z5 = finite_field(5, 1), ring_of(5, nprec=8)
    rng = random.Random(56)
    for _ in range(4):
        a, b = rand_fq_vec(f5, rng, 5), rand_fq_vec(f5, rng, 5)
        assert witt_add(a, b) == lifted(witt_add, [a, b], z5)
        assert witt_mul(a, b) == lifted(witt_mul, [a, b], z5)
        assert witt_neg(a) == lifted(witt_neg, [a], z5)
        assert frob(a) == lifted(frob, [a], z5)


def test_frob_too_short():
    ring = ring_of(2, nprec=6)
    with pytest.raises(TooShort):
        frob(one_vec(ring, 1))


def test_te_lift_and_reduction():
    f4 = finite_field(2, 2)
    ring = make_ring(RingSpec(2, 2, -1, None, 10))
    rng = random.Random(19)
    for _ in range(6):
        y = rand_fq_vec(f4, rng, 2)
        lifted = te_lift(y, ring, 4)
        assert witt_map(lambda c: c.residue(), lifted, f4).truncate(2) == y
        assert all(c.is_zero() for c in lifted.comps[2:])
    # Te(y+z) = Te(y) + Te(z) modulo W(pZp[mu]) + V^l W
    for _ in range(6):
        y, z = rand_fq_vec(f4, rng, 2), rand_fq_vec(f4, rng, 2)
        lhs = te_lift(witt_add(y, z), ring, 2)
        rhs = witt_add(te_lift(y, ring, 2), te_lift(z, ring, 2))
        diff = witt_add(lhs, witt_neg(rhs))
        for c in diff.comps:
            assert c.residue() == f4.zero()


def test_witt_trace_spec_examples():
    f2 = finite_field(2, 1)
    f4 = finite_field(2, 2)
    rng = random.Random(23)
    # r = 1: identity
    y = rand_fq_vec(f2, rng, 2)
    assert witt_trace(y, 1, 1) == y
    # y drawn from the base field, embedded: trace = r*y
    emb, _ = f2.embedding_into(f4)
    for _ in range(5):
        y = rand_fq_vec(f2, rng, 2)
        up = witt_map(emb, y, f4)
        assert witt_trace(up, 1, 2) == scalar_nat(y, 2)
    # first component of trace(tau(u)) is the field trace of u
    for u in f4.elements():
        tr = witt_trace(tau(f4, u, 2), 1, 2)
        expect = u + u**2
        assert emb(tr[0]) == expect


def test_witt_trace_wrong_field_raises():
    f4 = finite_field(2, 2)
    y = WittVec(f4, [f4.one(), f4.zero()])
    with pytest.raises(RingMismatch):
        witt_trace(y, 1, 3)  # s*r = 3 but the field has degree 2


def rand_mixed_prec_vec(ring, rng, length):
    """A random vector whose components carry random precisions up to the cap."""
    return WittVec(
        ring, [ring.random(rng, prec=rng.randrange(1, ring.cap + 1)) for _ in range(length)]
    )


def test_power_and_multiple_ladders_match_repeated_ops(monkeypatch):
    # a ** n and scalar_nat(a, n) take fields.pow_ladder on witt_mul and
    # witt_add: n.bit_length() - 1 + popcount(n) - 1 calls, with the values
    # and every component's precision of a * a * ... * a and a + a + ... + a
    from wittlab import wittvec

    def state(v):
        return [(c.co, getattr(c, "prec", None)) for c in v.comps]

    rng = random.Random(1212)
    tower = make_ring(RingSpec(2, 2, 1, LubinTateSeries.cyclotomic(2), 12))
    vecs = [
        rand_mixed_prec_vec(ring_of(2, nprec=14), rng, 3),
        rand_mixed_prec_vec(ring_of(3, nprec=10), rng, 4),
        rand_mixed_prec_vec(tower, rng, 3),
        rand_fq_vec(finite_field(2, 2), rng, 4),
    ]
    for a in vecs:
        sums, prods = [zero_vec(a.ring, len(a)), a], [None, a]
        for _ in range(11):
            sums.append(witt_add(sums[-1], a))
            prods.append(witt_mul(prods[-1], a))
        calls = []
        for name in ("witt_add", "witt_mul"):
            real = getattr(wittvec, name)
            monkeypatch.setattr(
                wittvec, name, lambda x, y, real=real, name=name: calls.append(name) or real(x, y)
            )
        for n in range(13):
            want = n.bit_length() + bin(n).count("1") - 2 if n else 0
            calls.clear()
            assert state(scalar_nat(a, n)) == state(sums[n]), (a.ring, n)
            assert calls == ["witt_add"] * want, n
            if n:
                calls.clear()
                assert state(a**n) == state(prods[n]), (a.ring, n)
                assert calls == ["witt_mul"] * want, n
        monkeypatch.undo()


def test_transport_agrees_with_universal_polynomials():
    # over a TowerRing the Witt ops take ghost transport, and the universal
    # polynomials are an independent code path: values and the precision of
    # every component must agree wherever both apply
    rings = [
        (ring_of(2, nprec=14), (3, 4, 5)),
        (ring_of(3, nprec=10), (3, 4)),  # length 5 at p = 3 evaluates S_4: slow
        (make_ring(RingSpec(2, 2, 1, LubinTateSeries.cyclotomic(2), 12)), (4, 5)),
    ]
    rng = random.Random(4242)
    for ring, lengths in rings:
        for length in lengths:
            for _ in range(4):
                a = rand_mixed_prec_vec(ring, rng, length)
                b = rand_mixed_prec_vec(ring, rng, length)
                pairs = [
                    ("add", witt_add(a, b), universal("sum", [a, b], length)),
                    ("mul", witt_mul(a, b), universal("prod", [a, b], length)),
                    ("neg", witt_neg(a), universal("neg", [a], length)),
                    ("frob", frob(a), universal("frob", [a], length - 1)),
                ]
                for op, fast, slow in pairs:
                    assert fast == slow, (ring, length, op)
                    precs = [c.prec for c in fast.comps]
                    assert precs == [c.prec for c in slow.comps], (ring, length, op)


def test_tower_ops_build_no_universal_family(monkeypatch):
    # over a TowerRing every length takes ghost transport; a dispatch that
    # fell back to the universal polynomials would build S_4 and P_4 here
    # (and hang on S_4 at p = 5), and now raises at once instead
    from wittlab import upoly, wittvec

    def refuse(*args, **kwargs):
        raise AssertionError(f"universal family built: {args}")

    monkeypatch.setattr(upoly, "structural_polys", refuse)
    assert not hasattr(wittvec, "structural_polys")
    rng = random.Random(5151)
    for ring in (ring_of(3, nprec=10), ring_of(5, nprec=8)):
        a, b = rand_vec(ring, rng, 5), rand_vec(ring, rng, 5)
        ga, gb = ghost_map(a), ghost_map(b)
        assert ghost_map(witt_add(a, b)) == ga + gb
        assert ghost_map(witt_mul(a, b)) == ga * gb
        assert witt_add(a, witt_neg(a)).is_zero()
        assert ghost_map(frob(a)) == ghost_shift(ga)


@pytest.mark.parametrize(
    "p,s,n",
    [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 4), (3, 1, 1), (3, 1, 2), (3, 1, 3),
     (2, 2, 1), (2, 2, 2), (2, 2, 3), (5, 1, 1), (5, 1, 2), (7, 1, 2), (2, 3, 2),
     (3, 2, 2)],
)
def test_field_ops_agree_with_universal_polynomials(p, s, n):
    # exhaustive over W_n(F_q): every pair for sum and product, every vector
    # for negation and Frobenius, against the universal polynomials
    field = finite_field(p, s)
    vecs = [
        WittVec(field, [field.from_index(i) for i in combo])
        for combo in itertools.product(range(field.q), repeat=n)
    ]
    for a in vecs:
        assert witt_neg(a) == universal("neg", [a], n), a
        if n > 1:
            assert frob(a) == universal("frob", [a], n - 1), a
        for b in vecs:
            assert witt_add(a, b) == universal("sum", [a, b], n), (a, b)
            assert witt_mul(a, b) == universal("prod", [a, b], n), (a, b)


@pytest.mark.parametrize("p,s,n", [(2, 2, 3), (3, 2, 2)])
def test_zq_tables_round_trip_every_vector(p, s, n):
    # W_n(F_q) -> Z_q/p^n -> W_n(F_q) is the identity on every vector
    from wittlab.wittvec import _from_zq, _to_zq, _zq_table

    field = finite_field(p, s)
    table = _zq_table(field, n)
    for combo in itertools.product(field.elements(), repeat=n):
        a = WittVec(field, combo)
        assert _from_zq(field, table, _to_zq(table, a)) == a, a


def test_digit_peel_refuses_a_lift_off_its_residue(monkeypatch):
    # the way back from Z_q/p^n divides x - [r] by p, r = x mod p; a table
    # whose Teichmueller row differs from r mod p leaves a remainder, which
    # is refused with NotDivisible and never returned as a vector
    from wittlab import wittvec

    real = wittvec._zq_table

    def skewed(field, n):
        ring, rows, frobs = real(field, n)
        teich = {k: (t[0] + 1,) + t[1:] for k, t in rows[0].items()}
        return ring, [teich, *rows[1:]], frobs

    monkeypatch.setattr(wittvec, "_zq_table", skewed)
    f4 = finite_field(2, 2)
    rng = random.Random(6363)
    for length in (2, 3, 4):
        a, b = rand_fq_vec(f4, rng, length), rand_fq_vec(f4, rng, length)
        for call in (lambda: witt_add(a, b), lambda: witt_mul(a, b), lambda: witt_neg(a)):
            with pytest.raises(NotDivisible):
                call()


def test_field_ops_build_no_universal_family(monkeypatch):
    # over F_q every length takes Z_q/p^n; a dispatch that fell back to the
    # universal polynomials would need S_4 and P_4 at p = 5, and raises here
    from wittlab import upoly

    def refuse(*args, **kwargs):
        raise AssertionError(f"universal polynomials used: {args}")

    monkeypatch.setattr(upoly, "structural_polys", refuse)
    monkeypatch.setattr(upoly, "eval_plan_at", refuse)
    rng = random.Random(5252)
    for field, length in ((finite_field(5, 1), 5), (finite_field(2, 2), 7)):
        a, b, c = (rand_fq_vec(field, rng, length) for _ in range(3))
        assert witt_add(a, b) == witt_add(b, a)
        assert witt_mul(a, witt_add(b, c)) == witt_add(witt_mul(a, b), witt_mul(a, c))
        assert witt_add(a, witt_neg(a)).is_zero()
        assert frob(a) == WittVec(field, [x**field.p for x in a.comps[:-1]])
