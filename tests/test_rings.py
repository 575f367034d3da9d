"""Coefficient rings: Eisenstein layers, valuation, Teichmueller, Frobenius."""

import operator
import random

import pytest

from wittlab.characters import CharParams
from wittlab.errors import (
    InvalidParameter, NonEisenstein, NotDivisible, ReportedMismatch, RingMismatch,
)
from wittlab.fields import FqElem, convolve, finite_field, is_prime
from wittlab.rings import (
    LubinTateSeries,
    RingElem,
    RingSpec,
    SeriesPacking,
    TowerRing,
    eisenstein_poly,
    lt_iterate_exact,
    make_ring,
    nondegenerate_trace,
    ring_of,
)
from wittlab.series import pulita_theta_ms, robba
from wittlab.upoly import ghost_poly
from wittlab.wittvec import WittVec, one_vec, witt_add, zero_vec

from helpers import embed_from_lower, gauss_valuation, random_integral_unit
from packing_oracle import pack_bytewise, pack_terms, read_tuples

_LEVEL0 = RingSpec(2, 1, 0, LubinTateSeries.cyclotomic(2), 8)


def test_lubin_tate_coefficients():
    assert LubinTateSeries.plain(2).f_coeffs() == [0, 2, 1]
    assert LubinTateSeries.plain(3).f_coeffs() == [0, 3, 0, 1]
    # (1+T)^3 - 1 = 3T + 3T^2 + T^3
    assert LubinTateSeries.cyclotomic(3).f_coeffs() == [0, 3, 3, 1]
    assert LubinTateSeries.cyclotomic(2).f_coeffs() == [0, 2, 1]
    # (1+T)^5 - 1
    assert LubinTateSeries.cyclotomic(5).f_coeffs() == [0, 5, 10, 10, 5, 1]


@pytest.mark.parametrize(
    "args",
    [
        (2, 0, -1, None, 8),  # s = 0
        (2, 1, -2, None, 8),  # m below -1
        (2, 1, -1, None, 0),  # N = 0
        (2, 1, 1, None, 8),  # a level without a Lubin-Tate series
        (2, 1, 1, LubinTateSeries.cyclotomic(3), 8),  # series for another p
    ],
)
def test_ring_spec_rejects_invalid_fields(args):
    # typed errors, not asserts: they hold under python -O too
    with pytest.raises(InvalidParameter):
        RingSpec(*args)


@pytest.mark.parametrize(
    "record,changes",
    [
        (RingSpec(2, 1, -1, None, 8), {"s": 0}),
        (RingSpec(2, 1, -1, None, 8), {"m": -2}),
        (RingSpec(2, 1, -1, None, 8), {"nprec": 0}),
        (RingSpec(2, 1, -1, None, 8), {"m": 1}),
        (_LEVEL0, {"lt": LubinTateSeries.cyclotomic(3)}),
        (LubinTateSeries.plain(2), {"p": 4}),
        (LubinTateSeries.cyclotomic(3), {"p": 9}),
        (CharParams(2, 1, 2), {"p": 4}),
        (CharParams(2, 1, 2), {"s": 1.5}),
        (CharParams(2, 1, 2), {"ell": 0}),
        (CharParams(2, 1, 2), {"u_index": 2}),
        (CharParams(2, 1, 2), {"nprec": 0}),
        (CharParams(2, 1, 2), {"degree": 0}),
        (CharParams(3, 1, 2), {"target_prec": 2.5}),
    ],
    ids=lambda v: "-".join(v) if isinstance(v, dict) else type(v).__name__,
)
def test_records_validate_on_every_path(record, changes):
    # replace, _replace and _make build through the constructor, so each
    # refuses what construction refuses, with the same message
    fields = dict(record._asdict(), **changes)
    with pytest.raises(InvalidParameter) as want:
        type(record)(**fields)
    for build in (
        lambda: record.replace(**changes),
        lambda: record._replace(**changes),
        lambda: type(record)._make(fields.values()),
    ):
        with pytest.raises(InvalidParameter) as got:
            build()
        assert str(got.value) == str(want.value)
    assert record.replace() == record._replace() == record
    assert type(record.replace()) is type(record)


def test_lubin_tate_series_keeps_its_coefficients_as_a_tuple():
    # G given as a list was kept as one, so make_ring failed on hashing it;
    # it is kept as a tuple, and the ring is the one built from the tuple
    lt = LubinTateSeries(2, [1])
    assert lt.g_coeffs == (1,) and lt == LubinTateSeries(2, (1,)) and lt.tag() == "custom1"
    assert make_ring(RingSpec(2, 1, 0, lt, 8)) is make_ring(RingSpec(2, 1, 0, lt.replace(), 8))


def test_cyclotomic_series_needs_a_prime():
    for p in (0, 1, 4, 9):
        with pytest.raises(InvalidParameter, match="not prime"):
            LubinTateSeries.cyclotomic(p)


def test_eisenstein_plain_level0():
    for p in (2, 3, 5):
        eis = eisenstein_poly(LubinTateSeries.plain(p), 0)
        expect = [p] + [0] * (p - 2) + [1]
        assert eis == expect


def test_eisenstein_cyclotomic_level1_p2():
    # F(T) = 2T + T^2, E_1 = F(F(T))/F(T) = T^2 + 2T + 2
    eis = eisenstein_poly(LubinTateSeries.cyclotomic(2), 1)
    assert eis == [2, 2, 1]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_eisenstein_times_f_m_is_f_m_plus_1(p):
    # E_m = F^(m+1)/F^m exactly over Z, for plain, cyclotomic and custom G
    for lt in (LubinTateSeries.plain(p), LubinTateSeries.cyclotomic(p), LubinTateSeries(p, (1, 2))):
        for m in range(3):
            eis = eisenstein_poly(lt, m)
            assert convolve(eis, lt_iterate_exact(lt, m)) == lt_iterate_exact(lt, m + 1)


def test_eisenstein_rejects_fat_g():
    # deg G > p - 2 pushes deg E_m above p^m (p-1)
    lt = LubinTateSeries(2, (0, 1))
    with pytest.raises(NonEisenstein):
        make_ring(RingSpec(2, 1, 0, lt, 8))


def test_plain_zpn_ring():
    ring = ring_of(3, nprec=5)
    x = ring.from_int(7)
    assert (x * x).co == (49 % 3**5,)
    assert ring.from_int(3**5).is_zero()
    assert x.valuation() == 0
    assert ring.from_int(9).valuation() == 2
    assert ring.zero().valuation() == ring.cap


@pytest.mark.parametrize("p,m", [(2, 0), (2, 1), (3, 0), (3, 1), (2, 2), (3, 2)])
@pytest.mark.parametrize("tag", ["plain", "cyclotomic"])
def test_uniformizer_and_p_valuations(p, m, tag):
    lt = LubinTateSeries.plain(p) if tag == "plain" else LubinTateSeries.cyclotomic(p)
    ring = make_ring(RingSpec(p, 1, m, lt, 10))
    e = p**m * (p - 1)
    assert ring.e == e
    assert ring.pi().valuation() == 1
    assert ring.from_int(p).valuation() == e
    assert ring.zero().valuation() == ring.cap


@pytest.mark.parametrize(
    "spec",
    [
        RingSpec(3, nprec=5),
        RingSpec(2, nprec=8),
        RingSpec(2, 2, nprec=8),
        RingSpec(3, 2, nprec=6),
        _LEVEL0,
        RingSpec(3, 1, 0, LubinTateSeries.cyclotomic(3), 6),
        RingSpec(2, 1, 1, LubinTateSeries.cyclotomic(2), 8),
        RingSpec(3, 1, 1, LubinTateSeries.plain(3), 5),
        RingSpec(2, 2, 1, LubinTateSeries.cyclotomic(2), 8),
    ],
    ids=lambda spec: f"p{spec.p}-s{spec.s}-m{spec.m}-N{spec.nprec}",
)
def test_val_co_reads_cap_exactly_at_zero(spec):
    # snap reads v == ring.cap as "equal mod p^N": the zero tuple reads cap,
    # and every nonzero tuple mod p^N reads min_i (i + e v_p(c_i)) < cap
    ring = make_ring(spec)
    p, e, s, n = ring.p, ring.e, ring.s, ring.nprec
    assert ring.val_co((0,) * ring.dim) == ring.cap == ring.zero().valuation()
    # the largest nonzero valuation: p^(N-1) on pi^(e-1) y^(s-1)
    edge = (0,) * (ring.dim - 1) + (p ** (n - 1),)
    assert ring.val_co(edge) == ring.cap - 1

    def vp(c):
        return next(v for v in range(n) if c % p ** (v + 1))

    # seeded nonzero tuples, sparse and of every valuation
    rng = random.Random(83)
    for _ in range(200):
        k = rng.randrange(n)
        co = tuple(rng.randrange(p ** (n - k)) * p**k * rng.randrange(2) for _ in range(ring.dim))
        if any(co):
            want = min(i // s + e * vp(c) for i, c in enumerate(co) if c)
            assert ring.val_co(co) == want < ring.cap, co


# the rings of the gauss --sweep goldens (W_2(F_q): level 1, N = 16) and of
# the witt-laws workload: Z/2^10 and Z/3^8 with ghost transport's headroom,
# and F_4's Z_4/2^n at the lengths 1-4
_GOLDEN_SPECS = [
    RingSpec(p, s, 1, LubinTateSeries.cyclotomic(p), 16)
    for p, s in [(2, 1), (2, 2), (3, 1), (2, 3), (3, 2), (5, 1)]
]
_WITT_LAWS_SPECS = (
    [RingSpec(2, nprec=n) for n in range(10, 15)]
    + [RingSpec(3, nprec=n) for n in range(8, 13)]
    + [RingSpec(2, 2, nprec=n) for n in range(1, 5)]
)


def _spec_id(spec):
    return f"p{spec.p}-s{spec.s}-m{spec.m}-N{spec.nprec}"


@pytest.mark.parametrize("spec", _GOLDEN_SPECS + _WITT_LAWS_SPECS, ids=_spec_id)
def test_val_co_matches_the_definition(spec):
    # one gcd against a v_p per coordinate: seeded tuples scaled by p^k,
    # each coordinate by a further power, signed, some exact multiples of
    # p^N (k up to N + 1), and the zero tuple
    ring = make_ring(spec)
    p, n, pn, dim = ring.p, ring.nprec, ring.pn, ring.dim
    rng = random.Random(38)
    cases = [(0,) * dim, (pn,) * dim, tuple(-k * pn for k in range(dim)), (-1,) + (0,) * (dim - 1)]
    for _ in range(300):
        k = rng.randrange(n + 2)
        cases.append(tuple(
            rng.randrange(-pn, pn) * p ** rng.randrange(k, n + 2) * rng.randrange(2)
            for _ in range(dim)
        ))
    for co in cases:
        assert ring.val_co(co) == gauss_valuation(ring, co), co
        reduced = tuple(c % pn for c in co)
        assert ring.val_co(co) == ring.val_co(reduced) == RingElem(ring, reduced).valuation()


def unramified_product(ring, co, u):
    """co times the unramified element with coordinates u, as the Z/p^N
    combination sum_k u_k (co y^k) of ring products by y^k."""
    ypows = [(0,) * k + (1,) + (0,) * (ring.dim - k - 1) for k in range(ring.s)]
    cols = [ring.mul_co(co, y) for y in ypows]
    return tuple(sum(map(operator.mul, row, u)) % ring.pn for row in zip(*cols))


@pytest.mark.parametrize("spec", _GOLDEN_SPECS + _WITT_LAWS_SPECS[::5], ids=_spec_id)
def test_mul_ur_is_the_product_by_an_unramified_element(spec):
    # the product by u in Z_q/p^N is Z/p^N-linear in u's s coordinates, the
    # identity behind the Gauss trace total's matrix: against mul_co with
    # from_ur(u), on reduced coordinates of u and on unreduced signed ones
    ring = make_ring(spec)
    rng = random.Random(5)
    for _ in range(20):
        x, u = ring.random(rng), ring.random(rng).co[: ring.s]
        want = (x * ring.from_ur(u)).co
        assert unramified_product(ring, x.co, u) == want
        shifted = [c - rng.randrange(3) * ring.pn for c in u]
        assert unramified_product(ring, x.co, shifted) == want


@pytest.mark.parametrize("spec", _GOLDEN_SPECS, ids=_spec_id)
def test_teichmuller_lifts_lie_in_the_unramified_subring(spec):
    # every lift's coordinates past the first s are 0, so the product by it
    # is the combination of products by y^k with its first s coordinates
    ring = make_ring(spec)
    x = ring.random(random.Random(7))
    for u in ring.residue_field.elements():
        lift = ring.teichmuller(u)
        assert not any(lift.co[ring.s :]), u
        assert unramified_product(ring, x.co, lift.co[: ring.s]) == (x * lift).co


def test_teichmuller_table_refuses_a_lift_off_the_unramified_subring(monkeypatch):
    # the table's only product by 1 is its first lift, 1 * Teich(g): skewed
    # onto pi, that lift leaves the subring, and the table is refused with a
    # typed error (it holds under python -O)
    ring = TowerRing(RingSpec(3, 1, 1, LubinTateSeries.cyclotomic(3), 5))
    one, real = ring.one().co, RingElem.__mul__

    def skewed(self, other):
        out = real(self, other)
        if self.co == one:
            out = RingElem(ring, out.co[:1] + (1,) + out.co[2:], out.prec)
        return out

    monkeypatch.setattr(RingElem, "__mul__", skewed)
    with pytest.raises(ReportedMismatch, match="unramified subring"):
        ring.teichmuller(ring.residue_field.gen())


def test_tower_compatibility_F_of_pi():
    # F(pi_{m+1}) = pi_m holds inside the level-(m+1) ring
    for p, tag in [(2, "plain"), (2, "cyclotomic"), (3, "plain"), (3, "cyclotomic")]:
        lt = LubinTateSeries.plain(p) if tag == "plain" else LubinTateSeries.cyclotomic(p)
        ring = make_ring(RingSpec(p, 1, 2, lt, 8))
        pi2 = ring.pi()
        pi1 = ring.eval_int_poly(lt.f_coeffs(), pi2)
        pi0 = ring.eval_int_poly(lt.f_coeffs(), pi1)
        assert pi1 == ring.pi_level(1)
        assert pi0 == ring.pi_level(0)
        # F(pi_0) = 0 exactly in the ring
        assert ring.eval_int_poly(lt.f_coeffs(), pi0).is_zero()


def test_ring_axioms_random():
    rng = random.Random(11)
    specs = [
        RingSpec(2, 1, 1, LubinTateSeries.cyclotomic(2), 8),
        RingSpec(3, 1, 1, LubinTateSeries.plain(3), 6),
        RingSpec(2, 2, 1, LubinTateSeries.cyclotomic(2), 8),
        RingSpec(3, 2, -1, None, 6),
    ]
    for spec in specs:
        ring = make_ring(spec)
        for _ in range(25):
            a, b, c = (ring.random(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + (b + c) == (a + b) + c
            assert a * ring.one() == a
            assert (a - a).is_zero()


def test_valuation_multiplicative():
    rng = random.Random(5)
    ring = make_ring(RingSpec(3, 2, 1, LubinTateSeries.cyclotomic(3), 8))
    for _ in range(40):
        a, b = ring.random(rng), ring.random(rng)
        va, vb = a.valuation(), b.valuation()
        if va + vb >= ring.cap // 2:
            continue
        assert (a * b).valuation() == va + vb


def test_teichmuller_basics():
    fq = finite_field(3, 1)
    ring = make_ring(RingSpec(3, 1, 0, LubinTateSeries.plain(3), 10))
    assert ring.teichmuller(fq.from_int(0)).is_zero()
    assert ring.teichmuller(fq.from_int(1)) == ring.one()
    # p odd, u = -1: lift is -1
    assert ring.teichmuller(fq.from_int(-1)) == -ring.one()


def test_teichmuller_order_q4():
    fq = finite_field(2, 2)
    ring = make_ring(RingSpec(2, 2, -1, None, 12))
    u = fq.gen()
    t = ring.teichmuller(u)
    assert not (t ** 1).from_int_like(1) == t  # t != 1
    assert t**3 == ring.one()
    assert t.residue() == u


# unramified, e = 1 at a level (p = 2, m = 0), and ramified with s > 1
_SHAPES = [
    RingSpec(3, 2, -1, None, 9),
    RingSpec(2, 1, -1, None, 16),
    RingSpec(2, 4, 0, LubinTateSeries.plain(2), 5),
    RingSpec(2, 2, 1, LubinTateSeries.cyclotomic(2), 10),
    RingSpec(3, 2, 1, LubinTateSeries.cyclotomic(3), 8),
    RingSpec(2, 3, 2, LubinTateSeries.plain(2), 6),
    RingSpec(5, 1, 1, LubinTateSeries.cyclotomic(5), 5),
]


def test_teichmuller_multiplicative():
    # every lift of each ring's table, on exact coordinates: it reduces to its
    # residue, is fixed by x -> x^q, and the table is multiplicative
    for spec in _SHAPES:
        ring = make_ring(spec)
        fq = ring.residue_field
        lifts = {u.co: ring.teichmuller(u) for u in fq.elements()}
        assert not any(lifts[fq.zero().co].co)
        for u in fq.elements():
            t = lifts[u.co]
            assert t.residue() == u
            assert (t**fq.q).co == t.co
            for v in fq.units():
                assert (t * lifts[v.co]).co == lifts[(u * v).co].co


def test_frobenius_phi_properties():
    for spec in [spec for spec in _SHAPES if spec.s > 1]:
        ring = make_ring(spec)
        fq = ring.residue_field
        rng = random.Random(17)
        # sigma(y) is an exact root of h, and = y^p mod p
        y = ring.y_gen()
        assert not any(ring.eval_int_poly(ring.h_coeffs + (1,), y.phi()).co)
        assert all(c % ring.p == 0 for c in (y.phi() - y**ring.p).co)
        if ring.m >= 0:  # phi fixes pi
            assert ring.pi().phi() == ring.pi()
        # phi(Teich(u)) = Teich(u^p)
        for u in fq.units():
            assert ring.teichmuller(u).phi() == ring.teichmuller(u.frobenius())
        for _ in range(20):
            a, b = ring.random(rng), ring.random(rng)
            assert (a * b).phi() == a.phi() * b.phi()
            assert (a + b).phi() == a.phi() + b.phi()
            assert a.phi(ring.s) == a
        # phi(x) = x^p mod maximal ideal for units
        for _ in range(10):
            x = random_integral_unit(ring, rng)
            assert (x.phi() - x**ring.p).valuation() >= 1


def test_exact_div_p():
    ring = make_ring(RingSpec(3, 1, 1, LubinTateSeries.plain(3), 8))
    assert ring.from_int(3).exact_div_p() == ring.one()
    assert ring.from_int(9).exact_div_p() == ring.from_int(3)
    assert ring.from_int(9).exact_div_p().prec == ring.cap - ring.e
    with pytest.raises(NotDivisible):
        ring.pi().exact_div_p()


def test_exact_div_p_never_declares_a_negative_precision():
    # from_int(4) at precision 0 over Z/2^8: each division by p would lose
    # e = 1 more digit; the declared precision stops at 0, as delta's does
    ring = ring_of(2, nprec=8)
    x = RingElem(ring, ring.from_int(4).co, 0)
    assert (x.exact_div_p().co, x.exact_div_p().prec) == ((2,), 0)
    assert (x.exact_div_p(2).co, x.exact_div_p(2).prec) == ((1,), 0)
    assert RingElem(ring, x.co, 3).exact_div_p(2).prec == 1


@pytest.mark.parametrize("spec", [
    RingSpec(2, 1, -1, None, 8),
    RingSpec(3, 1, 1, LubinTateSeries.plain(3), 6),
    RingSpec(2, 2, 1, LubinTateSeries.cyclotomic(2), 6),
])
def test_equality_truth_table_matches_the_valuation_of_the_difference(spec):
    # RingElem.__eq__ reads the valuation of the coordinate difference; on
    # random pairs at mixed precisions, some equal and some congruent to
    # high order, it answers as (x - y).valuation() >= min(precisions) did
    ring = make_ring(spec)
    rng = random.Random(2029)
    answers = set()
    for _ in range(300):
        x = ring.random(rng, prec=rng.randrange(ring.cap + 1))
        shift = ring.from_int(ring.p ** rng.randrange(ring.nprec + 1))
        y = x + shift * ring.random(rng) if rng.randrange(4) else x
        y = RingElem(ring, y.co, rng.randrange(ring.cap + 1))
        want = (x - y).valuation() >= min(x.prec, y.prec)
        assert (x == y, y == x) == (want, want)
        answers.add(want)
    assert answers == {True, False}


def _pow_co_rings():
    return [ring_of(3, nprec=8), ring_of(2, 2, 1, LubinTateSeries.cyclotomic(2), 8)]


@pytest.mark.parametrize("ring", _pow_co_rings(), ids=repr)
def test_pow_co_matches_the_ladder(ring):
    from wittlab.fields import pow_ladder

    rng = random.Random(77)
    for _ in range(5):
        co = ring.random(rng).co
        for n in range(1, 13):
            assert ring.pow_co(co, n) == pow_ladder(co, n, ring.mul_co), n


def test_pow_co_multiplies_as_often_as_the_ladder(monkeypatch):
    # off the one-coordinate ring pow_co is the ladder on mul_co itself
    from wittlab.fields import pow_ladder
    from wittlab.rings import TowerRing

    ring = _pow_co_rings()[1]
    assert ring.e > 1 and ring.s > 1
    co = ring.random(random.Random(78)).co
    calls = []
    mul_co = TowerRing.mul_co
    monkeypatch.setattr(TowerRing, "mul_co", lambda *a: calls.append(1) or mul_co(*a))
    for n in range(1, 13):
        calls.clear()
        ring.pow_co(co, n)
        by_pow_co = len(calls)
        calls.clear()
        pow_ladder(co, n, ring.mul_co)
        assert by_pow_co == len(calls) == n.bit_length() - 1 + bin(n).count("1") - 1, n


def test_with_precision_keeps_the_spec_not_the_ring(monkeypatch):
    # a cache of our own, so clearing it leaves the package's rings alone
    import functools

    from wittlab import rings

    monkeypatch.setattr(rings, "make_ring", functools.lru_cache(maxsize=None)(rings.TowerRing))
    ring = ring_of(3, nprec=8)
    big = ring.with_precision(11)
    assert big is ring_of(3, nprec=11)
    rings.make_ring.cache_clear()
    again = ring.with_precision(11)
    assert again is ring_of(3, nprec=11)
    assert again is not big


def test_embed_lower_spec_examples():
    for p, tag in [(2, "cyclotomic"), (3, "plain")]:
        lt = LubinTateSeries.plain(p) if tag == "plain" else LubinTateSeries.cyclotomic(p)
        low = make_ring(RingSpec(p, 1, 0, lt, 8))
        high = make_ring(RingSpec(p, 1, 1, lt, 8))
        x = low.pi()
        emb = embed_from_lower(high, x)
        assert emb == high.eval_int_poly(lt.f_coeffs(), high.pi())
        assert embed_from_lower(high, low.one()) == high.one()
        # valuation is multiplied by e_m / e_{m-1} = p
        assert emb.valuation() == p * x.valuation()
        # embedding is a ring morphism on random elements
        rng = random.Random(23)
        for _ in range(10):
            a, b = low.random(rng), low.random(rng)
            assert embed_from_lower(high, a * b) == (
                embed_from_lower(high, a) * embed_from_lower(high, b)
            )
            assert embed_from_lower(high, a + b) == (
                embed_from_lower(high, a) + embed_from_lower(high, b)
            )


def test_embed_mismatch_raises():
    low = make_ring(RingSpec(2, 1, 0, LubinTateSeries.plain(2), 8))
    high = make_ring(RingSpec(3, 1, 1, LubinTateSeries.plain(3), 8))
    with pytest.raises(RingMismatch):
        embed_from_lower(high, low.pi())


def test_nondegenerate_trace():
    ring = make_ring(RingSpec(2, 2, -1, None, 10))
    fq = finite_field(2, 2)
    u = fq.gen()
    ok, tr = nondegenerate_trace(ring, ring.teichmuller(u))
    assert ok  # u + u^2 = 1 for the F_4 generator
    ok1, _ = nondegenerate_trace(ring, ring.one())
    assert not ok1  # Tr(1) = 2 = 0 mod 2


def test_serialization_shape():
    ring = make_ring(RingSpec(2, 2, 1, LubinTateSeries.cyclotomic(2), 6))
    obj = ring.pi().to_json_obj()
    assert obj["level"] == 1 and obj["s"] == 2 and obj["N"] == 6
    assert len(obj["coords"]) == ring.e and len(obj["coords"][0]) == ring.s


def test_is_prime():
    assert [n for n in range(-2, 30) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(7919 * 7919) and is_prime(7919)


def test_finite_field_basics():
    fq = finite_field(2, 4)
    assert fq.modulus == (1, 0, 0, 1)  # y^4 + y^3 + 1, least under (c_0, c_1, ...)
    g = fq.multiplicative_generator()
    seen = set()
    acc = fq.one()
    for _ in range(fq.q - 1):
        acc = acc * g
        seen.add(acc.co)
    assert len(seen) == fq.q - 1
    f9 = finite_field(3, 2)
    assert f9.modulus == (1, 0)  # y^2 + 1
    assert f9.absolute_trace(f9.gen()) == 0
    assert f9.absolute_trace(f9.one()) == 2


def test_field_embedding():
    f4 = finite_field(2, 2)
    f16 = finite_field(2, 4)
    emb, unemb = f4.embedding_into(f16)
    for a in f4.elements():
        for b in f4.elements():
            assert emb(a * b) == emb(a) * emb(b)
            assert emb(a + b) == emb(a) + emb(b)
            assert unemb(emb(a)) == a
    # image is exactly the q-power-fixed subfield
    fixed = [x for x in f16.elements() if x ** 4 == x]
    assert sorted(emb(a).co for a in f4.elements()) == sorted(x.co for x in fixed)


def test_field_element_coordinates_are_reduced_and_counted():
    # (3, 0) is 1 in F_4, so it equals one() and Witt arithmetic reads it by
    # its reduced coordinates; a tuple of the wrong length is refused
    f4 = finite_field(2, 2)
    three = FqElem(f4, (3, 0))
    assert three == f4.one() and three.co == (1, 0) and hash(three) == hash(f4.one())
    a = WittVec(f4, [three, f4.gen()])
    assert witt_add(a, zero_vec(f4, 2)) == WittVec(f4, [f4.one(), f4.gen()])
    assert FqElem(f4, (-1, 5)) == f4.from_coeffs((1, 1)) == f4.from_index(3)
    for co in ((1,), (1, 0, 0), ()):
        with pytest.raises(InvalidParameter, match=f"2 coordinates, not {len(co)}"):
            FqElem(f4, co)


def test_field_subtraction_and_negative_powers():
    # x - y is x + (-y) coordinate by coordinate, and x^(-n) is the inverse
    # of x^n: x^(-n) x^n = 1 for every unit and every n up to q - 1
    for f in (finite_field(2, 2), finite_field(3, 2), finite_field(5, 1)):
        for x in f.elements():
            for y in f.elements():
                assert x - y == x + (-y) and (x - y) + y == x
            if x:
                for n in range(1, f.q):
                    assert x**-n * x**n == f.one()
                    assert x**-n == (x**n).inverse()


def test_field_elements_of_different_fields_do_not_mix():
    # zip truncated the longer coefficient tuple, so F_4 + F_8 gave an F_4
    # element; now each binary operation refuses, as RingElem's do
    f4, f8, f9 = finite_field(2, 2), finite_field(2, 3), finite_field(3, 2)
    for a, b in ((f4.gen(), f8.gen()), (f8.gen(), f4.gen()), (f4.one(), f9.one())):
        for op in (operator.add, operator.sub, operator.mul):
            with pytest.raises(RingMismatch):
                op(a, b)
    with pytest.raises(RingMismatch):
        f4.gen() + 1


def test_inverse_units_and_failure():
    from wittlab.errors import NotUnit

    ring = make_ring(RingSpec(3, 2, 1, LubinTateSeries.cyclotomic(3), 8))
    rng = random.Random(71)
    for _ in range(8):
        x = random_integral_unit(ring, rng)
        assert x * x.inverse() == ring.one()
    with pytest.raises(NotUnit):
        ring.pi().inverse()


def test_embed_from_unramified_part():
    # m = -1 coefficients embed as scalars of the ramified composite
    low = make_ring(RingSpec(2, 2, -1, None, 8))
    high = make_ring(RingSpec(2, 2, 1, LubinTateSeries.cyclotomic(2), 8))
    rng = random.Random(73)
    for _ in range(6):
        a, b = low.random(rng), low.random(rng)
        assert embed_from_lower(high, a * b) == (
            embed_from_lower(high, a) * embed_from_lower(high, b)
        )
    fq = finite_field(2, 2)
    u = fq.gen()
    assert embed_from_lower(high, low.teichmuller(u)) == high.teichmuller(u)


@pytest.mark.parametrize(
    "call,needle",
    [
        (lambda: ring_of(3, nprec=8).from_int(2) ** -1, "exponent -1"),
        (lambda: ring_of(2, 1, nprec=8).y_gen(), "s > 1"),
        (lambda: ring_of(2, 2, nprec=8).pi(), "level m >= 0"),
        (lambda: make_ring(RingSpec(2, 1, 1, LubinTateSeries.cyclotomic(2), 8)).pi_level(2),
         "level 2 outside 0..1"),
        (lambda: make_ring(RingSpec(2, 1, 1, LubinTateSeries.cyclotomic(2), 8)).pi_level(-1),
         "level -1 outside 0..1"),
        (lambda: pulita_theta_ms(make_ring(_LEVEL0), 0, 0, one_vec(make_ring(_LEVEL0), 2), 8),
         "s >= 1, have 0"),
        # a float N gave a ring with N = 2.5, a float s or p a bare TypeError
        (lambda: ring_of(2, nprec=2.5), "N = 2.5 is not an integer"),
        (lambda: ring_of(2, 1.5), "s = 1.5 is not an integer"),
        (lambda: RingSpec(2, 1, 0.0, LubinTateSeries.plain(2)), "m = 0.0 is not an integer"),
        (lambda: LubinTateSeries(2.0), "p = 2.0 is not an integer"),
        (lambda: LubinTateSeries(2, [1.5]), "a coefficient of G = 1.5 is not an integer"),
        (lambda: LubinTateSeries(2, 5), "G's coefficients 5 are not a tuple or list"),
        # an lt that is no LubinTateSeries ended in a bare AttributeError, or
        # at m = -1 gave a ring whose repr raised one
        (lambda: RingSpec(2, 1, 0, "cyc", 8), "lt = 'cyc' is not a LubinTateSeries"),
        (lambda: ring_of(2, 1, -1, "cyc", 8), "lt = 'cyc' is not a LubinTateSeries"),
        # a negative degree gave a degree-0 series
        (lambda: robba(make_ring(_LEVEL0), 0, -2), "series degree = -2 is below 0"),
        (lambda: pulita_theta_ms(make_ring(_LEVEL0), 0, 1, one_vec(make_ring(_LEVEL0), 2), -3),
         "series degree = -3 is below 0"),
        (lambda: ghost_poly(2, -1), "index must be >= 0, have -1"),
        # a negative power of a universal polynomial is refused, not answered
        # with the zero polynomial or the polynomial itself
        (lambda: ghost_poly(2, 2) ** -1, "exponent >= 1, have -1"),
        (lambda: ghost_poly(3, 1) ** -2, "exponent >= 1, have -2"),
    ],
)
def test_ring_arguments_refused_with_typed_errors(call, needle):
    # typed errors, not asserts: they hold under python -O too
    with pytest.raises(InvalidParameter, match=needle):
        call()


def test_pow_ladder_matches_repeated_multiplication(monkeypatch):
    # the ladder squares only up to the top bit and never multiplies by one,
    # yet gives the same canonical residues and precision as x * x * ... * x
    from wittlab import fields
    from wittlab.rings import TowerRing

    ring = make_ring(RingSpec(2, 2, 1, LubinTateSeries.cyclotomic(2), 8))
    f8 = finite_field(2, 3)
    assert ring.e > 1 and ring.s > 1
    rng = random.Random(61)
    x = ring.random(rng, prec=ring.cap - 3)
    u = f8.from_index(5)
    acc_x, acc_u = RingElem(ring, ring.one().co, x.prec), f8.one()
    for n in range(41):
        got = x**n
        assert (got.co, got.prec) == (acc_x.co, acc_x.prec), n
        assert u**n == acc_u, n
        acc_x, acc_u = acc_x * x, acc_u * u
    calls = []
    mul_co, fq_mul = TowerRing.mul_co, fields.FqElem.__mul__
    monkeypatch.setattr(TowerRing, "mul_co", lambda *a: calls.append("r") or mul_co(*a))
    monkeypatch.setattr(fields.FqElem, "__mul__", lambda *a: calls.append("f") or fq_mul(*a))
    for n, muls in ((1, 0), (2, 1), (3, 2), (4, 2), (5, 3)):
        calls.clear()
        x**n, u**n
        assert calls == ["r"] * muls + ["f"] * muls, n
    # a negative exponent reaching the ladder is refused, not looped on forever
    with pytest.raises(InvalidParameter):
        fields.pow_ladder(x, -1)


def _divide(poly, var, low):
    # remainder of a {(i, j): c} polynomial in pi^i y^j by the monic
    # x^d + low[d-1] x^(d-1) + ... + low[0] in pi (var 0) or y (var 1)
    d = len(low)
    for deg in range(max(k[var] for k in poly), d - 1, -1):
        for key in [k for k in poly if k[var] == deg]:
            c = poly.pop(key)
            for t, f in enumerate(low):
                new = (deg - d + t, key[1]) if var == 0 else (key[0], deg - d + t)
                poly[new] = poly.get(new, 0) - c * f
    return poly


def _oracle_product(a, b, e, s, h, eis, mod):
    # a * b in Z[pi, y] by a dict convolution, then long division by h(y),
    # then by the monic E(pi), then mod p^N; coordinates flat at i*s + j
    poly = {}
    for ka, x in enumerate(a):
        for kb, z in enumerate(b):
            key = (ka // s + kb // s, ka % s + kb % s)
            poly[key] = poly.get(key, 0) + x * z
    poly = _divide(poly, 1, h)
    if eis:
        poly = _divide(poly, 0, eis)
    return tuple(poly.get((i, j), 0) % mod for i in range(e) for j in range(s))


_RING_SHAPES = [
    (3, 1, 1, 16), (2, 2, 1, 16), (2, 3, 1, 16), (5, 1, 1, 8), (2, 1, 2, 16),
    (3, 2, 1, 8), (3, 1, 0, 8), (2, 2, -1, 4), (2, 1, -1, 10),
    # p^N above 2^64: coordinates of two 64-bit words, folded entries of 24
    # and 40 bytes
    (3, 1, -1, 48), (2, 2, 1, 70),
]


@pytest.mark.parametrize("p,s,m,nprec", _RING_SHAPES)
def test_ring_product_matches_long_division_oracle(p, s, m, nprec):
    # mul_co and the packed series product share the block reduction; both
    # are checked against schoolbook long division by h(y) and E_m(pi)
    ring = ring_of(p, s, m, LubinTateSeries.cyclotomic(p) if m >= 0 else None, nprec)
    eis = ring.eis_coeffs[:-1] if m >= 0 else ()
    packing = SeriesPacking(ring, 2)
    rng = random.Random(1000 * p + 100 * s + 10 * m + nprec)
    for _ in range(200):
        a, b = ring.random(rng), ring.random(rng)
        want = _oracle_product(a.co, b.co, ring.e, s, ring.h_coeffs, eis, ring.pn)
        assert (a * b).co == want, (a, b)
        zero = ring.zero().co
        assert packing.product([zero, a.co], [b.co, zero, b.co], 4)[1::2] == [want, want]


def _read_blocks(packing, packed, count):
    # the reader one degree at a time: each block folded alone, then reduced
    ring, width, block = packing.ring, packing.width, packing.block
    size = max(block * count, (packed.bit_length() + 7) // 8)
    buf = packed.to_bytes(size, "little")
    out = []
    for d in range(count):
        slots = range(d * block, (d + 1) * block, width)
        v = ring.fold_block([int.from_bytes(buf[o : o + width], "little") for o in slots])
        out.append(tuple(v[k] % ring.pn for k in ring.slots))
    return out


@pytest.mark.parametrize("p,s,m,nprec", _RING_SHAPES)
def test_batched_reader_worst_case(p, s, m, nprec):
    # every coordinate at p^N - 1, so the middle slots of a length-n square
    # reach the width's bound; one batched read of several products' uneven
    # prefixes, short, empty and past the last formed degree, against a
    # per-degree fold and long division
    ring = ring_of(p, s, m, LubinTateSeries.cyclotomic(p) if m >= 0 else None, nprec)
    eis = ring.eis_coeffs[:-1] if m >= 0 else ()
    n = 6
    packing = SeriesPacking(ring, n)
    full = (ring.pn - 1,) * ring.dim
    square = _oracle_product(full, full, ring.e, s, ring.h_coeffs, eis, ring.pn)
    specs = [  # degrees of a, degrees of b, how many degrees are read
        (range(n), range(n), 7),
        (range(2), range(n), 1),
        (range(n), range(n), 0),
        (range(3, n), range(1, 4), 2 * n),
        (range(n), range(n), 2 * n - 1),
    ]
    products = []
    for da, db, count in specs:
        fa, fb = pack_terms(packing, [(d, full) for d in da], [(d, full) for d in db])
        assert fa == pack_bytewise(packing, [(d, full) for d in da])
        products.append((fa * fb, count))
    got = read_tuples(packing, iter(products))
    per_degree = [co for packed, count in products for co in _read_blocks(packing, packed, count)]
    oracle = [
        tuple(c * sum(x + y == d for x in da for y in db) % ring.pn for c in square)
        for da, db, count in specs
        for d in range(count)
    ]
    assert got == per_degree == oracle
    # a block with every slot at the slot bound, the fold's worst case, stays
    # inside the spacing
    bound = n * ring.e * ring.s * (ring.pn - 1) ** 2
    assert bound < 256**packing.width
    worst = ring.fold_block([bound] * (packing.block // packing.width))
    assert max(worst) < 256**packing.spacing


@pytest.mark.parametrize(
    "p,s,m,nprec", _RING_SHAPES + [(2, 1, 1, 16), (5, 1, 1, 16), (3, 2, 1, 16)]
)
def test_one_block_read_matches_the_general_read(p, s, m, nprec):
    # a read of count 1 truncates exactly like the first entry of a longer
    # read: it equals the first degree of a count-2 read of the same int,
    # which the block after it does not change, for a block with every slot
    # at the packing's slot bound and for random ones, at the bounds of 1
    # and 129 block products; the Gauss rings are those of q = 2 to 9
    ring = ring_of(p, s, m, LubinTateSeries.cyclotomic(p) if m >= 0 else None, nprec)
    rng = random.Random(1000 * p + 100 * s + 10 * m + nprec)
    for n in (1, 129):
        packing = SeriesPacking(ring, n)
        bound = n * ring.e * ring.s * (ring.pn - 1) ** 2
        slots = packing.block // packing.width

        def packed(values):
            return sum(c << 8 * packing.width * i for i, c in enumerate(values))

        blocks = [[bound] * slots] + [[rng.randrange(bound + 1) for _ in range(slots)] for _ in range(4)]
        for values in blocks:
            after = packed(rng.randrange(bound + 1) for _ in range(slots)) << 8 * packing.block
            for x in (packed(values), packed(values) + after):
                want = [col[:1] for col in packing.unpack([(x, 2)])]
                assert packing.unpack([(x, 1)]) == want
                assert packing.unpack([(x * x, 0), (x, 1)]) == want


@pytest.mark.parametrize(
    "p,s,m,nprec", [(3, 1, -1, 48), (2, 2, 1, 70), (3, 2, 0, 44), (2, 1, -1, 64)]
)
def test_multiword_packing_matches_ring_products(p, s, m, nprec):
    # above p^N = 2^64 a coordinate spans several 64-bit words (at 2^64
    # exactly, one full word), and a folded entry more than 16 bytes: a
    # batch of random series packs to the bytewise ints, and their products
    # read back as RingElem convolutions
    ring = ring_of(p, s, m, LubinTateSeries.cyclotomic(p) if m >= 0 else None, nprec)
    rng = random.Random(nprec)
    packing = SeriesPacking(ring, 5)
    assert packing.words == ((ring.pn - 1).bit_length() + 63) // 64
    assert packing.spacing > 16 and packing.spacing % 8 == 0
    top = RingElem(ring, (ring.pn - 1,) * ring.dim)
    series = [[ring.random(rng) for _ in range(n)] for n in (5, 3, 0, 5)] + [[top] * 5]
    packed = pack_terms(packing, *[list(enumerate(c.co for c in f)) for f in series])
    assert packed == [pack_bytewise(packing, enumerate(c.co for c in f)) for f in series]
    pairs = [(0, 1), (3, 0), (4, 4), (1, 2), (0, 4)]
    got = read_tuples(packing, [(packed[i] * packed[j], 9) for i, j in pairs])
    for (i, j), block in zip(pairs, (got[9 * t : 9 * t + 9] for t in range(len(pairs)))):
        for d, co in enumerate(block):
            want = ring.zero()
            for k in range(d + 1):
                if k < len(series[i]) and d - k < len(series[j]):
                    want = want + series[i][k] * series[j][d - k]
            assert co == want.co, (i, j, d)


def test_unpack_reads_nothing():
    ring = ring_of(3, 1, 1, LubinTateSeries.cyclotomic(3), 8)
    packing = SeriesPacking(ring, 4)
    (one,) = pack_terms(packing, [(0, ring.one().co)])
    nothing = [[] for _ in ring.slots]
    assert packing.unpack([]) == nothing
    assert packing.unpack([(one, 0)]) == nothing
    assert packing.unpack([(one, 0), (one * one, 0)]) == nothing
    assert packing.product([ring.one().co], [ring.zero().co, ring.one().co], 0) == []
    assert packing.pack([[] for _ in ring.slots], []) == []
    assert packing.pack([[] for _ in ring.slots], [0, 0]) == [0, 0]


@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_field_product_matches_long_division_oracle(p, s):
    field = finite_field(p, s)
    for x in field.elements():
        for z in field.elements():
            assert (x * z).co == _oracle_product(x.co, z.co, 1, s, field.modulus, (), p)
