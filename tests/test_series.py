"""Series layer: AH integrality, E identities, w, varpi, theta families."""

import random
from fractions import Fraction

import pytest

from wittlab.errors import (
    InvalidParameter, NonIntegralResult, PrecisionNotReached, TailNotCertified,
)
from wittlab.rings import LubinTateSeries, RingElem, RingSpec, make_ring, ring_of
from wittlab.series import (
    exp_ring_series,
    Series1,
    TruncSeries2,
    artin_hasse_E,
    artin_hasse_ints,
    artin_hasse_series,
    delta_vector,
    f_delta_coeffs,
    g_delta_coeffs,
    pad_vector,
    phi_vector,
    pulita_theta_ms,
    robba,
    series_eval_unit,
    series_length,
    varpi,
    witt_series_eval,
)
from wittlab.wittvec import (
    WittVec,
    delta,
    frob,
    ghost_map,
    scalar_nat,
    tau,
    versch,
    witt_add,
    witt_mul,
    witt_neg,
    zero_vec,
)

from ah_oracle import (
    artin_hasse_fractions, artin_hasse_reduced, exp_fractions, reduce_fraction,
)


def mobius(n):
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def artin_hasse_oracle(p, degree):
    """Independent: AH(x) = prod_{p !| d} (1 - x^d)^(-mu(d)/d)."""
    coeffs = [Fraction(1)] + [Fraction(0)] * degree
    for d in range(1, degree + 1):
        if d % p == 0 or mobius(d) == 0:
            continue
        alpha = Fraction(-mobius(d), d)
        # (1 - x^d)^alpha = sum_k C(alpha, k) (-1)^k x^(dk)
        factor = [Fraction(0)] * (degree + 1)
        binom = Fraction(1)
        for k in range(0, degree // d + 1):
            if k:
                binom = binom * (alpha - (k - 1)) / k
            factor[d * k] = binom * (-1) ** k
        new = [Fraction(0)] * (degree + 1)
        for i, a in enumerate(coeffs):
            if a:
                for j in range(0, degree + 1 - i, d):
                    if factor[j]:
                        new[i + j] += a * factor[j]
        coeffs = new
    return coeffs


@pytest.mark.parametrize("p", [2, 3])
def test_artin_hasse_against_mobius_product(p):
    got = artin_hasse_fractions(p, 18)
    want = artin_hasse_oracle(p, 18)
    assert list(got) == want
    assert artin_hasse_ints(p, 18, 8) == tuple(reduce_fraction(c, p, p**8) for c in want)


@pytest.mark.parametrize(
    "p,degree,nprec", [(2, 256, 16), (3, 512, 16), (5, 1536, 16), (7, 1024, 16), (5, 1536, 40)]
)
def test_artin_hasse_recurrence_matches_rationals(p, degree, nprec):
    # the integer recurrence with v_p(D!) guard digits against the exact
    # rationals reduced mod p^N; a prefix is the table at its own degree
    got = artin_hasse_ints(p, degree, nprec)
    assert got == artin_hasse_reduced(p, degree, nprec)
    k = degree // 3
    assert got[: k + 1] == artin_hasse_ints(p, k, nprec)


@pytest.mark.parametrize("p", [2, 3])
def test_artin_hasse_integral_to_64(p):
    for c in artin_hasse_fractions(p, 64):
        assert c.denominator % p != 0


@pytest.mark.parametrize("p", [0, 1, 4, 9])
def test_a_composite_or_unit_p_is_refused(p):
    # series_length(1, 4) looped forever, and artin_hasse_ints(4, 12, 8)
    # failed inside the recurrence with a bare ValueError
    with pytest.raises(InvalidParameter):
        series_length(p, 4)
    with pytest.raises(InvalidParameter):
        artin_hasse_ints(p, 12, 8)


def test_artin_hasse_low_terms():
    # constant and linear terms 1; congruent to exp below degree p
    for p in (2, 3, 5):
        fr = artin_hasse_fractions(p, p)
        assert fr[0] == 1 and fr[1] == 1
        fact = 1
        for k in range(p):
            fact = fact * max(k, 1)
            assert fr[k] == Fraction(1, fact)


def test_exp_zero_constant_examples():
    # exp(x) mod x^3 = 1 + x + x^2/2, reduced mod 3^6; 1/2 is not 2-integral
    e = exp_fractions([Fraction(0), Fraction(1)], 2)
    assert [reduce_fraction(c, 3, 3**6) for c in e] == [1, 1, (3**6 + 1) // 2]
    with pytest.raises(NonIntegralResult):
        reduce_fraction(e[2], 2, 2**6)
    # exp(f+g) = exp(f) exp(g), checked over exact rationals
    f = [Fraction(0), Fraction(1), Fraction(1, 2)]
    g = [Fraction(0), Fraction(2), Fraction(0), Fraction(1, 3)]
    ef, eg = exp_fractions(f, 8), exp_fractions(g, 8)
    fg = [a + b for a, b in zip(f + [Fraction(0)], g)]
    efg = exp_fractions(fg, 8)
    conv = [
        sum(ef[i] * eg[k - i] for i in range(k + 1)) for k in range(9)
    ]
    assert conv == efg


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("tag", ["plain", "cyclotomic"])
@pytest.mark.parametrize("m", [0, 1])
def test_varpi_low_components(p, tag, m):
    # varpi_m = w(pi_m), and w_0 = T, w_1 = (F(T) - T^p)/p = T + T^2 G(T)
    lt = LubinTateSeries.plain(p) if tag == "plain" else LubinTateSeries.cyclotomic(p)
    ring = make_ring(RingSpec(p, 1, m + 1, lt, 12))
    point = ring.pi_level(m)
    w = varpi(ring, m, 4)
    assert w[0].co == point.co
    assert w[1].co == ring.eval_int_poly([0, 1, *lt.g_coeffs], point).co
    # w lies in W(T Z_p[[T]]): every component has positive valuation, and
    # every component is exact at the ring's full precision
    assert all(c.is_zero() or c.valuation() > 0 for c in w.comps)
    assert all(c.prec == ring.cap for c in w.comps)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("tag", ["plain", "cyclotomic"])
@pytest.mark.parametrize("m", [0, 1])
def test_varpi_ghost_components(p, tag, m):
    lt = LubinTateSeries.plain(p) if tag == "plain" else LubinTateSeries.cyclotomic(p)
    ring = make_ring(RingSpec(p, 1, m, lt, 12))
    length = 5
    w = varpi(ring, m, length)
    # canonical coordinates: the ghost identity holds mod p^N, not only at
    # some lower declared precision
    g = ghost_map(w)
    for n in range(length):
        if n <= m:
            assert g[n].co == ring.pi_level(m - n).co, (p, tag, m, n)
        else:
            assert not any(g[n].co)
    # components have positive valuation
    for c in w.comps:
        assert c.valuation() >= 1
    # Frobenius steps down the tower
    fr = frob(w)
    if m >= 1:
        assert fr == varpi(ring, m - 1, length).truncate(length - 1)
    else:
        assert fr.is_zero()


@pytest.mark.parametrize(
    "p,s,m,tag",
    [(2, 1, -1, None), (3, 2, -1, None), (2, 1, 1, "cyclotomic"), (3, 1, 1, "plain"),
     (2, 2, 1, "cyclotomic")],
)
def test_delta_vector_is_exact(p, s, m, tag):
    # Delta(c) has ghost coordinates c, c, ... by canonical coordinates, so
    # exactly mod p^N; the oracle is Delta(c) over Z/p^(N+L+1), reduced
    lt = LubinTateSeries.plain(p) if tag == "plain" else LubinTateSeries.cyclotomic(p)
    nprec, length = 10, 4
    ring = make_ring(RingSpec(p, s, m, lt if m >= 0 else None, nprec))
    plain = ring_of(p, nprec=nprec + length + 1)
    for c in (0, 1, 2, p, p * p + 1, -3, 12345):
        vec = delta_vector(ring, c, length)
        assert all(x.prec == ring.cap for x in vec.comps)
        assert all(g.co == ring.from_int(c).co for g in ghost_map(vec).entries), (c,)
        want = delta(plain.from_int(c), length)
        assert [x.co for x in vec.comps] == [ring.from_int(t.co[0]).co for t in want.comps]


def test_varpi_at_higher_level():
    lt = LubinTateSeries.cyclotomic(2)
    ring = make_ring(RingSpec(2, 1, 1, lt, 10))
    w0 = varpi(ring, 0, 3)
    assert ghost_map(w0)[0] == ring.pi_level(0)


def test_E_group_morphism_and_shifts():
    ring = ring_of(3, nprec=8)
    rng = random.Random(31)
    deg = 16
    length = series_length(3, deg) + 1  # one spare so frob keeps enough terms
    for _ in range(4):
        a = WittVec(ring, [ring.random(rng) for _ in range(length)])
        b = WittVec(ring, [ring.random(rng) for _ in range(length)])
        ea, eb = artin_hasse_E(a, deg), artin_hasse_E(b, deg)
        assert artin_hasse_E(witt_add(a, b), deg) == ea * eb
        # E(V(a)) = E(a) o x^p
        assert artin_hasse_E(versch(a, 1), deg) == ea.compose_xpow(3)
        # E(a)^p = E(Frob a) o x^p * exp(p a_0 x); the bare form holds
        # exactly when a_0 = 0 (the extra ghost entry is <p a_0, 0, ...>)
        lhs = ea
        for _ in range(2):
            lhs = lhs * ea
        extra = exp_ring_series(ring, a[0].scale_int(3), deg)
        assert lhs == artin_hasse_E(frob(a), deg).compose_xpow(3) * extra
        av = WittVec(ring, [ring.zero()] + list(a.comps[1:]))
        eav = artin_hasse_E(av, deg)
        lhs = eav
        for _ in range(2):
            lhs = lhs * eav
        assert lhs == artin_hasse_E(frob(av), deg).compose_xpow(3)
        # E(tau(alpha) a) = E(a) o (alpha x)
        alpha = ring.random(rng)
        assert artin_hasse_E(
            witt_mul(tau(ring, alpha, length), a), deg
        ) == ea.compose_scale(alpha)
    assert artin_hasse_E(zero_vec(ring, length), deg) == Series1.one(ring, deg)


def test_E_ideal_continuity():
    # components in (pi^v) -> coefficients of E(a) - 1 in (pi^v)
    lt = LubinTateSeries.plain(3)
    ring = make_ring(RingSpec(3, 1, 1, lt, 8))
    rng = random.Random(5)
    pi2 = ring.pi() * ring.pi()
    a = WittVec(ring, [pi2 * ring.random(rng) for _ in range(3)])
    e = artin_hasse_E(a, 8)
    assert e.coeffs[0] == ring.one()
    for c in e.coeffs[1:]:
        assert c.valuation() >= 2


def test_robba_exponential():
    for p, tag, m in [(2, "cyclotomic", 0), (2, "cyclotomic", 1), (3, "plain", 1)]:
        lt = LubinTateSeries.plain(p) if tag == "plain" else LubinTateSeries.cyclotomic(p)
        ring = make_ring(RingSpec(p, 1, m, lt, 10))
        e = robba(ring, m, 12)
        assert e.coeffs[0] == ring.one()
        assert e.coeffs[1] == ring.pi()
        for c in e.coeffs:
            assert c.valuation() >= 0


def test_christol_factorization():
    # E(varpi_m a) = prod e_{m-i,pi}(a_i x^(p^i))
    p, m, deg = 2, 1, 16
    lt = LubinTateSeries.cyclotomic(p)
    ring = make_ring(RingSpec(p, 1, m, lt, 12))
    rng = random.Random(41)
    length = series_length(p, deg)
    a = WittVec(ring, [ring.random(rng) for _ in range(length)])
    w = varpi(ring, m, length)
    lhs = artin_hasse_E(witt_mul(w, a), deg)
    rhs = Series1.one(ring, deg)
    for i in range(m + 1):
        factor = robba(ring, m - i, deg).compose_scale(a[i]).compose_xpow(p**i)
        rhs = rhs * factor
    assert lhs == rhs


def test_diff_p_minus_V_phi_valuations():
    # p a - V(a^phi) has components of positive valuation for integral a
    lt = LubinTateSeries.cyclotomic(2)
    ring = make_ring(RingSpec(2, 2, 1, lt, 8))
    rng = random.Random(3)
    for k in (1, 2):
        for _ in range(3):
            a = WittVec(ring, [ring.random(rng) for _ in range(4)])
            diff = witt_add(
                scalar_nat(a, ring.p**k), witt_neg(versch(phi_vector(a, k), k))
            )
            for c in diff.comps:
                assert c.valuation() >= 1


def test_theta_zero_is_one_and_morphism():
    p, m, deg = 3, 1, 12
    ring = make_ring(RingSpec(p, 1, m, LubinTateSeries.cyclotomic(p), 10))
    length = series_length(p, deg)
    assert pulita_theta_ms(ring, m, 1, zero_vec(ring, length), deg) == Series1.one(ring, deg)
    rng = random.Random(13)
    a = WittVec(ring, [ring.random(rng) for _ in range(length)])
    b = WittVec(ring, [ring.random(rng) for _ in range(length)])
    assert pulita_theta_ms(ring, m, 1, witt_add(a, b), deg) == pulita_theta_ms(
        ring, m, 1, a, deg
    ) * pulita_theta_ms(ring, m, 1, b, deg)


def test_theta_pads_a_short_vector_with_zeros():
    # a vector shorter than theta's length is padded with zero components
    # (pad_vector's padding branch): the series, coefficients and declared
    # precisions, is that of the vector padded by hand
    p, m, deg = 3, 1, 12
    ring = make_ring(RingSpec(p, 1, m, LubinTateSeries.cyclotomic(p), 10))
    length = max(series_length(p, deg), m + 2)
    rng = random.Random(29)
    for short in range(1, length):
        a = WittVec(ring, [ring.random(rng, rng.randrange(ring.cap + 1)) for _ in range(short)])
        padded = WittVec(ring, list(a.comps) + [ring.zero()] * (length - short))
        assert [c.co for c in pad_vector(a, length).comps] == [c.co for c in padded.comps]
        for s in (1, 2):
            got = pulita_theta_ms(ring, m, s, a, deg)
            want = pulita_theta_ms(ring, m, s, padded, deg)
            assert [(c.co, c.prec) for c in got.coeffs] == [(c.co, c.prec) for c in want.coeffs]


def test_theta_verschiebung_shift():
    # theta_m(V^k a) = 1 if m < k else theta_{m-k}(a) o x^(p^k)
    p, deg = 2, 16
    ring = make_ring(RingSpec(p, 1, 1, LubinTateSeries.cyclotomic(p), 12))
    rng = random.Random(7)
    length = series_length(p, deg)
    a = WittVec(ring, [ring.random(rng) for _ in range(length)])
    th = pulita_theta_ms(ring, 1, 1, versch(pad_vector(a, length), 1), deg)
    assert th == pulita_theta_ms(ring, 0, 1, a, deg).compose_xpow(p)
    th2 = pulita_theta_ms(ring, 0, 1, versch(pad_vector(a, length), 1), deg)
    assert th2 == Series1.one(ring, deg)


def test_theta_tau_root_of_unity():
    # theta_m(tau(t)) = theta_m(1) o (t x) for prime-to-p roots of unity
    p, deg = 2, 16
    ring = make_ring(RingSpec(p, 2, 1, LubinTateSeries.cyclotomic(p), 10))
    fq = ring.residue_field
    length = series_length(p, deg)
    for u in fq.units():
        t = ring.teichmuller(u)
        lhs = pulita_theta_ms(ring, 1, 1, tau(ring, t, length), deg)
        rhs = pulita_theta_ms(ring, 1, 1, tau(ring, ring.one(), length), deg).compose_scale(t)
        assert lhs == rhs


def test_theta_ms_forms_agree():
    for p, s in [(2, 2), (3, 2)]:
        ring = make_ring(RingSpec(p, s, 1, LubinTateSeries.cyclotomic(p), 10))
        deg = 12
        rng = random.Random(17)
        length = series_length(p, deg)
        a = WittVec(ring, [ring.random(rng) for _ in range(length)])
        # theta_{m,s}(a) = prod_{i<s} theta_m(a^(phi^i)) o x^(p^i)
        product = Series1.one(ring, deg)
        for i in range(s):
            factor = pulita_theta_ms(ring, 1, 1, phi_vector(a, i), deg)
            product = product * factor.compose_xpow(p**i)
        assert pulita_theta_ms(ring, 1, s, a, deg) == product


def test_theta_ms_transitivity():
    # theta_{m,sr}(a) = prod_j theta_{m,s}(a^(phi^{js})) o x^(p^{sj})
    p, s, r, deg = 2, 1, 2, 16
    ring = make_ring(RingSpec(p, 2, 1, LubinTateSeries.cyclotomic(p), 10))
    rng = random.Random(19)
    length = series_length(p, deg)
    a = WittVec(ring, [ring.random(rng) for _ in range(length)])
    lhs = pulita_theta_ms(ring, 1, s * r, a, deg)
    rhs = Series1.one(ring, deg)
    for j in range(r):
        factor = pulita_theta_ms(ring, 1, s, phi_vector(a, j * s), deg)
        rhs = rhs * factor.compose_xpow(p ** (s * j))
    assert lhs == rhs


def test_theta_ms_vshift():
    # theta_{m,s}(V^k a) = theta_{m-k,s}(a) o x^(p^k) for k <= m
    p, s, deg = 3, 2, 12
    ring = make_ring(RingSpec(p, s, 1, LubinTateSeries.plain(p), 10))
    rng = random.Random(23)
    length = series_length(p, deg)
    a = WittVec(ring, [ring.random(rng) for _ in range(length)])
    lhs = pulita_theta_ms(ring, 1, s, versch(pad_vector(a, length), 1), deg)
    rhs = pulita_theta_ms(ring, 0, s, a, deg).compose_xpow(p)
    assert lhs == rhs


def test_theta_reciprocal():
    p, deg = 2, 16
    ring = make_ring(RingSpec(p, 1, 1, LubinTateSeries.cyclotomic(p), 10))
    rng = random.Random(29)
    length = series_length(p, deg)
    a = WittVec(ring, [ring.random(rng) for _ in range(length)])
    forward = pulita_theta_ms(ring, 1, 1, a, deg)
    backward = pulita_theta_ms(ring, 1, 1, witt_neg(a), deg)
    assert forward * backward == Series1.one(ring, deg)


def test_theta_ideal_bound():
    # a in W(I) -> coefficients of theta_m(a) - 1 in pi_m I
    p, m, deg = 2, 1, 12
    ring = make_ring(RingSpec(p, 1, m, LubinTateSeries.cyclotomic(p), 10))
    rng = random.Random(31)
    length = series_length(p, deg)
    pi = ring.pi()
    a = WittVec(ring, [pi * ring.random(rng) for _ in range(length)])
    th = pulita_theta_ms(ring, m, 1, a, deg)
    assert th.coeffs[0] == ring.one()
    for c in th.coeffs[1:]:
        assert c.valuation() >= 2  # v(pi_m) + v(I)


def test_evaluation_lt_and_bm():
    for p, tag in [(2, "cyclotomic"), (3, "plain"), (3, "cyclotomic")]:
        lt = LubinTateSeries.plain(p) if tag == "plain" else LubinTateSeries.cyclotomic(p)
        for m in (0, 1):
            ring = make_ring(RingSpec(p, 1, m + 1, lt, 8))
            length = 3
            w_m1 = varpi(ring, m + 1, length)
            w_m = varpi(ring, m, length)
            # ev_{varpi_{m+1}}(F^Delta) = varpi_m
            fd = f_delta_coeffs(ring, length)
            assert witt_series_eval(fd, w_m1) == w_m
            if m == 0:
                # ... and ev_{varpi_0}(F^Delta) = 0 one level down
                low = make_ring(RingSpec(p, 1, 0, lt, 8))
                w00 = varpi(low, 0, length)
                fd0 = f_delta_coeffs(low, length)
                assert witt_series_eval(fd0, w00).is_zero()
            # Lemma bm: varpi_m = varpi_{m+1} (b_m + p 1)
            gd = g_delta_coeffs(ring, length)
            evg = witt_series_eval(gd, w_m1)
            b_m = witt_add(
                w_m1 ** (p - 1), scalar_nat(witt_mul(w_m1, evg), p)
            )
            for c in b_m.comps:
                assert c.valuation() >= 1
            one_p = scalar_nat(
                WittVec(ring, [ring.one()] + [ring.zero()] * (length - 1)), p
            )
            assert witt_mul(w_m1, witt_add(b_m, one_p)) == w_m


def test_local_expansion_lemma():
    # theta_{l-1}(1)(z) = 1 + pi_{l-1} z  mod pi^2
    for p, s in [(2, 1), (3, 1), (2, 2)]:
        ring = make_ring(RingSpec(p, s, 1, LubinTateSeries.cyclotomic(p), 10))
        deg = 24 if p == 2 else 18
        length = series_length(p, deg)
        one = WittVec(ring, [ring.one()] + [ring.zero()] * (length - 1))
        th = pulita_theta_ms(ring, 1, 1, one, deg)
        pi = ring.pi()
        rng = random.Random(37)
        for _ in range(5):
            z = ring.random(rng)
            val = th.eval_full(z)
            diff = val - ring.one() - pi * z
            assert diff.valuation() >= 2


def test_series_eval_certification():
    ring = make_ring(RingSpec(2, 1, 1, LubinTateSeries.cyclotomic(2), 12))
    # constant series: certify trivially
    s = Series1.one(ring, 12)
    assert series_eval_unit(s, ring.pi(), 4) == ring.one()
    # flat unit coefficients: tail cannot be certified
    flat = Series1(ring, [ring.one() for _ in range(13)])
    with pytest.raises(TailNotCertified):
        series_eval_unit(flat, ring.pi(), 4)


def test_series_eval_refuses_coefficients_below_the_target():
    # 1, then zeros, every coefficient known to 2 pi-digits: the tail
    # certifies, but a value stamped at 6 would overstate what is known
    ring = ring_of(3, nprec=8)
    coeffs = [RingElem(ring, ring.one().co, 2)] + [RingElem(ring, ring.zero().co, 2)] * 11
    series = Series1(ring, coeffs)
    with pytest.raises(PrecisionNotReached, match="known to 2 pi-digits, target 6"):
        series_eval_unit(series, ring.one(), 6)
    assert series_eval_unit(series, ring.one(), 2).prec == 2


def test_truncation_degrees_are_integers_at_least_0():
    # Series1.truncate(1.5) and TruncSeries2(ring, 2.5) ended in a bare
    # TypeError, truncate(True) returned a degree-1 series and
    # TruncSeries2(ring, -1) an empty one
    ring = ring_of(3, nprec=8)
    series = Series1(ring, [ring.one()] * 5)
    for degree in (1.5, True, -1):
        with pytest.raises(InvalidParameter):
            series.truncate(degree)
    for degree in (2.5, False, -1):
        with pytest.raises(InvalidParameter):
            TruncSeries2(ring, degree)
    assert series.truncate(0).degree == 0 and TruncSeries2(ring, 0).rows == [[ring.zero()]]


def test_series_eval_keeps_the_point_precision():
    # 1 + x, then zeros, at z = 1 known to 2 pi-digits: the value 2 is known
    # to 2 digits however high the target, as ``eval_full`` has it
    ring = ring_of(3, nprec=8)
    series = Series1(ring, [ring.one(), ring.one()] + [ring.zero()] * 10)
    z = RingElem(ring, ring.one().co, 2)
    got = series_eval_unit(series, z, 6)
    assert (got.co, got.prec) == (ring.from_int(2).co, 2)
    assert series.eval_full(z).prec == 2
    assert series_eval_unit(series, ring.one(), 6).prec == 6


def test_artin_hasse_series_reduction():
    ring = ring_of(2, nprec=8)
    s = artin_hasse_series(ring, 10)
    fr = artin_hasse_fractions(2, 10)
    for c, f in zip(s.coeffs, fr):
        assert c == ring.from_int(f.numerator * pow(f.denominator, -1, 2**8))


@pytest.mark.parametrize(
    "p,s,m", [(2, 1, 1), (2, 2, 1), (2, 3, 1), (3, 1, 1), (3, 2, 1), (5, 1, 1), (2, 1, 2)]
)
def test_packed_product_worst_case_matches_schoolbook(p, s, m):
    # every coordinate p^N - 1: slot (64, e-1, s-1) of the product reaches
    # the bound n e s (p^N - 1)^2 the slot width is taken from
    ring = ring_of(p, s, m, LubinTateSeries.cyclotomic(p), 16)
    degree = 64
    full = (ring.pn - 1,) * ring.dim
    a = Series1(ring, [RingElem(ring, full, ring.cap - 1 - k % 3) for k in range(degree + 1)])
    b = Series1(ring, [RingElem(ring, full) for _ in range(degree + 1)])
    got = a * b
    for d in range(degree + 1):
        want = ring.zero()
        for i in range(d + 1):
            want = want + a.coeffs[i] * b.coeffs[d - i]
        assert got.coeffs[d].co == want.co, d
        assert got.coeffs[d].prec == ring.cap - 3
