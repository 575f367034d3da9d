"""Additive/multiplicative characters: tables, snapping, transitivity."""

import itertools

import pytest

from wittlab import characters
from wittlab.characters import (
    CharParams,
    CharacterSystem,
    RootOfUnityTable,
    _match_root_tables,
    check_splitting,
    mu_ppow_table,
    omega_factorization_check,
    theta_one_series,
    theta_teich_values,
)
from wittlab.errors import (
    InvalidParameter,
    NotUnit,
    PrecisionNotReached,
    ReportedMismatch,
    SeedNotConverging,
    SnapAmbiguous,
    WittlabError,
)
from wittlab.fields import finite_field
from wittlab.rings import LubinTateSeries, RingElem, RingSpec, make_ring, ring_of
from wittlab.series import Series1
from wittlab.wittvec import WittVec, one_vec, scalar_nat, witt_add, witt_mul, zero_vec


def system(p, s, ell, **kw):
    return CharacterSystem(CharParams(p, s, ell, **kw))


@pytest.mark.parametrize(
    "p,ell,tag",
    [
        (2, 2, "cyclotomic"),
        (3, 2, "cyclotomic"),
        (2, 2, "plain"),
        (2, 3, "cyclotomic"),
        (5, 2, "cyclotomic"),
        (3, 2, "plain"),
        (3, 2, "cyclotomic-s2"),
    ],
)
def test_mu_table_structure(p, ell, tag):
    series, _, s = tag.partition("-s")  # "-s2": over the unramified degree-2 ring
    lt = LubinTateSeries.plain(p) if series == "plain" else LubinTateSeries.cyclotomic(p)
    ring = make_ring(RingSpec(p, int(s or 1), ell - 1, lt, 14))
    table = mu_ppow_table(ring, ell)
    assert len(table.elements) == p**ell
    one = ring.one()
    assert any(z == one for z in table.elements)
    # valuation of zeta - 1 is e / (p^(r-1)(p-1)) for zeta of exact order p^r
    e = ring.e
    for z in table.elements:
        if z == one:
            continue
        r = 1
        acc = z
        while not (acc - one).is_zero():
            acc = acc**p
            r += 1
        r -= 1  # acc reached 1 after r p-powers => order p^r
        v = (z - one).valuation()
        assert v == e // (p ** (r - 1) * (p - 1))


def test_mu_table_closure_and_dlog():
    # entry k is g^k for g = entry 1, so an index is a discrete log to base g
    sys = system(3, 1, 2, nprec=12, degree=54)
    table = sys.mu_table
    g = table.elements[1]
    acc = sys.ring.one()
    seen = set()
    for k in range(9):
        assert table.elements[k] == g**k
        seen.add(acc.co)
        acc = acc * g
    assert len(seen) == 9  # generator has exact order p^l
    assert acc == sys.ring.one()


def test_mu_table_is_one_per_ring_from_one_generator():
    # the table depends on (ring, l) only: systems with different t share it;
    # entry k is g^k, so the generator is entry 1 and every log is its index
    mu_ppow_table.cache_clear()
    a = system(3, 1, 2, u_index=1, nprec=14, degree=54)
    b = system(3, 1, 2, u_index=2, nprec=14, degree=54)
    assert a.u != b.u and a.ring is b.ring
    table = a.mu_table
    assert b.mu_table is table
    assert mu_ppow_table.cache_info().misses == 1
    assert all(table.elements[k] == table.elements[1] ** k for k in range(table.order))
    mu_ppow_table.cache_clear()
    rebuilt = mu_ppow_table(a.ring, 2)
    assert rebuilt is not table and mu_ppow_table.cache_info().misses == 1
    assert [z.co for z in rebuilt.elements] == [z.co for z in table.elements]


@pytest.mark.parametrize("p,ell", [(2, 2), (2, 3), (3, 2), (5, 2), (3, 3)])
def test_root_table_bound_is_the_largest_pairwise_valuation(p, ell):
    # the table compares its powers with 1 alone; the bound it keeps is the
    # largest valuation over all pairs of entries, p^(l-1), reached at the
    # roots of order p, and no pair agrees at the table's precision
    ring = make_ring(RingSpec(p, 1, ell - 1, LubinTateSeries.cyclotomic(p), 14))
    table = mu_ppow_table(ring, ell)
    vals = [(a - b).valuation() for a, b in itertools.combinations(table.elements, 2)]
    assert table.max_pairwise_val == max(vals) == p ** (ell - 1)
    assert max(vals) < table.elements[0].prec


def lift_and_snap_every_root(small, big):
    # the index map small -> big root by root: each root's pi-coordinates,
    # y-free, lifted into the big ring and snapped
    s_small, s_big, out = small.ring.s, big.ring.s, {}
    for k, z in enumerate(small.elements):
        rows = [z.co[i : i + s_small] for i in range(0, len(z.co), s_small)]
        assert not any(any(row[1:]) for row in rows), k
        co = [0] * big.ring.dim
        co[::s_big] = [row[0] for row in rows]
        out[k], _ = big.snap(RingElem(big.ring, tuple(co), z.prec))
    return out


@pytest.mark.parametrize("p,s,r", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (2, 2, 2)])
def test_root_tables_match_by_one_snap(p, s, r):
    # _match_root_tables snaps the lift of g alone and maps g^k to j k:
    # the same map as a lift and snap of every root, and a bijection
    lt = LubinTateSeries.cyclotomic(p)
    small = mu_ppow_table(make_ring(RingSpec(p, s, 1, lt, 14)), 2)
    big = mu_ppow_table(make_ring(RingSpec(p, s * r, 1, lt, 14)), 2)
    ident = _match_root_tables(small, big)
    assert ident == lift_and_snap_every_root(small, big)
    assert sorted(ident.values()) == list(range(p**2))


@pytest.mark.parametrize("g,prec", [(3, 8), (1, 8), (129, 7)])
def test_root_table_that_is_not_a_group_is_refused(g, prec):
    # would-be mu_2 tables in Z/2^8: with g = 3, g^2 = 9 is not 1; with
    # g = 1, the powers g^0 and g^1 are equal; g = 1 + 2^7 is a root of
    # order 2, but at precision 7 it equals g^0
    ring = ring_of(2, nprec=8)
    RootOfUnityTable(ring, 1, ring.from_int(129), 8)
    with pytest.raises(ReportedMismatch):
        RootOfUnityTable(ring, 1, ring.from_int(g), prec)


def test_psi_trivial_and_order():
    for p, s in [(2, 1), (3, 1), (2, 2)]:
        sys = system(p, s, 2, nprec=14, degree=48 if p == 2 else 54)
        assert sys.nondegenerate
        zero = WittVec(sys.field, [sys.field.zero(), sys.field.zero()])
        idx = sys.psi(zero)
        assert sys.mu_table.elements[idx] == sys.ring.one()
        # p^l * anything maps to 1
        one = one_vec(sys.field, 2)
        idx = sys.psi(scalar_nat(one, p**2))
        assert sys.mu_table.elements[idx] == sys.ring.one()
        # image contains an element of exact order p^l
        table = sys.character_table()
        table.verify_image_is_full()


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2)])
def test_psi_homomorphism_exhaustive(p, s):
    sys = system(p, s, 2, nprec=14, degree=48 if p == 2 else 54)
    table = sys.character_table()
    assert table.verify_homomorphism()
    assert table.verify_separation()


def test_psi_matches_direct_definition():
    sys = system(2, 1, 2, nprec=14, degree=48)
    for y in sys.domain():
        raw = sys.psi_raw(y)
        direct = sys.psi_direct(y)
        assert raw == direct


def test_psi_first_order_value():
    # psi(tau-like vector) = 1 + pi sum_j (Teich(y_0) t)^(p^j) mod pi^2
    for p, s in [(2, 1), (3, 1), (2, 2)]:
        sys = system(p, s, 2, nprec=14, degree=48 if p == 2 else 54)
        pi = sys.ring.pi()
        for y0 in sys.field.elements():
            y = WittVec(sys.field, [y0, sys.field.zero()])
            raw = sys.psi_raw(y)
            acc = sys.ring.zero()
            term = sys.ring.teichmuller(y0) * sys.t
            for _ in range(s):
                acc = acc + term
                term = term**p
            expect = sys.ring.one() + pi * acc
            diff = raw - expect
            assert diff.valuation() >= 2


def test_psi_constant_on_residue_fibers():
    # lifting components by maximal-ideal elements does not change psi:
    # realized here as: psi factors through the residues, which is built in;
    # instead check psi(y) only depends on y via the table being well defined
    sys = system(2, 1, 2, nprec=14, degree=48)
    t1 = sys.character_table()
    t2 = CharacterSystem(CharParams(2, 1, 2, nprec=14, degree=48)).character_table()
    assert [r["psi_index"] for r in t1.rows] == [r["psi_index"] for r in t2.rows]


def test_trace_of_t_two_ways():
    for p, s in [(2, 2), (3, 2)]:
        sys = system(p, s, 2, nprec=12, degree=54)
        # nondegenerate_trace already compares the phi-sum and the power-sum
        assert sys.trace_t.valuation() == 0


def test_a_set_target_precision_reaches_the_system():
    # CharParams' target_prec replaces the default p^(l-1) + 1: theta's
    # certified values are stamped at it, and the psi table snaps to the
    # same indices, each at least as near its root as at the default
    base = system(2, 1, 2, nprec=14, degree=48)
    sys = system(2, 1, 2, nprec=14, degree=48, target_prec=6)
    assert (base.target_prec, sys.target_prec) == (3, 6)
    for c in sys.field.elements():
        assert sys.theta_at(0, c).prec == sys.theta_at(1, c).prec == 6
        assert sys.theta_at(1, c).co == base.theta_at(1, c).co
    rows, base_rows = sys.character_table().rows, base.character_table().rows
    assert [r["psi_index"] for r in rows] == [r["psi_index"] for r in base_rows]
    assert all(r["raw_distance"] >= b["raw_distance"] for r, b in zip(rows, base_rows))
    assert max(r["raw_distance"] - b["raw_distance"] for r, b in zip(rows, base_rows)) == 3


def test_snap_ambiguous_on_low_precision():
    sys = system(2, 1, 2, nprec=14, degree=48)
    from wittlab.rings import RingElem

    fuzz = RingElem(sys.ring, sys.ring.one().co, 1)
    with pytest.raises(SnapAmbiguous):
        sys.mu_table.snap(fuzz)


def test_snap_against_a_subset(monkeypatch):
    # psi_1's values are the order-p roots, the indices that are multiples
    # of p^(l-1) = 3: psi_1 at a root outside them is refused, not rounded
    table = system(3, 1, 2, nprec=14, degree=54).mu_table
    for k in range(table.order):
        index, dist = table.snap(table.elements[k])
        assert index == k and dist > table.max_pairwise_val
        sys = system(3, 1, 2, nprec=14, degree=54)
        monkeypatch.setattr(sys, "theta_at", lambda m, c, z=table.elements[k]: z)
        if k % 3:
            with pytest.raises(ReportedMismatch):
                sys.psi1_log(sys.field.one())
        else:
            assert sys.psi1_log(sys.field.one()) == k


@pytest.mark.parametrize("p,ell,expect", [(2, 2, 2), (3, 2, 3), (2, 3, 4)])
def test_count_E_t_ell(p, ell, expect):
    sys = system(p, 1, ell, nprec=14, degree=16)
    assert sys.count_E_t_ell() == p ** (ell - 1)
    assert sys.count_E_t_ell() == expect
    # also for t = 0: roots within |pi| of 1 are exactly mu_{p^(l-1)}
    sys = system(p, 1, ell, u_index=0, nprec=14, degree=16)
    assert sys.count_E_t_ell() == p ** (ell - 1)


def test_count_E_t_ell_l1_is_one():
    sys = system(2, 1, 1, nprec=12, degree=16)
    assert sys.count_E_t_ell() == 1


def test_chi_multiplicative_exhaustive():
    for p, s in [(2, 1), (3, 1), (2, 2)]:
        sys = system(p, s, 2, nprec=14, degree=48 if p == 2 else 54)
        q = sys.field.q
        units = [
            WittVec(sys.field, [z0, z1])
            for z0 in sys.field.units()
            for z1 in sys.field.elements()
        ]
        for m, b in itertools.product(range(q - 1), sys.field.elements()):
            values = {}
            for z in units:
                values[tuple(c.co for c in z.comps)] = sys.chi_value(m, b, z)
            for z in units[: min(len(units), 6)]:
                for w in units[: min(len(units), 6)]:
                    zw = witt_mul(z, w)
                    got = values[tuple(c.co for c in zw.comps)]
                    want = values[tuple(c.co for c in z.comps)] * values[
                        tuple(c.co for c in w.comps)
                    ]
                    assert got == want, (p, s, m, b)


def test_chi_spec_examples():
    sys = system(3, 1, 2, nprec=14, degree=54)
    one = WittVec(sys.field, [sys.field.one(), sys.field.zero()])
    assert sys.chi_value(0, sys.field.zero(), one) == sys.ring.one()
    # b = 0: chi(z) = Teich(z_0)^m
    z = WittVec(sys.field, [sys.field.from_int(2), sys.field.one()])
    for m in range(2):
        assert sys.chi_value(m, sys.field.zero(), z) == sys.ring.teichmuller(
            sys.field.from_int(2)
        ) ** m


def test_splitting_function_checks():
    report = check_splitting(CharParams(2, 1, 2, nprec=14, degree=48), 2)
    assert report["pairs_checked"] == 16
    assert report["transitivity"] == "ok" and report["product_formula"] == "ok"


def test_omega_factorization_series():
    omega_factorization_check(CharParams(2, 1, 2, nprec=14, degree=48), 2, 24)


def test_omega_factorization_refuses_D_above_the_configuration():
    # the factors are truncated at the configuration's degree (96 by default
    # at p = 3), so a D above it is refused up front, naming that degree
    with pytest.raises(InvalidParameter, match="configuration's degree 96$"):
        omega_factorization_check(CharParams(3, 1, 2, nprec=16), 2, 128)


@pytest.mark.parametrize("p,s,deg", [(2, 1, 128), (3, 1, 96), (2, 2, 128)])
def test_theta_tables_match_eval_full(p, s, deg):
    # criterion 7's configurations: the entry at Teich(u^(p^j) c) is eval_full
    # at t^(p^j) Teich(c), over the system ring and, for the big system and
    # the base-s factors that check_splitting reads, over the r = 2 ring
    base = system(p, s, 2, nprec=16, degree=deg)
    embed, _ = base.field.embedding_into(finite_field(p, 2 * s))
    big = system(p, 2 * s, 2, u_index=embed(base.u).index(), nprec=16, degree=deg)
    for sys, s_theta in [(base, s), (big, 2 * s), (big, s)]:
        ring = sys.ring
        for j in range(2):
            series = theta_one_series(ring, 1 - j, s_theta, deg)
            table = theta_teich_values(ring, 1 - j, s_theta, deg, sys.target_prec)
            assert len(table) == sys.field.q
            tpj, upj = sys.t ** (p**j), sys.u ** (p**j)
            for c in sys.field.elements():
                entry = table[(upj * c).index()]
                want = series.eval_full(tpj * ring.teichmuller(c))
                assert entry.co == want.co and entry.prec == sys.target_prec, (j, c)


def test_degenerate_t_zero_reads_the_constant_term():
    # t = Teich(0) = 0: every table read is at the point 0, so psi and the
    # psi_1 part of chi are trivial
    sys = system(2, 1, 2, u_index=0, nprec=14, degree=48)
    assert {sys.psi(y) for y in sys.domain()} == {sys.psi(zero_vec(sys.field, 2))}
    one = sys.field.one()
    assert sys.chi_value(0, one, WittVec(sys.field, [one, one])) == sys.ring.one()


def test_check_splitting_evaluates_each_point_once(monkeypatch):
    # cold tables: two over the base ring at q - 1 points each, and four over
    # the r = 2 ring (the big system's and the base-s factors) at q^2 - 1
    calls = []
    real = Series1.eval_full
    monkeypatch.setattr(Series1, "eval_full", lambda f, z: calls.append(1) or real(f, z))
    theta_teich_values.cache_clear()
    check_splitting(CharParams(2, 1, 2, nprec=14, degree=48), 2)
    q = 2
    assert 0 < len(calls) <= 2 * (q - 1) + 4 * (q**2 - 1)


def perturb_theta(monkeypatch, pick, k, delta):
    """theta_one_series, for the (ring, m, s) that ``pick`` accepts, returns a
    copy with ``delta(ring)`` added at degree k; the cached series stays."""
    real = characters.theta_one_series

    def perturbed(ring, m, s, degree):
        series = real(ring, m, s, degree)
        if not pick(ring, m, s):
            return series
        coeffs = list(series.coeffs)
        coeffs[k] = coeffs[k] + delta(ring)
        return Series1(ring, coeffs)

    monkeypatch.setattr(characters, "theta_one_series", perturbed)


@pytest.mark.parametrize(
    "s_theta,m,k", [(1, 1, 0), (1, 1, 1), (1, 0, 7), (1, 1, 24), (2, 0, 1), (2, 1, 7), (2, 0, 24)]
)
def test_omega_factorization_refuses_a_perturbed_factor(monkeypatch, s_theta, m, k):
    # pi^3 at degree k of theta_{m,s}(1) (base factor, s = 1) or of
    # theta_{m,sr}(1) (s = 2); at k = 0 the constant term is no longer 1
    pick = lambda ring, mm, s: (mm, s) == (m, s_theta)
    perturb_theta(monkeypatch, pick, k, lambda ring: ring.pi() ** 3)
    with pytest.raises(ReportedMismatch, match="constant term" if k == 0 else "fails"):
        omega_factorization_check(CharParams(2, 1, 2, nprec=14, degree=48), 2, 24)


def test_check_splitting_refuses_a_perturbed_base_factor(monkeypatch):
    # pi at degree 1 of the base-s theta_{1,1}(1) over the r = 2 ring moves
    # each product-formula value a distance 1 from its root
    theta_teich_values.cache_clear()
    perturb_theta(
        monkeypatch, lambda ring, m, s: (ring.s, m, s) == (2, 1, 1), 1, lambda r: r.pi()
    )
    try:
        with pytest.raises(WittlabError):
            check_splitting(CharParams(2, 1, 2, nprec=14, degree=48), 2)
    finally:
        theta_teich_values.cache_clear()


def test_theta_teich_values_refuse_coefficients_below_the_target(monkeypatch):
    # the fold restamps every coefficient at the cap, so the precision of
    # the series itself is checked: 1, then zeros, known to 2 pi-digits
    ring = ring_of(3, nprec=8)
    coeffs = [RingElem(ring, ring.one().co, 2)] + [RingElem(ring, ring.zero().co, 2)] * 11
    monkeypatch.setattr(characters, "theta_one_series", lambda *args: Series1(ring, coeffs))
    theta_teich_values.cache_clear()
    try:
        with pytest.raises(PrecisionNotReached, match="known to 2 pi-digits, target 6"):
            theta_teich_values(ring, 1, 1, 11, 6)
        assert theta_teich_values(ring, 1, 1, 11, 2)[1] == ring.one()
    finally:
        theta_teich_values.cache_clear()


def test_omega_evaluates_to_psi():
    sys = system(2, 1, 2, nprec=14, degree=48)
    om = system(2, 1, 2, nprec=14, degree=32).omega()
    for y in sys.domain():
        pts = [sys.ring.teichmuller(c) for c in y.comps]
        val = om.eval_at(pts[0], pts[1])
        from wittlab.rings import RingElem

        val = RingElem(sys.ring, val.co, sys.target_prec)
        idx, _ = sys.mu_table.snap(val)
        assert idx == sys.psi(y)


@pytest.mark.parametrize(
    "error,raised", [(NotUnit, SeedNotConverging), (ZeroDivisionError, ZeroDivisionError)]
)
def test_mu_table_newton_labels_only_ring_failures(monkeypatch, error, raised):
    # a Newton step the ring cannot take means the seed did not converge; any
    # other exception is a bug and comes back as itself (with the plain
    # series at p = 3 the digit lifting leaves Newton steps to take; with the
    # cyclotomic one, 1 + pi is already an exact root); a table cached on the
    # shared ring would take no step at all
    mu_ppow_table.cache_clear()
    ring = make_ring(RingSpec(3, 1, 1, LubinTateSeries.plain(3), 14))

    def inverse(self):
        raise error("injected")

    monkeypatch.setattr(RingElem, "inverse", inverse)
    with pytest.raises(raised, match="injected"):
        mu_ppow_table(ring, 2)


def test_mu_table_plain_lubin_tate_p3():
    # mu_9 in the level-1 ring of F = 3T + T^3: pi is not zeta - 1 here
    from wittlab.rings import LubinTateSeries, RingSpec, make_ring
    from wittlab.characters import mu_ppow_table

    ring = make_ring(RingSpec(3, 1, 1, LubinTateSeries.plain(3), 14))
    table = mu_ppow_table(ring, 2)
    assert len(table.elements) == 9
    one = ring.one()
    by_order = {1: 0, 3: 0, 9: 0}
    for z in table.elements:
        assert (z**9 - one).is_zero()
        if (z - one).is_zero():
            by_order[1] += 1
        elif (z**3 - one).is_zero():
            by_order[3] += 1
        else:
            by_order[9] += 1
    assert by_order == {1: 1, 3: 2, 9: 6}


def test_chi_rejects_non_units():
    from wittlab.errors import NotUnit

    sys = system(2, 1, 2, nprec=14, degree=48)
    z = WittVec(sys.field, [sys.field.zero(), sys.field.one()])
    with pytest.raises(NotUnit):
        sys.chi_value(0, sys.field.one(), z)


def test_level_one_classical_characters():
    # ell = 1: psi_{1,s,t} is the classical additive character of F_q
    from wittlab.rings import RingElem

    for p, s in [(2, 1), (3, 1), (2, 2)]:
        sys = system(p, s, 1, nprec=12, degree=32 if p == 2 else 27)
        table = sys.character_table()
        table.verify_homomorphism()
        table.verify_image_is_full()
        assert len(table.rows) == sys.field.q
        assert table.image_size() == p
        # Omega_1 evaluated at Teichmueller points realizes psi
        om = sys.omega()
        for y in sys.domain():
            val = om.eval_full(sys.ring.teichmuller(y[0]))
            val = RingElem(sys.ring, val.co, sys.target_prec)
            idx, _ = sys.mu_table.snap(val)
            assert idx == sys.psi(y)


def test_theta_kills_maximal_ideal_vectors_at_t():
    # theta_{l-1,s}(a)(t) = 1 when all components of a lie in the maximal
    # ideal: this is what makes psi well defined on residues
    import random as _random

    from wittlab.rings import RingElem
    from wittlab.series import pulita_theta_ms, series_length
    from wittlab.wittvec import WittVec

    for p, s in [(2, 1), (3, 1), (2, 2)]:
        sys = system(p, s, 2, nprec=14, degree=48 if p == 2 else 54)
        ring = sys.ring
        pi = ring.pi()
        rng = _random.Random(99)
        length = series_length(p, sys.params.degree)
        for _ in range(5):
            a = WittVec(ring, [pi * ring.random(rng) for _ in range(length)])
            series = pulita_theta_ms(ring, 1, s, a, sys.params.degree)
            val = series.eval_full(sys.t)
            val = RingElem(ring, val.co, sys.target_prec)
            assert val == ring.one(), (p, s)
