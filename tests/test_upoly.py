"""Witt polynomial families against the closed forms displayed in print."""

import json
import pathlib

import pytest

from wittlab import upoly
from wittlab.cli import main
from wittlab.errors import FamilyTooLarge, IntegralityFailure, TimeBudgetExceeded
from wittlab.rings import RingElem, ring_of
from wittlab.upoly import (
    MAX_FAMILY_MONOMIALS,
    UniversalPoly,
    eval_plan_at,
    family_size_bound,
    ghost_identity_residual,
    ghost_poly,
    structural_polys,
)
from wittlab.wittvec import ghost_peel

from helpers import map_exponents


def mono(p, nx, ny, exps, coeff=1):
    return UniversalPoly.monomial(p, nx, ny, exps, coeff)


def test_ghost_poly_smallest():
    assert ghost_poly(2, 0) == mono(2, 1, 0, [(0, 1)])
    # fant_1 = X_0^2 + 2 X_1 at p = 2
    expect = mono(2, 2, 0, [(0, 2)]) + mono(2, 2, 0, [(1, 1)], 2)
    assert ghost_poly(2, 1) == expect


@pytest.mark.parametrize("p", [2, 3, 5])
def test_ghost_poly_recursions(p):
    # fant_{n+1}(X_0..X_{n+1}) = fant_n(X_0^p..X_n^p) + p^(n+1) X_{n+1}
    for n in range(4):
        lhs = ghost_poly(p, n + 1)
        sub = map_exponents(ghost_poly(p, n), lambda e: tuple(x * p for x in e))
        rhs = UniversalPoly(p, n + 2, 0, sub.terms) + mono(
            p, n + 2, 0, [(n + 1, 1)], p ** (n + 1)
        )
        assert lhs == rhs
    # fant_{n+1}(X_0..X_{n+1}) = X_0^(p^(n+1)) + p fant_n(X_1..X_{n+1})
    for n in range(4):
        lhs = ghost_poly(p, n + 1)
        wide = UniversalPoly(p, n + 2, 0, ghost_poly(p, n).terms)
        shifted = map_exponents(wide, lambda e: (0,) + e[:-1])
        rhs = mono(p, n + 2, 0, [(0, p ** (n + 1))]) + p * shifted
        assert lhs == rhs


def test_sum_family_displayed_forms():
    for p in (2, 3, 5):
        s0, s1 = structural_polys("sum", p, 2)
        assert s0 == mono(p, 2, 2, [(0, 1)]) + mono(p, 2, 2, [(2, 1)])
        expect = mono(p, 2, 2, [(1, 1)]) + mono(p, 2, 2, [(3, 1)])
        binom = 1
        for i in range(1, p):
            binom = binom * (p - i + 1) // i
            expect = expect - mono(p, 2, 2, [(0, i), (2, p - i)], binom // p)
        assert s1 == expect


def test_prod_family_displayed_forms():
    for p in (2, 3, 5):
        p0, p1 = structural_polys("prod", p, 2)
        assert p0 == mono(p, 2, 2, [(0, 1), (2, 1)])
        expect = (
            mono(p, 2, 2, [(1, 1), (3, 1)], p)
            + mono(p, 2, 2, [(0, p), (3, 1)])
            + mono(p, 2, 2, [(1, 1), (2, p)])
        )
        assert p1 == expect


def test_neg_family_p2_matches_print():
    i0, i1, i2 = structural_polys("neg", 2, 3)
    assert i0 == -mono(2, 3, 0, [(0, 1)])
    assert i1 == -(mono(2, 3, 0, [(0, 2)]) + mono(2, 3, 0, [(1, 1)]))
    expect = -(
        mono(2, 3, 0, [(0, 4)])
        + mono(2, 3, 0, [(0, 2), (1, 1)])
        + mono(2, 3, 0, [(1, 2)])
        + mono(2, 3, 0, [(2, 1)])
    )
    assert i2 == expect


@pytest.mark.parametrize("p", [3, 5, 7])
def test_neg_family_odd_p_is_minus_identity(p):
    for n, poly in enumerate(structural_polys("neg", p, 4)):
        assert poly == -mono(p, 4, 0, [(n, 1)])


def test_frob_family_displayed_forms():
    for p in (2, 3, 5):
        f0, f1 = structural_polys("frob", p, 2)
        assert f0 == mono(p, 3, 0, [(0, p)]) + mono(p, 3, 0, [(1, 1)], p)
        expect = mono(p, 3, 0, [(1, p)]) + mono(p, 3, 0, [(2, 1)], p)
        binom = 1
        for i in range(0, p):
            if i:
                binom = binom * (p - i + 1) // i
            expect = expect - mono(
                p, 3, 0, [(0, p * i), (1, p - i)], binom * p ** (p - i - 1)
            )
        assert f1 == expect


@pytest.mark.parametrize("p", [2, 3])
def test_frob_congruent_to_pth_power_mod_p(p):
    for n, poly in enumerate(structural_polys("frob", p, 4)):
        diff = poly - mono(p, 5, 0, [(n, p)])
        assert all(c % p == 0 for c in diff.terms.values())


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("kind", ["sum", "prod", "neg", "frob"])
def test_ghost_identities_exact(p, kind):
    for length in range(1, 5):
        assert not ghost_identity_residual(kind, p, length).terms


def test_eval_poly_spec_examples():
    # values in variable order: X0..X_{nx-1}, then Y0..Y_{ny-1}
    z32 = ring_of(2, nprec=5)
    s0 = structural_polys("sum", 2, 1)[0]
    got = eval_plan_at(s0, [z32.from_int(3), z32.from_int(4)])
    assert got == z32.from_int(7)

    z3 = ring_of(3, nprec=6)
    f1 = ghost_poly(3, 1)
    got = eval_plan_at(f1, [z3.one(), z3.zero()])
    assert got == z3.one()

    z2 = ring_of(2, nprec=6)
    p1 = structural_polys("prod", 2, 2)[1]
    got = eval_plan_at(p1, [z2.one(), z2.zero(), z2.one(), z2.zero()])
    assert got.is_zero()


def test_serialization_roundtrip_text_and_json():
    s1 = structural_polys("sum", 3, 2)[1]
    text = s1.to_text()
    assert "X0^1 Y0^2" in text or "X0^2 Y0^1" in text
    rows = s1.to_json_obj()
    assert all(set(r) == {"coeff", "exps"} for r in rows)
    # graded-lex descending: degrees non-increasing
    degs = [sum(r["exps"].values()) for r in rows]
    assert degs == sorted(degs, reverse=True)


_GEN_POLYS_GOLDEN = pathlib.Path(__file__).parent / "data" / "gen_polys_golden.json"


@pytest.mark.parametrize("p,length", [(2, 3), (3, 2)])
@pytest.mark.parametrize("kind", ["sum", "prod", "neg", "frob"])
def test_gen_polys_matches_golden(capsys, kind, p, length):
    golden = json.loads(_GEN_POLYS_GOLDEN.read_text())
    for fmt in ("text", "json"):
        args = ["gen-polys", "--p", str(p), "--len", str(length), "--kind", kind]
        assert main(args + ["--format", fmt]) == 0
        assert capsys.readouterr().out == golden[f"{kind},{p},{length},{fmt}"], fmt


def test_integrality_failure_names_the_monomial():
    poly = UniversalPoly.monomial(2, 1, 1, [(0, 1), (1, 2)], 3)
    with pytest.raises(IntegralityFailure) as err:
        poly.divide_exact(2)
    assert str(err.value) == "coefficient 3 of X0^1 Y0^2 is not divisible by 2"


def _brute_count(weights, degree):
    """Monomials of the given weighted degree, by enumerating exponents."""
    if not weights:
        return int(degree == 0)
    w = weights[-1]
    return sum(_brute_count(weights[:-1], degree - k * w) for k in range(degree // w + 1))


@pytest.mark.parametrize("p", [2, 3])
def test_family_size_bound_counts_monomials(p):
    for n in range(3):
        block = [p**i for i in range(n + 1)]
        assert family_size_bound("sum", p, n) == _brute_count(block * 2, p**n)
        assert family_size_bound("prod", p, n) == _brute_count(block, p**n) ** 2
        assert family_size_bound("neg", p, n) == _brute_count(block, p**n)
        assert family_size_bound("frob", p, n) == _brute_count(
            block + [p ** (n + 1)], p ** (n + 1)
        )


# Every (kind, p, length) the suite builds, at its longest length.
SUITE_FAMILIES = [
    (kind, p, 5) for p in (2, 3) for kind in ("sum", "prod", "neg", "frob")
] + [(kind, 5, 4) for kind in ("sum", "prod", "frob")] + [
    ("neg", 5, 5),
    ("neg", 7, 4),
]


@pytest.mark.parametrize("kind,p,length", SUITE_FAMILIES)
def test_size_bound_covers_built_families(kind, p, length):
    polys = structural_polys(kind, p, length)
    for n, poly in enumerate(polys):
        assert family_size_bound(kind, p, n) >= len(poly), (kind, p, n)
    assert family_size_bound(kind, p, length - 1) <= MAX_FAMILY_MONOMIALS


@pytest.mark.parametrize("kind", ["sum", "prod", "frob"])
def test_refused_family_leaves_cache_untouched(monkeypatch, kind):
    monkeypatch.setattr(upoly, "_structural_cache", {})
    with pytest.raises(FamilyTooLarge, match=f"{kind} family at p = 5, length 5"):
        structural_polys(kind, 5, 5, deadline_seconds=1.0)
    assert (kind, 5) not in upoly._structural_cache


def test_poly_power_matches_repeated_multiplication(monkeypatch):
    # every power takes fields.pow_ladder: n.bit_length() - 1 squarings and
    # popcount(n) - 1 further products, with the terms of 1 * x * ... * x
    polys = [
        ghost_poly(2, 2),
        structural_polys("sum", 3, 2)[1],
        mono(3, 1, 1, [(0, 2), (1, 1)], -3),
    ]
    for poly in polys:
        powers = [mono(poly.prime, poly.nx, poly.ny, [])]
        for _ in range(12):
            powers.append(powers[-1] * poly)
        calls = []
        mul_terms = upoly._mul_terms
        monkeypatch.setattr(upoly, "_mul_terms", lambda *a: calls.append(1) or mul_terms(*a))
        for n, want in enumerate(powers):
            calls.clear()
            assert poly**n == want, (poly, n)
            assert len(calls) == (n.bit_length() + bin(n).count("1") - 2 if n else 0), n
        monkeypatch.undo()


def test_family_powers_keep_the_deadline(monkeypatch):
    # the p-th powers of a family's members are ladder steps that still
    # check the construction's deadline
    monkeypatch.setattr(upoly, "_structural_cache", {})
    with pytest.raises(TimeBudgetExceeded):
        structural_polys("sum", 3, 3, deadline_seconds=-1.0)


def test_ghost_invert_constant_p_sequence():
    # u_n = p: components (p, 1 - p^(p-1), ...), solving fant_1 = p by hand
    for p in (2, 3, 5):
        ring = ring_of(p, nprec=14)
        comps = ghost_peel(ring, [ring.from_int(p).co for _ in range(3)])
        assert RingElem(ring, comps[0]) == ring.from_int(p)
        assert RingElem(ring, comps[1], ring.cap - 1) == ring.from_int(1 - p ** (p - 1))
