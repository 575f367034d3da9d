"""Kernel, Dwork operator, alpha matrix/trace and the trace formula."""

import itertools
import json
import pathlib
import random

import pytest

from wittlab import characters, gausstrace
from wittlab.characters import CharParams, CharacterSystem, shared_system
from wittlab.errors import (
    InvalidParameter,
    PrecisionNotReached,
    ReportedMismatch,
    RingMismatch,
    TailNotCertified,
    TruncationTooSmall,
    WittlabError,
)
from wittlab.fields import finite_field
from wittlab.gausstrace import (
    GaussConfig,
    alpha_apply_monomial,
    alpha_matrix,
    alpha_trace,
    bench_report,
    brute_terms,
    certified_diagonal_sum,
    diagonal_lattice,
    diagonal_selection_check,
    dwork_op,
    gauss_brute,
    kernel_H,
    kernel_shells,
    omega1_substituted,
    omega_class_products,
    psi_order_p2,
    psi_parts,
    stationary_points,
    trace_formula_check,
    trace_parts,
)
from wittlab.rings import LubinTateSeries, RingElem, SeriesPacking, ring_of
from wittlab.series import Series1, TruncSeries2, certify_tail
from wittlab.wittvec import WittVec

from helpers import (
    gauss_brute_per_term,
    matrix_trace,
    roots_of_unity_sum_check,
    series2_constant,
    series2_terms,
)
from packing_oracle import pack_terms, read_tuples
from shell_identity import cut_sums, horner_parts


def system21(degree=48):
    return CharacterSystem(CharParams(2, 1, 2, nprec=14, degree=degree))


def rand_series2(ring, degree, rng, val_growth=0):
    out = TruncSeries2(ring, degree)
    pi = ring.pi()
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            c = ring.random(rng)
            for _ in range(val_growth * (i + j)):
                c = c * pi
            out.rows[i][j] = c
    return out


def test_dwork_operator_basics():
    sys = system21()
    ring = sys.ring
    one = series2_constant(ring, 8, ring.one())
    dw = dwork_op(one, 2)
    assert dw.coefficient(0, 0) == ring.one()
    assert all(
        not any(dw.coefficient(i, j).co) for i in range(5) for j in range(5 - i) if i or j
    )
    mono = TruncSeries2(ring, 8)
    mono.rows[2][2] = ring.one()  # x0^2 x1^2, q = 2
    dw = dwork_op(mono, 2)
    assert dw.coefficient(1, 1) == ring.one()
    assert dw.degree == 4


def test_dwork_valuation_contraction():
    rng = random.Random(3)
    sys = system21()
    g = rand_series2(sys.ring, 12, rng)
    mins = [c.valuation() for _, _, c in series2_terms(g)]
    dw = dwork_op(g, 2)
    mins_dw = [c.valuation() for _, _, c in series2_terms(dw)]
    assert min(mins_dw, default=sys.ring.cap) >= min(mins, default=0)


def test_alpha_trace_trivial_cases():
    sys = system21()
    ring = sys.ring
    c = ring.from_int(7)
    const = series2_constant(ring, 10, c)
    value, _ = alpha_trace(const, 2, 4)
    assert value == c
    mono = TruncSeries2(ring, 10)
    mono.rows[1][1] = ring.one()  # x0^(q-1) x1^(q-1) with q = 2
    value, _ = alpha_trace(mono, 2, 4)
    assert value == ring.one()  # only the (n0, n1) = (1, 1) diagonal slot hits


def test_alpha_matrix_identity_kernel():
    sys = system21()
    ring = sys.ring
    one = series2_constant(ring, 8, ring.one())
    basis, matrix = alpha_matrix(one, 2, 4)
    # alpha(1) = 1: column of (0,0) has 1 at row (0,0), zero elsewhere
    col0 = [matrix[r][0] for r in range(len(basis))]
    assert col0[0] == ring.one()
    assert all(not any(c.co) for c in col0[1:])
    # trace of matrix equals the diagonal selection restricted to the cutoff
    tr = matrix_trace(basis, matrix)
    assert tr == ring.one()  # only b_{(q-1)n} = b_0 contributes for H = 1


def test_alpha_matrix_columns_vs_dwork_mult():
    rng = random.Random(11)
    sys = system21()
    ring = sys.ring
    h = rand_series2(ring, 16, rng)
    cutoff = 4
    basis, matrix = alpha_matrix(h, 2, cutoff)
    for trial in range(25):
        n0, n1 = basis[rng.randrange(len(basis))]
        image = alpha_apply_monomial(h, 2, n0, n1)
        col = basis.index((n0, n1))
        for r, (m0, m1) in enumerate(basis):
            assert matrix[r][col] == image.coefficient(m0, m1), (n0, n1, m0, m1)


def test_diagonal_selection_identity_random():
    rng = random.Random(17)
    sys = system21()
    for _ in range(5):
        h = rand_series2(sys.ring, 20, rng, val_growth=1)
        assert diagonal_selection_check(h, sys, 6)


def test_roots_of_unity_sum():
    sys3 = CharacterSystem(CharParams(3, 1, 2, nprec=14, degree=54))
    assert roots_of_unity_sum_check(sys3, 9)
    sys4 = CharacterSystem(CharParams(2, 2, 2, nprec=14, degree=48))
    assert roots_of_unity_sum_check(sys4, 8)


def test_kernel_constant_term_and_specialization():
    sys = system21(32)
    ring = sys.ring
    k0 = kernel_H(sys, 0, sys.field.zero())
    assert k0.coefficient(0, 0) == -ring.one()
    k1 = kernel_H(sys, 0, sys.field.one())
    assert k1.coefficient(0, 0) == -ring.one()
    # m >= 1 kills the constant term (m = 1 is a character at q = 3, not 2)
    sys3 = CharacterSystem(CharParams(3, 1, 2, nprec=14, degree=32))
    km = kernel_H(sys3, 1, sys3.field.zero())
    assert not any(km.coefficient(0, 0).co)
    # b = 0, m = 0: H(x0, x1) = -Omega_2(x0, x1); check column x1 = 0
    a = sys.theta_series(0).truncate(32).compose_scale(sys.t)
    for i in range(33):
        assert k0.coefficient(i, 0) == -a.coeffs[i]


def test_kernel_matches_characters_termwise():
    for p, s in [(2, 1), (3, 1)]:
        sys = (
            system21()
            if p == 2
            else CharacterSystem(CharParams(3, 1, 2, nprec=14, degree=54))
        )
        table = sys.character_table()
        for chi_m in range(sys.field.q - 1):
            for chi_b in sys.field.elements():
                kern = kernel_H(sys, chi_m, chi_b)
                for z0 in sys.field.units():
                    for z1 in sys.field.elements():
                        z = WittVec(sys.field, [z0, z1])
                        val = kern.eval_at(
                            sys.ring.teichmuller(z0), sys.ring.teichmuller(z1)
                        )
                        val = RingElem(sys.ring, val.co, sys.target_prec)
                        expect = -(
                            sys.mu_table.elements[table.index_of(z)]
                            * sys.chi_value(chi_m, chi_b, z)
                        )
                        assert val == expect, (p, chi_m, chi_b)


@pytest.mark.parametrize("p,s,degree", [(2, 1, 10), (3, 1, 12), (2, 2, 14)])
def test_kernel_H_is_the_product_of_its_factors(p, s, degree):
    # every coefficient of H = -x0^m A(x0) B(x1) C, C Omega_1's terms
    # (a, b, c_k), against the sum taken directly: [x0^i x1^j] H = -sum_k
    # A[i - a - m] B[j - b] c_k, for every chi_m and b; every coefficient,
    # zero or not, is declared at the least precision over A, B and C (the
    # factors are exact, so here they are declared below the cap, a
    # coefficient's precision varying with its degree)
    sys = CharacterSystem(CharParams(p, s, 2, nprec=8, degree=degree))
    ring = sys.ring
    fa, fb = sys.omega_factors = tuple(
        Series1(ring, [RingElem(ring, c.co, ring.cap - (i + k) % 4) for i, c in enumerate(f.coeffs)])
        for k, f in enumerate(sys.omega_factors)
    )
    for chi_m in range(sys.field.q - 1):
        for chi_b in sys.field.elements():
            terms = omega1_substituted(sys, chi_b)
            floor = min(c.prec for c in fa.coeffs + fb.coeffs + [c for *_, c in terms])
            kern = kernel_H(sys, chi_m, chi_b)
            for i in range(degree + 1):
                for j in range(degree + 1 - i):
                    want = ring.zero()
                    for a, b, c in terms:
                        if i - a - chi_m >= 0 and j - b >= 0:
                            want = want + fa.coeffs[i - a - chi_m] * fb.coeffs[j - b] * c
                    got = kern.coefficient(i, j)
                    assert got.co == (-want).co, (chi_m, chi_b, i, j)
                    assert got.prec == floor, (chi_m, chi_b, i, j)


def test_kernel_truncation_guard():
    # q = 3 at D = 4: H's lowest term at chi = (1, b != 0) is x0^(1 + p(q-2) + 1)
    sys = CharacterSystem(CharParams(3, 1, 2, nprec=14, degree=4))
    with pytest.raises(TruncationTooSmall):
        kernel_H(sys, 1, sys.field.one())


def test_gauss_brute_trivial_counting():
    # chi = (0, 0): the full sum is psi over all of W_2(F_q)^*, which cancels
    # (z_1 runs over F_q and psi is not trivial on V W_1), and the units'
    # sum is what the column z_1 = 0 leaves, sum_x psi([x]), read here from
    # the exhaustive table
    for p, s in [(2, 1), (3, 1), (2, 2)]:
        sys = next(nondegenerate_systems(p, s, 14, 40))
        field, roots = sys.field, sys.mu_table.elements
        table = sys.character_table()
        g = gauss_brute(sys, 0, field.zero())
        assert (g["full"].co, g["full"].prec) == (sys.ring.zero().co, roots[0].prec)
        want = sys.ring.zero()
        for x in field.units():
            want = want + roots[table.index_of(WittVec(field, [x, field.zero()]))]
        assert (g["units"].co, g["units"].prec) == (want.co, want.prec)
    # the Gauss path reads psi's indices at [x] and V[y], never the q^2 table
    params = CharParams(2, 2, 2, nprec=15, degree=100)
    report = trace_formula_check(GaussConfig(params, 1, 2))
    assert report["psi_order_p2"] is True
    assert shared_system(params)._table is None


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (7, 1)])
def test_gauss_sum_stationary_phase(p, s):
    # over every w of F_q, not only the F_p-basis the system scans: for each
    # b != 0 exactly one x of F_q^* makes w -> psi(V[x^p w]) psi_1(b w)
    # trivial, and it is the system's x_b; at b = 0 none does.  psi's
    # indices at [x] and at V[y] add to its table index at (x, y), and the
    # image of those sums is the table's
    sys = next(nondegenerate_systems(p, s, 14, 64 if p >= 5 else 40))
    field, order = sys.field, sys.mu_table.order
    teich, ver = psi_parts(sys)
    table = sys.character_table()
    for x, y in itertools.product(field.elements(), repeat=2):
        want = table.index_of(WittVec(field, [x, y]))
        assert (teich[x.index()] + ver[y.index()]) % order == want, (x, y)
    image = {(a + v) % order for a in teich for v in ver}
    assert image == {row["psi_index"] for row in table.rows}
    assert len(image) == table.image_size() == p**2
    for b in field.elements():
        trivial = [
            x
            for x in field.units()
            if all(
                (ver[(x**p * w).index()] + (sys.psi1_log(b * w) if b and w else 0)) % order == 0
                for w in field.elements()
            )
        ]
        assert trivial == ([stationary_points(sys)[b.index()]] if b else []), b


@pytest.mark.parametrize(
    "p,s,deg", [(2, 1, 64), (3, 1, 54), (2, 2, 64), (5, 1, 150), (2, 3, 64), (3, 2, 54)]
)
def test_psi_parts_are_psi_at_teich_and_at_V(p, s, deg):
    # ver reads psi1_log at u^(p-1) y, the same theta_0 value under the same
    # snap as psi(V[y]); the oracle is psi itself at [x] and at V[y]
    sys = CharacterSystem(CharParams(p, s, 2, nprec=16, degree=deg))
    field, zero = sys.field, sys.field.zero()
    teich, ver = psi_parts(sys)
    assert teich == [sys.psi([x, zero]) for x in field.elements()]
    assert ver == [sys.psi([zero, y]) for y in field.elements()]


def test_a_gauss_sweep_snaps_2q_minus_1_values_per_system(monkeypatch):
    # psi at [x] for every x of F_q, and psi_1 at each unit once: psi(V[y])
    # and the stationary points read the same psi1_log entries.  At q = 4
    # that is 7 snaps, where snapping psi(V[y]) on its own made 10
    real, snaps = characters.RootOfUnityTable.snap, []
    monkeypatch.setattr(
        characters.RootOfUnityTable, "snap", lambda table, v: snaps.append(1) or real(table, v)
    )
    sys = CharacterSystem(CharParams(2, 2, 2, nprec=16, degree=64))
    for m, b in itertools.product(range(3), sys.field.elements()):
        gauss_brute(sys, m, b)
    psi_order_p2(sys)
    assert len(snaps) == 7


def test_stationary_points_refuse_a_wrong_count(monkeypatch):
    # with psi(V[.]) replaced by the trivial character no x passes for
    # b != 0: a typed refusal, not a guess, on the Gauss path too, and
    # nothing is kept for the system
    sys = next(nondegenerate_systems(3, 1, 14, 40))
    teich, ver = psi_parts(sys)
    monkeypatch.setattr(gausstrace, "psi_parts", lambda system: (teich, [0] * len(ver)))
    before = stationary_points.cache_info()
    with pytest.raises(ReportedMismatch, match="the character is trivial at 0 x"):
        gauss_brute(sys, 0, sys.field.one())
    assert stationary_points.cache_info().currsize == before.currsize


def test_gauss_brute_structural_values_p2():
    # q = 2: psi(1,1) = psi(1,0) psi(0,1) and psi(0,1) = psi(1,0)^2 = -1,
    # so with trivial chi: g_full = 0 and g_units = psi(1,0).
    sys = system21()
    f = sys.field
    table = sys.character_table()
    root = lambda z: sys.mu_table.elements[table.index_of(WittVec(f, z))]
    psi10 = root([f.one(), f.zero()])
    psi01 = root([f.zero(), f.one()])
    psi11 = root([f.one(), f.one()])
    assert psi01 == -sys.ring.one()
    assert psi11 == psi10 * psi01
    g = gauss_brute(sys, 0, f.zero())
    g_full, g_units = g["full"], g["units"]
    assert g_full.is_zero()
    assert g_units == psi10
    # with chi = (m=0, b=1): the single units term gives -psi(1,1) chi(1,1)
    chi11 = sys.chi_value(0, f.one(), WittVec(f, [f.one(), f.one()]))
    assert chi11 == -sys.ring.one()
    g_units_b1 = gauss_brute(sys, 0, f.one())["units"]
    assert g_units_b1 == -(psi11 * chi11)


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (7, 1)])
def test_gauss_brute_matches_per_term_oracle(p, s):
    # the closed form against one RingElem product per z, coordinates and
    # precision, in both conventions: every chi at q = 2, 3, 4, 8 and 9,
    # every m for b = 0 and for b = 1 at q = 5 and 7.  Each chi is checked
    # twice, on each of two nondegenerate t in turn, so state shared across
    # systems would fail
    q = p**s
    systems = list(itertools.islice(nondegenerate_systems(p, s, 14, 64 if p >= 5 else 40), 2))
    chi_bs = [0, 1] if p >= 5 else list(range(q))
    for m in range(q - 1):
        for b in chi_bs:
            for sys in systems:
                chi_b = sys.field.from_index(b)
                want = gauss_brute_per_term(sys, m, chi_b)
                for _ in range(2):
                    got = gauss_brute(sys, m, chi_b)
                    assert sorted(got) == sorted(want) == ["full", "units"]
                    for conv in want:
                        assert (got[conv].co, got[conv].prec) == (want[conv].co, want[conv].prec), (
                            sys.u.index(), m, b, conv
                        )


def test_config_rejects_out_of_range_indices():
    # an index outside its range used to wrap silently (b = 5 computed b = 1)
    params = CharParams(2, 2, 2, nprec=14, degree=48)  # q = 4
    for chi_m, b_index in ((3, 0), (-1, 0), (0, 4), (0, -1)):
        with pytest.raises(InvalidParameter):
            GaussConfig(params, chi_m, b_index)
    assert GaussConfig(params, 2, 3).describe()["chi"] == {"m": 2, "b": 3}
    with pytest.raises(InvalidParameter):
        GaussConfig(CharParams(2, 1, 3), 0, 0)
    for u_index in (-1, 4):
        with pytest.raises(InvalidParameter):
            CharParams(2, 2, 2, u_index=u_index)


def test_trace_formula_p2_full_sweep():
    params = CharParams(2, 1, 2, nprec=16, degree=64)
    for chi_m in range(1):
        for b_index in range(2):
            cfg = GaussConfig(params, chi_m, b_index, target_prec=6)
            report = trace_formula_check(cfg)
            assert "units" in report["convention"], report["residual_valuation"]
            assert report["psi_order_p2"]


def test_bench_report_shape():
    params = CharParams(2, 1, 2, nprec=16, degree=64)
    rep = bench_report(params, 0, 1, [32, 48], target_prec=4)
    assert len(rep["rows"]) == 2
    # each row is a configuration at its own D; none ran at params' 64
    assert rep["config"]["D"] == [r["D"] for r in rep["rows"]] == [32, 48]
    assert all("timing_ms" in r for r in rep["rows"])


def test_dwork_and_mult_linearity():
    rng = random.Random(23)
    sys = system21()
    ring = sys.ring
    for _ in range(5):
        g = rand_series2(ring, 12, rng)
        h = rand_series2(ring, 12, rng)
        kern = rand_series2(ring, 12, rng)
        c = ring.random(rng)
        # Dw_q(g + c h) = Dw_q(g) + c Dw_q(h)
        combined = TruncSeries2(ring, 12)
        for i in range(13):
            for j in range(13 - i):
                combined.rows[i][j] = g.rows[i][j] + h.rows[i][j] * c
        lhs = dwork_op(combined, 2)
        ra, rb = dwork_op(g, 2), dwork_op(h, 2)
        for i in range(7):
            for j in range(7 - i):
                assert lhs.coefficient(i, j) == ra.coefficient(i, j) + rb.coefficient(i, j) * c
        # mult_H(g + c h) = mult_H(g) + c mult_H(h)
        kern_terms = list(series2_terms(kern))
        lhs = combined.mul_sparse(kern_terms)
        ra, rb = g.mul_sparse(kern_terms), h.mul_sparse(kern_terms)
        for i in range(13):
            for j in range(13 - i):
                assert lhs.coefficient(i, j) == ra.coefficient(i, j) + rb.coefficient(i, j) * c


CHAR_TABLE_GOLDENS = {
    "char_table_2_1_2.csv": ["--p", "2", "--s", "1", "--prec", "14", "--deg", "48"],
    "char_table_3_1_2.csv": ["--p", "3", "--s", "1", "--prec", "14", "--deg", "54"],
    "char_table_2_2_2.csv": ["--p", "2", "--s", "2", "--deg", "64"],
}


def test_cli_csv_export(capsys):
    # the pinned CSVs hold every psi index and raw snap distance
    import pathlib

    from wittlab.cli import main

    data = pathlib.Path(__file__).parent / "data"
    for name, flags in CHAR_TABLE_GOLDENS.items():
        code = main(["char-table", "--ell", "2", *flags, "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out == (data / name).read_text(), name


_SWEEP_GOLDEN = pathlib.Path(__file__).parent / "data" / "gauss_sweep_golden.json"


def _sweep_digest(report):
    """The pinned part of one ``gauss --sweep`` report: trace_value only at
    its target precision, as coordinates mod p^(target / e)."""
    p, value = report["config"]["p"], report["trace_value"]
    mod = p ** (report["target_prec"] // (p ** value["level"] * (p - 1)))
    return {
        "chi": report["config"]["chi"],
        "convention": report["convention"],
        "residual_valuation": report["residual_valuation"],
        "certificate": report["certificate"],
        "g_brute": report["g_brute"],
        "trace_coords_mod": mod,
        "trace_coords": [[c % mod for c in row] for row in value["coords"]],
    }


def _trace_formula_sweep(capsys, p, s, degree, t_residue=None):
    """The reports of one ``gauss --sweep`` at N = 16, after checking that
    every chi of it agrees with the sum over the units at the target 3e."""
    from wittlab.cli import main

    argv = ["gauss", "--p", str(p), "--s", str(s), "--deg", str(degree), "--prec", "16"]
    if t_residue is not None:
        argv += ["--t-residue", str(t_residue)]
    assert main([*argv, "--sweep"]) == 0
    reports = json.loads(capsys.readouterr().out)["sweep"]
    q = p**s
    assert len(reports) == (q - 1) * q
    for r in reports:
        assert r["target_prec"] == 3 * p * (p - 1)
        assert "units" in r["convention"], r["config"]["chi"]
        assert r["residual_valuation"]["units"] >= r["target_prec"], r["config"]["chi"]
    return reports


@pytest.mark.parametrize(
    "p,s,degree",
    [(2, 1, 64), (2, 2, 128), (3, 1, 128), (2, 3, 128), (3, 2, 512), (5, 1, 1536)],
)
def test_gauss_sweep_matches_golden(capsys, p, s, degree):
    # every report of the sweep against values frozen from an earlier
    # release; wall-clock fields are left out
    reports = _trace_formula_sweep(capsys, p, s, degree)
    golden = json.loads(_SWEEP_GOLDEN.read_text())[f"{p},{s},{degree}"]
    assert [_sweep_digest(r) for r in reports] == golden


# the sweep goldens but q = 5, whose system at 2D = 3072 takes about 14 s
@pytest.mark.parametrize(
    "p,s,degree", [(2, 1, 64), (2, 2, 128), (3, 1, 128), (2, 3, 128), (3, 2, 512)]
)
def test_certificate_holds_at_twice_the_degree(p, s, degree):
    # rule (b) of certify_tail extrapolates the shell floors to twice the
    # last shell, so rebuild the golden's system at 2D and test that claim
    # for every chi at the sweep's target 3e: every shell floor beyond D is
    # at least the target, and the diagonal total at 2D agrees with the one
    # at D to the target (least margins 5, 4, 6, 0 and 0 over these five)
    params = CharParams(p, s, 2, nprec=16, degree=degree)
    small, big = shared_system(params), shared_system(params.replace(degree=2 * degree))
    ring, q = small.ring, small.field.q
    target, top = 3 * ring.e, degree // (q - 1)
    for m in range(q - 1):
        for chi_b in small.field.elements():
            _, total, _ = kernel_shells(small, m, chi_b)
            _, total2, floors2 = kernel_shells(big, m, chi_b)
            assert len(floors2) == 2 * degree // (q - 1) + 1
            assert min(floors2[top + 1 :]) >= target, (m, chi_b.index())
            moved = RingElem(ring, total2) - RingElem(ring, total)
            assert moved.valuation() >= target, (m, chi_b.index())
    characters.shared_system.cache_clear()


def _value_in(ring, obj):
    """A report's value (``to_json_obj``) with its coordinates mod ring's p^N."""
    return RingElem(ring, tuple(c % ring.pn for row in obj["coords"] for c in row), obj["prec"])


def _declared_values(report):
    return report["trace_value"], report["g_brute"]["full"], report["g_brute"]["units"]


# the sweep goldens but q = 5, whose system at N = 20 takes about 10 s
@pytest.mark.parametrize(
    "p,s,degree", [(2, 1, 64), (2, 2, 128), (3, 1, 128), (2, 3, 128), (3, 2, 512)]
)
def test_report_values_hold_at_four_more_digits(p, s, degree):
    # rebuild the golden's configuration at N + 4 = 20, at the same D and t:
    # for every chi, the N = 16 report's trace_value, g_brute.full and
    # g_brute.units agree with the N = 20 ones at the N = 16 declared
    # precision, and the N = 20 value declares no less
    params = CharParams(p, s, 2, nprec=16, degree=degree)
    ring = shared_system(params).ring
    for m in range(p**s - 1):
        for b in range(p**s):
            low = trace_formula_check(GaussConfig(params, m, b))
            high = trace_formula_check(GaussConfig(params.replace(nprec=20), m, b))
            assert low["t_residue_index"] == high["t_residue_index"]
            for k, (got, want) in enumerate(zip(_declared_values(low), _declared_values(high))):
                assert want["prec"] >= got["prec"], (m, b, k)
                moved = _value_in(ring, want) - _value_in(ring, got)
                assert moved.valuation() >= got["prec"], (m, b, k)
    characters.shared_system.cache_clear()


@pytest.mark.xfail(raises=AssertionError, strict=True, reason="the empirical tail over-claims")
def test_certificate_over_claims_at_q4_target_12():
    # the empirical certificate certifies the diagonal at q = 4, D = 128,
    # chi = (0, 0), target 12 (floor 13 over the last sixth, extrapolated
    # 32), yet the totals at D = 256 and D = 512 differ from it at valuation
    # 11; a proven tail would refuse this target, and then this pin fails
    # on the refusal and is to be rewritten
    params = CharParams(2, 2, 2, nprec=16, degree=128)
    system = shared_system(params)
    zero = system.field.zero()
    value, _ = certified_diagonal_sum(system.ring, kernel_shells(system, 0, zero), 12)
    try:
        for degree in (256, 512):
            _, total, _ = kernel_shells(shared_system(params.replace(degree=degree)), 0, zero)
            assert (RingElem(system.ring, total) - value).valuation() >= 12, degree
    finally:
        characters.shared_system.cache_clear()


@pytest.mark.parametrize("p,s,degree", [(2, 3, 128), (3, 2, 512), (5, 1, 1536)])
def test_trace_formula_at_a_second_t(capsys, p, s, degree):
    # q = 8, 9 and 5 (the e = 20 ring) at the second nondegenerate t (index
    # 2; the default is 1), each brute-force sum against the per-term oracle
    reports = _trace_formula_sweep(capsys, p, s, degree, t_residue=2)
    assert {r["t_residue_index"] for r in reports} == {2}
    sys = shared_system(CharParams(p, s, 2, u_index=2, nprec=16, degree=degree))
    for r in reports:
        chi = r["config"]["chi"]
        want = gauss_brute_per_term(sys, chi["m"], sys.field.from_index(chi["b"]))
        assert r["g_brute"] == {conv: v.to_json_obj() for conv, v in want.items()}, chi


def test_gauss_brute_golden_values():
    # frozen (2,1) values; each was independently derived from the psi
    # group structure: g_full(0,0) = 0, g_units(0,0) = psi(1,0) = 1 + pi,
    # g_full(0,1) = -2 psi(1,0), g_units(0,1) = -psi(1,0)
    golden = json.loads(
        (pathlib.Path(__file__).parent / "data" / "gauss_2_1_golden.json").read_text()
    )
    from wittlab.characters import CharParams, CharacterSystem

    params = CharParams(2, 1, 2, nprec=16, degree=64)
    sys = CharacterSystem(params)
    assert sys.u.index() == golden["t_residue_index"]
    for key, want in golden["values"].items():
        m, b_index, conv = key.split("_")
        g = gauss_brute(sys, int(m[1:]), sys.field.from_index(int(b_index[1:])))[conv]
        assert list(g.co) == want["coords"], key
        assert g.prec == want["prec"], key


def test_gauss_conjugate_valuation_symmetry():
    # g for chi and for its inverse character have equal valuation
    from wittlab.characters import CharParams, CharacterSystem

    sys = CharacterSystem(CharParams(3, 1, 2, nprec=14, degree=54))
    q = sys.field.q
    for m in range(q - 1):
        for b_index in range(q):
            b = sys.field.from_index(b_index)
            m_inv = (-m) % (q - 1)
            b_inv = -b
            g = gauss_brute(sys, m, b)["units"]
            g_inv = gauss_brute(sys, m_inv, b_inv)["units"]
            v, v_inv = g.valuation(), g_inv.valuation()
            assert min(v, g.prec) == min(v_inv, g_inv.prec), (m, b_index)


def nondegenerate_systems(p, s, nprec, degree):
    field = finite_field(p, s)
    for u in field.elements():
        if field.absolute_trace(u):
            yield CharacterSystem(CharParams(p, s, 2, u_index=u.index(), nprec=nprec, degree=degree))


def certified_outcome(compute):
    # (co, prec, certificate) of a certified sum, or the type and message
    # of its refusal
    try:
        value, report = compute()
    except (PrecisionNotReached, TailNotCertified) as exc:
        return type(exc).__name__, str(exc)
    return value.co, value.prec, report["certificate"]


# The checks below whose valuation floors change the tail certificate: at
# q = 2 every C term of a coefficient meets the same a_i, so the floors miss
# the cancellation inside B C, on about a third of the shells.  Both ways
# certify the same value; only the fitted slope differs.
CERTIFICATE_DIFFERS = {(2, 1, 40, 0, 1), (2, 1, 41, 0, 1), (2, 1, 43, 0, 1)}


def assert_shells_match_kernel_H(sys, chi_m, chi_b, target):
    # the total against the sum of kernel_H's shells, coordinate by
    # coordinate; the identity behind it at every cut T against kernel_H's
    # partial sums, so each shell's sum too; the precision floor equal;
    # every valuation floor at most the shell's least valuation; the
    # certified value, and the certificate or the refusal, those of
    # alpha_trace(kernel_H), but for the certificates of CERTIFICATE_DIFFERS
    q, ring, degree = sys.field.q, sys.ring, sys.params.degree
    full = kernel_H(sys, chi_m, chi_b)
    floor, total, floors = kernel_shells(sys, chi_m, chi_b)
    want_floor, want_total, minima = diagonal_lattice(full, q)
    assert floor == want_floor == min(c.prec for _, _, c in series2_terms(full))
    assert len(total) == ring.dim and len(floors) == degree // (q - 1) + 1
    cuts = cut_sums(sys, chi_m, chi_b)
    assert len(cuts) == len(floors)
    partial = [0] * ring.dim
    for k in range(len(floors)):
        shell = [full.coefficient((q - 1) * n0, (q - 1) * (k - n0)) for n0 in range(k + 1)]
        partial = [x + sum(c.co[i] for c in shell) for i, x in enumerate(partial)]
        assert cuts[k] == tuple(x % ring.pn for x in partial), (chi_m, chi_b, k)
        least = min(c.valuation() for c in shell)
        assert floors[k] <= least == minima[k], (chi_m, chi_b, k)
    for i, x in enumerate(partial):
        assert total[i] == x % ring.pn, (chi_m, chi_b, i)
    assert total == want_total == cuts[-1]
    got = certified_outcome(lambda: certified_diagonal_sum(ring, (floor, total, floors), target))
    want = certified_outcome(lambda: alpha_trace(full, q, target))
    if (sys.params.p, sys.params.s, degree, chi_m, chi_b.index()) in CERTIFICATE_DIFFERS:
        assert got[:2] == want[:2] and isinstance(got[2], dict) and got[2] != want[2]
    else:
        assert got == want, (chi_m, chi_b)


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3)])
def test_kernel_shells_match_kernel_H(p, s):
    # the diagonal's total is the sum of the coefficients kernel_H builds,
    # at the floor mul_sparse clamps to, below valuation floors that certify
    # what the actual minima certify
    q = p**s
    if q > 4:
        # q - 1 = 4 and 7 residue classes of degree, every chi_m, each with
        # its own b (b = 0 at m = 0): D >= (q-1)(p(q-2) + 1), so a class
        # pair holds several C terms
        degree = 64 if q == 5 else 96
        sys = next(nondegenerate_systems(p, s, 14, degree))
        for chi_m in range(q - 1):
            assert_shells_match_kernel_H(sys, chi_m, sys.field.from_index(chi_m), 4)
        return
    for sys in nondegenerate_systems(p, s, 14, 40):
        for chi_m in range(sys.field.q - 1):
            for chi_b in sys.field.elements():
                assert_shells_match_kernel_H(sys, chi_m, chi_b, 4)
    # degrees neither q - 1 nor the stride p(q-2) + 1 of the C terms
    # divides: the cut of each class product falls off the strides
    for degree in (41, 43):
        sys = next(nondegenerate_systems(p, s, 14, degree))
        for chi_m in range(sys.field.q - 1):
            for chi_b in sys.field.elements():
                assert_shells_match_kernel_H(sys, chi_m, chi_b, 4)
    # one b != 0 character at the benchmark's N = 16, D = 128, target 3e
    sys = next(nondegenerate_systems(p, s, 16, 128))
    assert_shells_match_kernel_H(sys, q - 2, sys.field.from_index(1), 3 * sys.ring.e)


def test_kernel_shells_match_the_shell_identity_at_q9():
    # odd p with s = 2: the total as one dot product per coordinate with
    # the coordinates of the powers of Teich(b), against each c_k formed for
    # its own b, for every chi of one nondegenerate t
    sys = next(nondegenerate_systems(3, 2, 14, 40))
    q, before = sys.field.q, trace_parts.cache_info()
    for chi_m in range(q - 1):
        for chi_b in sys.field.elements():
            total = kernel_shells(sys, chi_m, chi_b)[1]
            assert total == cut_sums(sys, chi_m, chi_b)[-1], (chi_m, chi_b)
    assert trace_parts.cache_info().currsize - before.currsize == 2 * (q - 1)


@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (3, 2)])
def test_kernel_shells_horner_matches_ring_products(p, s):
    # s > 1: the total's dot products with the coordinates of the powers of
    # Teich(b) against a RingElem Horner sum in Teich(b) over the parts F_j,
    # rebuilt from the class products and Omega_1's terms without the
    # system's matrix, for every chi of one nondegenerate t
    sys = next(nondegenerate_systems(p, s, 14, 40))
    ring = sys.ring
    for chi_m in range(sys.field.q - 1):
        for chi_b in sys.field.elements():
            total = kernel_shells(sys, chi_m, chi_b)[1]
            parts = horner_parts(sys, chi_m, bool(chi_b))
            acc, teich = parts[-1], ring.teichmuller(chi_b)
            for part in reversed(parts[:-1]):
                acc = acc * teich + part
            assert total == (-acc).co, (chi_m, chi_b)


@pytest.mark.parametrize("p,s", [(2, 2), (2, 3), (3, 2)])
def test_teich_powers_are_the_ring_powers_of_teich(p, s):
    # each entry of the table the kernel total is dotted with: the first s
    # coordinates of the RingElem powers Teich(b)^j, j < q - 1, which lie
    # in the unramified subring, Teich(b)^(q-1) = 1 exactly, and 1 at b = 0
    ring = next(nondegenerate_systems(p, s, 14, 40)).ring
    field = ring.residue_field
    assert ring.teich_powers(field.zero()) == ring.one().co[:s]
    for b in field.units():
        teich = ring.teichmuller(b)
        powers = [teich**j for j in range(field.q)]
        assert ring.teich_powers(b) == tuple(c for x in powers[:-1] for c in x.co[:s]), b
        assert not any(c for x in powers for c in x.co[s:]), b
        assert powers[-1].co == ring.one().co and powers[-1].prec == ring.cap, b
    with pytest.raises(RingMismatch):
        ring.teich_powers(finite_field(p, s + 1).one())


@pytest.mark.parametrize("p,s", [(2, 1), (3, 1), (2, 2)])
def test_class_products_match_ring_products(p, s):
    # every running sum of a class product A_r B_r' of a system against
    # RingElem running sums of products of the factors' coefficients, with
    # nothing past its last degree; its floors against the min-plus of
    # min(valuation, prec), each at most the product coefficient's
    # valuation; the precision the least over A and B
    for degree in (40, 43):
        sys = next(nondegenerate_systems(p, s, 14, degree))
        ring, step = sys.ring, sys.field.q - 1
        a, b = sys.omega_factors
        if degree == 43:  # one coefficient of B known to less than the rest
            b.coeffs[5] = RingElem(ring, b.coeffs[5].co, min(c.prec for c in a.coeffs) - 1)
        prefixes, floors, prec = omega_class_products(sys)
        assert len(prefixes) == len(floors) == step * step
        assert prec == min(c.prec for c in a.coeffs + b.coeffs)

        def val(c):
            return min(c.valuation(), c.prec)

        for r in range(step):
            for r2 in range(step):
                prefix, floor = prefixes[r * step + r2], floors[r * step + r2]
                count = (degree - r - r2) // step + 1
                assert len(prefix) == len(floor) == count
                running = ring.zero()
                for l, co in enumerate(prefix):
                    pairs = [
                        (a.coeffs[r + step * i], b.coeffs[r2 + step * (l - i)]) for i in range(l + 1)
                    ]
                    want = ring.zero()
                    for x, y in pairs:
                        want = want + x * y
                    running = running + want
                    assert co == running.co, (degree, r, r2, l)
                    assert floor[l] == min(val(x) + val(y) for x, y in pairs), (degree, r, r2, l)
                    assert floor[l] <= val(want)


def worst_case_block(ring):
    # one (p^N - 1)(p^N - 1) block product, slot i (2s - 1) + j holding pi^i y^j
    rows = 2 * ring.e - 1, 2 * ring.s - 1
    return [
        (ring.pn - 1) ** 2 * (min(i, rows[0] - 1 - i) + 1) * (min(j, rows[1] - 1 - j) + 1)
        for i in range(rows[0])
        for j in range(rows[1])
    ]


def assert_worst_case_read(packing, packed, hits):
    # slot d of ``packed`` holds hits[d] block products of p^N - 1 by
    # p^N - 1, exactly and below the width's bound, and reads back as
    # RingElem sums of as many products
    ring = packing.ring
    slots = [c * v for c in hits for v in worst_case_block(ring)]
    assert max(slots) < 256**packing.width
    assert packed == sum(v << 8 * packing.width * i for i, v in enumerate(slots))
    full = RingElem(ring, (ring.pn - 1,) * ring.dim)
    got = read_tuples(packing, [(packed, len(hits))])
    for d, (c, co) in enumerate(zip(hits, got, strict=True)):
        want = ring.zero()
        for _ in range(c):
            want = want + full * full
        assert co == want.co, d


@pytest.mark.parametrize("p,s,m", [(3, 1, 1), (2, 2, 1)])
def test_split_packing_worst_case_slots(p, s, m):
    # omega_class_products splits each factor into its residue classes mod
    # q - 1 and packs them at length D // (q - 1) + 1, the longest class;
    # with every coordinate at p^N - 1 the middle slot of a product through
    # SeriesPacking.product reaches the width's bound and reads back exactly
    ring = ring_of(p, s, m, LubinTateSeries.cyclotomic(p), 16)
    n = 128 // (p**s - 1) + 1
    packing = SeriesPacking(ring, n)
    if m == 1:  # the ring of a Gauss system: its first packing
        sys = next(nondegenerate_systems(p, s, 16, 128))
        classes = sys.omega_factors[0].coeffs[:: p**s - 1]
        assert len(classes) == n and SeriesPacking(ring, len(classes)).width == packing.width
    full = RingElem(ring, (ring.pn - 1,) * ring.dim)
    got = packing.product([full.co] * n, [full.co] * n, 2 * n - 1)
    for d, co in enumerate(got):
        want = ring.zero()
        for _ in range(min(d, 2 * n - 2 - d) + 1):
            want = want + full * full
        assert co == want.co, d


@pytest.mark.parametrize("p,s,m,nprec", [
    pytest.param(3, 1, 1, 16, id="3-1-1"),
    pytest.param(2, 2, 1, 16, id="2-2-1"),
    # q = 2: one residue class, so the class product is the whole product
    # of the two factors, each of D + 1 terms
    pytest.param(2, 1, 1, 16, id="2-1-1"),
    # p^N above 2^64: a coordinate takes two 64-bit words, and a folded
    # entry more than 16 bytes
    (3, 1, -1, 48),
    (2, 2, 1, 70),
    (3, 2, 0, 44),
])
def test_class_product_worst_case_slots(p, s, m, nprec):
    # the route at D = 128 with every coordinate at p^N - 1: a class product
    # at the longest classes, packed as ``omega_class_products`` packs it,
    # against RingElem arithmetic
    ring = ring_of(p, s, m, LubinTateSeries.cyclotomic(p) if m >= 0 else None, nprec)
    degree, step = 128, p**s - 1
    n = degree // step + 1
    full = [(l, (ring.pn - 1,) * ring.dim) for l in range(n)]
    first = SeriesPacking(ring, n)
    a, b = pack_terms(first, full, full)
    assert_worst_case_read(first, a * b, [min(d, 2 * n - 2 - d) + 1 for d in range(2 * n - 1)])
    if (m, nprec) == (1, 16):  # the ring of a Gauss system: its longest class product
        sys = next(nondegenerate_systems(p, s, nprec, degree))
        assert len(omega_class_products(sys)[0][0]) == n


def cache_counts(cache, since):
    # (hits, misses, entries) a functools cache gained since its cache_info ``since``
    now = cache.cache_info()
    return now.hits - since.hits, now.misses - since.misses, now.currsize - since.currsize


def test_checks_on_one_system_build_class_products_once(monkeypatch):
    # the class products depend only on the system, and so on its D: a
    # set-up as the benchmark's builds none, the first check builds them,
    # later checks reuse them, a configuration at D = 48 is another system,
    # with its own, and after cache_clear the fresh shared system builds
    # its own
    params = CharParams(2, 2, 2, nprec=16, degree=64)
    characters.shared_system.cache_clear()
    built = []

    class CountedPacking(SeriesPacking):
        def __init__(self, ring, n):
            built.append(n)
            super().__init__(ring, n)

    monkeypatch.setattr(gausstrace, "SeriesPacking", CountedPacking)
    system = shared_system(params)
    system.theta_series(0)
    system.theta_series(1)
    system.character_table()
    assert built == []
    trace_formula_check(GaussConfig(params, 0, 0, target_prec=4))
    # the class products' one packing, at the longest class
    assert built == [64 // 3 + 1]
    trace_formula_check(GaussConfig(params, 1, 2, target_prec=4))
    assert len(built) == 1
    params48 = params.replace(degree=48)
    trace_formula_check(GaussConfig(params48, 1, 2, target_prec=4))
    other = shared_system(params48)
    assert built == [22, 17] and other is not system
    # each system keeps its own: reading them again is a hit and packs nothing
    before = omega_class_products.cache_info()
    assert omega_class_products(system) is not omega_class_products(other)
    assert cache_counts(omega_class_products, before) == (2, 0, 0) and len(built) == 2
    characters.shared_system.cache_clear()
    trace_formula_check(GaussConfig(params, 1, 2, target_prec=4))
    assert len(built) == 3
    characters.shared_system.cache_clear()


def test_checks_on_one_system_build_omega1_terms_once(monkeypatch):
    # checks build Omega_1's substituted terms only for a trace_parts entry,
    # once per (chi_m, b != 0), at b = 1 for every b != 0 and at b = 0: a
    # set-up as the benchmark's builds none, later checks of the key reuse
    # its matrix, another m builds its own, a configuration at D = 48 is
    # another system, with its own matrices, and after cache_clear the
    # fresh shared system builds its own
    params = CharParams(2, 2, 2, nprec=16, degree=64)
    characters.shared_system.cache_clear()
    built = []
    substituted = gausstrace.omega1_substituted

    def counted(system, b):
        built.append((b.index(), system.params.degree))
        return substituted(system, b)

    monkeypatch.setattr(gausstrace, "omega1_substituted", counted)
    system = shared_system(params)
    system.theta_series(0)
    system.theta_series(1)
    system.character_table()
    assert built == []
    start = trace_parts.cache_info()
    trace_formula_check(GaussConfig(params, 0, 2, target_prec=4))
    assert built == [(1, 64)]
    trace_formula_check(GaussConfig(params, 0, 3, target_prec=4))
    trace_formula_check(GaussConfig(params, 0, 1, target_prec=4))
    assert built == [(1, 64)]
    trace_formula_check(GaussConfig(params, 1, 2, target_prec=4))
    trace_formula_check(GaussConfig(params, 1, 0, target_prec=4))
    params48 = params.replace(degree=48)
    trace_formula_check(GaussConfig(params48, 1, 3, target_prec=4))
    trace_formula_check(GaussConfig(params, 1, 1, target_prec=4))
    assert built == [(1, 64), (1, 64), (0, 64), (1, 48)]
    # four entries were made: the system's three keys and the D = 48
    # system's one, each now a hit
    assert cache_counts(trace_parts, start)[1:] == (4, 4)
    before = trace_parts.cache_info()
    for key in [(0, True), (1, False), (1, True)]:
        trace_parts(system, *key)
    trace_parts(shared_system(params48), 1, True)
    assert cache_counts(trace_parts, before) == (4, 0, 0)
    characters.shared_system.cache_clear()
    fresh = shared_system(params)
    before = trace_parts.cache_info()
    trace_formula_check(GaussConfig(params, 1, 2, target_prec=4))
    assert fresh is not system and cache_counts(trace_parts, before) == (0, 1, 1)
    assert built[4:] == [(1, 64)]
    characters.shared_system.cache_clear()


def test_checks_on_one_system_build_shell_floors_per_m_and_valuations():
    # the shell floors, kept with the trace total's matrix and its precision
    # floor, depend only on the system (so on its D), chi_m and Omega_1's
    # term valuations, which are one for every b != 0: a set-up as the
    # benchmark's builds none, every chi builds 2 (q - 1), one for b = 0
    # and one for every b != 0 per m, each with e s rows, (q - 1) s columns
    # for b != 0 and s for b = 0, later checks reuse them, a configuration
    # at D = 48 is another system, with its own matrices, and after
    # cache_clear the fresh shared system builds its own
    params = CharParams(2, 2, 2, nprec=16, degree=64)
    characters.shared_system.cache_clear()
    system = shared_system(params)
    start = trace_parts.cache_info()
    system.theta_series(0)
    system.theta_series(1)
    system.character_table()
    assert cache_counts(trace_parts, start) == (0, 0, 0)
    q = system.field.q
    for m in range(q - 1):
        for b in range(q):
            trace_formula_check(GaussConfig(params, m, b, target_prec=4))
    assert cache_counts(trace_parts, start)[1:] == (2 * (q - 1), 2 * (q - 1))
    # the entries are the 2 (q - 1) keys (m, b != 0): reading each is a hit
    before = trace_parts.cache_info()
    for m in range(q - 1):
        for nonzero in (False, True):
            _, rows, _ = trace_parts(system, m, nonzero)
            assert len(rows) == system.ring.dim
            assert {len(row) for row in rows} == {(q - 1 if nonzero else 1) * system.ring.s}
    assert cache_counts(trace_parts, before) == (2 * (q - 1), 0, 0)
    trace_formula_check(GaussConfig(params, 1, 2, target_prec=4))
    kernel_shells(system, 2, system.field.from_index(3))
    assert cache_counts(trace_parts, start)[1] == 2 * (q - 1)
    params48 = params.replace(degree=48)
    other = shared_system(params48)
    before = trace_parts.cache_info()
    trace_formula_check(GaussConfig(params48, 1, 2, target_prec=4))
    trace_formula_check(GaussConfig(params48, 1, 3, target_prec=4))
    assert cache_counts(trace_parts, before) == (1, 1, 1)
    assert other is not system and trace_parts(other, 1, True)
    assert cache_counts(trace_parts, before) == (2, 1, 1)
    characters.shared_system.cache_clear()
    fresh = shared_system(params)
    before = trace_parts.cache_info()
    trace_formula_check(GaussConfig(params, 1, 2, target_prec=4))
    assert fresh is not system and cache_counts(trace_parts, before) == (0, 1, 1)
    assert trace_parts(fresh, 1, True) and cache_counts(trace_parts, before) == (1, 1, 1)
    characters.shared_system.cache_clear()


def test_checks_on_one_system_build_brute_terms_and_certificates_once():
    # gauss_brute's terms and their column sum depend only on the system and
    # chi_m, and the tail certificate only on the shell floors, the target
    # and the cap: a set-up as the benchmark's builds no term set, every chi
    # at two targets builds q - 1 term sets and one certificate per distinct
    # (floors, target), later checks reuse them, each report has a
    # certificate of its own, and after cache_clear the fresh shared system
    # builds its own term sets while its checks hit the certificates again
    params = CharParams(2, 2, 2, nprec=16, degree=64)
    characters.shared_system.cache_clear()
    certify_tail.cache_clear()
    system = shared_system(params)
    start, order_start = brute_terms.cache_info(), psi_order_p2.cache_info()
    system.theta_series(0)
    system.theta_series(1)
    system.character_table()
    assert cache_counts(brute_terms, start) == cache_counts(psi_order_p2, order_start) == (0, 0, 0)
    q, cap = system.field.q, system.ring.cap
    chis = [(m, b) for m in range(q - 1) for b in range(q)]
    inputs = {
        (kernel_shells(system, m, system.field.from_index(b))[2], target)
        for target in (4, 6)
        for m, b in chis
    }
    before = certify_tail.cache_info()
    reports = [
        trace_formula_check(GaussConfig(params, m, b, target_prec=target))
        for _ in range(2)
        for target in (4, 6)
        for m, b in chis
    ]
    after = certify_tail.cache_info()
    assert cache_counts(brute_terms, start)[1:] == (q - 1, q - 1)
    # the entries are the system's q - 1 values of chi_m: reading each is a hit
    probe = brute_terms.cache_info()
    for m in range(q - 1):
        brute_terms(system, m)
    assert cache_counts(brute_terms, probe) == (q - 1, 0, 0)
    assert after.misses - before.misses == len(inputs) <= 2 * 2 * (q - 1)
    assert after.currsize - before.currsize == len(inputs)
    assert after.hits - before.hits == len(reports) - len(inputs)
    assert cache_counts(psi_order_p2, order_start) == (len(reports) - 1, 1, 1)
    certificates = [report["certificate"] for report in reports]
    assert len({id(c) for c in certificates}) == len(reports)
    kept = [certify_tail(floors, target, cap) for floors, target in inputs]
    assert not any(c is k for c in certificates for k in kept)
    assert all(
        report["certificate"] == certify_tail(floors, report["target_prec"], cap)
        for report, (m, b) in zip(reports, chis * 4)
        for floors in [kernel_shells(system, m, system.field.from_index(b))[2]]
    )
    half = len(reports) // 2
    assert [strip_timing(r) for r in reports[:half]] == [strip_timing(r) for r in reports[half:]]
    characters.shared_system.cache_clear()
    fresh = shared_system(params)
    before, probe = certify_tail.cache_info(), brute_terms.cache_info()
    trace_formula_check(GaussConfig(params, 1, 2, target_prec=4))
    after = certify_tail.cache_info()
    assert fresh is not system and cache_counts(brute_terms, probe) == (0, 1, 1)
    assert brute_terms(fresh, 1) and cache_counts(brute_terms, probe) == (1, 1, 1)
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    characters.shared_system.cache_clear()


def test_two_systems_of_one_configuration_keep_their_own_entries():
    # the caches are keyed on the system, not on its configuration: two
    # systems of one CharParams each build their own class products, psi
    # parts, stationary points, trace matrices and brute terms, and read
    # equal values from them
    params = CharParams(3, 1, 2, nprec=14, degree=54)
    one, two = CharacterSystem(params), CharacterSystem(params)
    caches = [
        omega_class_products, psi_parts, psi_order_p2, stationary_points, trace_parts, brute_terms
    ]
    before = [cache.cache_info() for cache in caches]
    got = []
    for sys in (one, two):
        b = sys.field.one()
        brute = gauss_brute(sys, 1, b)
        got.append((
            kernel_shells(sys, 1, b),
            {conv: (v.co, v.prec) for conv, v in brute.items()},
            psi_order_p2(sys),
        ))
    assert got[0] == got[1]
    assert [cache_counts(c, since)[1:] for c, since in zip(caches, before)] == [(2, 2)] * 6
    assert omega_class_products(one) == omega_class_products(two)
    assert omega_class_products(one) is not omega_class_products(two)
    assert stationary_points(one) == stationary_points(two)
    assert trace_parts(one, 1, True) == trace_parts(two, 1, True)
    assert trace_parts(one, 1, True) is not trace_parts(two, 1, True)


def test_gauss_entry_points_refuse_an_out_of_range_character():
    # kernel_shells, kernel_H and gauss_brute apply GaussConfig's chi_m rule
    # and take chi_b only from the system's F_q, before any cache entry is
    # made: chi_m = 2 at q = 3 gave chi_m = 0's total and brute value, a
    # float chi_m read the int's entry, chi_m = -1 raised IndexError and an
    # int chi_b AttributeError
    sys = CharacterSystem(CharParams(3, 1, 2, nprec=16, degree=128))
    b = sys.field.one()
    caches = [
        omega_class_products, psi_parts, psi_order_p2, stationary_points, trace_parts, brute_terms
    ]
    before = [cache.cache_info() for cache in caches]
    for call in (kernel_shells, kernel_H, gauss_brute):
        for chi_m in (2, -1, 1.0, True):
            with pytest.raises(InvalidParameter, match="chi_m"):
                call(sys, chi_m, b)
        for chi_b in (1, None, finite_field(3, 2).one(), finite_field(2, 1).one()):
            with pytest.raises(RingMismatch):
                call(sys, 0, chi_b)
    assert [cache.cache_info() for cache in caches] == before
    with pytest.raises(InvalidParameter, match="chi_m"):
        GaussConfig(sys.params, 2, 1)


def check_outcome(config):
    # a report without its timings, or the type and message of its refusal
    try:
        return strip_timing(trace_formula_check(config))
    except WittlabError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("p,s,second", [(3, 1, 12), (2, 2, 10)])
def test_warm_checks_report_what_fresh_systems_report(p, s, second):
    # every (t, chi) at the default target 3e and at a second one: each check
    # on a freshly cleared shared_system, then twice over on warm ones (the
    # first pass builds the caches, the second reads them), gives the same
    # report, certificate and value, or the same refusal
    q = p**s
    configs = [
        GaussConfig(sys.params, m, b, target_prec=target)
        for sys in nondegenerate_systems(p, s, 16, 128)
        for target in (None, second)
        for m in range(q - 1)
        for b in range(q)
    ]
    fresh = []
    for config in configs:
        characters.shared_system.cache_clear()
        fresh.append(check_outcome(config))
    characters.shared_system.cache_clear()
    for _ in range(2):
        assert [check_outcome(config) for config in configs] == fresh
    assert all(isinstance(outcome, dict) for outcome in fresh[: q * (q - 1)])
    characters.shared_system.cache_clear()


def test_a_match_below_the_declared_precision_is_refused():
    # at q = 5, N = 4 the default target 3e = 60 is certified for the trace
    # and 'units' agrees to 80 digits, but g_brute is declared only to 40:
    # no convention may match at 60, so the check refuses and names both
    # precisions; at target 40 the same check matches
    params = CharParams(5, 1, 2, lt=LubinTateSeries.cyclotomic(5), nprec=4, degree=1536)
    characters.shared_system.cache_clear()
    with pytest.raises(PrecisionNotReached) as exc:
        trace_formula_check(GaussConfig(params))
    assert str(exc.value) == (
        "convention 'units' agrees, but g_brute is declared to 40 pi-digits "
        "and the scaled trace to 60, target 60"
    )
    report = trace_formula_check(GaussConfig(params, target_prec=40))
    assert report["convention"] == ["units"] and report["g_brute"]["units"]["prec"] == 40
    characters.shared_system.cache_clear()


@pytest.mark.parametrize("target,error", [(30, TailNotCertified), (200, PrecisionNotReached)])
def test_refused_certificate_is_refused_on_every_check(target, error):
    # nothing is kept for a refused diagonal: its next check, at the same
    # chi or another b != 0, refuses with the same message, a tail refusal
    # runs certify_tail again each time (a precision refusal never reaches
    # it), and a target it certifies is then kept as for any input
    params = CharParams(3, 1, 2, nprec=16, degree=128)
    characters.shared_system.cache_clear()
    system = shared_system(params)
    floors = kernel_shells(system, 1, system.field.from_index(2))[2]
    runs = 1 if error is TailNotCertified else 0

    def refused(bs):
        before, messages = certify_tail.cache_info(), []
        for b in bs:
            with pytest.raises(error) as info:
                trace_formula_check(GaussConfig(params, 1, b, target_prec=target))
            messages.append(str(info.value))
        after = certify_tail.cache_info()
        assert after.hits == before.hits and after.currsize == before.currsize
        assert after.misses - before.misses == runs * len(bs)
        return messages

    messages = refused((1, 1, 2, 0))
    assert messages[1] == messages[2] == messages[0]
    trace_formula_check(GaussConfig(params, 1, 2, target_prec=18))
    before = certify_tail.cache_info()
    certify_tail(floors, 18, system.ring.cap)
    after = certify_tail.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (1, 0)
    assert refused((2,)) == messages[:1]
    characters.shared_system.cache_clear()


@pytest.mark.parametrize("p,s", [(3, 1), (2, 2), (5, 1)])
def test_omega1_valuations_are_one_for_every_nonzero_b(p, s):
    # what the trace parts' floors rest on: t Teich(b) is a unit for every
    # b != 0, so each c_k of Omega_1's substituted terms has the valuation
    # and the precision of theta0[k] t^k (c_0 = theta0[0]); b = 0 has the
    # one term 1
    def profile(c):
        return c.valuation(), c.prec

    for sys in nondegenerate_systems(p, s, 16, 64):
        theta0, n = sys.theta_series(1).coeffs, 64 // (p * (p**s - 2) + 1) + 1
        want = [profile(theta0[0])] + [profile(theta0[k] * sys.t**k) for k in range(1, n)]
        for b in sys.field.units():
            assert [profile(c) for *_, c in omega1_substituted(sys, b)] == want, b
        ((d0, d1, one),) = omega1_substituted(sys, sys.field.zero())
        assert (d0, d1, one.co, one.prec) == (0, 0, sys.ring.one().co, sys.ring.cap)
    # one coefficient of theta_{0,s}(1) known to less than the rest, after
    # Omega_2's factors are built: the terms' least precision follows it,
    # still one for every b != 0, and kernel_shells' floor at a b other than
    # the 1 its parts are built at is kernel_H's
    sys = next(nondegenerate_systems(p, s, 16, 64))
    sys.omega_factors
    coeffs = list(sys.theta_series(1).coeffs)
    low = min(c.prec for c in coeffs) - 1
    coeffs[1] = RingElem(sys.ring, coeffs[1].co, low)
    sys.theta_series = lambda j: Series1(sys.ring, coeffs) if j == 1 else None
    least = {min(c.prec for *_, c in omega1_substituted(sys, b)) for b in sys.field.units()}
    assert least == {low}
    b = sys.field.from_index(p**s - 1)
    floor = kernel_shells(sys, 0, b)[0]
    assert floor == low == diagonal_lattice(kernel_H(sys, 0, b), p**s)[0]


@pytest.mark.parametrize("p,s,m", [(3, 1, 1), (2, 2, 1)])
def test_certified_sum_shell_valuations_match_per_coefficient_minimum(p, s, m):
    # diagonal_lattice's gcd shell valuations and sums, through the
    # certified sum, against a per-coefficient val_co minimum and a
    # RingElem.__add__ loop, on the e = 6, s = 1 and e = 2, s = 2 rings: at
    # q = 2 shell k is every coefficient of total degree k
    ring = ring_of(p, s, m, LubinTateSeries.cyclotomic(p), 14)
    rng = random.Random(97 * p + s)

    def coefficient(k):
        kind = rng.randrange(4)
        if kind == 0:
            return ring.zero()
        co = [rng.randrange(ring.pn) * p ** (k // 2) % ring.pn for _ in range(ring.dim)]
        if kind == 2:  # coordinates divisible by high powers of p
            co = [c * p ** rng.randrange(ring.nprec) % ring.pn for c in co]
        if kind == 3:  # some coordinates zero
            co = [c if rng.randrange(2) else 0 for c in co]
        return RingElem(ring, tuple(co))

    for trial in range(20):
        shells = [
            [ring.zero()] * (k + 1) if k % 5 == 3 else [coefficient(k) for _ in range(k + 1)]
            for k in range(16)
        ]
        series = TruncSeries2(ring, 15)
        for k, shell in enumerate(shells):
            for n0, c in enumerate(shell):
                series.rows[n0][k - n0] = c
        value, report = certified_diagonal_sum(ring, diagonal_lattice(series, 2), 2)
        want_shells = [
            min(ring.val_co(c.co) for c in shell)
            for shell in shells
        ]
        assert report["shells"] == want_shells, trial
        assert all(report["shells"][k] == ring.cap for k in range(3, 16, 5))
        acc = ring.zero()
        for shell in shells:
            for c in shell:
                acc = acc + c
        assert value.co == acc.co and value.prec == 2


def test_decimation_and_certified_sums_refuse_a_bad_q_or_target():
    # dwork_op at q = 0 and diagonal_lattice at q = 1 divided by zero, and
    # a float target was stamped on the certified value as its precision
    ring = system21().ring
    series = series2_constant(ring, 8, ring.one())
    for q in (0, 1, 2.0, True):
        with pytest.raises(InvalidParameter, match="q = "):
            dwork_op(series, q)
        with pytest.raises(InvalidParameter, match="q = "):
            diagonal_lattice(series, q)
    for target in (2.5, 0, True):
        with pytest.raises(InvalidParameter, match="target precision"):
            alpha_trace(series, 2, target)
        with pytest.raises(InvalidParameter, match="target precision"):
            certified_diagonal_sum(ring, diagonal_lattice(series, 2), target)
    assert alpha_trace(series, 2, 3)[0].prec == 3


def test_certified_sum_refuses_low_precision_coefficient():
    sys = system21()
    ring = sys.ring
    series = series2_constant(ring, 10, ring.from_int(7))
    series.rows[1][1] = RingElem(ring, ring.one().co, 3)  # read by the q = 2 trace
    with pytest.raises(PrecisionNotReached):
        alpha_trace(series, 2, 4)
    value, _ = alpha_trace(series, 2, 3)
    assert value == ring.from_int(8)


def strip_timing(report):
    return {k: v for k, v in report.items() if k != "timing_ms"}


def test_checks_share_one_character_system(monkeypatch):
    # several checks on one configuration build the mu and psi tables once,
    # evaluate psi_1 once per distinct argument, and report what fresh
    # systems report
    params = CharParams(3, 1, 2, nprec=14, degree=54)
    configs = [GaussConfig(params, m, b, target_prec=6) for m in range(2) for b in range(3)]
    characters.shared_system.cache_clear()
    fresh = []
    for cfg in configs:
        fresh.append(strip_timing(trace_formula_check(cfg)))
        characters.shared_system.cache_clear()

    counts = {"mu": 0, "table": 0}
    real_mu = characters.mu_ppow_table

    def counted_mu(ring, ell):
        counts["mu"] += 1
        return real_mu(ring, ell)

    class CountedTable(characters.CharacterTable):
        def __init__(self, system):
            counts["table"] += 1
            super().__init__(system)

    monkeypatch.setattr(characters, "mu_ppow_table", counted_mu)
    monkeypatch.setattr(characters, "CharacterTable", CountedTable)
    system = shared_system(params)
    system.character_table()  # psi_raw's own evaluations happen here
    points = []
    real_eval = Series1.eval_full

    def recorded_eval(series, z):
        points.append(z.co)
        return real_eval(series, z)

    monkeypatch.setattr(Series1, "eval_full", recorded_eval)
    shared = [strip_timing(trace_formula_check(cfg)) for cfg in configs]
    assert shared == fresh
    assert counts == {"mu": 1, "table": 1}
    assert len(points) == len(set(points)) <= system.field.q - 1
    characters.shared_system.cache_clear()


def test_checks_on_one_system_build_omega_factors_once(monkeypatch):
    # A(t x0) and B(t^p x1) depend only on the system: the first check on a
    # shared system builds them, a second check reuses them; its one
    # further scaling is Omega_1's, t Teich(b) x, for its b != 0 trace parts
    params = CharParams(2, 1, 2, nprec=16, degree=64)
    characters.shared_system.cache_clear()
    calls = []
    real = Series1.compose_scale
    monkeypatch.setattr(
        Series1, "compose_scale", lambda series, alpha: calls.append(1) or real(series, alpha)
    )
    trace_formula_check(GaussConfig(params, 0, 0, target_prec=6))
    first, factors = len(calls), shared_system(params).omega_factors
    trace_formula_check(GaussConfig(params, 0, 1, target_prec=6))
    assert first == 2 and len(calls) == first + 1
    assert shared_system(params).omega_factors is factors
    characters.shared_system.cache_clear()


def test_chi_value_snaps_into_order_p_roots():
    sys = CharacterSystem(CharParams(3, 1, 2, nprec=14, degree=54))
    f = sys.field
    table = sys.mu_table
    p_roots = table.elements[:: sys.params.p]
    assert len(p_roots) == 3
    for b in f.units():
        for z0 in f.units():
            for z1 in f.units():
                value = sys.chi_value(0, b, WittVec(f, [z0, z1]))
                assert sum(value == root for root in p_roots) == 1
