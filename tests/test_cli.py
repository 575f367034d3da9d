"""CLI surface: subcommands, determinism, error exits."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from wittlab.cli import main
from wittlab.errors import FamilyTooLarge
from wittlab.upoly import check_family


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_polys_text(capsys):
    code, out = run_cli(capsys, "gen-polys", "--p", "2", "--len", "3", "--kind", "sum")
    assert code == 0
    assert "# sum[0]" in out and "# sum[2]" in out
    assert "X0^1" in out


def test_gen_polys_frob_matches_print(capsys):
    code, out = run_cli(
        capsys, "gen-polys", "--p", "3", "--kind", "frob", "--len", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    f0 = payload["polys"][0]
    # F_0 = X_0^3 + 3 X_1
    assert {"coeff": "1", "exps": {"X0": 3}} in f0
    assert {"coeff": "3", "exps": {"X1": 1}} in f0
    f1 = payload["polys"][1]
    # F_1 = X_1^3 + 3 X_2 - sum C(3,i) 3^(2-i) X_0^(3i) X_1^(3-i)
    assert {"coeff": "1", "exps": {"X1": 3}} in f1 or {
        "coeff": "-8",
        "exps": {"X1": 3},
    } in f1  # X_1^3 terms may merge: 1 - 9 = -8
    assert {"coeff": "3", "exps": {"X2": 1}} in f1


def test_gen_polys_unknown_kind(capsys):
    with pytest.raises(SystemExit):
        main(["gen-polys", "--p", "2", "--kind", "frobb"])


def test_gen_polys_refuses_oversized_family(capsys):
    # S_4 at p = 5 spans 1.3e8 monomials: refused at once, exit 2, no traceback
    with pytest.raises(FamilyTooLarge):  # else the command would never return
        check_family("sum", 5, 5)
    code = main(["gen-polys", "--p", "5", "--len", "5", "--kind", "sum"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "FamilyTooLarge" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["gen-polys", "--p", "2", "--len", "9", "--kind", "sum"], "capped at length 5"),
        (["gen-polys", "--p", "4", "--len", "2", "--kind", "sum"], "p = 4 is not prime"),
        (["gauss", "--p", "2", "--chi-b", "5"], "chi_b index 5"),
        (["gauss", "--p", "2", "--chi-m", "1"], "chi_m = 1"),
        (["gauss", "--p", "2", "--ell", "3"], "W_3"),
        (["gauss", "--p", "3", "--t-residue", "3"], "t residue index 3"),
        (["char-table", "--p", "2", "--t-residue", "-1"], "t residue index -1"),
        (["gauss", "--p", "4"], "p = 4 is not prime"),
        (["gauss", "--p", "9", "--lt", "plain"], "p = 9 is not prime"),
        (["char-table", "--p", "2", "--s", "0"], "s = 0"),
        (["char-table", "--p", "2", "--ell", "0"], "ell = 0"),
        (["gauss", "--p", "2", "--prec", "0"], "N = 0"),
        (["gauss", "--p", "2", "--deg", "-5"], "D = -5"),
        (["gauss", "--p", "2", "--deg", "0"], "D = 0"),
        (["char-table", "--p", "2", "--deg", "0"], "D = 0"),
        (["bench", "--p", "2", "--D", "32,0"], "D = 0"),
        (["bench", "--p", "2", "--D", "32,x"], "--D"),
        (["bench", "--p", "2", "--D", ""], "--D"),
        (["gauss", "--p", "2", "--chi-b", "1", "--target-prec", "0"], "M = 0"),
        (["gauss", "--p", "2", "--sweep", "--target-prec", "-4"], "M = -4"),
        (["bench", "--p", "2", "--target-prec", "0"], "M = 0"),
        (["char-table", "--p", "2", "--target-prec", "0"], "M = 0"),
        (["gauss", "--p", "3", "--chi-m", "-1"], "chi_m = -1"),
        (["gauss", "--p", "3", "--chi-b", "-1"], "chi_b index -1"),
        (["gauss", "--p", "2", "--format", "csv"], "gauss writes json or text"),
        (["bench", "--p", "2", "--format", "text"], "bench writes json"),
        (["bench", "--p", "2", "--format", "csv"], "bench writes json"),
        (["gauss", "--p", "2", "--sweep", "--format", "text"], "--sweep writes JSON"),
        (["gauss", "--p", "2", "--sweep", "--convention", "units"], "--sweep writes JSON"),
    ],
)
def test_invalid_input_exits_2(capsys, argv, needle):
    # refused before any computation: exit 2, the error named, no traceback
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "InvalidParameter: " in captured.err and needle in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["gauss", "--p", "4"], "p = 4 is not prime"),
        (["gauss", "--p", "2", "--deg", "-5"], "D = -5"),
        (["char-table", "--p", "2", "--deg", "0"], "D = 0"),
        (["gauss", "--p", "2", "--chi-m", "1"], "chi_m = 1"),
        (["char-table", "--p", "2", "--s", "0"], "s = 0"),
    ],
)
def test_refusals_hold_under_python_O(argv, needle):
    # python -O strips asserts: each refusal must be a typed check
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "wittlab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "InvalidParameter: " in proc.stderr and needle in proc.stderr
    assert "Traceback" not in proc.stderr


_DIRECT_REFUSALS = """
import random
from types import SimpleNamespace

from wittlab import series
from wittlab.characters import (
    CharacterSystem, CharParams, RootOfUnityTable, _match_root_tables, mu_ppow_table,
    omega_factorization_check,
)
from wittlab.errors import (
    InvalidParameter, NotUnit, ReportedMismatch, RingMismatch, TruncationTooSmall,
)
from wittlab.fields import FqElem, finite_field
from wittlab.gausstrace import GaussConfig, alpha_matrix
from wittlab.rings import LubinTateSeries, ring_of
from wittlab.series import (
    Series1, TruncSeries2, artin_hasse_ints, artin_hasse_series, exp_ring_series, pad_vector,
    pulita_theta_ms, series_eval_unit, varpi,
)
from wittlab.upoly import UniversalPoly, eval_plan_at, structural_polys
from wittlab.wittvec import (
    GhostSeq, WittVec, delta, ghost_map, one_vec, scalar_nat, tau, te_lift, versch, witt_add,
    witt_trace, zero_vec,
)

zp, f4 = ring_of(2, nprec=8), finite_field(2, 2)
z3, zq = ring_of(3, nprec=8), ring_of(2, 2, nprec=8)
lvl0 = ring_of(2, 1, 0, LubinTateSeries.cyclotomic(2), 8)
# a table whose generator, entry 1, has a y-coordinate
y_root = SimpleNamespace(ring=zq, elements=[zq.one(), zq.y_gen()])
f4_vec = WittVec(f4, [f4.gen(), f4.one()])
ell3 = CharParams(2, 1, 3, nprec=8, degree=16)


def w_with_constant_term():
    # a recovery that breaks w's invariant, to reach varpi's valuation check
    saved, series.from_ghosts = series.from_ghosts, lambda ring, *_: WittVec(ring, [ring.one()])
    try:
        return varpi(lvl0, 0, 1)
    finally:
        series.from_ghosts = saved


rows = [
    (InvalidParameter, lambda: one_vec(zp, 3) ** 0),
    (InvalidParameter, lambda: one_vec(zp, 3).truncate(4)),
    (InvalidParameter, lambda: scalar_nat(one_vec(zp, 3), -1)),
    (RingMismatch, lambda: delta(ring_of(2, 2, nprec=8).one(), 3)),
    (InvalidParameter, lambda: te_lift(one_vec(f4, 3), ring_of(2, 2, nprec=8), 2)),
    (TruncationTooSmall, lambda: Series1(zp, [zp.one()] * 5).truncate(9)),
    (TruncationTooSmall, lambda: alpha_matrix(TruncSeries2(zp, 24), 2, 20)),
    (RingMismatch, lambda: f4.embedding_into(finite_field(3, 2))),
    (RingMismatch, lambda: f4.embedding_into(finite_field(2, 3))),
    (InvalidParameter, lambda: pulita_theta_ms(lvl0, 0, 0, one_vec(lvl0, 2), 8)),
    (InvalidParameter, lambda: finite_field(6, 2)),
    (InvalidParameter, lambda: finite_field(4, 1).multiplicative_generator()),
    (InvalidParameter, lambda: finite_field(2, 0)),
    (InvalidParameter, lambda: mu_ppow_table(zp, 2)),
    (InvalidParameter, lambda: omega_factorization_check(CharParams(2, 1, 3), 1, 8)),
    (InvalidParameter, lambda: omega_factorization_check(CharParams(2, 1, 2), 1, 0)),
    (InvalidParameter, lambda: CharParams(3.0, 1, 2)),
    (InvalidParameter, lambda: CharParams(2, 1.5, 2)),
    (InvalidParameter, lambda: CharParams(2, True, 2)),
    (InvalidParameter, lambda: CharParams(2, 1, 2.0)),
    (InvalidParameter, lambda: CharParams(2, 1, 2, u_index=1.5)),
    (InvalidParameter, lambda: CharParams(2, 1, 2, nprec=16.0)),
    (InvalidParameter, lambda: CharParams(2, 1, 2, target_prec=2.5)),
    (InvalidParameter, lambda: GaussConfig(CharParams(3, 1, 2), chi_b_index=True)),
    (InvalidParameter, lambda: GaussConfig(CharParams(3, 1, 2), chi_m=0.0)),
    (ReportedMismatch, lambda: RootOfUnityTable(zp, 1, zp.one(), zp.cap)),
    (ReportedMismatch, lambda: _match_root_tables(y_root, y_root)),
    (RingMismatch, lambda: TruncSeries2.outer(Series1(zp, [zp.one()]), Series1(z3, [z3.one()]), 4)),
    (RingMismatch, lambda: (
        Series1(zp, [zp.from_int(3), zp.from_int(5)]) * Series1(z3, [z3.from_int(7), z3.from_int(2)])
    )),
    (InvalidParameter, lambda: artin_hasse_ints(2, -1, 8)),
    (InvalidParameter, lambda: artin_hasse_ints(2, 8, -2)),
    (InvalidParameter, lambda: Series1(z3, [z3.from_int(k) for k in range(1, 6)]).compose_xpow(0)),
    (InvalidParameter, lambda: Series1(z3, [z3.from_int(k) for k in range(1, 6)]).compose_xpow(-1)),
    (InvalidParameter, lambda: exp_ring_series(z3, z3.from_int(3), -4)),
    (InvalidParameter, lambda: artin_hasse_series(z3, -2)),
    (ReportedMismatch, w_with_constant_term),
    (InvalidParameter, lambda: varpi(zp, 0, 2)),
    (RingMismatch, lambda: f4.gen() + finite_field(2, 3).gen()),
    (RingMismatch, lambda: f4.gen() * finite_field(2, 3).gen()),
    (InvalidParameter, lambda: CharacterSystem(CharParams(2, 1, 3, nprec=8, degree=16)).omega()),
    (InvalidParameter, lambda: series_eval_unit(
        Series1(zp, [zp.one()]), SimpleNamespace(valuation=lambda: -1), 2)),
    (InvalidParameter, lambda: one_vec(zp, 4).truncate(-1)),
    (InvalidParameter, lambda: pad_vector(one_vec(zp, 4), -1)),
    (InvalidParameter, lambda: versch(one_vec(zp, 4), -1)),
    (InvalidParameter, lambda: Series1(zp, [zp.one()] * 5).truncate(-1)),
    (InvalidParameter, lambda: delta(zp.one(), -2)),
    (InvalidParameter, lambda: zero_vec(zp, -1)),
    (InvalidParameter, lambda: series.delta_vector(zp, 3, -1)),
    (InvalidParameter, lambda: one_vec(zp, -1)),
    (InvalidParameter, lambda: tau(zp, zp.one(), -2)),
    (InvalidParameter, lambda: eval_plan_at(structural_polys("sum", 2, 2)[1], [zp.one()] * 2)),
    (InvalidParameter, lambda: eval_plan_at(UniversalPoly.monomial(2, 0, 0, [], 5), [])),
    (RingMismatch, lambda: witt_add(WittVec(zp, [ring_of(2, nprec=9).one()]), one_vec(zp, 1))),
    (RingMismatch, lambda: GhostSeq(zp, [zp.one()] * 2) + GhostSeq(zp, [zp.one()])),
    (InvalidParameter, lambda: f4.from_index(7)),
    (InvalidParameter, lambda: f4.from_index(-1)),
    (InvalidParameter, lambda: f4.from_index(1.5)),
    (InvalidParameter, lambda: f4.from_index(True)),
    (InvalidParameter, lambda: f4.from_int(0.5)),
    (InvalidParameter, lambda: f4.one().scale_int(0.5)),
    (InvalidParameter, lambda: ring_of(3, nprec=4).from_int(1.5)),
    (InvalidParameter, lambda: ring_of(3, nprec=4).one().scale_int(0.5)),
    (InvalidParameter, lambda: f4.from_coeffs((0.5, 0))),
    (InvalidParameter, lambda: ring_of(3, nprec=4).from_ur((1.5,))),
    (InvalidParameter, lambda: z3.one() ** 1.5),
    (InvalidParameter, lambda: f4.gen() ** 1.5),
    (InvalidParameter, lambda: one_vec(zp, 3) ** 1.5),
    (InvalidParameter, lambda: scalar_nat(one_vec(zp, 3), 1.5)),
    (InvalidParameter, lambda: versch(one_vec(zp, 3), 1.5)),
    (InvalidParameter, lambda: one_vec(zp, 3).truncate(1.5)),
    (InvalidParameter, lambda: zero_vec(zp, 1.5)),
    (InvalidParameter, lambda: tau(zp, zp.one(), 2.0)),
    (InvalidParameter, lambda: te_lift(one_vec(f4, 2), ring_of(2, 2, nprec=8), 2.5)),
    (InvalidParameter, lambda: zq.one().phi(1.5)),
    (InvalidParameter, lambda: z3.from_int(9).exact_div_p(0.5)),
    (InvalidParameter, lambda: FqElem(f4, (0.5, 0))),
    (InvalidParameter, lambda: FqElem(f4, (True, 0))),
    (InvalidParameter, lambda: witt_trace(f4_vec, 1, 2.0)),
    (InvalidParameter, lambda: witt_trace(f4_vec, 1.0, 2)),
    (InvalidParameter, lambda: witt_trace(f4_vec, 2, 0)),
    (InvalidParameter, lambda: witt_trace(f4_vec, 0, 2)),
    (InvalidParameter, lambda: zq.random(random.Random(1), 2.5)),
    (InvalidParameter, lambda: zq.random(random.Random(1), True)),
    (InvalidParameter, lambda: zq.random(random.Random(1), -1)),
    (RingMismatch, lambda: zp.one() + f4.one()),
    (RingMismatch, lambda: zp.one() * z3.one()),
    (RingMismatch, lambda: zp.one() - ring_of(2, nprec=9).one()),
    (RingMismatch, lambda: witt_add(one_vec(zp, 2), one_vec(z3, 2))),
    (RingMismatch, lambda: ghost_map(f4_vec)),
    (RingMismatch, lambda: zp.teichmuller(f4.one())),
    (InvalidParameter, lambda: CharacterSystem(ell3).psi_parts),
    (InvalidParameter, lambda: CharacterSystem(ell3).chi_value(0, f4.zero(), f4_vec)),
    (NotUnit, lambda: f4.zero().inverse()),
]
for want, call in rows:
    try:
        call()
        got = "returned"
    except Exception as exc:
        if type(exc) is want:
            continue
        got = type(exc).__name__
    print(call.__code__.co_firstlineno, want.__name__, got)
"""


def test_direct_refusals_hold_under_python_O():
    # each of these guarded its argument or an invariant with an assert, so
    # under -O it returned a wrong value (scalar_nat looped forever), and Fq
    # checked nothing (a non-prime p never found a generator); the
    # CharParams and GaussConfig rows took floats and bools, and the
    # factorization check at D = 0 compared constant terms only;
    # eval_plan_at indexed past a short value list, transport read another
    # ring's coordinates and ghost slices zipped to the shorter;
    # compose_xpow at a step below 1 returned its coefficients permuted, and
    # exp_ring_series and artin_hasse_series at a negative degree returned a
    # degree-0 series, and artin_hasse_ints at N = -2 raised a TypeError;
    # Fq.from_index wrapped an index outside 0..q-1 onto another element,
    # and from_index, from_int and scale_int over F_4 and Z/3^4 took floats
    # into the coordinates, as from_coeffs and from_ur did; a float exponent,
    # multiple, shift, length or Frobenius power ended in a bare TypeError,
    # and exact_div_p(0.5) in NotDivisible; the FqElem constructor took a
    # float or a bool coordinate, witt_trace a float s or r (a bare
    # TypeError) and TowerRing.random a float precision; the RingMismatch,
    # psi_parts, chi_value and NotUnit rows at the end held before, and pin
    # typed refusals no other test reached; each now raises exactly the
    # error class its row names, and the script prints each row that does
    # not
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _DIRECT_REFUSALS],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = _DIRECT_REFUSALS.splitlines()
    mismatches = [
        f"{lines[int(n) - 1].strip()}  expected {want}, got {got}"
        for n, want, got in (row.split() for row in proc.stdout.splitlines())
    ]
    assert not mismatches, "\n".join(mismatches)


@pytest.mark.parametrize(
    "argv",
    [["gauss", "--p", "2", "--sweep"], ["bench", "--p", "2"]],
    ids=["gauss-sweep", "bench"],
)
def test_rejects_jobs(capsys, argv):
    # a sweep runs its checks, and bench its degrees, one after another in
    # one process; neither offers --jobs
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_char_table_json_and_determinism(capsys):
    args = [
        "char-table", "--p", "2", "--s", "1", "--ell", "2",
        "--prec", "14", "--deg", "48",
    ]
    code, out1 = run_cli(capsys, *args)
    assert code == 0
    payload = json.loads(out1)
    assert len(payload["rows"]) == 4
    assert payload["image_size"] == 4
    code, out2 = run_cli(capsys, *args)
    strip = lambda s: {k: v for k, v in json.loads(s).items() if k != "run_meta"}
    assert strip(out1) == strip(out2)


def test_char_table_sizes_spec_examples(capsys):
    code, out = run_cli(
        capsys, "char-table", "--p", "3", "--s", "1", "--ell", "2",
        "--prec", "14", "--deg", "54",
    )
    payload = json.loads(out)
    assert len(payload["rows"]) == 9 and payload["image_size"] == 9


def test_gauss_report(capsys):
    code, out = run_cli(
        capsys, "gauss", "--p", "2", "--s", "1", "--ell", "2", "--prec", "16",
        "--deg", "64", "--chi-m", "0", "--chi-b", "1", "--target-prec", "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert "units" in payload["convention"]
    assert payload["residual_valuation"]["units"] >= 6


def test_char_table_text(capsys):
    code, out = run_cli(
        capsys, "char-table", "--p", "2", "--ell", "2", "--prec", "14", "--deg", "48",
        "--format", "text",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "psi table over W_2(F_2) (t residue 1)"
    assert lines[-1] == "image size 4, checks: ['homomorphism', 'image', 'separation']"


GAUSS_ARGS = (
    "gauss", "--p", "2", "--prec", "16", "--deg", "64", "--chi-b", "1", "--target-prec", "6",
)


def test_gauss_text(capsys):
    code, out = run_cli(capsys, *GAUSS_ARGS, "--format", "text")
    assert code == 0
    assert out == (
        "g({'p': 2, 's': 1, 'ell': 2, 'lt': 'plain', 'N': 16, 'D': 64, "
        "'chi': {'m': 0, 'b': 1}}) matches convention ['units'] "
        "at residual {'full': 0, 'units': 11}\n"
    )


def test_gauss_one_convention(capsys):
    # --convention keeps only that convention's residual and brute-force sum
    _, both = run_cli(capsys, *GAUSS_ARGS)
    code, units = run_cli(capsys, *GAUSS_ARGS, "--convention", "units")
    assert code == 0
    both, units = json.loads(both), json.loads(units)
    for key in ("residual_valuation", "g_brute"):
        assert units[key] == {"units": both[key]["units"]}


def test_gauss_match_below_the_declared_precision_exits_2(capsys):
    # g_brute at q = 5, N = 4 is declared to 40 digits, below the default
    # target 60: refused with both precisions named, exit 2, no traceback
    code = main(["gauss", "--p", "5", "--deg", "1536", "--prec", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "PrecisionNotReached: " in captured.err
    assert "declared to 40 pi-digits and the scaled trace to 60, target 60" in captured.err
    assert "Traceback" not in captured.err


def test_bench_monotone_rows(capsys):
    code, out = run_cli(
        capsys, "bench", "--p", "2", "--prec", "16", "--chi-b", "1",
        "--D", "32,48", "--target-prec", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert [r["D"] for r in payload["rows"]] == [32, 48]


def test_bench_row_is_the_gauss_check_at_its_D(capsys):
    # a row at D = 128 runs on a configuration of degree 128, whatever the
    # default degree (96 at p = 3), and reports what gauss reports there
    code, out = run_cli(capsys, "bench", "--p", "3", "--D", "128")
    assert code == 0
    bench = json.loads(out)
    code, out = run_cli(
        capsys, "gauss", "--p", "3", "--deg", "128", "--chi-m", "0", "--chi-b", "0"
    )
    assert code == 0
    gauss = json.loads(out)
    (row,) = bench["rows"]
    assert bench["config"]["D"] == [row["D"]] == [gauss["config"]["D"]] == [128]
    for key in ("convention", "residual_valuation"):
        assert row[key] == gauss[key], key


def test_bench_has_no_deg(capsys):
    # bench takes each row's degree from --D; --deg is refused by the parser
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--p", "2", "--deg", "64"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --deg 64" in err and "Traceback" not in err


def test_selftest_green(capsys):
    code, out = run_cli(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == 12
