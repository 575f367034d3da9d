"""Command-line entry point: polynomials, character tables, Gauss sums.

Outputs are deterministic for a fixed configuration: JSON is emitted with
sorted keys. The timestamp lives under the key "run_meta", and the per-stage
wall-clock timings of every `gauss` and `bench` report under "timing_ms";
nothing else is volatile.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from .characters import CharParams, CharacterSystem, check_splitting
from .errors import InvalidParameter, WittlabError
from .fields import finite_field
from .gausstrace import (
    GaussConfig,
    alpha_apply_monomial,
    alpha_matrix,
    bench_report,
    trace_formula_check,
)
from .rings import LubinTateSeries, RingSpec, make_ring
from .series import (
    Series1,
    TruncSeries2,
    artin_hasse_ints,
    f_delta_coeffs,
    phi_vector,
    pulita_theta_ms,
    series_length,
    varpi,
    witt_series_eval,
)
from .upoly import UniversalPoly, ghost_identity_residual, structural_polys
from .wittvec import WittVec, frob, ghost_map, one_vec, witt_add, witt_mul

LT_CHOICES = {"cyc": LubinTateSeries.cyclotomic, "plain": LubinTateSeries.plain}


def _char_flags(parser, formats, deg=True):
    parser.add_argument("--p", type=int, default=2, help="the prime")
    parser.add_argument("--s", type=int, default=1, help="unramified degree, q = p^s")
    parser.add_argument("--ell", type=int, default=2, help="Witt vector length")
    parser.add_argument("--prec", type=int, default=24, help="p-adic precision N")
    if deg:
        parser.add_argument("--deg", type=int, default=None, help="series degree D")
    parser.add_argument(
        "--target-prec", type=int, default=None, help="target pi-precision M"
    )
    parser.add_argument(
        "--lt",
        choices=sorted(LT_CHOICES),
        default="cyc",
        help="Lubin-Tate series: cyc = (1+T)^p - 1, plain = pT + T^p; at p = 2 the "
        "two coincide and the report labels the run 'plain'",
    )
    parser.add_argument(
        "--t-residue",
        type=int,
        default=None,
        help="index of the residue u with t = Teich(u); default: first of nonzero trace",
    )
    parser.add_argument("--format", default="json", help=" or ".join(formats))
    parser.set_defaults(formats=formats)


def _params(args, target_prec):
    return CharParams(
        args.p,
        args.s,
        args.ell,
        u_index=args.t_residue,
        lt=LT_CHOICES[args.lt](args.p),
        nprec=args.prec,
        # bench has no --deg: each of its rows is a configuration at one --D
        degree=getattr(args, "deg", None),
        target_prec=target_prec,
    )


def _emit(args, payload, text_renderer=None):
    payload.setdefault("schema", 1)
    payload["run_meta"] = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    if args.format == "text":
        print(text_renderer(payload))
    else:
        print(json.dumps(payload, sort_keys=True, default=str))


def cmd_gen_polys(args):
    polys = structural_polys(args.kind, args.p, args.length)
    if args.format == "text":
        for n, poly in enumerate(polys):
            print(f"# {args.kind}[{n}]")
            print(poly.to_text())
        return 0
    payload = {
        "schema": 1,
        "kind": args.kind,
        "p": args.p,
        "polys": [poly.to_json_obj() for poly in polys],
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_char_table(args):
    system = CharacterSystem(_params(args, args.target_prec))
    table = system.character_table()
    table.verify_homomorphism()
    table.verify_image_is_full()
    table.verify_separation()
    if args.format == "csv":
        print(table.to_csv())
        return 0
    payload = table.to_json_obj()
    payload["image_size"] = table.image_size()
    payload["verified"] = ["homomorphism", "image", "separation"]
    if not system.nondegenerate:
        payload["warning"] = "degenerate t: Tr(t) lies in pZ_p"

    def render(p):
        lines = [f"psi table over {p['domain']} (t residue {p['t_residue_index']})"]
        for row in p["rows"]:
            lines.append(f"  {row['vector']} -> zeta^{row['psi_index']}")
        lines.append(f"image size {p['image_size']}, checks: {p['verified']}")
        return "\n".join(lines)

    _emit(args, payload, render)
    return 0


def cmd_gauss(args):
    if args.sweep and (args.format != "json" or args.convention != "both"):
        raise InvalidParameter("--sweep writes JSON with both conventions only")
    params = _params(args, None)
    if args.sweep:
        q = params.p**params.s
        reports = [
            trace_formula_check(GaussConfig(params, m, b, target_prec=args.target_prec))
            for m in range(q - 1)
            for b in range(q)
        ]
        _emit(args, {"sweep": reports})
        return 0
    cfg = GaussConfig(
        params, args.chi_m, args.chi_b, target_prec=args.target_prec
    )
    report = trace_formula_check(cfg)
    if args.convention != "both":
        report["residual_valuation"] = {
            args.convention: report["residual_valuation"][args.convention]
        }
        report["g_brute"] = {args.convention: report["g_brute"][args.convention]}

    def render(p):
        r = {k: v for k, v in p.items() if k != "run_meta"}
        return (
            f"g({r['config']}) matches convention {r['convention']} "
            f"at residual {r['residual_valuation']}"
        )

    _emit(args, report, render)
    return 0


def cmd_bench(args):
    try:
        degrees = [int(d) for d in args.bench_degrees.split(",")]
    except ValueError:
        raise InvalidParameter(
            f"--D needs comma-separated integers, have {args.bench_degrees!r}"
        ) from None
    report = bench_report(_params(args, None), args.chi_m, args.chi_b, degrees, args.target_prec)
    _emit(args, report)
    return 0


def _selftest_checks():
    def polys_ok():
        for p in (2, 3):
            for kind in ("sum", "prod", "neg", "frob"):
                if ghost_identity_residual(kind, p, 4).terms:
                    return False
        return True

    def displayed_forms_ok():
        mono = UniversalPoly.monomial
        i2 = structural_polys("neg", 2, 3)[2]
        return i2 == -(
            mono(2, 3, 0, [(0, 4)])
            + mono(2, 3, 0, [(0, 2), (1, 1)])
            + mono(2, 3, 0, [(1, 2)])
            + mono(2, 3, 0, [(2, 1)])
        )

    def lubin_tate_ok():
        for p in (2, 3):
            ring = make_ring(RingSpec(p, 1, 1, LubinTateSeries.cyclotomic(p), 10))
            w1 = varpi(ring, 1, 3)
            g = ghost_map(w1)
            if not (g[0] == ring.pi_level(1) and g[1] == ring.pi_level(0)):
                return False
            if not g[2].is_zero():
                return False
            if not (frob(w1) == varpi(ring, 0, 3).truncate(2)):
                return False
            fd = f_delta_coeffs(ring, 3)
            if not (witt_series_eval(fd, w1) == varpi(ring, 0, 3)):
                return False
        return True

    def local_expansion_ok():
        ring = make_ring(RingSpec(2, 1, 1, LubinTateSeries.cyclotomic(2), 10))
        th = pulita_theta_ms(ring, 1, 1, one_vec(ring, series_length(2, 24)), 24)
        rng = random.Random(9)
        pi = ring.pi()
        for _ in range(5):
            z = ring.random(rng)
            if (th.eval_full(z) - ring.one() - pi * z).valuation() < 2:
                return False
        return True

    def rings_ok():
        ring = make_ring(RingSpec(2, 2, 1, LubinTateSeries.cyclotomic(2), 10))
        rng = random.Random(1)
        for _ in range(10):
            a, b = ring.random(rng), ring.random(rng)
            if not ((a * b).phi() == a.phi() * b.phi()):
                return False
        return True

    def witt_ok():
        f4 = finite_field(2, 2)
        rng = random.Random(2)
        for _ in range(10):
            a = WittVec(f4, [f4.from_index(rng.randrange(4)) for _ in range(3)])
            b = WittVec(f4, [f4.from_index(rng.randrange(4)) for _ in range(3)])
            if not (witt_add(a, b) == witt_add(b, a)):
                return False
            if not (witt_mul(a, b) == witt_mul(b, a)):
                return False
        return True

    def series_ok():
        # the recurrence's exact divisions refuse a non-integral coefficient
        for p in (2, 3):
            artin_hasse_ints(p, 32, 16)
        # theta_{1,2}(a) = theta_1(a) theta_1(a^phi)(x^2), at s = 2 where phi acts
        ring = make_ring(RingSpec(2, 2, 1, LubinTateSeries.cyclotomic(2), 12))
        rng = random.Random(3)
        a = WittVec(ring, [ring.random(rng) for _ in range(series_length(2, 16))])
        product = Series1.one(ring, 16)
        for i in range(2):
            factor = pulita_theta_ms(ring, 1, 1, phi_vector(a, i), 16)
            product = product * factor.compose_xpow(2**i)
        return pulita_theta_ms(ring, 1, 2, a, 16) == product

    def characters_ok():
        system = CharacterSystem(CharParams(2, 1, 2, nprec=14, degree=48))
        table = system.character_table()
        table.verify_homomorphism()
        table.verify_image_is_full()
        table.verify_separation()
        return system.count_E_t_ell() == 2

    def counting_ok():
        for p, ell, in [(2, 2), (3, 2), (2, 3)]:
            system = CharacterSystem(CharParams(p, 1, ell, nprec=14, degree=16))
            if system.count_E_t_ell() != p ** (ell - 1):
                return False
        return True

    def splitting_ok():
        report = check_splitting(CharParams(2, 1, 2, nprec=14, degree=48), 2)
        return report["pairs_checked"] == 16

    def gauss_ok():
        params = CharParams(2, 1, 2, nprec=16, degree=64)
        report = trace_formula_check(GaussConfig(params, 0, 1, target_prec=6))
        return "units" in report["convention"]

    def operators_ok():
        params = CharParams(2, 1, 2, nprec=14, degree=48)
        system = CharacterSystem(params)
        ring = system.ring
        rng = random.Random(10)
        h = TruncSeries2(ring, 12)
        for i in range(13):
            for j in range(13 - i):
                h.rows[i][j] = ring.random(rng)
        basis, matrix = alpha_matrix(h, 2, 3)
        for n0, n1 in basis:
            image = alpha_apply_monomial(h, 2, n0, n1)
            col = basis.index((n0, n1))
            for r, (m0, m1) in enumerate(basis):
                if not (matrix[r][col] == image.coefficient(m0, m1)):
                    return False
        return True

    return [
        ("witt-polynomials ghost identities", polys_ok),
        ("witt-polynomials displayed forms", displayed_forms_ok),
        ("padic-rings Frobenius endomorphism", rings_ok),
        ("witt-ring commutativity over F_4", witt_ok),
        ("series-lab AH integrality and theta forms", series_ok),
        ("series-lab Lubin-Tate tower", lubin_tate_ok),
        ("series-lab local expansion", local_expansion_ok),
        ("characters psi table", characters_ok),
        ("characters root-of-unity counting", counting_ok),
        ("characters splitting functions", splitting_ok),
        ("gauss-trace formula at (2,1)", gauss_ok),
        ("gauss-trace alpha matrix columns", operators_ok),
    ]


def cmd_selftest(_args):
    failures = 0
    for name, check in _selftest_checks():
        start = time.monotonic()
        try:
            ok = check()
        except WittlabError as exc:
            ok = False
            name = f"{name} ({exc})"
        ms = round(1000 * (time.monotonic() - start))
        print(f"{'PASS' if ok else 'FAIL'}  {name}  [{ms} ms]")
        failures += 0 if ok else 1
    return 1 if failures else 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wittlab",
        description="Witt rings, Lubin-Tate exponentials, characters, Gauss sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-polys", help="emit the universal Witt polynomials")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--len", dest="length", type=int, default=3)
    g.add_argument("--kind", choices=["sum", "prod", "neg", "frob"], required=True)
    g.add_argument("--format", choices=["json", "text"], default="text")
    g.set_defaults(func=cmd_gen_polys)

    c = sub.add_parser("char-table", help="build and verify a psi table")
    _char_flags(c, ("json", "text", "csv"))
    c.set_defaults(func=cmd_char_table)

    ga = sub.add_parser("gauss", help="trace-formula report for one character")
    _char_flags(ga, ("json", "text"))
    ga.add_argument("--chi-m", type=int, default=0)
    ga.add_argument("--chi-b", type=int, default=0, help="index of b in F_q")
    ga.add_argument("--convention", choices=["full", "units", "both"], default="both")
    ga.add_argument("--sweep", action="store_true", help="run all (m, b)")
    ga.set_defaults(func=cmd_gauss)

    b = sub.add_parser("bench", help="time brute force against the operator trace")
    _char_flags(b, ("json",), deg=False)
    b.add_argument("--chi-m", type=int, default=0)
    b.add_argument("--chi-b", type=int, default=0)
    b.add_argument("--D", dest="bench_degrees", default="32,64", help="series degree per row")
    b.set_defaults(func=cmd_bench)

    st = sub.add_parser("selftest", help="run pinned desk-scale property checks")
    st.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        if "formats" in args and args.format not in args.formats:
            offered = " or ".join(args.formats)
            raise InvalidParameter(f"{args.command} writes {offered}, not {args.format}")
        return args.func(args)
    except WittlabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
