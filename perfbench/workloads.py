"""The three workloads: what each sets up, the operations it runs and how
each operation's output is checked.

Every check is made apart from the computation it checks: the Dwork
operator trace against exhaustive brute force (both inside
``trace_formula_check``, two separate computations), g(chi) g(chi^-1)
against +-q^2, Witt ring laws against each other, and the ghost map in
plain Python integers against the Witt operations.  None compares with a
stored copy of an earlier output.

Program functions are looked up on their modules at call time, so that the
tracer's wrappers see every call.
"""

from __future__ import annotations

import random

from wittlab import characters, fields, gausstrace, rings, wittvec


class GaussWorkload:
    """``trace_formula_check`` over W_2(F_q), q = p^s, for every chi = (m, b)
    and both nondegenerate t, with the cyclotomic Lubin-Tate series, N = 16
    and D = 128; one pass is 2 q (q - 1) checks."""

    nprec = 16
    degree = 128

    def __init__(self, name, p, s, target, setup_repeats):
        self.name = name
        self.p, self.s, self.target = p, s, target
        self.q = p**s
        self.setup_repeats = setup_repeats

    def _params(self, u_index):
        # built the way ``cli._gauss_one`` builds them, a fresh series object
        # each time, so ``make_ring`` is looked up on every check
        return characters.CharParams(
            self.p,
            self.s,
            2,
            u_index=u_index,
            lt=rings.LubinTateSeries.cyclotomic(self.p),
            nprec=self.nprec,
            degree=self.degree,
        )

    def setup(self):
        """Rings, theta series, mu and psi tables for both nondegenerate t."""
        field = fields.finite_field(self.p, self.s)
        systems = {}
        for u in field.elements():
            if field.absolute_trace(u):
                system = characters.CharacterSystem(self._params(u.index()))
                system.theta_series(0)
                system.theta_series(1)
                system.character_table()
                systems[u.index()] = system
        return systems

    def pass_ops(self, systems, rng):
        ops = [
            (u, m, b) for u in sorted(systems) for m in range(self.q - 1) for b in range(self.q)
        ]
        rng.shuffle(ops)
        return ops

    def short_ops(self, systems):
        """One character with b != 0 and its inverse, for the first t."""
        u = min(systems)
        chi = (u, 0, 1)
        inverse = self.inverse(chi)
        return [chi] if inverse == chi else [chi, inverse]

    def run_op(self, systems, op):
        u, m, b = op
        config = gausstrace.GaussConfig(self._params(u), m, b, target_prec=self.target)
        return gausstrace.trace_formula_check(config)

    def inverse(self, op):
        """chi^-1 = (-m mod (q - 1), -b), with -b negated digit by digit."""
        u, m, b = op
        neg_b, place = 0, 1
        for _ in range(self.s):
            neg_b += (-(b // place % self.p) % self.p) * place
            place *= self.p
        return (u, -m % (self.q - 1), neg_b)

    def _value(self, ring, obj):
        co = tuple(c for row in obj["coords"] for c in row)
        return rings.RingElem(ring, co, obj["prec"])

    def check(self, systems, ops, done):
        """{index: [problem, ...]} for the operations in ``done``
        (index into ``ops`` -> report)."""
        problems = {}
        q2 = self.q * self.q
        index_of = {op: i for i, op in enumerate(ops)}
        for i, report in done.items():
            op = ops[i]
            found = []
            if "units" not in report["convention"]:
                found.append(f"trace matches {report['convention']}, not 'units'")
            if report["residual_valuation"]["units"] < self.target:
                found.append(f"residual {report['residual_valuation']} < {self.target}")
            if report["psi_order_p2"] is not True:
                found.append("psi does not have order p^2")
            ring = systems[op[0]].ring
            g = self._value(ring, report["g_brute"]["full"])
            if op[2] == 0:
                if g.prec < self.target or not g.is_zero():
                    found.append(f"g = {g!r} for b = 0, expected 0")
            else:
                partner = done.get(index_of.get(self.inverse(op)))
                if partner is None:
                    found.append("no checked report for chi^-1 in this pass")
                else:
                    prod = g * self._value(ring, partner["g_brute"]["full"])
                    # +q^2 and -q^2 differ by 2 q^2: the sign is resolved only
                    # above its valuation
                    sign_val = ring.e * (2 * self.s + (1 if self.p == 2 else 0))
                    if prod.prec <= sign_val:
                        found.append(f"g g^-1 at precision {prod.prec} <= {sign_val}")
                    elif not (prod == ring.from_int(q2) or prod == ring.from_int(-q2)):
                        found.append(f"g(chi) g(chi^-1) = {prod!r}, not +-{q2}")
            if found:
                problems[i] = found
        return problems


class WittLawsWorkload:
    """Seeded random triples over F_4, Z/2^10 and Z/3^8 at lengths 1-4 pushed
    through the ring laws of acceptance criterion 3; one round is one triple
    for each (ring, length), 12 operations."""

    lengths = (1, 2, 3, 4)

    def __init__(self, name, setup_repeats):
        self.name = name
        self.setup_repeats = setup_repeats

    def setup(self):
        """The coefficient rings, and the Witt families up to length 4: one
        sum, product, negation and Frobenius of length-4 vectors per ring
        builds and caches every family the operations evaluate."""
        coeff = {
            "F4": fields.finite_field(2, 2),
            "Z/2^10": rings.ring_of(2, nprec=10),
            "Z/3^8": rings.ring_of(3, nprec=8),
        }
        for ring in coeff.values():
            zero = wittvec.WittVec(ring, [ring.zero()] * max(self.lengths))
            wittvec.witt_add(zero, zero)
            wittvec.witt_mul(zero, zero)
            wittvec.witt_neg(zero)
            wittvec.frob(zero)
        return coeff

    def _vector(self, coeff, key, length, rng):
        ring = coeff[key]
        if key == "F4":
            comps = [ring.from_index(rng.randrange(ring.q)) for _ in range(length)]
        else:
            comps = [ring.from_int(rng.randrange(ring.pn)) for _ in range(length)]
        return wittvec.WittVec(ring, comps)

    def _triple(self, coeff, key, length, rng):
        return (key, length) + tuple(self._vector(coeff, key, length, rng) for _ in range(3))

    def pass_ops(self, coeff, rng):
        slots = [(key, n) for key in sorted(coeff) for n in self.lengths]
        rng.shuffle(slots)
        return [self._triple(coeff, key, n, rng) for key, n in slots]

    def short_ops(self, coeff):
        """One length-4 triple per ring: every law and both ghost checks."""
        rng = random.Random(0)
        return [self._triple(coeff, key, 4, rng) for key in sorted(coeff)]

    def run_op(self, coeff, op):
        key, length, a, b, c = op
        add, mul, neg = wittvec.witt_add, wittvec.witt_mul, wittvec.witt_neg
        total, prod, minus = add(a, b), mul(a, b), neg(a)
        laws = [
            ("a+b = b+a", total == add(b, a)),
            ("ab = ba", prod == mul(b, a)),
            ("(a+b)+c = a+(b+c)", add(total, c) == add(a, add(b, c))),
            ("(ab)c = a(bc)", mul(prod, c) == mul(a, mul(b, c))),
            ("a(b+c) = ab+ac", mul(a, add(b, c)) == add(prod, mul(a, c))),
            ("a+(-a) = 0", add(a, minus).is_zero()),
            ("series development", wittvec.series_development(a) == a),
        ]
        if length == 4:
            # the Frobenius and Verschiebung relations need a spare component
            ring, p = a.ring, a.ring.p
            frob, versch, nat = wittvec.frob, wittvec.versch, wittvec.scalar_nat
            short = length - 1
            laws += [
                ("F V a = p a", frob(versch(a)) == nat(a, p).truncate(short)),
                (
                    "V F a = V(1) a",
                    versch(frob(a))
                    == mul(versch(wittvec.one_vec(ring, length)), a).truncate(short),
                ),
                ("Va Vb = p V(ab)", mul(versch(a), versch(b)) == nat(versch(prod), p)),
                (
                    "V(a Fb) = Va b",
                    versch(mul(a.truncate(short), frob(b)))
                    == mul(versch(a), b).truncate(short),
                ),
            ]
        return {
            "sum": total,
            "prod": prod,
            "neg": minus,
            "broken": [name for name, ok in laws if not ok],
        }

    def check(self, coeff, ops, done):
        problems = {}
        for i, result in done.items():
            found = [f"law fails: {name}" for name in result["broken"]]
            key, _, a, b, _ = ops[i]
            if key != "F4":
                found += ghost_problems(coeff[key], a, b, result)
            if found:
                problems[i] = found
        return problems


def plain_ghosts(vec, p, pn):
    """Ghost components sum_i p^i a_i^(p^(n-i)) mod p^N, in Python integers."""
    comps = [c.co[0] for c in vec.comps]
    return [
        sum(p**i * pow(comps[i], p ** (n - i), pn) for i in range(n + 1)) % pn
        for n in range(len(comps))
    ]


def ghost_problems(ring, a, b, result):
    """The ghost map must turn Witt +, x and - into componentwise ones."""
    p, pn = ring.p, ring.pn
    ga, gb = plain_ghosts(a, p, pn), plain_ghosts(b, p, pn)
    want = {
        "sum": [(x + y) % pn for x, y in zip(ga, gb)],
        "prod": [(x * y) % pn for x, y in zip(ga, gb)],
        "neg": [-x % pn for x in ga],
    }
    return [
        f"ghost map is not additive/multiplicative on {kind}"
        for kind, expected in want.items()
        if plain_ghosts(result[kind], p, pn) != expected
    ]


WORKLOADS = {
    # q = 3: theta is built through the length-5 universal S_4, P_4 at
    # p = 3 (about 26 s cold), so one cold set-up per run
    "gauss-q3": lambda: GaussWorkload("gauss-q3", 3, 1, 18, setup_repeats=1),
    # q = 4: theta has length 8 and takes ghost transport; set-up ~0.3 s
    "gauss-q4": lambda: GaussWorkload("gauss-q4", 2, 2, 6, setup_repeats=5),
    # set-up takes milliseconds: the median of many repeats
    "witt-laws": lambda: WittLawsWorkload("witt-laws", setup_repeats=9),
}
