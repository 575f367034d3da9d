"""Additive characters of W_l(F_q), splitting functions and W_2 characters.

Every character value here is a product of values of theta_{l-1-j,s}(1) at
points t^(p^j) Teich(c).  Since t = Teich(u) and Teichmueller lifts are
multiplicative exactly mod p^N, each point is Teich(u^(p^j) c): a series
only ever meets the q' - 1 lifts of F_q'^*.  ``theta_teich_values``
certifies a series once, folds its coefficients into the q' - 1 classes of
degree mod q' - 1 (exact, since Teich(c)^(q'-1) = 1 exactly mod p^N) and
evaluates that fold at all of them; psi_{l,s,t}, the psi_1 part of chi and
both sides of the splitting-function product formula read that one table.
A system has one series degree D, ``CharParams.degree``, and keeps what
every Gauss check on it reads: Omega's factors truncated at D and the
running sums of their residue-class products; per chi_m and whether b is 0,
the trace total as an integer matrix on Teich(b)'s powers, with its shell
floors (``trace_parts``); per chi_m, the Gauss sum's terms Teich(x^m)
psi([x]) and their sum (``brute_terms``); psi's indices at [x] and V[y]
(``psi_parts``, 2q - 1 snaps) and whether they make psi of order p^2
(``psi_order_p2``); per b != 0, the x at which the Gauss sum is supported
(``stationary_points``); and the discrete log of each snapped psi_1 value.
psi snaps its product to the root-of-unity table of mu_{p^l}.
Snapping is ultrametric: the value must be strictly closer to one root
than the minimal pairwise distance of the table, otherwise the computation
refuses (SnapAmbiguous) rather than guessing.

The mu_{p^l} table depends only on the ring, and is built once per ring
from one root g.  Its digits are lifted from 1 + pi_{l-1}: the first digit
1 gives v(g - 1) = 1, so g has exact order p^l.  The lifting goes past the
pairwise distance p^(l-1) of the roots, so g is nearer one root than any
other and one Newton polish reaches it.  Entry k is g^k, and a root has no
other form: its index is its discrete log to base g, a product of roots
adds indices mod p^l, and the values of psi_1 are the indices that are
multiples of p^(l-1).  The table's one group check, g^(p^l) = 1 with no
two powers equal at precision, proves the p^l entries all of mu_{p^l}.
"""

from __future__ import annotations

import functools
import itertools
from collections import namedtuple

from .errors import (
    InvalidParameter,
    NotDivisible,
    NotUnit,
    ReportedMismatch,
    SeedNotConverging,
    SnapAmbiguous,
)
from .fields import finite_field, is_prime
from .rings import (
    LubinTateSeries,
    Record,
    RingElem,
    RingSpec,
    SeriesPacking,
    check_int,
    make_ring,
    nondegenerate_trace,
)
from .series import (
    Series1,
    TruncSeries2,
    certify_series,
    pulita_theta_ms,
    series_eval_unit,
    series_length,
)
from .wittvec import WittVec, one_vec, te_lift, witt_add, witt_mul, witt_trace


@functools.lru_cache(maxsize=None)
def theta_one_series(ring, m, s, degree):
    """theta_{m,s}(1) over ``ring`` (coefficients are level-universal)."""
    one = one_vec(ring, series_length(ring.p, degree))
    return pulita_theta_ms(ring, m, s, one, degree)


@functools.lru_cache(maxsize=None)
def theta_teich_values(ring, m, s, degree, target):
    """theta_{m,s}(1) at every Teichmueller point of ``ring``, tail-certified once.

    Maps c.index() to the value at Teich(c), at pi-precision ``target``, for
    each c of the residue field: at Teich(0) = 0 (reached only when t = 0)
    the constant term; at the units, the coefficients folded into q' - 1
    classes of degree mod z^(q'-1) - 1, evaluated by ``eval_full``.  The
    fold is exact, since Teich(c)^(q'-1) = 1 exactly mod p^N.
    """
    series = theta_one_series(ring, m, s, degree)
    certify_series(series, target)
    values = {0: RingElem(ring, series.coeffs[0].co, target)}
    step, pn = ring.residue_field.q - 1, ring.pn
    fold = [[0] * ring.dim for _ in range(step)]
    for k, c in enumerate(series.coeffs):
        fold[k % step] = list(map(int.__add__, fold[k % step], c.co))
    folded = Series1(ring, [RingElem(ring, tuple(x % pn for x in co)) for co in fold])
    for c in ring.residue_field.units():
        values[c.index()] = RingElem(ring, folded.eval_full(ring.teichmuller(c)).co, target)
    return values


class RootOfUnityTable:
    """mu_{p^l} in a level-(l-1) ring at pi-precision ``prec``: entry k is
    g^k.  Refused unless g^(p^l) = 1 and no two entries agree at ``prec``.
    g is a unit, so v(g^a - g^b) = v(g^(a-b) - 1): comparing the p^l - 1
    powers past the first with 1 covers every pair, and the largest
    valuation is the snap bound."""

    def __init__(self, ring, ell, g, prec):
        self.ring = ring
        self.order = ring.p**ell
        g, z = RingElem(ring, g.co, prec), RingElem(ring, ring.one().co, prec)
        self.elements = []
        for _ in range(self.order):
            self.elements.append(z)
            z = z * g
        if z != ring.one():
            raise ReportedMismatch(f"g^{self.order} is not 1: the table is not a group")
        vals = [(z - self.elements[0]).valuation() for z in self.elements[1:]]
        if any(v >= prec for v in vals):
            raise ReportedMismatch(f"two powers of g agree: g has order below {self.order}")
        self.max_pairwise_val = max(vals)

    def snap(self, value):
        """(index, distance valuation) of the unique nearest root.  A value
        equal to a root mod p^N, whose difference reads ``ring.cap``, is at
        distance min(value.prec, z.prec): the two are known no further."""
        if value.prec <= self.max_pairwise_val:
            raise SnapAmbiguous(
                f"value precision {value.prec} does not resolve roots "
                f"(pairwise valuation up to {self.max_pairwise_val})"
            )
        best = None
        best_v = -1
        for k, z in enumerate(self.elements):
            v = (value - z).valuation()
            if v == self.ring.cap:
                v = min(value.prec, z.prec)
            if v > best_v:
                best, best_v = k, v
        if best_v <= self.max_pairwise_val:
            raise SnapAmbiguous(
                f"closest root at valuation {best_v}, need > {self.max_pairwise_val}"
            )
        return best, best_v


@functools.lru_cache(maxsize=None)
def mu_ppow_table(ring, ell):
    """mu_{p^l} in a level-(l-1) ring, built once per ring: entry k is g^k
    for one root g of exact order p^l, found by digit lifting plus Newton."""
    if ring.m != ell - 1:
        raise InvalidParameter(f"mu_(p^{ell}) lives at level {ell - 1}, not {ring.m}")
    p = ring.p
    order = p**ell
    pi = ring.pi()

    def f(z):
        return z**order - ring.one()

    def profile(d):
        """Exact v(f) of a prefix agreeing with a root to depth d:
        d plus sum over nontrivial roots xi of min(d, v(1 - xi)), where
        p^r - p^(r-1) roots of exact order p^r sit at v(1-xi) = p^(l-r)."""
        acc = d
        for r in range(1, ell + 1):
            acc += (p**r - p ** (r - 1)) * min(d, p ** (ell - r))
        return acc

    # the first digit of g is 1: v(g - 1) = 1, so g has exact order p^l
    depth = min(ring.cap - 2, p ** (ell - 1) + 3)
    g = ring.one() + pi
    pi_pow = pi * pi
    for k in range(2, depth):
        for c in range(p):
            cand = g + pi_pow.scale_int(c) if c else g
            if f(cand).valuation() >= profile(k + 1):
                g = cand
                break
        else:
            raise SeedNotConverging("digit lifting lost its candidate")
        pi_pow = pi_pow * pi
    # Newton polish on exact coordinates: g <- g - f(g)/(p^l g^(p^l - 1));
    # divisions are exact, so precision metadata is reset to full and the
    # root is certified at the end by f(g) = 0 exactly mod p^N.
    g = RingElem(ring, g.co)
    for _ in range(ring.cap.bit_length() + 3):
        fg = f(g)
        if not any(fg.co):
            break
        try:
            step = fg.exact_div_p(ell) * (g ** (order - 1)).inverse()
        except (NotDivisible, NotUnit) as exc:
            raise SeedNotConverging(str(exc)) from exc
        g = RingElem(ring, (g - step).co)
    if any(f(g).co):
        raise SeedNotConverging("Newton polish did not reach a root")
    resolution = ring.cap - ell * ring.e  # a root mod p^N is pinned this far
    return RootOfUnityTable(ring, ell, g, resolution)


def check_target(target_prec):
    """Refuse a target pi-precision M that is not an integer >= 1 (None
    keeps the default)."""
    if target_prec is not None:
        check_int("target precision M", target_prec, 1)


class CharParams(Record, namedtuple("CharParams", "p s ell u_index lt nprec degree target_prec")):
    """Configuration for psi_{l,s,t}: prime, unramified degree, length, t."""

    __slots__ = ()

    def __new__(cls, p, s, ell, u_index=None, lt=None, nprec=None, degree=None, target_prec=None):
        check_int("p", p)
        if not is_prime(p):
            raise InvalidParameter(f"p = {p} is not prime")
        check_int("s", s, 1)
        check_int("ell", ell, 1)
        if u_index is not None:
            check_int("t residue index", u_index)
            if not 0 <= u_index < p**s:
                raise InvalidParameter(f"t residue index {u_index} outside 0..{p**s - 1}")
        if nprec is not None:
            check_int("N", nprec, 1)
        if degree is not None:
            check_int("series degree D", degree, 1)
        check_target(target_prec)
        lt = LubinTateSeries.cyclotomic(p) if lt is None else lt
        nprec = 16 if nprec is None else nprec
        degree = (128 if p == 2 else 96) if degree is None else degree
        return super().__new__(cls, p, s, ell, u_index, lt, nprec, degree, target_prec)

    def describe(self):
        return {
            "p": self.p,
            "s": self.s,
            "ell": self.ell,
            "lt": self.lt.tag(),
            "N": self.nprec,
            "D": self.degree,
        }


class CharacterSystem:
    """Everything needed to evaluate psi_{l,s,t} and friends, lazily built."""

    def __init__(self, params):
        self.params = params
        p, s, ell = params.p, params.s, params.ell
        self.field = finite_field(p, s)
        self.ring = make_ring(RingSpec(p, s, ell - 1, params.lt, params.nprec))
        # snapping to mu_{p^l} needs to beat the pairwise valuation p^(l-1)
        self.target_prec = (
            params.target_prec
            if params.target_prec is not None
            else p ** (ell - 1) + 1
        )
        if params.u_index is None:
            self.u = next(
                x for x in self.field.elements() if self.field.absolute_trace(x)
            )
        else:
            self.u = self.field.from_index(params.u_index)
        self.t = self.ring.teichmuller(self.u)
        self.nondegenerate, self.trace_t = nondegenerate_trace(self.ring, self.t)
        self._psi1 = {}
        self._table = None
        # what Gauss checks read: ``gausstrace.kernel_shells``' matrix by (chi_m, b != 0),
        # ``gauss_brute``'s terms by chi_m
        self.trace_parts = {}
        self.brute_terms = {}

    # -- building blocks ---------------------------------------------------------

    def theta_series(self, j):
        """theta_{l-1-j, s}(1) over the system ring; its certified values are
        read through ``theta_at``."""
        return theta_one_series(
            self.ring, self.params.ell - 1 - j, self.params.s, self.params.degree
        )

    def theta_at(self, m, c):
        """theta_{m,s}(1) at Teich(c), c in F_q, at the system's target."""
        return theta_teich_values(
            self.ring, m, self.params.s, self.params.degree, self.target_prec
        )[c.index()]

    @functools.cached_property
    def mu_table(self):
        return mu_ppow_table(self.ring, self.params.ell)

    # -- the additive character -----------------------------------------------------

    def psi_raw(self, y):
        """Analytic value theta_{l-1,s}(Te(y))(t), by the factored formula:
        the product over j of theta_{l-1-j,s}(1) at Teich(u^(p^j) y_j)."""
        ell = self.params.ell
        acc = self.ring.one()
        upj = self.u
        for j in range(ell):
            if j < len(y) and y[j]:
                acc = acc * self.theta_at(ell - 1 - j, upj * y[j])
            upj = upj**self.params.p
        return acc

    def psi(self, y):
        """Root-of-unity index of psi(y) in the mu_{p^l} table."""
        index, _ = self.mu_table.snap(self.psi_raw(y))
        return index

    def psi_direct(self, y):
        """Definition path: theta_{l-1,s}(Te(y)) evaluated at t (slow)."""
        length = series_length(self.params.p, self.params.degree)
        lifted = te_lift(y, self.ring, length)
        series = pulita_theta_ms(
            self.ring, self.params.ell - 1, self.params.s, lifted, self.params.degree
        )
        return series_eval_unit(series, self.t, self.target_prec)

    def domain(self):
        """All of W_l(F_q), enumerated lexicographically on residues."""
        ell = self.params.ell
        for combo in itertools.product(range(self.field.q), repeat=ell):
            yield WittVec(self.field, [self.field.from_index(i) for i in combo])

    def character_table(self):
        if self._table is None:
            self._table = CharacterTable(self)
        return self._table

    # -- splitting function and the multiplicative character ---------------------------

    @functools.cached_property
    def omega_factors(self):
        """theta_{l-1-j,s}(1)(t^(p^j) x) at degree D, j < l: the factors of
        Omega_{l,s,t}."""
        got, tpj = [], self.t
        for j in range(self.params.ell):
            got.append(self.theta_series(j).compose_scale(tpj))
            tpj = tpj ** self.params.p
        return tuple(got)

    @functools.cached_property
    def omega_class_products(self):
        """Running sums of the products of the residue classes of degree of
        Omega_2's factors A, B = ``omega_factors``.

        With c = q - 1, A_r(w) = sum_l a_(r + c l) w^l and B_r likewise.
        Returns (prefixes, floors, prec): entry r c + r' of ``prefixes``
        lists the coordinate tuples of sum_(i <= l) [w^i] A_r B_r' mod p^N,
        and of ``floors`` the product's min-plus valuation sequence, a lower
        bound on each coefficient's valuation, both at the degrees l <= (D -
        r - r') // c, which the factors' terms of degree <= D determine.
        Each factor coefficient enters the floors at min(valuation, prec), a
        zero's valuation being ``ring.cap``; ``prec`` is the least precision
        over A and B.  The products are one packing (Kronecker substitution),
        c^2 big-int products and one ``unpack``.
        """
        ring, step, degree = self.ring, self.field.q - 1, self.params.degree
        classes = [f.coeffs[r::step] for f in self.omega_factors for r in range(step)]
        packing = SeriesPacking(ring, len(classes[0]))
        packed = packing.pack(
            list(zip(*(c.co for cls in classes for c in cls))), [len(cls) for cls in classes]
        )
        counts = [max(0, (degree - r - r2) // step + 1) for r in range(step) for r2 in range(step)]
        columns = packing.unpack(
            (packed[i // step] * packed[step + i % step], n) for i, n in enumerate(counts)
        )
        prefixes, o, pn = [], 0, ring.pn
        for n in counts:
            runs = [[x % pn for x in itertools.accumulate(col[o : o + n])] for col in columns]
            prefixes.append(list(zip(*runs)))
            o += n
        vals = [[min(c.valuation(), c.prec) for c in cls] for cls in classes]
        floors = []
        for i, n in enumerate(counts):
            va, vb = vals[i // step], vals[step + i % step]
            floor = [va[0] + v for v in vb[:n]]
            for l in range(1, n):
                floor[l:] = map(min, floor[l:], map(va[l].__add__, vb))
            floors.append(floor)
        prec = min(c.prec for cls in classes for c in cls)
        return prefixes, floors, prec

    def omega1_substituted(self, b):
        """Omega_1(Teich(b) x1 x0^(p(q-2))) as sparse bivariate terms
        (k p(q-2), k, c_k) up to total degree D: c_k = theta0[k] (t
        Teich(b))^k, theta0 = theta_{0,s}(1), and the one term 1 at b = 0."""
        ring, stride = self.ring, self.params.p * (self.field.q - 2)
        if not b:
            return [(0, 0, ring.one())]
        top = self.params.degree // (stride + 1)
        scaled = self.theta_series(1).truncate(top).compose_scale(self.t * ring.teichmuller(b))
        return [(k * stride, k, c) for k, c in enumerate(scaled.coeffs)]

    def omega(self):
        """Omega_{l,s,t} as a series truncated at D (l = 1 or 2)."""
        ell = self.params.ell
        if ell > 2:
            raise InvalidParameter(f"omega is realized for l <= 2, have l = {ell}")
        factors = self.omega_factors
        if ell == 1:
            return factors[0]
        return TruncSeries2.outer(factors[0], factors[1], self.params.degree)

    def psi1_log(self, arg):
        """The table index, a discrete log to base g, of psi_1 at a nonzero
        ``arg`` of F_q, kept per argument: at most q - 1 snaps.  psi_1 has
        order p, so a log that is no multiple of p^(l-1) is refused."""
        key = arg.index()
        log = self._psi1.get(key)
        if log is None:
            log, _ = self.mu_table.snap(self.theta_at(0, self.u * arg))
            if log % (self.mu_table.order // self.params.p):
                raise ReportedMismatch(f"psi_1 at {arg!r} snaps to g^{log}, not a root of order p")
            self._psi1[key] = log
        return log

    @functools.cached_property
    def psi_parts(self):
        """(teich, ver), entry i the table index of psi([x]) and of psi(V[x])
        at x = ``field.from_index(i)``: on W_2, (z_0, z_1) = [z_0] + V[z_1]
        has index teich[z_0] + ver[z_1] mod p^2.  2q - 1 snaps, not q^2."""
        if self.params.ell != 2:
            raise InvalidParameter(f"psi_parts split W_2, not W_{self.params.ell}")
        zero = self.field.zero()
        teich = [self.psi([x, zero]) for x in self.field.elements()]
        return teich, teich[:1] + [self.psi([zero, y]) for y in self.field.units()]

    @functools.cached_property
    def psi_order_p2(self):
        """Whether psi has order p^2: its indices at [x] + V[y] (``psi_parts``)
        take p^2 values."""
        teich, ver = self.psi_parts
        return len({(a + v) % self.mu_table.order for a in teich for v in ver}) == self.params.p**2

    @functools.cached_property
    def stationary_points(self):
        """{b.index(): x_b} over b != 0, x_b the one x of F_q^* where the index
        ver[x^p w] + psi1_log(b w) is 0 mod p^2 for w in an F_p-basis, so in
        F_q, being additive in w (``gausstrace.gauss_brute``); else refused."""
        field, p, order = self.field, self.params.p, self.mu_table.order
        ver, basis = self.psi_parts[1], [field.from_index(p**j) for j in range(field.s)]
        points = {}
        for b in field.units():
            found = [
                x for x in field.units()
                if not any((ver[(x**p * w).index()] + self.psi1_log(b * w)) % order for w in basis)
            ]
            if len(found) != 1:
                raise ReportedMismatch(f"at b = {b!r} the character is trivial at {len(found)} x")
            points[b.index()] = found[0]
        return points

    def chi_value(self, m, b, z):
        """chi_{m,b}(z) for z a unit of W_2(F_q): Teich(z_0^m) times the psi_1
        part, the table's entry g^k, k = ``psi1_log(b z_0^(p(q-2)) z_1)`` (1
        when b or z_1 is 0)."""
        if self.params.ell != 2:
            raise InvalidParameter(f"chi is defined on W_2, not W_{self.params.ell}")
        z0, z1 = z[0], z[1]
        if not z0:
            raise NotUnit("chi is defined on units: z_0 != 0")
        teich_part = self.ring.teichmuller(z0**m)
        if not b or not z1:
            return teich_part
        scale = b * z0 ** (self.params.p * (self.field.q - 2))
        return teich_part * self.mu_table.elements[self.psi1_log(scale * z1)]

    def count_E_t_ell(self):
        """#roots of unity within |pi| of 1 + t pi_{l-1} (strictly closer)."""
        center = self.ring.one() + self.t * self.ring.pi()
        count = 0
        for z in self.mu_table.elements:
            if (center - z).valuation() > 1:
                count += 1
        return count


@functools.lru_cache(maxsize=None)
def shared_system(params):
    """The one CharacterSystem of ``params``' configuration.

    Keyed by the params themselves, so the psi table, the psi_1 values and
    the Omega terms are built once per configuration rather than once per
    caller; the theta series and the mu_{p^l} table are cached per ring
    beneath it, so systems that differ only in t share them.
    """
    return CharacterSystem(params)


class CharacterTable:
    """Exhaustive psi table over W_l(F_q) with verification metadata."""

    def __init__(self, system):
        self.system = system
        self.rows = []
        self.by_key = {}
        for y in system.domain():
            raw = system.psi_raw(y)
            index, dist = system.mu_table.snap(raw)
            key = tuple(c.co for c in y.comps)
            self.by_key[key] = index
            self.rows.append({"vector": key, "psi_index": index, "raw_distance": dist})

    def index_of(self, y):
        return self.by_key[tuple(c.co for c in y.comps)]

    def image_size(self):
        return len({r["psi_index"] for r in self.rows})

    def verify_homomorphism(self):
        """psi(y+z) = psi(y) psi(z) for every pair: indices, as logs, add mod p^l."""
        order = self.system.mu_table.order
        vecs = list(self.system.domain())
        for y in vecs:
            for z in vecs:
                want = (self.index_of(y) + self.index_of(z)) % order
                if self.index_of(witt_add(y, z)) != want:
                    raise ReportedMismatch(
                        f"psi not multiplicative at {y!r}, {z!r}"
                    )
        return True

    def verify_image_is_full(self):
        if self.image_size() != self.system.mu_table.order:
            raise ReportedMismatch(
                f"image has {self.image_size()} elements, expected p^l"
            )
        return True

    def verify_separation(self):
        """For every a != 0 there is y with psi(a y) != 1."""
        sys = self.system
        one_index = self.index_of(
            WittVec(sys.field, [sys.field.zero()] * sys.params.ell)
        )
        vecs = list(sys.domain())
        for a in vecs:
            if a.is_zero():
                continue
            if not any(
                self.index_of(witt_mul(a, y)) != one_index for y in vecs
            ):
                raise ReportedMismatch(f"pairing degenerate at {a!r}")
        return True

    def to_json_obj(self):
        return {
            "domain": f"W_{self.system.params.ell}(F_{self.system.field.q})",
            "t_residue_index": self.system.u.index(),
            "nondegenerate": self.system.nondegenerate,
            "rows": self.rows,
        }

    def to_csv(self):
        lines = ["vector,psi_index,raw_distance"]
        for row in self.rows:
            vec = ";".join(str(list(co)) for co in row["vector"]).replace(" ", "")
            lines.append(f"{vec},{row['psi_index']},{row['raw_distance']}")
        return "\n".join(lines)


def check_splitting(params, r):
    """Exhaustive splitting-function checks over W_l(F_{q^r}).

    Verifies (1) the transitivity psi_{l,sr,t} = psi_{l,s,t} o Tr on every
    vector, and (2) the product formula psi(Tr(y)) = prod_i Omega(Teich^{q^i}).
    Returns a report dict; raises ReportedMismatch with the offending vector.
    """
    base = CharacterSystem(params)
    big_field = finite_field(params.p, params.s * r)
    embed, _ = base.field.embedding_into(big_field)
    big = CharacterSystem(params.replace(
        s=params.s * r,
        u_index=embed(base.u).index(),  # the same t inside the bigger ring
        target_prec=None,
    ))

    ident = _match_root_tables(base.mu_table, big.mu_table)
    q = base.field.q
    p = params.p
    # Omega_{l,s,t} factors (base s!) over the big ring, at its Teichmueller points
    omega_values = [
        theta_teich_values(big.ring, params.ell - 1 - j, params.s, params.degree, big.target_prec)
        for j in range(params.ell)
    ]
    checked = 0
    for y in big.domain():
        tr = witt_trace(y, params.s, r)
        lhs = big.psi(y)
        rhs = base.psi(tr)
        if ident[rhs] != lhs:
            raise ReportedMismatch(f"transitivity fails at {y!r}")
        # product formula: prod over i of Omega_{l,s,t} at Teich(y_j)^(q^i)
        prod = big.ring.one()
        for i in range(r):
            upj = big.u
            for j in range(params.ell):
                comp = y[j] ** (q**i)
                if comp:
                    prod = prod * omega_values[j][(upj * comp).index()]
                upj = upj**p
        got, _ = big.mu_table.snap(prod)
        if got != lhs:
            raise ReportedMismatch(f"product formula fails at {y!r}")
        checked += 1
    return {
        "pairs_checked": checked,
        "q": q,
        "r": r,
        "ell": params.ell,
        "transitivity": "ok",
        "product_formula": "ok",
    }


def _match_root_tables(small, big):
    """Index map small -> big.  Lifting y-free coordinates is a ring map and
    a table index is a discrete log, so one snap settles it: the lift of g,
    entry 1, snaps to index j, and entry k = g^k maps to j k mod p^l.  Only
    g is checked y-free; its powers stay in Z_p[pi]."""
    g, s_small, s_big = small.elements[1], small.ring.s, big.ring.s
    if any(c for i, c in enumerate(g.co) if i % s_small):
        raise ReportedMismatch("the generator of mu_(p^l) is not y-free")
    co = [0] * big.ring.dim
    co[::s_big] = g.co[::s_small]
    j, _ = big.snap(RingElem(big.ring, tuple(co), g.prec))
    return {k: j * k % small.order for k in range(small.order)}


def omega_factorization_check(params, r, degree):
    """Omega_{l,sr,t} = prod_i Omega_{l,s,t}(x^(q^i)) as a series identity.

    Omega_{2,s,t}(x0, x1) = A(x0) B(x1) with A = theta_{1,s}(1)(t x) and
    B = theta_{0,s}(1)(t^p x), and A', B' the same at s r.  Once all four
    constant terms are checked to be exactly 1, the bivariate identity
    A'(x0) B'(x1) = prod_i A(x0^(q^i)) B(x1^(q^i)) up to total degree D is
    equivalent to the two univariate ones A' = prod_i A(x^(q^i)) and
    B' = prod_i B(x^(q^i)) up to degree D: set x1 = 0, then x0 = 0;
    conversely, multiply them.  A factor with q^i > D is then 1 and is
    skipped.  Each packed product is floored at the least precision of its
    own factors, so each comparison is at no lower precision than the
    bivariate product, whose floor was the least over both chains.  A and B
    are the system's ``omega_factors`` truncated to D, which may be below
    the configuration's degree, not above it (InvalidParameter): D bounds
    this identity, not a kernel.
    """
    if params.ell != 2:
        raise InvalidParameter(f"the factorization check is over W_2, not W_{params.ell}")
    check_int("series degree D", degree, 1)
    if degree > params.degree:
        raise InvalidParameter(
            f"factorization check at D = {degree} above the configuration's degree {params.degree}"
        )
    base = CharacterSystem(params)
    q = base.field.q
    ring = base.ring
    one = ring.one().co
    tpj = base.t
    for j, factor in enumerate(base.omega_factors):
        factor = factor.truncate(degree)
        # theta_{m,sr}(1) over the base ring: it has the same coefficients
        lhs = theta_one_series(ring, 1 - j, params.s * r, degree).compose_scale(tpj)
        tpj = tpj**params.p
        if lhs.coeffs[0].co != one or factor.coeffs[0].co != one:
            raise ReportedMismatch(f"Omega factor {j} has a constant term other than 1")
        rhs = factor
        for i in range(1, r):
            if q**i <= degree:
                rhs = rhs * factor.compose_xpow(q**i)
        if not lhs == rhs:
            raise ReportedMismatch(f"splitting-function factorization fails in factor {j}")
    return True
