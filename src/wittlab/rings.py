"""Exact p-adic coefficient rings with pi-adic precision tracking.

A ring here is Z/p^N, the unramified extension Z_p[y]/(h) mod p^N, a
Lubin-Tate layer O_m = Z_p[pi]/(E_m) mod p^N, or the composite of the two.
Elements are stored on the canonical basis pi^i y^j (i < e = p^m(p-1),
j < s) with integer coordinates mod p^N, plus a declared absolute pi-adic
precision.  The Gauss valuation min_i (i + e*v_p(c_i)) is exact on this
basis because E_m is Eisenstein.

A product is formed on the product block: (2e-1)(2s-1) integer slots,
slot i(2s-1) + j holding pi^i y^j for i < 2e - 1 and j < 2s - 1.  An element
sits on ``TowerRing.slots`` (i < e, j < s), so in one convolution of two
spread elements the y-degrees of a pi-degree stay in its own 2s - 1 slots.
``TowerRing.fold_block`` folds blocks onto the basis (``SeriesPacking.unpack``
folds many at once, as wide ints).  When e = 1 or s = 1 the block is one
polynomial, and ``mul_co`` takes ``fields.mul_mod``, which folds with the same rows.

E_m is built from the Lubin-Tate series F(T) = pT + T^p + pT^2 G(T) as
F^(m+1)(T)/F^m(T) = F(u)/u with u = F^m(T), an exact integer polynomial
composition, then reduced and certified Eisenstein.  ``RingElem`` is the one
arithmetic of a ring: the Frobenius lift sigma(y) is found by Newton in the
ring itself, and the Teichmueller lifts are powers of one lifted generator.
"""

from __future__ import annotations

import functools
import math
import struct
from collections import namedtuple

from .errors import (
    InvalidParameter,
    NonEisenstein,
    NotDivisible,
    NotUnit,
    ReportedMismatch,
    RingMismatch,
    SeedNotConverging,
    check_int,
)
from .fields import (
    convolve,
    finite_field,
    is_prime,
    min_poly_coeffs,
    mul_mod,
    pow_ladder,
    reduction_rows,
)


class Record:
    """A frozen ``namedtuple`` record whose ``__new__`` validates and fills
    defaults; ``replace``, ``_replace`` and ``_make`` (which a plain one runs
    without ``__new__``) go through it, so no path skips the validation."""

    __slots__ = ()

    def replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self), **changes))

    _replace = replace

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


@functools.lru_cache(maxsize=None)
def _cyclotomic(p):
    """F(T) = (1+T)^p - 1, built once per p: G has the coefficients C(p, k)/p,
    2 <= k < p."""
    return LubinTateSeries(p, tuple(math.comb(p, k) // p for k in range(2, p)))


class LubinTateSeries(Record, namedtuple("LubinTateSeries", "p g_coeffs")):
    """F(T) = pT + T^p + p T^2 G(T) over a prime p, given by the coefficients of G."""

    __slots__ = ()

    def __new__(cls, p, g_coeffs=()):
        check_int("p", p)
        if not is_prime(p):
            raise InvalidParameter(f"p = {p} is not prime")
        if not isinstance(g_coeffs, (tuple, list)):
            raise InvalidParameter(f"G's coefficients {g_coeffs!r} are not a tuple or list")
        for g in g_coeffs:
            check_int("a coefficient of G", g)
        return super().__new__(cls, p, tuple(g_coeffs))

    @classmethod
    def plain(cls, p):
        return cls(p, ())

    cyclotomic = staticmethod(_cyclotomic)

    def f_coeffs(self):
        """Coefficient list of F over Z (index = degree)."""
        p = self.p
        deg = max(p, 2 + len(self.g_coeffs) - 1) if self.g_coeffs else p
        co = [0] * (deg + 1)
        co[1] = p
        co[p] += 1
        for k, g in enumerate(self.g_coeffs):
            co[2 + k] += p * g
        return co

    def tag(self):
        if not self.g_coeffs:
            return "plain"
        if self == _cyclotomic(self.p):
            return "cyclotomic"
        return "custom" + "_".join(str(g) for g in self.g_coeffs)


def _poly_compose(f, g):
    """f(g(T)) for integer coefficient lists, exact."""
    acc = [0]
    for c in reversed(f):
        acc = convolve(acc, g)
        acc[0] += c
    while len(acc) > 1 and acc[-1] == 0:
        acc.pop()
    return acc


def lt_iterate_exact(lt, n):
    """F^n(T) over Z as an exact coefficient list; F^0 = T."""
    acc = [0, 1]
    f = lt.f_coeffs()
    for _ in range(n):
        acc = _poly_compose(f, acc)
    return acc


def eisenstein_poly(lt, m):
    """E_m(T) = F^(m+1)/F^m = (F(T)/T)(u), u = F^m(T), over Z."""
    return _poly_compose(lt.f_coeffs()[1:], lt_iterate_exact(lt, m))


class RingSpec(Record, namedtuple("RingSpec", "p s m lt nprec")):
    """p, unramified degree s, Lubin-Tate level m (-1 = none), series, N."""

    __slots__ = ()

    def __new__(cls, p, s=1, m=-1, lt=None, nprec=16):
        for name, value in (("p", p), ("s", s), ("m", m), ("N", nprec)):
            check_int(name, value)
        if s < 1 or m < -1 or nprec < 1:
            raise InvalidParameter(
                f"need s >= 1, m >= -1 and N >= 1, have s = {s}, m = {m}, N = {nprec}"
            )
        if not (lt is None or isinstance(lt, LubinTateSeries)):
            raise InvalidParameter(f"lt = {lt!r} is not a LubinTateSeries")
        if m >= 0 and (lt is None or lt.p != p):
            raise InvalidParameter(f"level m = {m} needs a Lubin-Tate series for p = {p}")
        return super().__new__(cls, p, s, m, lt, nprec)


@functools.lru_cache(maxsize=None)
def make_ring(spec):
    return TowerRing(spec)


def ring_of(p, s=1, m=-1, lt=None, nprec=16):
    return make_ring(RingSpec(p, s, m, lt, nprec))


class RingElem:
    """Element on the basis pi^i y^j; co is a flat tuple, index i*s + j."""

    __slots__ = ("ring", "co", "prec")

    def __init__(self, ring, co, prec=None):
        self.ring = ring
        self.co = co
        cap = ring.cap
        self.prec = cap if prec is None or prec > cap else prec

    def _binary(self, other):
        if not isinstance(other, RingElem):
            raise RingMismatch(f"cannot combine RingElem with {type(other).__name__}")
        if other.ring is not self.ring:
            raise RingMismatch("elements live in different rings")
        return other

    def __add__(self, other):
        other = self._binary(other)
        pn = self.ring.pn
        co = tuple((a + b) % pn for a, b in zip(self.co, other.co))
        return RingElem(self.ring, co, min(self.prec, other.prec))

    def __sub__(self, other):
        other = self._binary(other)
        pn = self.ring.pn
        co = tuple((a - b) % pn for a, b in zip(self.co, other.co))
        return RingElem(self.ring, co, min(self.prec, other.prec))

    def __neg__(self):
        pn = self.ring.pn
        return RingElem(self.ring, tuple(-a % pn for a in self.co), self.prec)

    def __mul__(self, other):
        other = self._binary(other)
        co = self.ring.mul_co(self.co, other.co)
        return RingElem(self.ring, co, min(self.prec, other.prec))

    def __pow__(self, n):
        check_int("exponent", n)
        if n < 0:
            raise InvalidParameter(f"exponent {n} is negative; use inverse()")
        if n == 0:
            return RingElem(self.ring, self.ring.one().co, self.prec)
        return pow_ladder(self, n)

    def scale_int(self, c):
        check_int("scale", c)
        pn = self.ring.pn
        return RingElem(self.ring, tuple(a * c % pn for a in self.co), self.prec)

    def from_int_like(self, c):
        return self.ring.from_int(c)

    def __eq__(self, other):
        """Congruent at the minimum of the two declared precisions."""
        if not isinstance(other, RingElem) or other.ring is not self.ring:
            return NotImplemented
        if self.co == other.co:  # v = cap >= either precision
            return True
        v = self.ring.val_co([a - b for a, b in zip(self.co, other.co)])
        return v >= min(self.prec, other.prec)

    def __hash__(self):  # pragma: no cover - elements are not dict keys
        raise TypeError("RingElem is unhashable (equality is at precision)")

    def is_zero(self):
        return self.valuation() >= self.prec

    def valuation(self):
        """Gauss valuation in pi-units (v(pi)=1, v(p)=e); ``ring.cap`` when 0."""
        return self.ring.val_co(self.co)

    def residue(self):
        """Image in the residue field F_q (pi -> 0, mod p)."""
        ring = self.ring
        return ring.residue_field.from_coeffs(self.co[: ring.s])

    def exact_div_p(self, k=1):
        check_int("k", k, 0)
        ring = self.ring
        pk = ring.p**k
        for c in self.co:
            if c % pk:
                raise NotDivisible(f"element is not divisible by p^{k} at precision")
        co = tuple(c // pk for c in self.co)
        return RingElem(ring, co, max(0, self.prec - k * ring.e))

    def phi(self, k=1):
        """Frobenius absolu: identity on pi, sigma^k on the unramified part."""
        check_int("k", k)
        co = self.co
        for _ in range(k % self.ring.s):
            co = self.ring.phi_co(co)
        return RingElem(self.ring, co, self.prec)

    def inverse(self):
        """Inverse of a unit (valuation 0), by Hensel from the residue field."""
        if self.valuation() != 0:
            raise NotUnit("element has positive valuation")
        ring = self.ring
        res_inv = self.residue().inverse()
        w = ring.from_ur(tuple(res_inv.co))
        two = ring.from_int(2)
        for _ in range(ring.cap.bit_length() + 2):
            err = two - self * w
            w = w * err
        if not (self * w - ring.one()).is_zero():
            raise SeedNotConverging("Hensel inverse did not converge")
        return RingElem(ring, w.co, self.prec)

    def to_json_obj(self):
        ring = self.ring
        coords = [list(row) for row in zip(*[iter(self.co)] * ring.s)]
        return {
            "level": ring.m,
            "s": ring.s,
            "N": ring.nprec,
            "coords": coords,
            "prec": self.prec,
        }

    def __repr__(self):
        ring = self.ring
        parts = []
        for i in range(ring.e):
            for j in range(ring.s):
                c = self.co[i * ring.s + j]
                if c:
                    mono = "".join(
                        [f"pi^{i}" if i else "", f"y^{j}" if j else ""]
                    )
                    parts.append(f"{c}{('*' + mono) if mono else ''}")
        body = " + ".join(parts) if parts else "0"
        return f"<{body} @prec {self.prec} in {ring!r}>"


class TowerRing:
    """Z/p^N [y]/(h) [pi]/(E_m) with  e = p^m(p-1)  (e = 1 when m = -1)."""

    def __init__(self, spec):
        self.spec = spec
        self.p = spec.p
        self.s = spec.s
        self.m = spec.m
        self.lt = spec.lt
        self.nprec = spec.nprec
        self.pn = spec.p**spec.nprec
        self.e = 1 if spec.m < 0 else spec.p**spec.m * (spec.p - 1)
        self.dim = self.e * self.s
        self.cap = self.e * spec.nprec
        self._logs = {spec.p**k: k for k in range(spec.nprec)}  # val_co's p^v -> v
        rs = 2 * spec.s - 1
        self.slots = tuple(i * rs + j for i in range(self.e) for j in range(spec.s))
        self.residue_field = finite_field(spec.p, spec.s)
        self.h_coeffs = min_poly_coeffs(spec.p, spec.s)  # monic lift with digits in [0, p)
        self.yred = reduction_rows(self.h_coeffs, self.pn)
        self._build_eisenstein()
        self.sigma_pows = self._sigma_pows()
        self._specs = {}  # nprec -> RingSpec; with_precision keeps no ring

    def __repr__(self):
        lt = self.lt.tag() if self.lt else "-"
        return f"Ring(p={self.p},s={self.s},m={self.m},{lt},N={self.nprec})"

    # -- construction ------------------------------------------------------------

    def _build_eisenstein(self):
        if self.m < 0:
            self.eis_coeffs = None
            self.pired = ()
            return
        p, pn, e = self.p, self.pn, self.e
        eis = eisenstein_poly(self.lt, self.m)
        if len(eis) - 1 != e:
            raise NonEisenstein(
                f"E_{self.m} has degree {len(eis)-1}, expected {e} (deg G too large?)"
            )
        lead = eis[-1] % pn
        if lead % p == 0:
            raise NonEisenstein("leading coefficient of E_m is not a unit")
        ilead = pow(lead, -1, pn)
        eis = [c * ilead % pn for c in eis]
        if any(c % p for c in eis[:-1]):
            raise NonEisenstein("non-leading coefficient of E_m not divisible by p")
        if eis[0] % p**2 == 0:
            raise NonEisenstein("constant term of E_m divisible by p^2")
        self.eis_coeffs = tuple(eis)
        self.pired = reduction_rows(eis[:-1], pn)

    def _sigma_pows(self):
        """sigma(y)^j for j < s, sigma(y) the root of h near y^p, by Newton."""
        s = self.s
        if s == 1:
            return ((1,),)
        hc = self.h_coeffs + (1,)
        dh = [k * c for k, c in enumerate(hc)][1:]
        z = self.y_gen() ** self.p
        for _ in range(self.nprec.bit_length() + 2):
            hz = self.eval_int_poly(hc, z)
            if not any(hz.co):
                break
            z = z - hz * self.eval_int_poly(dh, z).inverse()
        if any(self.eval_int_poly(hc, z).co):
            raise SeedNotConverging("sigma(y) failed to converge")
        pows = [self.one()]
        for _ in range(s - 1):
            pows.append(pows[-1] * z)
        return tuple(x.co[:s] for x in pows)

    # -- element constructors ------------------------------------------------------

    def zero(self):
        return RingElem(self, (0,) * self.dim)

    def one(self):
        return self.from_int(1)

    def from_int(self, c):
        check_int("c", c)
        co = [0] * self.dim
        co[0] = c % self.pn
        return RingElem(self, tuple(co))

    def from_ur(self, ur_co):
        for c in ur_co:
            check_int("an unramified coordinate", c)
        co = [0] * self.dim
        co[: self.s] = [c % self.pn for c in ur_co]
        return RingElem(self, tuple(co))

    def y_gen(self):
        if self.s < 2:
            raise InvalidParameter("y exists only when s > 1")
        co = [0] * self.dim
        co[1] = 1
        return RingElem(self, tuple(co))

    def pi(self):
        """The uniformizer pi_m of this level (requires m >= 0)."""
        if self.m < 0:
            raise InvalidParameter("pi exists only at a level m >= 0")
        if self.e == 1:
            return self.from_int(-self.eis_coeffs[0])
        co = [0] * self.dim
        co[self.s] = 1
        return RingElem(self, tuple(co))

    def pi_level(self, m_low):
        """pi_{m_low} inside this ring: F^(m - m_low) applied to pi_m."""
        if not 0 <= m_low <= self.m:
            raise InvalidParameter(f"level {m_low} outside 0..{self.m}")
        got, f = self.pi(), self.lt.f_coeffs()
        for _ in range(self.m - m_low):
            got = self.eval_int_poly(f, got)
        return got

    def eval_int_poly(self, coeffs, x):
        acc = self.zero()
        acc = RingElem(self, acc.co, x.prec)
        for c in reversed(coeffs):
            acc = acc * x + self.from_int(c)
        return acc

    def random(self, rng, prec=None):
        if prec is not None:
            check_int("precision", prec, 0)
        co = tuple(rng.randrange(self.pn) for _ in range(self.dim))
        return RingElem(self, co, prec)

    # -- core arithmetic -------------------------------------------------------------

    def mul_co(self, a, b):
        if self.dim == 1:
            return (a[0] * b[0] % self.pn,)
        if self.e == 1 or self.s == 1:
            return mul_mod(a, b, self.yred or self.pired, self.pn)
        v, pn = self.fold_block(convolve(self._spread(a), self._spread(b))), self.pn
        return tuple([v[k] % pn for k in self.slots])

    def pow_co(self, co, n):
        """co^n for n >= 1: Python's pow on Z/p^N, else ``pow_ladder`` on mul_co."""
        return (pow(co[0], n, self.pn),) if self.dim == 1 else pow_ladder(co, n, self.mul_co)

    def _spread(self, co):
        """Coordinates placed on their ``slots``; the gaps are zero."""
        v = [0] * (self.slots[-1] + 1)
        for k, c in zip(self.slots, co):
            v[k] = c
        return v

    def fold_block(self, v):
        """``v``, a product block, folded onto ``slots`` in place and returned:
        the y rows within each pi-degree, then the Eisenstein rows; not mod p^N."""
        e, s, rs = self.e, self.s, 2 * self.s - 1
        for u, yrow in enumerate(self.yred):
            for r in range(s + u, len(v), rs):
                c = v[r]
                if c:
                    for j, y in enumerate(yrow, r - s - u):
                        v[j] += c * y
        for u, prow in enumerate(self.pired):
            base = (e + u) * rs
            for j in range(s):
                c = v[base + j]
                if c:
                    for i, x in enumerate(prow):
                        v[i * rs + j] += c * x
        return v

    def val_co(self, co):
        """Gauss valuation min_i (i + e v_p(c_i)) of integer coordinates, v_p
        capped at N, in pi-units.  A nonzero tuple mod p^N reads below
        ``cap`` = eN, a zero reads ``cap``: it is known mod pi^cap and no
        further.  One gcd with p^N gives p^v, v the least v_p of a
        coordinate, so the valuation is e v plus the first pi-row holding a
        coordinate that p^(v+1) does not divide.  The coordinates need not be
        reduced mod p^N: a difference of two tuples reads as its residue."""
        pn = self.pn
        g = math.gcd(pn, *co)
        if g == pn:
            return self.cap
        pv = g * self.p
        for k, c in enumerate(co):
            if c % pv:
                return self.e * self._logs[g] + k // self.s

    def phi_co(self, co):
        e, s, pn = self.e, self.s, self.pn
        out = []
        for i in range(e):
            row = co[i * s : (i + 1) * s]
            acc = [0] * s
            for j, c in enumerate(row):
                if c:
                    sp = self.sigma_pows[j]
                    for k in range(s):
                        acc[k] += c * sp[k]
            out.extend(c % pn for c in acc)
        return tuple(out)

    # -- Teichmueller ---------------------------------------------------------------

    def teichmuller(self, u):
        """The unique q-power-fixed lift of u in F_q.  It lies in the
        unramified subring (``_teich_table`` checks it): the sum of its first
        s coordinates times y^k, so a product by it is linear in them."""
        return _teich_table(self)[self._residue_key(u)]

    def teich_powers(self, u):
        """The first s coordinates of Teich(u)^j = Teich(u^j), j < q - 1, as
        one flat tuple (those of 1 at u = 0), from one table per ring."""
        return _teich_powers(self)[self._residue_key(u)]

    def _residue_key(self, u):
        if u.field is not self.residue_field:
            raise RingMismatch("residue field mismatch for Teichmueller lift")
        return u.co

    # -- headroom ---------------------------------------------------------------------

    def with_precision(self, nprec):
        if nprec not in self._specs:
            self._specs[nprec] = RingSpec(self.p, self.s, self.m, self.lt, nprec)
        return make_ring(self._specs[nprec])


@functools.lru_cache(maxsize=None)
def _teich_table(ring):
    """Every Teichmueller lift of ``ring``, keyed by its residue's
    coordinates, built once per ring: 0, then the powers Teich(g)^i in
    order, g a generator of F_q^* and Teich(g) the fixed point of x -> x^q
    from g.  Teich(g)^(q-1) = 1 makes every power q-power-fixed.  Every lift
    lies in the unramified subring, its coordinates past the first s zero;
    ReportedMismatch if one does not."""
    fq = ring.residue_field
    g, q = fq.multiplicative_generator(), fq.q
    z = ring.from_ur(g.co)
    for _ in range(ring.nprec + 2):
        nz = z**q
        if nz.co == z.co:
            break
        z = nz
    if (z ** (q - 1)).co != ring.one().co:
        raise SeedNotConverging("Teichmueller iteration did not stabilize")
    table = {fq.zero().co: ring.zero()}
    lift, res = ring.one(), fq.one()
    for _ in range(q - 1):
        table[res.co] = lift
        lift, res = lift * z, res * g
    if any(any(lift.co[ring.s :]) for lift in table.values()):
        raise ReportedMismatch("a Teichmueller lift lies outside the unramified subring")
    return table


@functools.lru_cache(maxsize=None)
def _teich_powers(ring):
    """``TowerRing.teich_powers``' table, keyed like ``_teich_table``, which
    holds 0, then Teich(g^i), i < q - 1, in order: Teich(g^i)^j is its entry
    i j mod q - 1, exactly, since Teich(g)^(q-1) = 1 (checked there)."""
    keys, lifts = zip(*list(_teich_table(ring).items())[1:])
    n, cos = len(lifts), [lift.co[: ring.s] for lift in lifts]
    table = {key: sum((cos[i * j % n] for j in range(n)), ()) for i, key in enumerate(keys)}
    table[ring.residue_field.zero().co] = ring.one().co[: ring.s]
    return table


class SeriesPacking:
    """Series over a TowerRing packed into one int (Kronecker substitution).

    Degree d occupies one product block (see the module docstring): the
    (2e-1)(2s-1) slots from slot d(2e-1)(2s-1) on, ``width`` bytes each, a
    factor's coordinates on ``ring.slots``.  So one big-int multiply forms
    every product of a series convolution.  A product slot is at most
    B = n*e*s*(p^N - 1)^2, n the length of the shorter factor: the width
    holds B.  ``unpack`` turns slot k of every block it reads into one int,
    ``spacing`` bytes an entry, and folds these.  Row entries lie in
    [0, p^N) and a folded slot adds s - 1 y-row multiples of slots, then e - 1
    Eisenstein-row ones, so the spacing holds B (1 + (s-1)(p^N-1)) (1 + (e-1)(p^N-1)),
    rounded up to whole 64-bit words.

    Coordinates go in and out as columns of 64-bit words: a coordinate takes
    ``words`` of them (p^N - 1 fits in ``lanes`` bytes), a folded entry
    ``spacing // 8``.  Words go through ``struct`` as little-endian, whatever
    the host's byte order.
    """

    __slots__ = ("ring", "width", "block", "spacing", "lanes", "words")

    def __init__(self, ring, n):
        self.ring = ring
        bound = n * ring.e * ring.s * (ring.pn - 1) ** 2
        self.width = (bound.bit_length() + 7) // 8
        self.block = (2 * ring.e - 1) * (2 * ring.s - 1) * self.width
        bound *= (1 + (ring.s - 1) * (ring.pn - 1)) * (1 + (ring.e - 1) * (ring.pn - 1))
        self.spacing = 8 * ((bound.bit_length() + 63) // 64)
        self.lanes = ((ring.pn - 1).bit_length() + 7) // 8
        self.words = (self.lanes + 7) // 8

    def pack(self, columns, lengths):
        """One int for each series of a batch, series t at degrees 0 ..
        lengths[t] - 1.  ``columns[i]`` lists coordinate i (in [0, p^N)) of
        every degree of every series, series after series.  Each column is
        cut into ``words`` columns of 64-bit words, each written out by one
        ``struct.pack``, and each byte lane of a coordinate lands in its slot
        of every block by one strided copy."""
        width, block, lanes, words = self.width, self.block, self.lanes, self.words
        buf = bytearray(block * sum(lengths))
        for k, col in zip(self.ring.slots, columns):
            for w in range(words):
                part = col if words == 1 else [c >> 64 * w & _WORD for c in col]
                raw = struct.pack(f"<{len(part)}Q", *part)
                for b in range(8 * w, min(8 * w + 8, lanes)):
                    buf[k * width + b :: block] = raw[b - 8 * w :: 8]
        view, ints, o = memoryview(buf), [], 0
        for n in lengths:
            ints.append(int.from_bytes(view[o : o + n * block], "little"))
            o += n * block
        return ints

    def truncate(self, packed, degree):
        """The packed series cut to degrees <= ``degree``."""
        return packed & ((1 << (8 * self.block * (degree + 1))) - 1)

    def unpack(self, products):
        """Canonical coordinates at degrees 0..count-1 of each (packed, count)
        pair in ``products``, as columns: entry i lists coordinate i of every
        degree read, in order.  Only these prefixes are kept, one
        ``fold_block`` reduces them all as columns, and each folded column is
        read as 64-bit words, joined ``spacing // 8`` to an entry and reduced
        mod p^N once."""
        width, block, spacing, ring = self.width, self.block, self.spacing, self.ring
        blocks = bytearray()
        for packed, count in products:
            blocks += self.truncate(packed, count - 1).to_bytes(block * count, "little")
        size = len(blocks) // block * spacing
        column, columns = bytearray(size), []
        for k in range(0, block, width):
            for b in range(width):
                column[b::spacing] = blocks[k + b :: block]
            columns.append(int.from_bytes(column, "little"))
        del blocks
        ring.fold_block(columns)
        pn, words, out = ring.pn, spacing // 8, []
        for k in ring.slots:
            vals = struct.unpack(f"<{size // 8}Q", columns[k].to_bytes(size, "little"))
            entries = vals[words - 1 :: words]
            for w in range(words - 2, -1, -1):
                entries = [x << 64 | v for x, v in zip(entries, vals[w::words])]
            out.append([x % pn for x in entries])
        return out

    def product(self, a, b, count):
        """Coordinate tuples at degrees 0..count-1 of the product of two
        series, each a list of coordinate tuples by degree."""
        fa, fb = self.pack(list(zip(*a, *b)), [len(a), len(b)])
        return list(zip(*self.unpack([(fa * fb, count)])))


_WORD = (1 << 64) - 1


def nondegenerate_trace(ring, t):
    """Tr(t) for a Teichmueller element, computed two ways; True iff unit.

    Returns (is_nondegenerate, trace_elem).  The Galois sum over phi powers
    must agree with sum t^(p^j); both are computed and compared.
    """
    s = ring.s
    tr_phi = t
    acc = t
    for _ in range(s - 1):
        acc = acc.phi()
        tr_phi = tr_phi + acc
    tr_pow = t
    acc = t
    for _ in range(s - 1):
        acc = acc ** ring.p
        tr_pow = tr_pow + acc
    if not tr_phi == tr_pow:
        raise ReportedMismatch("two trace computations disagree")
    v = tr_phi.valuation()
    return (v == 0, tr_phi)
