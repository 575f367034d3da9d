"""Test-only helpers on the package's types, kept out of ``src/``: no module
of the package calls them.

``random_integral_unit`` draws test inputs, ``map_exponents`` rewrites a
``UniversalPoly``'s monomials for the ghost identities, and
``matrix_trace`` and ``roots_of_unity_sum_check`` are the plain forms of
the trace of alpha's matrix and of the character sum over mu_{q-1}, and
``gauss_brute_per_term`` the Gauss sum as one ring product per term, the
oracle of ``gausstrace.gauss_brute``.  ``gauss_valuation`` is the Gauss
valuation by its definition, a v_p per coordinate, the oracle of
``TowerRing.val_co``.  ``embed_from_lower`` embeds a ring of the level tower
into a higher one.  ``series2_constant`` and ``series2_terms`` build a
constant ``TruncSeries2`` and list a series' nonzero coefficients.
"""

from wittlab.errors import RingMismatch
from wittlab.rings import RingElem
from wittlab.series import TruncSeries2
from wittlab.wittvec import WittVec


def series2_constant(ring, degree, value):
    out = TruncSeries2(ring, degree)
    out.rows[0][0] = value
    return out


def series2_terms(series):
    for i in range(series.degree + 1):
        for j in range(series.degree + 1 - i):
            c = series.rows[i][j]
            if any(c.co):
                yield i, j, c


def embed_from_lower(ring, x):
    """Ring embedding of ``x`` from a lower level into ``ring``:
    pi_low -> F^(m - low)(pi_m)."""
    low = x.ring
    compatible = (
        low.p == ring.p
        and low.s == ring.s
        and low.nprec == ring.nprec
        and low.m <= ring.m
        and (low.m == -1 or low.lt == ring.lt)
    )
    if not compatible:
        raise RingMismatch("incompatible rings for embedding")
    base = ring.one() if low.m < 0 else ring.pi_level(low.m)
    acc, power = ring.zero(), ring.one()
    for i in range(low.e):
        row = x.co[i * low.s : (i + 1) * low.s]
        if any(row):
            acc = acc + power * ring.from_ur(row)
        power = power * base
    scale = ring.e // max(low.e, 1)
    return RingElem(ring, acc.co, min(x.prec * scale, ring.cap))


def gauss_valuation(ring, co):
    """min_i (i // s + e v_p(c_i)) over integer coordinates, v_p capped at N
    (so ``ring.cap`` for a tuple of multiples of p^N), row by row."""
    p, e, s, n = ring.p, ring.e, ring.s, ring.nprec
    best = ring.cap
    for i in range(e):
        vrow = n
        for c in co[i * s : (i + 1) * s]:
            v = 0
            while c and c % p == 0 and v < n:
                c //= p
                v += 1
            if c and v < vrow:
                vrow = v
        best = min(best, i + e * vrow)
    return best


def random_integral_unit(ring, rng):
    while True:
        x = ring.random(rng)
        if x.valuation() == 0:
            return x


def map_exponents(poly, fn):
    """Apply fn to every decoded exponent vector (e.g. x -> x^p)."""
    out = {}
    for k, v in poly.terms.items():
        key = poly._key(enumerate(fn(poly._decode(k))))
        out[key] = out.get(key, 0) + v
    return poly._same_shape({k: v for k, v in out.items() if v})


def matrix_trace(basis, matrix):
    acc = None
    for k in range(len(basis)):
        acc = matrix[k][k] if acc is None else acc + matrix[k][k]
    return acc


def roots_of_unity_sum_check(system, max_power):
    """sum_{x in mu_{q-1}} x^n = q-1 if (q-1) | n else 0, in the ring."""
    ring = system.ring
    points = [system.ring.teichmuller(u) for u in system.field.units()]
    q = system.field.q
    for n in range(max_power + 1):
        acc = ring.zero()
        for x in points:
            acc = acc + x**n
        expect = ring.from_int(q - 1) if n % (q - 1) == 0 else ring.zero()
        if not acc == expect:
            return False
    return True


def gauss_brute_per_term(system, chi_m, chi_b):
    """-sum psi(z) chi(z) in both conventions, one ``RingElem`` product per
    z of W_2(F_q)^*: psi(z) from the exhaustive table times
    ``chi_value``; 'full' sums z_1 over F_q, 'units' over F_q^*."""
    field = system.field
    table = system.character_table()
    column = units = system.ring.zero()
    for z0 in field.units():
        for z1 in field.elements():
            z = WittVec(field, [z0, z1])
            term = system.mu_table.elements[table.index_of(z)] * system.chi_value(chi_m, chi_b, z)
            if z1:
                units = units + term
            else:
                column = column + term
    return {"full": -(units + column), "units": -units}
