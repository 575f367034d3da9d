"""Gauss sums over W_2(F_q): brute force vs the Dwork-style operator trace.

The kernel H(x0, x1) = -Omega_2(x0, x1) x0^m Omega_1(Teich(b) x1 x0^(p(q-2)))
packs the additive and multiplicative characters into one bivariate series;
alpha = Dw_q o mult_H acts on truncations, its trace is the certified
partial sum of the (q-1)-strided diagonal, and the trace formula predicts
g = (q-1)^2 Tr(alpha) for one of the two summation conventions.  The sum
needs two things: the total of that diagonal, and a lower bound on each
shell's least valuation for the tail certificate.  ``kernel_shells``
computes both from the univariate factors, forming no single coefficient:
the total sums Omega_1's terms times running sums of the residue-class
products of Omega_2's factors, which each system forms once (Kronecker
substitution, ``rings.SeriesPacking``).  Every series is truncated at the
system's one degree D, ``CharParams.degree``: a check at another D is a
check on another configuration.  Omega_1's terms are theta0[k] t^k
Teich(b)^k and Teich(b)^(q-1) = 1 exactly, so the total is a sum of
Teich(b^j) F_j, j < q - 1, whose parts depend on chi only through m and
whether b is 0, and it is linear in the s coordinates of each Teich(b^j):
a system builds at most 2 (q - 1) integer matrices, column (j, k) the
coordinates of -F_j y^k, and a check is one dot product per coordinate
with those of the Teich(b^j) (``TowerRing.teich_powers``).  The floors
are the min-plus convolutions of the same factors' valuations (the
Newton-polygon bound for a product), kept with the matrix, since Teich(b)
is a unit.
``gauss_brute`` is the Gauss sum in closed form by stationary phase: the
sum over z_1 is a character sum over F_q, q at one point x_b of F_q^* and 0
elsewhere.  Its q - 1 terms Teich(x^m) psi([x]), read from psi's table
indices at [x] (``CharacterSystem.psi_parts``, 2q - 1 snaps), and their sum
depend only on chi_m, so a system forms them once per chi_m
(``brute_terms``), and a check scales the term at x_b
(``CharacterSystem.stationary_points``, found once per system) and adds
the sum.
The full kernel (``kernel_H``) stays schoolbook through ``TruncSeries2``: it
serves the alpha matrix, and ``diagonal_lattice`` of it, with the actual
shell minima, is the independent oracle the tests compare the diagonal with.

The definition sums z_1 over all of F_q; the diagonal-selection identity
behind the trace formula sums both variables over mu_{q-1}.  Both
conventions are computed and compared, and the report records which one
matches; the z_1 = 0 column is exactly their difference.
"""

from __future__ import annotations

import math
import time
from operator import mul

from .characters import check_target, shared_system
from .errors import InvalidParameter, NoConventionMatches, PrecisionNotReached, TruncationTooSmall
from .rings import RingElem, check_int
from .series import TruncSeries2, certify_tail


class GaussConfig:
    """Character data and target precision for one run; the kernel is
    truncated at the configuration's series degree ``params.degree``."""

    def __init__(self, params, chi_m=0, chi_b_index=0, target_prec=None):
        q = params.p**params.s
        if params.ell != 2:
            raise InvalidParameter(f"the trace formula is over W_2, not W_{params.ell}")
        check_int("chi_m", chi_m)
        if not 0 <= chi_m < q - 1:
            raise InvalidParameter(f"chi_m = {chi_m} outside 0..{q - 2}")
        check_int("chi_b index", chi_b_index)
        if not 0 <= chi_b_index < q:
            raise InvalidParameter(f"chi_b index {chi_b_index} outside 0..{q - 1}")
        check_target(target_prec)
        self.params = params
        self.chi_m = chi_m
        self.chi_b_index = chi_b_index
        self.target_prec = target_prec

    def describe(self):
        out = self.params.describe()
        out.update({"chi": {"m": self.chi_m, "b": self.chi_b_index}})
        return out


def gauss_brute(system, chi_m, chi_b):
    """-sum psi(z) chi(z) over the units z of W_2(F_q), in closed form:
    'full' sums z_1 over F_q (the definition), 'units' over F_q^*, matching
    the diagonal selection in the trace formula.

    x -> x^p is a bijection of F_q, so z = [x] + V[x^p w] for one x in F_q^*
    and one w in F_q, and chi's psi_1 argument b x^(p(q-2)) x^p w is b w.  So
    psi(z) chi(z) = psi([x]) Teich(x^m) c_x(w), where c_x(w) = psi(V[x^p w])
    psi_1(b w) is a character of F_q (V is additive on W_2): its sum over w
    is q if it is trivial, else 0.  psi(V[y]) = e(Tr(c_1 y)) and psi_1(y) =
    e(Tr(c_2 y)) with c_1, c_2 != 0 (psi has order p^2, so it is not trivial
    on V W_1 = p W_2), so c_x is trivial iff c_1 x^p = -c_2 b: at one x_b for
    b != 0, at none for b = 0.  Hence full = -q Teich(x_b^m) psi([x_b]), 0 at
    b = 0, and units = full + sum_x Teich(x^m) psi([x]), the column z_1 = 0
    put back.  psi's indices are ``psi_parts``, x_b is ``stationary_points``
    (refused unless unique), and both values are at the roots' precision.
    The terms and their sum, q - 1 ring products, are formed once per
    system and chi_m (``brute_terms``); a call is then a scaling and a sum.
    """
    ring, got = system.ring, system.brute_terms.get(chi_m)
    if got is None:
        roots, logs = system.mu_table.elements, system.psi_parts[0]
        terms = {
            x.index(): ring.teichmuller(x**chi_m) * roots[logs[x.index()]]
            for x in system.field.units()
        }
        got = system.brute_terms[chi_m] = terms, sum(terms.values(), ring.zero())
    terms, column = got
    if chi_b:
        full = terms[system.stationary_points[chi_b.index()].index()].scale_int(-system.field.q)
    else:
        full = RingElem(ring, ring.zero().co, column.prec)
    return {"full": full, "units": full + column}


def _check_fits(system, chi_m, chi_b):
    """Refuse a system degree below H's lowest term (TruncationTooSmall)."""
    stride, degree = system.params.p * (system.field.q - 2), system.params.degree
    if chi_m + (stride + 1 if chi_b else 0) > degree:
        raise TruncationTooSmall(
            f"kernel needs degree > {chi_m + stride + 1}, have {degree}"
        )


def kernel_H(system, chi_m, chi_b):
    """The bivariate kernel, truncated at the system's total degree D.

    Every coefficient, built through ``TruncSeries2``: Omega_2 = A(x0) B(x1)
    times one sparse product by Omega_1's terms (a, b, c), each taken as
    (a + m, b, -c), which carries the shift by x0^m and the sign.  The trace
    formula reads only the diagonal of ``kernel_shells``, which is computed
    from the same factors.
    """
    _check_fits(system, chi_m, chi_b)
    omega2 = TruncSeries2.outer(*system.omega_factors, system.params.degree)
    return omega2.mul_sparse([(a + chi_m, b, -c) for a, b, c in system.omega1_substituted(chi_b)])


def kernel_shells(system, chi_m, chi_b):
    """The (q-1)-strided diagonal of H straight from its factors: (floor,
    total, valuations) in ``diagonal_lattice``'s form, with lower bounds for
    the shell valuations.

    H = -x0^m A(x0) B(x1) C(x0^stride x1), stride = p(q-2) and C the terms
    (k stride, k, c_k) of ``omega1_substituted``.  Shell K, the lattice
    coefficients of total degree (q-1) K, sums to -sum_k c_k [z^d] A^(r)
    B^(r') with d = (q-1) K - m - k (stride + 1), where A^(r) is the part of
    A of degree = r mod q - 1, r = -m - k stride and r' = -k mod q - 1.  With
    w = z^(q-1) and P = A_r B_r' in w, that is -c_k [w^(K - o)] P, o = (m +
    k (stride + 1) + r + r') / (q - 1).  Summed over the shells K <= T =
    D // (q - 1), term k contributes -c_k S[T - o], S the running sums of P
    (``CharacterSystem.omega_class_products``, built once per system); T - o
    is within S since o (q - 1) >= r + r'.

    For b != 0, c_k = theta0[k] t^k Teich(b)^k and Teich(b)^(q-1) = 1
    exactly mod p^N (``TowerRing.teichmuller`` refuses a table without it),
    so the total is -sum_j Teich(b^j) F_j, F_j the sum of theta0[k] t^k S[T
    - o] over the terms with k = j mod q - 1 and o <= T.  At b = 0, C is the
    one term 1 and F_0 its S[T - o].  Teich(b^j) is the sum of its s
    coordinates u_jk times y^k, so coordinate i of the total is row i of
    one integer matrix, column (j, k) the coordinates of -F_j y^k, dotted
    with the u_jk (``TowerRing.teich_powers``; 1 at b = 0).  The F_j depend
    on chi only through m and whether b is 0, so the system keeps that
    matrix (``trace_parts``, built on the key's first check by
    ``_trace_parts``), and each dot product is reduced mod p^N once.

    The valuations are floors: shell K is at least v(c_k) + floors_pair[K -
    o] over the C terms, and at most ``ring.cap``.  ``floor`` is the least
    precision over A, B and C, the one ``kernel_H`` clamps to.  Teich(b) is
    a unit at full precision, so for every b != 0 both are those of the
    terms theta0[k] t^k, and are kept with the matrix.
    """
    _check_fits(system, chi_m, chi_b)
    key = chi_m, bool(chi_b)
    got = system.trace_parts.get(key)
    if got is None:
        got = system.trace_parts[key] = _trace_parts(system, chi_m, chi_b)
    floor, rows, valuations = got
    weights, pn = system.ring.teich_powers(chi_b), system.ring.pn
    return floor, tuple([sum(map(mul, row, weights)) % pn for row in rows]), valuations


def _trace_parts(system, chi_m, chi_b):
    """The ``trace_parts`` entry (floor, rows, valuations) of (chi_m, b !=
    0): the rows of the matrix whose column (j, k) is -F_j y^k mod p^N,
    each product by the ring's ``mul_co``, and the floors from C's terms at
    b = 1, which are theta0[k] t^k, or from the one term 1 at b = 0."""
    ring, step = system.ring, system.field.q - 1
    stride = system.params.p * (step - 1)
    top = system.params.degree // step
    prefixes, floors, prec = system.omega_class_products
    terms = system.omega1_substituted(chi_b and system.field.one())
    parts = [ring.zero()] * (step if chi_b else 1)
    valuations = [ring.cap] * (top + 1)
    for _, k, c in terms:
        r, r2 = (-chi_m - k * stride) % step, -k % step
        o = (chi_m + k * (stride + 1) + r + r2) // step
        if o <= top:
            pair, v = r * step + r2, min(c.valuation(), c.prec)
            parts[k % step] += c * RingElem(ring, prefixes[pair][top - o])
            valuations[o:] = map(min, valuations[o:], map(v.__add__, floors[pair]))
    floor = min([prec] + [c.prec for *_, c in terms])
    ypows = [(0,) * k + (1,) + (0,) * (ring.dim - k - 1) for k in range(ring.s)]
    columns = [ring.mul_co((-part).co, y) for part in parts for y in ypows]
    return floor, tuple(zip(*columns)), tuple(valuations)


def dwork_op(series2, q):
    """Coefficient decimation (n0, n1) <- (q n0, q n1)."""
    out_degree = series2.degree // q
    out = TruncSeries2(series2.ring, out_degree)
    for i in range(out_degree + 1):
        for j in range(out_degree + 1 - i):
            out.rows[i][j] = series2.coefficient(q * i, q * j)
    return out


def diagonal_lattice(series2, q):
    """The (q-1)-strided diagonal of a series as (floor, total, valuations):
    the least precision over the diagonal's coefficients; the coordinates of
    their sum, shell k holding the coefficients b_{(q-1) n0, (q-1)(k - n0)};
    and each shell's least valuation, ``val_co`` of one gcd per coordinate."""
    ring, step = series2.ring, q - 1
    shells = [
        [series2.coefficient(step * n0, step * (k - n0)) for n0 in range(k + 1)]
        for k in range(series2.degree // step + 1)
    ]
    floor = min(c.prec for shell in shells for c in shell)
    valuations = [
        ring.val_co([math.gcd(*col) for col in zip(*(c.co for c in shell))]) for shell in shells
    ]
    total = tuple(sum(col) % ring.pn for col in zip(*(c.co for shell in shells for c in shell)))
    return floor, total, tuple(valuations)


def certified_diagonal_sum(ring, diagonal, target_prec):
    """Certified sum of strided coefficients given as (floor, total,
    valuations), the form of ``kernel_shells`` and ``diagonal_lattice``.

    Returns (value, report).  PrecisionNotReached if a coefficient is known
    to less than the target; TailNotCertified if the shell valuations do not
    certify the target by the window-and-slope rule.
    """
    floor, total, valuations = diagonal
    if floor < target_prec:
        raise PrecisionNotReached(
            f"coefficients known to {floor} pi-digits, target {target_prec}"
        )
    report = certify_tail(valuations, target_prec, ring.cap)
    return RingElem(ring, total, target_prec), {
        "shells": list(valuations),
        "certificate": dict(report),
    }


def alpha_trace(series2, q, target_prec):
    """Certified partial sum of the (q-1)-strided diagonal of ``series2``."""
    return certified_diagonal_sum(
        series2.ring, diagonal_lattice(series2, q), target_prec
    )


def graded_monomials(cutoff):
    out = []
    for total in range(cutoff + 1):
        for n0 in range(total, -1, -1):
            out.append((n0, total - n0))
    return out


def alpha_matrix(series2, q, cutoff):
    """Matrix of alpha = Dw_q o mult_H on monomials of total degree <= cutoff.

    Entry [row m][col n] = b_{q m0 - n0, q m1 - n1} (zero off-range).
    """
    if cutoff * q > series2.degree:
        raise TruncationTooSmall(
            f"alpha at cutoff {cutoff}, q = {q} needs a kernel of degree >= {cutoff * q}, "
            f"have {series2.degree}"
        )
    basis = graded_monomials(cutoff)
    matrix = []
    for m0, m1 in basis:
        row = []
        for n0, n1 in basis:
            row.append(series2.coefficient(q * m0 - n0, q * m1 - n1))
        matrix.append(row)
    return basis, matrix


def alpha_apply_monomial(series2, q, n0, n1):
    """alpha(x0^n0 x1^n1) computed the other way: Dw_q(H * monomial)."""
    ring = series2.ring
    shifted = series2.mul_sparse([(n0, n1, ring.one())])
    return dwork_op(shifted, q)


def trace_formula_check(config):
    """Compare (q-1)^2 Tr(alpha) with both brute-force conventions.

    Returns a report dict; NoConventionMatches if neither convention agrees
    at the target precision, PrecisionNotReached if one agrees but it or
    the scaled trace is declared to less than the target.
    """
    system = shared_system(config.params)
    ring = system.ring
    q = system.field.q
    target = (
        config.target_prec if config.target_prec is not None else 3 * ring.e
    )
    chi_b = system.field.from_index(config.chi_b_index)
    timings = {}

    t0 = time.monotonic()
    diagonal = kernel_shells(system, config.chi_m, chi_b)
    timings["kernel_ms"] = round(1000 * (time.monotonic() - t0), 1)

    t0 = time.monotonic()
    trace_val, trace_report = certified_diagonal_sum(ring, diagonal, target)
    scaled = trace_val.scale_int((q - 1) ** 2)
    timings["trace_ms"] = round(1000 * (time.monotonic() - t0), 1)

    t0 = time.monotonic()
    brute = gauss_brute(system, config.chi_m, chi_b)
    timings["brute_ms"] = round(1000 * (time.monotonic() - t0), 1)

    residuals = {}
    matching = []
    for conv, value in brute.items():
        residuals[conv] = ring.val_co([a - b for a, b in zip(value.co, scaled.co)])
        if residuals[conv] >= target:
            if min(value.prec, scaled.prec) < target:
                raise PrecisionNotReached(
                    f"convention {conv!r} agrees, but g_brute is declared to {value.prec} "
                    f"pi-digits and the scaled trace to {scaled.prec}, target {target}"
                )
            matching.append(conv)
    if not matching:
        raise NoConventionMatches(
            f"neither convention matches at {target} pi-digits: {residuals}"
        )
    return {
        "schema": 1,
        "config": config.describe(),
        "t_residue_index": system.u.index(),
        "q": q,
        "target_prec": target,
        "convention": matching,
        "residual_valuation": residuals,
        "psi_order_p2": system.psi_order_p2,
        "g_brute": {conv: val.to_json_obj() for conv, val in brute.items()},
        "trace_value": scaled.to_json_obj(),
        "certificate": trace_report["certificate"],
        "timing_ms": timings,
    }


def diagonal_selection_check(series2, system, target_prec):
    """sum over mu_{q-1}^2 of H equals (q-1)^2 * certified diagonal sum."""
    ring = system.ring
    q = system.field.q
    points = [system.ring.teichmuller(u) for u in system.field.units()]
    lhs = ring.zero()
    for x0 in points:
        for x1 in points:
            lhs = lhs + series2.eval_at(x0, x1)
    value, _ = alpha_trace(series2, q, target_prec)
    return (lhs - value.scale_int((q - 1) ** 2)).valuation() >= target_prec


def bench_report(params, chi_m, chi_b_index, degrees, target_prec=None):
    """Timing comparison of gauss_brute vs the operator trace across D: row
    D is a check on ``params`` at series degree D, its own configuration."""
    rows = []
    for degree in degrees:
        cfg = GaussConfig(params.replace(degree=degree), chi_m, chi_b_index, target_prec)
        t0 = time.monotonic()
        report = trace_formula_check(cfg)
        total = round(1000 * (time.monotonic() - t0), 1)
        rows.append(
            {
                "D": degree,
                "residual_valuation": report["residual_valuation"],
                "convention": report["convention"],
                "timing_ms": dict(report["timing_ms"], total_ms=total),
            }
        )
    return {"schema": 1, "config": dict(params.describe(), D=list(degrees)), "rows": rows}
