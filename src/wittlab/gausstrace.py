"""Gauss sums over W_2(F_q): brute force vs the Dwork-style operator trace.

The kernel H(x0, x1) = -Omega_2(x0, x1) x0^m Omega_1(Teich(b) x1 x0^(p(q-2)))
packs the additive and multiplicative characters into one bivariate series;
alpha = Dw_q o mult_H acts on truncations, its trace is the certified
partial sum of the (q-1)-strided diagonal, and the trace formula predicts
g = (q-1)^2 Tr(alpha) for one of the two summation conventions.  The check
computes only that diagonal (``kernel_lattice``) from packed series products
(``rings.SeriesPacking``).  Every factor is packed as its q - 1 residue
classes of degree, so each product forms only the class of degrees the
lattice reads, and its slots hold the integers the full product would, in
the same width.  Factors are packed in batches, the column terms and the
lattice are each read back in one batched fold as coordinate columns, and
the lattice stays in columns, cut into shells, up to its certified sum: one
gcd and one int sum per shell and coordinate.
The full kernel (``kernel_H``) stays schoolbook through ``TruncSeries2``: it
serves the alpha matrix and is the independent oracle the tests compare the
lattice against.

The definition sums z_1 over all of F_q; the diagonal-selection identity
behind the trace formula sums both variables over mu_{q-1}.  Both
conventions are computed and compared, and the report records which one
matches; the z_1 = 0 column is exactly their difference.
"""

from __future__ import annotations

import functools
import math
import operator
import time
from bisect import bisect_left
from itertools import chain, repeat

from .characters import check_degree, check_int, check_target, shared_system
from .errors import InvalidParameter, NoConventionMatches, PrecisionNotReached, TruncationTooSmall
from .rings import RingElem, SeriesPacking
from .series import TruncSeries2, certify_tail
from .wittvec import WittVec


class GaussConfig:
    """Character data, kernel truncation and target precision for one run."""

    def __init__(self, params, chi_m=0, chi_b_index=0, degree=None, target_prec=None):
        q = params.p**params.s
        if params.ell != 2:
            raise InvalidParameter(f"the trace formula is over W_2, not W_{params.ell}")
        check_int("chi_m", chi_m)
        if not 0 <= chi_m < q - 1:
            raise InvalidParameter(f"chi_m = {chi_m} outside 0..{q - 2}")
        check_int("chi_b index", chi_b_index)
        if not 0 <= chi_b_index < q:
            raise InvalidParameter(f"chi_b index {chi_b_index} outside 0..{q - 1}")
        if degree is not None:
            check_degree(degree)
        check_target(target_prec)
        self.params = params
        self.chi_m = chi_m
        self.chi_b_index = chi_b_index
        self.degree = degree if degree is not None else params.degree
        self.target_prec = target_prec

    def describe(self):
        out = self.params.describe()
        out.update({"chi": {"m": self.chi_m, "b": self.chi_b_index}})
        return out


def gauss_brute(system, chi_m, chi_b):
    """-sum psi(z) chi(z) in both conventions, exact at ring precision via
    snapped values: 'full' sums z_1 over F_q (the definition), 'units' over
    F_q^*, matching the diagonal selection in the trace formula.  One pass
    keeps the z_1 = 0 column apart, the difference of the two."""
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


def omega1_substituted(system, chi_b, degree):
    """Omega_1(Teich(b) x1 x0^(p(q-2))) as sparse bivariate terms."""
    ring = system.ring
    q = system.field.q
    stride = system.params.p * (q - 2)
    if not chi_b:
        return [(0, 0, ring.one())]
    scale = system.t * ring.teichmuller(chi_b)
    theta0 = system.theta_series(1)  # theta_{0,s}(1)
    terms = []
    acc = ring.one()
    k = 0
    while k * (stride + 1) <= degree:
        coeff = theta0.coeffs[k] * acc if k else theta0.coeffs[0]
        terms.append((k * stride, k, coeff))
        k += 1
        acc = acc * scale
    return terms


def _kernel_factors(system, chi_m, chi_b, degree):
    """The univariate factors of H: A(x0), B(x1) and Omega_1's terms."""
    q = system.field.q
    stride = system.params.p * (q - 2)
    if chi_m + (stride + 1 if chi_b else 0) > degree:
        raise TruncationTooSmall(
            f"kernel needs degree > {chi_m + stride + 1}, have {degree}"
        )
    a, b = system.omega_factors(degree)
    return a, b, omega1_substituted(system, chi_b, degree)


def kernel_H(system, chi_m, chi_b, degree):
    """The bivariate kernel, truncated at total degree ``degree``.

    Every coefficient, built through ``TruncSeries2``; the trace formula
    reads only the lattice of ``kernel_lattice``, which is computed from
    the same factors.
    """
    a, b, sub = _kernel_factors(system, chi_m, chi_b, degree)
    omega2 = TruncSeries2.outer(a, b, degree)
    shifted = omega2.shift_x0(chi_m) if chi_m else omega2
    out = shifted.mul_sparse(sub)
    return out.scale(-system.ring.one())


def lattice_columns(packing, b, sub, chi_m, degree, step, split):
    """G_j = g_j(x0^split) at each lattice column j = step n, as the ``step``
    residue classes of g_j's degree: g_j(y) = sum_h y^h g_{j,h}(y^step).  g_j
    holds b_{j-k} c_k at y^(u // split) for each C term (u, k, c_k) with u + j
    + m <= D, summed at q = 2 (every u = 0).  B's classes and the C terms are
    packed in one batch, so c_k B, read at the degrees j - k, is c_k times a
    prefix of class -k: one packed product per C term, and one ``unpack``
    reads them all.  Its columns are regrouped into the classes of every g_j
    by one gather per coordinate (a sum of gathers at q = 2), and these are
    packed in one batch."""
    pn = packing.ring.pn
    reads = [(u, k, c, len(range(-k % step, degree - chi_m - u - k + 1, step))) for u, k, c in sub]
    reads = [read for read in reads if read[3] > 0]
    classes = [b.coeffs[h::step] for h in range(step)]
    packed = packing.pack(
        list(zip(*(c.co for cls in classes for c in cls), *(c.co for _, _, c, _ in reads))),
        [len(cls) for cls in classes] + [1] * len(reads),
    )
    terms = packing.unpack(
        (packing.truncate(packed[-k % step], count - 1) * ck, count)
        for (_, k, _, count), ck in zip(reads, packed[step:])
    )
    # y^x of g_j is slot x // step of class x mod step: value l of the read
    # of (u, k, c_k), x = u // split, lands in slot lc of class h of column
    # n0 + l, at key (step n + h) span + lc.  The d-th read of an x goes in
    # layer d; the layers are summed (only at q = 2 is there more than one)
    span = max([u // split for u, _, _, _ in reads], default=0) // step + 1
    depth, layers, src = {}, [], 0
    for u, k, _, count in reads:
        x = u // split
        d = depth[x] = depth.get(x, -1) + 1
        if d == len(layers):
            layers.append({})
        lc, h = divmod(x, step)
        n0 = (k + -k % step) // step
        key = (step * n0 + h) * span + lc
        keys = range(key, key + count * step * span, step * span)
        layers[d].update(zip(keys, range(src, src + count)))
        src += count
    # each class is dense in its slots up to the last one a read lands in
    keys, cells, lengths, i = sorted(set().union(*layers)), [], [], 0
    for cell in range((degree // step + 1) * step):
        top = bisect_left(keys, (cell + 1) * span, i)
        lengths.append(keys[top - 1] - cell * span + 1 if top > i else 0)
        cells += range(cell * span, cell * span + lengths[-1])
        i = top
    zero = src  # each column of terms gets a 0 there, for slots no read fills
    gathers = [_gather(list(map(layer.get, cells, repeat(zero)))) for layer in layers]
    columns = []
    for col in terms:
        col.append(0)
        parts = [gather(col) for gather in gathers]
        columns.append(parts[0] if len(parts) == 1 else [sum(x) % pn for x in zip(*parts)])
    packed = iter(packing.pack(columns, lengths))
    return [[next(packed) for _ in range(step)] for _ in range(degree // step + 1)]


def _gather(indices):
    """seq -> the tuple of its entries at ``indices``, one or more (one
    ``itemgetter``, which returns a bare entry for a single index)."""
    if len(indices) == 1:
        return lambda seq, i=indices[0]: (seq[i],)
    return operator.itemgetter(*indices)


@functools.lru_cache(maxsize=32)
def _lattice_reads(degree, q, p):
    """What ``kernel_lattice`` reads at (D, q, p): the class products, (n, r,
    ks) each, the gather taking their values in read order to shell order,
    and each shell's span in it."""
    step = q - 1
    split = p * (step - 1) or 1
    inverse = pow(split, -1, step)
    reads = [
        (n, r, ks)
        for n in range(degree // step + 1)
        for r in range(split)
        if (ks := range(-r * inverse % step, (degree - step * n - r) // split + 1, step))
    ]
    cells = [(n + n0, n0) for n, r, ks in reads for n0 in ((r + split * k) // step for k in ks)]
    spans = [(k * (k + 1) // 2, (k + 1) * (k + 2) // 2) for k in range(degree // step + 1)]
    return reads, _gather(sorted(range(len(cells)), key=cells.__getitem__)), spans


def kernel_lattice(system, chi_m, chi_b, degree):
    """The coefficients b_{(q-1) n0, (q-1) n1} of H, straight from its factors.

    H = x0^m A(x0) G(x0, x1) with G = B(x1) (-C)(x0^stride x1), stride =
    p(q-2) and C the terms of ``omega1_substituted``, negated here: there
    are fewer of them than of A.  G is formed only at the lattice columns j,
    as g_j(x0^stride) (``lattice_columns``).  F = x0^m A(x0) = sum_r x0^r
    F_r(x0^stride), and column j, F G_j cut to degree D - j, is F_r g_j
    (``SeriesPacking``) for each r < stride.  stride is prime to q - 1, so
    lattice degree r + stride k comes from one r, at k = -r/stride mod q - 1:
    only one residue class of F_r g_j is read.  F_r and g_j are packed as
    their q - 1 classes of degree, all F_r in one batch, and
    ``SeriesPacking.class_product`` forms that class alone from q - 1
    products, each 1/(q - 1) as long.  Every slot of the sum holds the
    integer the full product held there, so the packing's width and spacing
    bounds hold unchanged.  One ``unpack`` reads every class product's
    prefix.  At q = 2 (stride 0) G_j is a constant: one class.

    Returns (floor, shells): the least precision over A, B and C (the floor
    ``mul_sparse`` clamps to), and per shell k one tuple per coordinate
    index i, entry n0 coordinate i of b_{(q-1) n0, (q-1)(k - n0)}.
    """
    a, b, sub = _kernel_factors(system, chi_m, chi_b, degree)
    ring = system.ring
    step = system.field.q - 1
    split = system.params.p * (step - 1) or 1
    floor = min(c.prec for c in a.coeffs + b.coeffs + [c for _, _, c in sub])
    sub = [(u, k, -c) for u, k, c in sub]
    packing = SeriesPacking(ring, degree // split + 1)
    # x0^d of F, d = r + split (h + step l), is slot l of class h of F_r
    period = split * step
    starts = [r + split * h for r in range(split) for h in range(step)]
    f = [(0,) * chi_m + col for col in zip(*(c.co for c in a.coeffs[: degree + 1 - chi_m]))]
    parts = packing.pack(
        [list(chain.from_iterable(col[start::period] for start in starts)) for col in f],
        [len(range(start, degree + 1, period)) for start in starts],
    )
    gs = lattice_columns(packing, b, sub, chi_m, degree, step, split)
    reads, order, spans = _lattice_reads(degree, step + 1, system.params.p)
    values = packing.unpack(
        (packing.class_product(parts[r * step : (r + 1) * step], gs[n], ks[0], len(ks)), len(ks))
        for n, r, ks in reads
    )
    columns = [order(col) for col in values]
    return floor, [[col[lo:hi] for col in columns] for lo, hi in spans]


def dwork_op(series2, q):
    """Coefficient decimation (n0, n1) <- (q n0, q n1)."""
    out_degree = series2.degree // q
    out = TruncSeries2(series2.ring, out_degree)
    for i in range(out_degree + 1):
        for j in range(out_degree + 1 - i):
            out.rows[i][j] = series2.coefficient(q * i, q * j)
    return out


def diagonal_lattice(series2, q):
    """The (q-1)-strided diagonal of a series in ``kernel_lattice``'s form:
    (floor, shells), the least precision over the diagonal's coefficients
    and per shell k one tuple per coordinate index i, entry n0 coordinate i
    of b_{(q-1) n0, (q-1)(k - n0)}."""
    step = q - 1
    shells = [
        [series2.coefficient(step * n0, step * (k - n0)) for n0 in range(k + 1)]
        for k in range(series2.degree // step + 1)
    ]
    floor = min(c.prec for shell in shells for c in shell)
    return floor, [list(zip(*(c.co for c in shell))) for shell in shells]


def certified_diagonal_sum(ring, lattice, target_prec):
    """Certified sum of strided coefficients given as (floor, shells), the
    form of ``kernel_lattice`` and ``diagonal_lattice``.

    A shell's valuation, the least over its coefficients, is ``val_co`` of
    one gcd per coordinate; the sum is one int sum per shell and coordinate,
    reduced once.  Returns (value, report).  PrecisionNotReached if a
    coefficient is known to less than the target; TailNotCertified if the
    shell valuations do not certify the target by the window-and-slope rule.
    """
    floor, shells = lattice
    if floor < target_prec:
        raise PrecisionNotReached(
            f"coefficients known to {floor} pi-digits, target {target_prec}"
        )
    valuations, totals = [], [0] * ring.dim
    for shell in shells:
        v = ring.val_co([math.gcd(*col) for col in shell])
        valuations.append(ring.cap if v is None else v)
        totals = [t + sum(col) for t, col in zip(totals, shell)]
    report = certify_tail(valuations, target_prec, ring.cap)
    return RingElem(ring, tuple(t % ring.pn for t in totals), target_prec), {
        "shells": valuations,
        "certificate": report,
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


def matrix_trace(basis, matrix):
    acc = None
    for k in range(len(basis)):
        acc = matrix[k][k] if acc is None else acc + matrix[k][k]
    return acc


def trace_formula_check(config):
    """Compare (q-1)^2 Tr(alpha) with both brute-force conventions.

    Returns a report dict; NoConventionMatches if neither convention agrees
    at the target precision.
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
    lattice = kernel_lattice(system, config.chi_m, chi_b, config.degree)
    timings["kernel_ms"] = round(1000 * (time.monotonic() - t0), 1)

    t0 = time.monotonic()
    trace_val, trace_report = certified_diagonal_sum(ring, lattice, target)
    scaled = trace_val.scale_int((q - 1) ** 2)
    timings["trace_ms"] = round(1000 * (time.monotonic() - t0), 1)

    t0 = time.monotonic()
    brute = gauss_brute(system, config.chi_m, chi_b)
    timings["brute_ms"] = round(1000 * (time.monotonic() - t0), 1)

    residuals = {}
    matching = []
    for conv, value in brute.items():
        diff = value - scaled
        v = diff.valuation()
        residuals[conv] = ring.cap if v is None else v
        if residuals[conv] >= target:
            matching.append(conv)
    if not matching:
        raise NoConventionMatches(
            f"neither convention matches at {target} pi-digits: {residuals}"
        )
    order_ok = system.character_table().image_size() == system.params.p**2
    return {
        "schema": 1,
        "config": config.describe(),
        "t_residue_index": system.u.index(),
        "q": q,
        "target_prec": target,
        "convention": matching,
        "residual_valuation": residuals,
        "psi_order_p2": order_ok,
        "g_brute": {conv: val.to_json_obj() for conv, val in brute.items()},
        "trace_value": scaled.to_json_obj(),
        "certificate": trace_report["certificate"],
        "timing_ms": timings,
    }


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
    diff = lhs - value.scale_int((q - 1) ** 2)
    v = diff.valuation()
    return (ring.cap if v is None else v) >= target_prec


def bench_report(params, chi_m, chi_b_index, degrees, target_prec=None):
    """Timing comparison of gauss_brute vs the operator trace across D."""
    rows = []
    for degree in degrees:
        cfg = GaussConfig(params, chi_m, chi_b_index, degree, target_prec)
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
    return {"schema": 1, "config": params.describe(), "rows": rows}
