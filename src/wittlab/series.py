"""Truncated power series: Artin-Hasse, Robba and Pulita exponentials.

The Artin-Hasse coefficients come from one integer recurrence mod p^N
with guard digits (``artin_hasse_ints``), and exp(c x) from exact
divisions in the coefficient ring; both refuse a coefficient that is not
p-integral rather than reduce it.  The Lubin-Tate vector w (ghost
components F^n(T)) specializes at pi_m to the Witt vector varpi_m, which is
built by ghost transport in the coefficient ring itself.

Series evaluation inside the closed unit disk is certified from observed
coefficient valuations (``certify_tail``): their suffix-minimum envelope
over the last sixth of the computed window must already reach the target
precision, and a least-squares fit of that envelope over the last half,
evaluated at degree 2D, must clear the target plus one.  That is an
empirical certificate (the radius-of-convergence statement it stands in
for is not re-proved here); character values downstream are additionally
cross-checked by exhaustive homomorphism tests.
"""

from __future__ import annotations

import functools

from .errors import (
    InvalidParameter,
    NonIntegralResult,
    PrecisionNotReached,
    ReportedMismatch,
    RingMismatch,
    TailNotCertified,
    TruncationTooSmall,
)
from .fields import is_prime
from .rings import RingElem, SeriesPacking, check_int
from .wittvec import (
    WittVec, from_ghosts, versch, witt_add, witt_map, witt_mul, witt_neg, zero_vec,
)


def _vp(n, p):
    """p-adic valuation of a nonzero integer."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def series_length(p, degree):
    """Smallest L with p^L > degree (AH factors beyond L are invisible); a p
    that is not prime is refused."""
    check_int("p", p)
    if not is_prime(p):
        raise InvalidParameter(f"p = {p} is not prime")
    length = 0
    while p**length <= degree:
        length += 1
    return max(length, 1)


# -- the Artin-Hasse coefficients --------------------------------------------------


@functools.lru_cache(maxsize=None)
def artin_hasse_ints(p, degree, nprec):
    """a_0..a_degree of AH(x) = exp(sum x^(p^i)/p^i) mod p^nprec.

    From AH' = AH sum_i x^(p^i - 1): n a_n = sum_{p^i <= n} a_(n - p^i) and
    a_0 = 1, worked mod p^(nprec + g), g = v_p(degree!) = (degree -
    s_p(degree))/(p - 1) (Legendre; s_p is the base-p digit sum).  Each a_n
    is one exact division by p^(v_p(n)), then one unit inverse.  The guard is
    enough: the digits of a_n rest on chains of divisions at distinct
    n > n_1 > ... >= 1, all at most degree, which lose at most sum_k v_p(k) = g
    digits, so the sum at n is known to nprec + v_p(n) digits.  AH is
    p-integral (Dwork's lemma), so no division leaves a remainder; one that
    does is refused (``NonIntegralResult``).  Reduced mod p^nprec, a
    coefficient does not depend on ``degree``.
    """
    check_int("series degree", degree, 0)
    check_int("N", nprec, 1)
    steps = [p**i for i in range(series_length(p, degree))]  # every p^i <= degree
    guard, rest = 0, degree  # Legendre: g = sum_k degree // p^k
    while rest:
        rest //= p
        guard += rest
    modulus = p ** (nprec + guard)
    coeffs = [1]
    for n in range(1, degree + 1):
        v = _vp(n, p)
        total, rem = divmod(sum(coeffs[n - k] for k in steps if k <= n), p**v)
        if rem:
            raise NonIntegralResult(f"AH coefficient {n} is not {p}-integral")
        coeffs.append(total * pow(n // p**v, -1, modulus) % modulus)
    pn = p**nprec
    return tuple(c % pn for c in coeffs)


class Series1:
    """Univariate truncated series with RingElem coefficients."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = list(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, ring, degree):
        return cls(ring, [ring.one()] + [ring.zero()] * degree)

    def __eq__(self, other):
        return (
            isinstance(other, Series1)
            and self.ring is other.ring
            and self.degree == other.degree
            and all(a == b for a, b in zip(self.coeffs, other.coeffs))
        )

    def __mul__(self, other):
        if self.ring is not other.ring:
            raise RingMismatch("product of series over different rings")
        degree = min(self.degree, other.degree)
        ring = self.ring
        # sound ultrametric floor: any skipped-at-precision term could hide
        # an error at its own precision, so every output is clamped to it
        floor = min(
            c.prec for c in self.coeffs[: degree + 1] + other.coeffs[: degree + 1]
        )
        cos = SeriesPacking(ring, degree + 1).product(
            [c.co for c in self.coeffs[: degree + 1]],
            [c.co for c in other.coeffs[: degree + 1]],
            degree + 1,
        )
        return Series1(ring, [RingElem(ring, co, floor) for co in cos])

    def compose_scale(self, alpha):
        """x -> alpha x."""
        out = []
        acc = self.ring.one()
        for k, c in enumerate(self.coeffs):
            out.append(c * acc if k else c)
            acc = acc * alpha
        return Series1(self.ring, out)

    def compose_xpow(self, step):
        """x -> x^step (tail truncated at the same degree bound), step >= 1."""
        check_int("x-power step", step, 1)
        out = [self.ring.zero() for _ in range(self.degree + 1)]
        for k, c in enumerate(self.coeffs):
            if k * step > self.degree:
                break
            out[k * step] = c
        return Series1(self.ring, out)

    def truncate(self, degree):
        if degree < 0:
            raise InvalidParameter(f"a series truncates to a degree >= 0, have {degree}")
        if degree > self.degree:
            raise TruncationTooSmall(f"cannot truncate a degree-{self.degree} series to {degree}")
        return Series1(self.ring, self.coeffs[: degree + 1])

    def eval_full(self, z):
        """Plain Horner sum of all stored terms (no tail certificate)."""
        acc = self.ring.zero()
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def min_valuations(self):
        return [c.valuation() for c in self.coeffs]


def artin_hasse_series(ring, degree):
    """AH(x) over a coefficient ring, constant and linear terms 1."""
    ah = artin_hasse_ints(ring.p, degree, ring.nprec)
    return Series1(ring, [ring.from_int(c) for c in ah])


def exp_ring_series(ring, c, degree):
    """exp(c x) over the ring, degree >= 0; every c^k/k! must be integral
    (v(c) high enough), enforced by the exact divisions."""
    check_int("series degree", degree, 0)
    coeffs = [ring.one()]
    for k in range(1, degree + 1):
        term = coeffs[-1] * c
        v = _vp(k, ring.p)
        if v:
            term = term.exact_div_p(v)
        coeffs.append(term.scale_int(pow(k // ring.p**v, -1, ring.pn)))
    return Series1(ring, coeffs)


# -- the Lubin-Tate vector w and its specializations varpi_m ------------------------


@functools.lru_cache(maxsize=None)
def varpi(ring, m, length):
    """varpi_m = w(pi_m) inside ``ring`` (level >= m), by ghost transport.

    The Lubin-Tate vector w has ghost coordinates F^n(T), so varpi_m has
    ghost coordinates pi_m, pi_(m-1), ..., pi_0 and then 0, since
    F(pi_0) = 0; ``wittvec.from_ghosts`` recovers it exactly mod p^N.
    w lies in W(T Z_p[[T]]), so a component of valuation 0 is refused.
    """
    if not ring.m >= m >= 0:
        raise InvalidParameter(f"varpi_{m} needs 0 <= m <= the ring's level {ring.m}")
    vec = from_ghosts(
        ring,
        length,
        lambda big: [big.pi_level(m - n).co if n <= m else big.zero().co for n in range(length)],
    )
    if any(c.valuation() == 0 for c in vec.comps):
        raise ReportedMismatch(f"a component of varpi_{m} is a unit")
    return vec


# -- the Artin-Hasse morphism E and the Pulita exponentials --------------------------


def artin_hasse_E(a, degree):
    """E(a) = prod AH(a_i x^(p^i)) mod x^(degree+1), degree >= 0."""
    check_int("series degree", degree, 0)
    ring = a.ring
    p = ring.p
    floor = ring.cap
    # a coefficient mod p^N does not depend on the degree of its table
    ah = artin_hasse_ints(p, degree, ring.nprec)
    acc = [ring.one().co] + [ring.zero().co] * degree
    for i, comp in enumerate(a.comps):
        step = p**i
        if step > degree:
            break
        floor = min(floor, comp.prec)
        if not any(comp.co):
            continue
        terms = degree // step + 1
        factor = [ring.zero().co] * (step * (terms - 1) + 1)
        factor[0] = ring.from_int(ah[0]).co
        apow = ring.one()
        for k in range(1, terms):
            apow = apow * comp
            factor[k * step] = apow.scale_int(ah[k]).co
        # a product slot sums at most ``terms`` nonzero pairs
        acc = SeriesPacking(ring, terms).product(acc, factor, degree + 1)
    return Series1(ring, [RingElem(ring, co, floor) for co in acc])


def pad_vector(a, length):
    if len(a) >= length:
        return a.truncate(length)
    return WittVec(a.ring, list(a.comps) + [a.ring.zero()] * (length - len(a)))


def phi_vector(a, k):
    return witt_map(lambda c: c.phi(k), a)


def robba(ring, m, degree):
    """The Robba exponential e_{m,pi} = E(varpi_m)."""
    length = max(series_length(ring.p, degree), m + 2)
    return artin_hasse_E(varpi(ring, m, length), degree)


def pulita_theta_ms(ring, m, s, a, degree):
    """theta_{m,s}(a) = E(varpi_m a - V^s(varpi_m a^(phi^s))); theta_m is s = 1.

    It equals prod_{i<s} theta_m(a^(phi^i)) o x^(p^i), which the tests check.
    """
    if s < 1:
        raise InvalidParameter(f"theta_(m,s) needs s >= 1, have {s}")
    length = max(series_length(ring.p, degree), m + 2)
    a = pad_vector(a, length)
    w_m = varpi(ring, m, length)
    prod = witt_mul(w_m, a)
    shifted = versch(witt_mul(w_m, phi_vector(a, s)), s)
    return artin_hasse_E(witt_add(prod, witt_neg(shifted)), degree)


# -- Witt-coefficient series and the Delta lift of F ---------------------------------


def delta_vector(ring, c, length):
    """Delta(c) in W(``ring``) (c an integer): ghost coordinates c, c, ...,
    recovered exactly mod p^N by ``wittvec.from_ghosts``."""
    return from_ghosts(ring, length, lambda big: [big.from_int(c).co] * length)


def f_delta_coeffs(ring, length):
    """Coefficients of F^Delta(T) in W(ring), from the stored F."""
    return [delta_vector(ring, c, length) for c in ring.lt.f_coeffs()]


def g_delta_coeffs(ring, length):
    return [delta_vector(ring, c, length) for c in ring.lt.g_coeffs] or [
        zero_vec(ring, length)
    ]


def witt_series_eval(coeff_vecs, x):
    """sum_j b_j x^j in the Witt ring, for the polynomial with coefficient
    vectors b_j (every term is summed)."""
    length = len(x)
    acc = zero_vec(x.ring, length)
    xpow = None
    for j, b in enumerate(coeff_vecs):
        if j == 0:
            term = pad_vector(b, length)
        else:
            xpow = x if xpow is None else witt_mul(xpow, x)
            term = witt_mul(pad_vector(b, length), xpow)
        acc = witt_add(acc, term)
    return acc


# -- bivariate truncated series (total-degree bound) -----------------------------------


class TruncSeries2:
    """sum b_{i,j} x0^i x1^j for i + j <= degree, coefficients RingElem."""

    __slots__ = ("ring", "degree", "rows")

    def __init__(self, ring, degree):
        self.ring = ring
        self.degree = degree
        self.rows = [[ring.zero() for _ in range(degree + 1 - i)] for i in range(degree + 1)]

    @classmethod
    def outer(cls, a, b, degree):
        """A(x0) * B(x1) from univariate factors."""
        if a.ring is not b.ring:
            raise RingMismatch("outer product of series over different rings")
        out = cls(a.ring, degree)
        for i in range(min(a.degree, degree) + 1):
            ca = a.coeffs[i]
            if not any(ca.co):
                continue
            row = out.rows[i]
            for j in range(min(b.degree, degree - i) + 1):
                cb = b.coeffs[j]
                if any(cb.co):
                    row[j] = ca * cb
        return out

    def coefficient(self, i, j):
        if i < 0 or j < 0 or i + j > self.degree:
            return self.ring.zero()
        return self.rows[i][j]

    def min_prec(self):
        return min(c.prec for row in self.rows for c in row)

    def mul_sparse(self, sparse_terms):
        """Multiply by sum c x0^a x1^b given as [(a, b, c), ...]."""
        ring = self.ring
        floor = self.min_prec()
        out = TruncSeries2(ring, self.degree)
        for a, b, c in sparse_terms:
            floor = min(floor, c.prec)
            if not any(c.co):
                continue
            for i in range(self.degree + 1 - a):
                row = self.rows[i]
                orow = out.rows[i + a]
                jmax = self.degree - (i + a) - b
                for j in range(min(len(row) - 1, jmax) + 1):
                    v = row[j]
                    if any(v.co):
                        orow[j + b] = orow[j + b] + v * c
        for i in range(out.degree + 1):
            orow = out.rows[i]
            for j in range(len(orow)):
                orow[j] = RingElem(ring, orow[j].co, min(orow[j].prec, floor))
        return out

    def eval_at(self, z0, z1):
        """Plain double-Horner evaluation of all stored terms."""
        acc = self.ring.zero()
        for i in range(self.degree, -1, -1):
            row_val = self.ring.zero()
            for c in reversed(self.rows[i]):
                row_val = row_val * z1 + c
            acc = acc * z0 + row_val
        return acc


# -- certified evaluation on the closed unit disk -------------------------------------


@functools.lru_cache(maxsize=None)
def certify_tail(valuations, target, cap):
    """Valuation-floor certificate of a tuple of valuations; returns a
    diagnostics dict, shared by every call on the same inputs (callers
    copy it), or raises, so a refusal is never kept.

    Coefficient valuations of the exponentials here are saw-toothed: dips
    at p-power degrees, with dip floors rising linearly.  A raw window
    minimum or a raw least-squares slope both misread a window straddling
    a dip, so the certificate works on the suffix-minimum envelope
    env_k = min(v_j : j >= k) -- the actual floor of everything observed:

      (a) the envelope over the last sixth must have reached the target;
      (b) the least-squares fit of the envelope over the last half,
          evaluated at degree 2D, must clear the target with margin 1.

    The envelope is non-decreasing by construction, so (b) asks the
    observed floor trend to keep strictly above the target beyond the
    truncation.  Downstream, snapped character values are additionally
    validated by exhaustive homomorphism checks, which is the complete
    desk-scale criterion.
    """
    degree = len(valuations) - 1
    env = list(valuations)
    for k in range(degree - 1, -1, -1):
        env[k] = min(env[k], env[k + 1])
    floor_obs = env[min((5 * degree) // 6, degree)]
    if floor_obs < target:
        raise TailNotCertified(
            f"observed valuation floor {floor_obs} below target {target} "
            f"over the last sixth",
            {"floor": floor_obs, "target": target},
        )
    lo = degree // 2
    window = env[lo:]
    n = len(window)
    xs = range(lo, degree + 1)
    xbar = sum(xs) / n
    ybar = sum(window) / n
    # one plain left-to-right pass: from Python 3.12 on, sum() compensates
    # float additions, which moves the certificate's last digits
    num = den = 0.0
    for x, y in zip(xs, window):
        num += (x - xbar) * (y - ybar)
        den += (x - xbar) ** 2
    slope = num / den if den else 0.0
    extrapolated = min(ybar + slope * (2 * degree - xbar), cap)
    if extrapolated < target + 1:
        raise TailNotCertified(
            f"extrapolated floor {extrapolated:.1f} at degree {2*degree} "
            f"below safety margin {target + 1}",
            {
                "slope": slope,
                "extrapolated": extrapolated,
                "required_degree_estimate": (
                    degree + (target + 1 - extrapolated) / slope if slope > 0 else None
                ),
            },
        )
    return {"floor": floor_obs, "slope": slope, "extrapolated": extrapolated}


def certify_series(series, target):
    """Certify the tail of ``series`` (``certify_tail``), then refuse with
    PrecisionNotReached if a coefficient is known to fewer than ``target``
    pi-digits: a value stamped at ``target`` must be known that far."""
    certify_tail(tuple(series.min_valuations()), target, series.ring.cap)
    known = min(c.prec for c in series.coeffs)
    if known < target:
        raise PrecisionNotReached(f"coefficients known to {known} pi-digits, target {target}")


def series_eval_unit(series, z, target_prec):
    """Certified value of the series at integral z, at target pi-precision,
    or at z's own precision when that is lower."""
    if z.valuation() < 0:
        raise InvalidParameter("the evaluation point must be integral")
    certify_series(series, target_prec)
    value = series.eval_full(z)
    return RingElem(series.ring, value.co, min(target_prec, z.prec))
