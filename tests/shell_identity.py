"""The Gauss kernel's strided diagonal cut after every shell, by the identity
behind ``gausstrace.kernel_shells``, in ``RingElem`` arithmetic.

With C the terms (k p(q-2), k, c_k) of ``omega1_substituted``, each c_k
formed for its own b, and S the running sums of the class products of
``omega_class_products``, the shells K <= T of the (q-1)-strided diagonal
of H sum to -sum_k c_k S_pair[T - o], over the terms with o <= T.  At T =
D // (q - 1) that is the total ``kernel_shells`` returns; the differences
of consecutive cuts are the single shells.  ``horner_parts`` groups the
same sum at T by k mod q - 1, with c_k formed at b = 1: the parts F_j of
the total -sum_j Teich(b)^j F_j.
"""

from wittlab.gausstrace import omega1_substituted, omega_class_products
from wittlab.rings import RingElem


def cut_sums(system, chi_m, chi_b):
    """Coordinate tuples of the diagonal's partial sums over the shells
    0..T, for every T <= D // (q - 1), D the system's degree."""
    ring, step, degree = system.ring, system.field.q - 1, system.params.degree
    stride = system.params.p * (step - 1)
    prefixes = omega_class_products(system)[0]
    terms = omega1_substituted(system, chi_b)
    out = []
    for cut in range(degree // step + 1):
        acc = ring.zero()
        for _, k, c in terms:
            r, r2 = (-chi_m - k * stride) % step, -k % step
            o = (chi_m + k * (stride + 1) + r + r2) // step
            if o <= cut:
                acc = acc - c * RingElem(ring, prefixes[r * step + r2][cut - o])
        out.append(acc.co)
    return out


def horner_parts(system, chi_m, nonzero):
    """The parts F_j, j < q - 1 (j = 0 alone at b = 0), as ``RingElem``s."""
    ring, field, degree = system.ring, system.field, system.params.degree
    step = field.q - 1
    stride, top = system.params.p * (step - 1), degree // step
    prefixes = omega_class_products(system)[0]
    parts = [ring.zero()] * (step if nonzero else 1)
    for _, k, c in omega1_substituted(system, field.one() if nonzero else field.zero()):
        r, r2 = (-chi_m - k * stride) % step, -k % step
        o = (chi_m + k * (stride + 1) + r + r2) // step
        if o <= top:
            part = c * RingElem(ring, prefixes[r * step + r2][top - o])
            parts[k % step] = parts[k % step] + part
    return parts
