"""``SeriesPacking`` inputs and outputs in the (degree, coordinates) form.

The packing takes and returns coordinate columns; the tests state series
as (degree, coordinate tuple) pairs and read products back as tuples by
degree.  ``pack_bytewise`` is the packing one coordinate at a time, one
``to_bytes`` each at its byte offset, the reference every packed int is
compared with bit for bit.
"""


def dense(terms, dim):
    """Coordinate tuples by degree from (degree, coordinates) pairs; absent
    degrees up to the last given one are zero."""
    terms = list(terms)
    out = [(0,) * dim] * (max((d for d, _ in terms), default=-1) + 1)
    for d, co in terms:
        out[d] = tuple(co)
    return out


def pack_terms(packing, *series):
    """One packed int per series of (degree, coordinates) pairs, packed in
    one batch."""
    dim = packing.ring.dim
    rows = [dense(terms, dim) for terms in series]
    columns = [[co[i] for row in rows for co in row] for i in range(dim)]
    return packing.pack(columns, [len(row) for row in rows])


def pack_bytewise(packing, terms):
    """The packed int of (degree, coordinates) pairs, coordinate by
    coordinate: coordinate i of degree d at byte d block + slots[i] width."""
    out = 0
    for d, co in terms:
        for k, c in zip(packing.ring.slots, co):
            base = d * packing.block + k * packing.width
            out |= int.from_bytes(c.to_bytes(packing.width, "little"), "little") << 8 * base
    return out


def read_tuples(packing, products):
    """``unpack`` read back as coordinate tuples, degree after degree."""
    return list(zip(*packing.unpack(products)))
