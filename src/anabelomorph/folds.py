"""Fold tables of monomial layer relations.

The flat coordinates of a tower are the monomials theta_1^i_1 ...
theta_k^i_k, i_l < d_l, of the generators of its layers from the one
over Q_p up, coordinate i_1 + d_1 (i_2 + d_2 (...)).  A layer relation
theta^d = sum_i r_i theta^i is monomial when each r_i is an integer c
times one coordinate monomial mu of the base; every relation over Q_p is.
When a tower's relations are all monomial, reducing a monomial to the
basis is a fixed integer combination of coordinates, read off the
relations alone: it is exact over Z and free of the modulus, so one
table serves every p^m and every tower of the same shape, and a fold by
it makes no product.  ``fields.LocalField`` folds the top blocks of a
product by ``fold_rows`` and reads a packed product back through
``slot_table``.  ``FixedProducts`` multiplies by a layer's fixed
constants, dense or not, through integer matrices.
"""

import functools
import itertools
import math
import operator
from operator import itemgetter

# the tables kept per process, by shape; a layer keeps its own, so a shape
# past this many is derived again only for a new build
_SHAPES = 256


def relation_shape(layer):
    """The shape of the tower up to ``layer``: ((d, terms), ...) from the
    layer over Q_p up, with terms ((i, k, c), ...) for the relation terms
    c mu_k theta^i, mu_k the base's coordinate monomial k and c the
    representative of least absolute value mod the layer's p^M; None when
    some relation term has more than one nonzero coordinate."""
    shape = []
    for fld in layer.layers[1:]:
        terms, h = [], fld.pM // 2
        for i, r in fld.relation:
            nonzero = [(k, a) for k, a in enumerate(r) if a]
            if len(nonzero) != 1:
                return None
            (k, a), = nonzero
            terms.append((i, k, (a + h) % fld.pM - h))
        shape.append((fld.d, tuple(terms)))
    return tuple(shape)


def _exponents(degrees, k):
    """The exponents (i_1, ..., i_l) of coordinate k over these degrees."""
    out = []
    for d in degrees:
        k, i = divmod(k, d)
        out.append(i)
    return out


def _reduce(shape, memo, exps):
    """{coordinate: integer} for the monomial with the exponents exps, one
    per layer of the shape or of a lower part of it, any of them past its
    layer's degree; memo keeps the answers below the top layer by exps.
    A top exponent e >= d becomes e - d + i times c mu for each relation
    term, and the base exponents take mu's; each step lowers the top
    exponent, so it ends."""
    out = memo.get(exps)
    if out is not None:
        return out
    level = len(exps)
    d, terms = shape[level - 1]
    low, e = exps[:-1], exps[-1]
    degrees = [d for d, _ in shape[:level - 1]]
    if e < d:
        shift = e * math.prod(degrees)
        out = {k + shift: c for k, c in _reduce(shape, memo, low).items()}
    else:
        out = {}
        for i, k, c in terms:
            mu = _exponents(degrees, k)
            top = tuple(a + b for a, b in zip(low, mu)) + (e - d + i,)
            for j, v in _reduce(shape, memo, top).items():
                out[j] = out.get(j, 0) + c * v
        out = {j: v for j, v in out.items() if v}
    if level < len(shape):      # the top monomials are asked for once
        memo[exps] = out
    return out


def _reducer(shape):
    """exps -> ``_reduce(shape, memo, exps)`` with a fresh memo."""
    return functools.partial(_reduce, shape, {(): {0: 1}})


def _gather(coords):
    """For each target coordinate, given as {source: multiplier}, the pair
    (get, ms) with which the target is sum(map(mul, ms, get(sources))):
    get repeats its first index, so that it returns a tuple even for one
    source, and map stops at the end of ms."""
    return tuple((itemgetter(*c, next(iter(c))) if c
                  else itemgetter(0, 0), tuple(c.values())) for c in coords)


@functools.lru_cache(maxsize=_SHAPES)
def fold_rows(shape):
    """((i, gather), ...) for each relation term c mu theta^i of the top
    layer of a monomial shape: the ``_gather`` of a top block times c mu,
    which adds to block i below it without a base product."""
    base = shape[:-1]
    reduce, degrees = _reducer(base), [d for d, _ in base]
    b = math.prod(degrees)
    out = []
    for i, k, c in shape[-1][1]:
        mu = _exponents(degrees, k)
        coords = [{} for _ in range(b)]
        for j in range(b):
            exps = tuple(a + u for a, u in zip(_exponents(degrees, j), mu))
            for j2, v in reduce(exps).items():
                coords[j2][j] = c * v
        out.append((i, _gather(coords)))
    return tuple(out)


@functools.lru_cache(maxsize=_SHAPES)
def slot_table(shape):
    """The ``_gather`` of a packed product over a monomial shape from the
    product's slots in the layout of ``LocalField._packed``: slot j_1 +
    S_2 j_2 + ..., j_l < 2 d_l - 1, is the monomial theta_1^j_1 ...
    theta_k^j_k."""
    reduce = _reducer(shape)
    coords = [{} for _ in range(math.prod(d for d, _ in shape))]
    ranges = [range(2 * d - 1) for d, _ in reversed(shape)]
    for slot, exps in enumerate(itertools.product(*ranges)):
        for j, v in reduce(exps[::-1]).items():
            coords[j][slot] = v
    return _gather(coords)


# the most coordinates of a base whose products by a layer's fixed
# constants go through an integer matrix (``FixedProducts``).  Speed of a
# product by a dense constant through its matrix against one base
# product, with unreduced operands, min of 5 rounds (CPython 3.11.7,
# 2-core x86), by the base's degree n over Q_p, its degree d over its
# base and the bits of p^m; '-' where the width gate takes the base
# product (python3 tools/kernel_table.py --matrix prints the table):
#
#   base             n  d    32    64    96   128   192   256   384 bits
#   Q_3(zeta_3)     2  2  1.72  1.62  1.57  1.57  1.51  1.46     -
#   Q_5(zeta_5)     4  4  1.69  1.46  1.54  1.69  1.13  1.50  1.21
#   (2,2) rad 2     4  2  3.59  3.56     -     -     -     -     -
#   Q_3(zeta_9)     6  6  1.30  1.31  1.61  1.28  1.21  1.35     -
#   (3,1) rad 3     6  3  2.72  2.80  2.92     -     -     -     -
#   (2,3) rad 3     8  2  1.97  1.93     -     -     -     -     -
#   (2,3) rad 3    16  2  1.47  1.52     -     -     -     -     -
#   (3,2) rad 3    18  3  1.97  1.88  2.13     -     -     -     -
#   Q_5(zeta_25)   20 20  1.42  1.12  1.18  1.08  1.21  1.13  1.36
#   (5,1) rad 6    20  5  1.20  1.39  1.29  1.57     -     -     -
#   (2,3) rad 3    32  2  1.16  1.29     -     -     -     -     -
#   (7,1) rad 7    42  7  0.63  0.73  0.88  1.04  1.35     -     -
#   (3,2) rad 3    54  3  1.42  1.65  1.93     -     -     -     -
#   (5,2) rad 5   100  5  0.96  0.98  0.98  1.05     -     -     -
#
# Every base up to n = 32 gains; (7,1) at n = 42 and (5,2) at n = 100 lose
# at the narrow widths, and (3,2) at n = 54 gains only because its dense
# relation makes its own products slow.
_MATRIX_COORDS = 32


class FixedProducts:
    """Products of vectors of a layer's base by the layer's fixed
    constants in it: its frame's beta and gamma^k, its relation terms r_i
    and its roots of unity.

    The product by a constant c is an integer matrix-vector product: row
    j of the matrix holds coordinate j of c e_k over the base's basis e_k,
    kept as its nonzero entries (a monomial c has one in a column) and
    reduced mod ``limit``, the widest p^m at which the base multiplies
    through its narrow kernels, the packing limit of a base over a layer
    that is not Q_p and below ``karatsuba_bits`` over Q_p; the limit is 0,
    so that no matrix is made, over Q_p itself and on a base of more than
    _MATRIX_COORDS coordinates.  A base product is exact over Z and
    reduced at the end, so sum_k x_k (c e_k mod limit) = c x mod pm for
    every pm that divides the limit, bit for bit; a wider pm takes the
    base product.  Each matrix is made on the first product by its
    constant at an admitted width, by one base product per basis vector,
    and kept.  A relation on a tower of monomial relations folds through
    the fold table instead (``fold_rows``), exact at every width."""

    def __init__(self, layer, karatsuba_bits):
        self.layer, self._rows, self.limit = layer, {}, 0
        base = layer.base
        if base and base.base and base.n <= _MATRIX_COORDS:
            if base.base.base is None:
                limit = (1 << (karatsuba_bits - 1)) - 1
            else:
                limit = (base._packing or base._init_packing())[3]
            self.limit = base.p ** min(base.M, _digits_below(base.p, limit))

    def mul(self, xs, c, pm):
        """c xs mod pm for a vector xs of the base, of any sign and size,
        and a fixed constant c (a tuple): ``base._mul_mod(xs, c, pm)``."""
        if pm > self.limit:
            return self.layer.base._mul_mod(xs, c, pm)
        rows = self._rows.get(c)
        if rows is None:
            rows = self._rows[c] = self._matrix(c)
        return [sum(map(operator.mul, ms, get(xs))) % pm for get, ms in rows]

    def fold(self, blk, pm):
        """[(i, r_i blk)] for the layer's relation terms r_i theta^i and a
        block blk of the base, of any sign and size: through the fold
        table, unreduced, when the relations of the tower are monomial,
        and otherwise by ``mul`` of blk mod pm, none when it is zero."""
        rows = self.layer._fold_rows
        if rows is not None:
            return [(i, [sum(map(operator.mul, ms, get(blk)))
                         for get, ms in gather]) for i, gather in rows]
        blk = tuple(c % pm for c in blk)
        if not any(blk):
            return ()
        return [(i, self.mul(blk, ri, pm)) for i, ri in self.layer.relation]

    def _matrix(self, c):
        """The ``_gather`` of the products by c mod ``limit``."""
        base = self.layer.base
        n = base.n
        coords = [{} for _ in range(n)]
        for k in range(n):
            unit = [0] * n
            unit[k] = 1
            for j, a in enumerate(base._mul_mod(c, unit, self.limit)):
                if a:
                    coords[j][k] = a
        return _gather(coords)


def _digits_below(p, limit):
    """The most digits m with p^m at most ``limit``."""
    m = int(math.log(limit, p))
    while p ** m > limit:
        m -= 1
    while p ** (m + 1) <= limit:
        m += 1
    return m
