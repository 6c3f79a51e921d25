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
``slot_table``.
"""

import functools
import itertools
import math
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
