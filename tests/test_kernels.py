"""The shared kernels against oracles written here.

``_charpoly``, the division-free characteristic polynomial behind the
cofactor of a custom layer and, through det = (-1)^n c_n, the p-adic
determinant of Krasner's Sylvester matrices (``krasner_rationalize``),
is checked against an exact Fraction determinant, including matrices
singular to precision, and against Cayley-Hamilton.  Layer norms are
read from the layer cofactors; on every layer kind they are checked
against the determinant of the flat multiplication matrix over Q_p,
against multiplicativity, and against x * cofactor = N(x).  The
cofactor of a Galois layer, built by doubling over the cyclic factors
of its group, is checked bit for bit against the product of the
conjugates taken one after another, and its count of layer products is
pinned; a quadratic custom layer's, from its characteristic polynomial,
against its one conjugate.  Products of every layer kind are checked
against a schoolbook product reduced by the layer's defining polynomial,
on both sides of each layer's own packed-product gate for the layers
over a base that is not Q_p, and the ring axioms are checked on random
elements; a product by an integer or a fraction, and a negation, must
give the product with the constant element bit for bit, through no layer
product.  The base products of a layer product are counted: a fold by
a monomial relation makes none, through its fold table, and a fold by a
dense relation constant one per nonzero top block above the width
at which it folds through the constant's matrix, and none below it
once the matrix is made.  Products through such matrices are checked
against base products, and a mutant matrix entry must show.  The gate packs
every product that the flat 64-bit gate it replaced packed, and every
dense product of the p-adic log on the benchmark's invariants towers.
"""

import gc
import random
import weakref
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anabelomorph import fields
from anabelomorph.anabelomorphy import KummerFieldSpec
from anabelomorph.elliptic import l_invariant
from anabelomorph.fields import (_KARATSUBA_BITS, _PACKED_EXPONENT,
                                 _PACKED_PRODUCT_BITS, FieldElement,
                                 LocalField, TowerStep, _charpoly,
                                 _slot_bytes, build_field, norm_to_qp)

T = TowerStep
PRIMES = (2, 3, 5, 7)


def _frac_det(rows):
    """Exact determinant by Fraction Gaussian elimination."""
    A = [[Fraction(a) for a in row] for row in rows]
    n = len(A)
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if A[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            det = -det
        det *= A[k][k]
        for i in range(k + 1, n):
            fac = A[i][k] / A[k][k]
            A[i] = [a - fac * b for a, b in zip(A[i], A[k])]
    return det


def _random_matrix(rng, p, n):
    # entries with assorted p-adic valuations, so pivots are not all units
    return [[rng.randrange(-p ** 4, p ** 4) * p ** rng.choice((0, 0, 1, 2))
             for _ in range(n)] for _ in range(n)]


def _det(rows, p, m):
    """det mod p^m of an integer matrix as (-1)^n c_n of ``_charpoly``."""
    pm = p ** m
    (cn,) = _charpoly([[(a,) for a in row] for row in rows],
                      build_field(p, [])._mul_mod, pm)[-1]
    return (-1) ** len(rows) * cn % pm


@pytest.mark.parametrize("p", PRIMES)
def test_det_matches_exact(p):
    rng = random.Random(1000 + p)
    m = 24
    for _ in range(25):
        rows = _random_matrix(rng, p, rng.randint(1, 6))
        assert _det(rows, p, m) == _frac_det(rows) % p ** m


@pytest.mark.parametrize("p", PRIMES)
def test_singular_to_precision(p):
    rng = random.Random(3000 + p)
    m = 12
    rows = _random_matrix(rng, p, 4)
    # exactly singular: the determinant is zero to precision
    rows[3] = [2 * a - 3 * b + c for a, b, c in zip(*rows[:3])]
    assert _det(rows, p, m) == 0
    # a repeated row
    rows[3] = rows[1]
    assert _det(rows, p, m) == 0
    # singular mod p^m only: a column that vanishes to precision
    rows = [[p ** m, 1], [p ** (m + 1), 2]]
    assert _det(rows, p, m) == 0


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_charpoly_matches_det_and_cayley_hamilton(data):
    # over Q_p: c_d = (-1)^d det(A), and A^d + c_1 A^(d-1) + ... + c_d I
    # vanishes mod p^m
    p = data.draw(st.sampled_from(PRIMES))
    d = data.draw(st.integers(1, 6))
    m = 24
    pm = p ** m
    rows = _random_matrix(random.Random(data.draw(st.integers(0, 10 ** 6))),
                          p, d)
    c = [ci for (ci,) in _charpoly([[(a,) for a in row] for row in rows],
                                   build_field(p, [])._mul_mod, pm)]
    assert len(c) == d
    assert c[-1] == (-1) ** d * _frac_det(rows) % pm
    h = [[int(i == j) for j in range(d)] for i in range(d)]
    for ck in c:          # Horner: h <- h A + c_k I
        h = [[sum(h[i][t] * rows[t][j] for t in range(d)) + ck * (i == j)
              for j in range(d)] for i in range(d)]
    assert all(a % pm == 0 for row in h for a in row)


LAYERS = {
    "cyclo p=2": (2, [T.cyclotomic(8)]),
    "cyclo p=3": (3, [T.cyclotomic(9)]),
    "cyclo p=5": (5, [T.cyclotomic(5)]),
    "cyclo p=5 r=2": (5, [T.cyclotomic(25)]),
    "kummer p=2": (2, [T.cyclotomic(4), T.kummer(2, 3)]),
    "kummer p=3": (3, [T.cyclotomic(3), T.kummer(3, 3)]),
    "kummer p=5": (5, [T.cyclotomic(5), T.kummer(5, 6)]),
    "kummer p=7": (7, [T.cyclotomic(7), T.kummer(7, 7)]),
    "quad p=3": (3, [T.cyclotomic(3), T.custom([-2, 0])]),
    "quad p=5": (5, [T.custom([-5, 0])]),
    "quad p=7": (7, [T.cyclotomic(7), T.custom([-3, 0])]),
    "custom p=2": (2, [T.cyclotomic(4), T.custom([-2, 0, 0])]),
    "custom p=3": (3, [T.custom([-3, 3, 0])]),
    "custom p=5": (5, [T.cyclotomic(5), T.custom([-5, 0, 0])]),
    "custom p=7": (7, [T.custom([-7, 0, 7])]),
}


@pytest.fixture(scope="module", params=sorted(LAYERS))
def tower(request):
    p, steps = LAYERS[request.param]
    return build_field(p, steps)


def test_norm_from_cofactor_path(tower):
    K = tower
    p = K.p
    rng = random.Random(f"norm:{K.name}")
    for _ in range(3):
        x, y = (FieldElement(K, [rng.randrange(p ** 3) for _ in range(K.n)])
                for _ in range(2))
        nint, s, m = K.norm_tower(x)
        assert s == 0
        # the norm is the determinant of multiplication by x over Q_p:
        # column j is x times the j-th vector of the flat power basis
        cols = [K._mul_mod(x.vec, [int(i == j) for i in range(K.n)], p ** m)
                for j in range(K.n)]
        assert nint % p ** m == _det(cols, p, m)
        # N(xy) = N(x) N(y)
        assert norm_to_qp(x * y) == norm_to_qp(x) * norm_to_qp(y)


# ----------------------------------------------------------------------
# products of every layer kind against a schoolbook oracle

# quadratic layers need odd p, so p = 2 has no quad entry
ORACLE_TOWERS = {
    "cyclo p=2": (2, [T.cyclotomic(8)]),
    "cyclo p=3": (3, [T.cyclotomic(9)]),
    "cyclo p=5": (5, [T.cyclotomic(5)]),
    "cyclo p=7": (7, [T.cyclotomic(7)]),
    "kummer p=2": (2, [T.cyclotomic(4), T.kummer(4, 3)]),
    # directly over Q_2: the integer fold with a relation coefficient 3
    "kummer p=2 over Q_2": (2, [T.kummer(2, 3)]),
    "kummer p=3": (3, [T.cyclotomic(3), T.kummer(3, 3)]),
    # the degree-54 tower: two d = 3 layers over bases of degree 6 and 18
    "kummer p=3 degree 54": (3, [T.cyclotomic(9), T.kummer(9, 4)]),
    "kummer p=5": (5, [T.cyclotomic(5), T.kummer(5, 6)]),
    "kummer p=7": (7, [T.cyclotomic(7), T.kummer(7, 7)]),
    "quad p=3": (3, [T.cyclotomic(3), T.custom([-2, 0])]),
    "quad p=5": (5, [T.custom([-5, 5])]),
    "quad p=7": (7, [T.cyclotomic(7), T.custom([-3, 0])]),
    "custom p=2": (2, [T.cyclotomic(4), T.custom([-2, 0, 0])]),
    "custom p=3": (3, [T.custom([-3, 3, 0])]),
    "custom p=5": (5, [T.cyclotomic(5), T.custom([-5, 0, 0])]),
    "custom p=7": (7, [T.custom([-7, 0, 7])]),
}
_BUILT = {}


def _oracle_tower(name, towers=ORACLE_TOWERS):
    if name not in _BUILT:
        p, steps = towers[name]
        _BUILT[name] = build_field(p, steps)
    return _BUILT[name]


def _defining_poly(fld):
    """Monic defining polynomial of the layer over its base, low degree
    first, each coefficient a base vector.  Built from the step data,
    never from ``fld.relation``, so the oracle does not share the fold."""
    b, d = fld.base.n, fld.d
    one = [1] + [0] * (b - 1)
    if fld.kind == "cyclo":
        # Phi_{p^r}(x) = sum_{i < p} x^(i p^(r-1))
        step = fld.cyclo_modulus // fld.p
        return [[int(i % step == 0)] for i in range(d + 1)]
    if fld.kind == "kummer":
        return [[-a for a in fld.radicand.vec]] + [[0] * b] * (d - 1) + [one]
    return [list(c.vec) for c in fld.coeffs] + [one]


def _schoolbook(fld, xs, ys, pm, base_mul=None):
    """x * y in fld: the product of the two polynomials over the base,
    then long division by the layer's defining polynomial.  The products
    in the base are this schoolbook's own, or ``base_mul`` when given."""
    if fld.base is None:
        return [xs[0] * ys[0] % pm]
    base, b, d = fld.base, fld.base.n, fld.d
    mul = base_mul or (lambda u, v, pm: _schoolbook(base, u, v, pm))
    xb = [xs[i * b:(i + 1) * b] for i in range(d)]
    yb = [ys[i * b:(i + 1) * b] for i in range(d)]
    prod = [[0] * b for _ in range(2 * d - 1)]
    for i in range(d):
        for j in range(d):
            term = mul(xb[i], yb[j], pm)
            prod[i + j] = [u + v for u, v in zip(prod[i + j], term)]
    f = _defining_poly(fld)
    for t in range(2 * d - 2, d - 1, -1):
        q = [c % pm for c in prod[t]]
        for i in range(d + 1):
            term = mul(q, f[i], pm)
            prod[t - d + i] = [u - v for u, v in zip(prod[t - d + i], term)]
    return [c % pm for blk in prod[:d] for c in blk]


def _layers(K):
    while K.base is not None:
        yield K
        K = K.base


@pytest.mark.parametrize("name", sorted(ORACLE_TOWERS))
def test_products_match_schoolbook(name):
    K = _oracle_tower(name)
    p = K.p
    rng = random.Random(f"oracle:{name}")
    for fld in _layers(K):
        for m in (fld.M, 20):
            pm = p ** m
            for _ in range(3):
                x = [rng.randrange(pm) for _ in range(fld.n)]
                y = [rng.randrange(-p ** 4, p ** 4) for _ in range(fld.n)]
                assert list(fld._mul_mod(x, y, pm)) == _schoolbook(fld, x, y, pm)
                assert list(fld._mul_mod(x, x, pm)) == _schoolbook(fld, x, x, pm)


# ----------------------------------------------------------------------
# layer cofactors: doubling over the cyclic factors of the Galois group

# the unit groups C2 x C2, C2 x C4 and C2 x C8 of cyclo 8, 16 and 32 and
# the cyclic ones of cyclo 9, 25 and 49; Kummer layers at every p, over
# Kummer (degree 54) and over a custom Phi_3 layer; quadratic custom
# layers, whose cofactor comes from the characteristic polynomial
COFACTOR_TOWERS = {
    "cyclo p=2": ORACLE_TOWERS["cyclo p=2"],
    "cyclo p=2 r=4": (2, [T.cyclotomic(16)]),
    "cyclo p=2 r=5": (2, [T.cyclotomic(32)]),
    "cyclo p=3": ORACLE_TOWERS["cyclo p=3"],
    "cyclo p=5 r=2": (5, [T.cyclotomic(25)]),
    "cyclo p=7 r=2": (7, [T.cyclotomic(49)]),
    "kummer p=2": ORACLE_TOWERS["kummer p=2"],
    "kummer p=3": ORACLE_TOWERS["kummer p=3"],
    "kummer p=3 degree 54": ORACLE_TOWERS["kummer p=3 degree 54"],
    "kummer p=3 over custom": (3, [T.custom([1, 1]), T.kummer(3, 3)]),
    "kummer p=5": ORACLE_TOWERS["kummer p=5"],
    "kummer p=7": ORACLE_TOWERS["kummer p=7"],
    "quad p=3": ORACLE_TOWERS["quad p=3"],
    "quad p=3 unramified": (3, [T.custom([-18, 0])]),
    "quad p=5": ORACLE_TOWERS["quad p=5"],
    "quad p=7": ORACLE_TOWERS["quad p=7"],
}


def _conjugates(fld, vec, m):
    """The conjugates of vec other than vec: the layer's own on a Galois
    layer, and theta -> -b - theta on a quadratic layer x^2 + b x + c
    given by its coefficients."""
    if not hasattr(fld, "coeffs"):
        return list(fld._conjugates(vec, m))
    assert fld.d == 2
    pm, b = fld.p ** m, fld.base.n
    shift = fld.base._mul_mod(vec[b:], fld.coeffs[1].vec, pm)
    return [tuple((x - c) % pm for x, c in zip(vec[:b], shift))
            + tuple(-x % pm for x in vec[b:])]


@pytest.mark.parametrize("name", sorted(COFACTOR_TOWERS))
def test_cofactor_matches_sequential_product(name):
    K = _oracle_tower(name, COFACTOR_TOWERS)
    rng = random.Random(f"cofactor:{name}")
    for fld in _layers(K):
        for m in (fld.M, fld.M // 2):
            pm = fld.p ** m
            for k in (fld.d, 1):            # dense, then one block
                x = _with_blocks(rng, fld, k, 0, pm)
                prod = None
                for cv in _conjugates(fld, x, m):
                    prod = cv if prod is None else fld._mul_mod(prod, cv, pm)
                norm = fld._project(fld._mul_mod(prod, x, pm), m)
                assert fld._layer_cofactor(x, m) == (prod, norm)


# layer products per cofactor and norm: floor(log2(k-1)) + popcount(k-1)
# for each cyclic factor of order k, and one more for each factor after
# the first; one after another, the d - 1 conjugates and the norm take
# d - 1 (19, 7, 4 and 6 here)
@pytest.mark.parametrize("name, products", [
    ("cyclo p=5 r=2", 7), ("cyclo p=2 r=4", 5), ("kummer p=5", 3),
    ("kummer p=7", 4)])
def test_cofactor_product_count(name, products):
    K = _oracle_tower(name, COFACTOR_TOWERS)
    rng = random.Random(f"cofactor count:{name}")
    calls = []
    real = K._mul_mod

    def counting(xs, ys, pm):
        calls.append(pm)
        return real(xs, ys, pm)

    K._mul_mod = counting
    try:
        K._layer_cofactor(_with_blocks(rng, K, K.d, 0, K.pM), K.M)
    finally:
        del K._mul_mod
    assert len(calls) == products


# ----------------------------------------------------------------------
# block products: Karatsuba for dense operands, zero-block skipping else

# layers of degree d over a base that is not Q_p, each tower's top a
# Kummer layer x^d = a, whose relation has one term
KARATSUBA_TOWERS = {2: "kummer p=2", 3: "kummer p=3 degree 54",
                    5: "kummer p=5", 7: "kummer p=7"}


def _block_shapes(d):
    """(nx, ny) counts of nonzero blocks: dense, one block, and the shapes
    closest to the switch nx ny = d(d+1)/2 on either side (at it when
    some nx ny equals it)."""
    switch = d * (d + 1) // 2
    pairs = [(a, b) for a in range(1, d + 1) for b in range(1, d + 1)]
    below = max(a * b for a, b in pairs if a * b <= switch)
    above = min(a * b for a, b in pairs if a * b > switch)
    return sorted({(d, d), (1, d), (d, 1), (1, 1)}
                  | {(a, b) for a, b in pairs if a * b in (below, above)})


def _with_blocks(rng, fld, k, lo, hi):
    """A vector of fld with k nonzero blocks, entries drawn from [lo, hi)."""
    b = fld.base.n
    keep = rng.sample(range(fld.d), k)
    return [rng.randrange(lo, hi) if i // b in keep else 0
            for i in range(fld.n)]


@pytest.mark.parametrize("d", sorted(KARATSUBA_TOWERS))
def test_block_products_match_schoolbook(d):
    K = _oracle_tower(KARATSUBA_TOWERS[d])
    p = K.p
    rng = random.Random(f"karatsuba:{d}")
    for fld in _layers(K):
        if fld.base.base is None:
            continue
        assert fld.d == d
        for m in (fld.M, 20):
            pm = p ** m
            # reduced entries, then unreduced ones: negative and >= p^m
            for lo, hi in ((0, pm), (-pm, 2 * pm)):
                for nx, ny in _block_shapes(d):
                    x = _with_blocks(rng, fld, nx, lo, hi)
                    y = _with_blocks(rng, fld, ny, lo, hi)
                    assert (list(fld._mul_mod(x, y, pm))
                            == _schoolbook(fld, x, y, pm))
                # the last shape is (d, d): a dense square
                assert list(fld._mul_mod(x, x, pm)) == _schoolbook(fld, x, x, pm)


@pytest.mark.parametrize("d", sorted(KARATSUBA_TOWERS))
def test_block_product_counts(d):
    K = _oracle_tower(KARATSUBA_TOWERS[d])
    base, pm = K.base, K.pM
    rng = random.Random(f"karatsuba count:{d}")
    calls = []
    real = base._mul_mod

    def counting(xs, ys, m):
        calls.append(m)
        return real(xs, ys, m)

    base._mul_mod = counting
    try:
        def count(x, y):
            calls.clear()
            K._mul_mod(x, y, pm)
            return len(calls)
        x, y = (_with_blocks(rng, K, d, 0, pm) for _ in range(2))
        # d(d+1)/2 for the convolution (schoolbook: d^2); the fold by the
        # monomial relation x^d = a goes through the layer's fold table and
        # makes no base product; the modulus is above the packed-product gate
        assert pm > _packed_gate_moduli(K)[0]
        assert len(K.relation) == 1 and K._fold_rows is not None
        assert count(x, y) == d * (d + 1) // 2
        assert count(x, x) == d * (d + 1) // 2
        # one block at theta^0 times a dense y: d products, nothing to fold
        one = [c if i < base.n else 0 for i, c in enumerate(x)]
        assert count(one, y) == d
        assert count(y, one) == d
    finally:
        del base._mul_mod


# ----------------------------------------------------------------------
# packed products: one integer multiply for dense operands at a narrow p^m

# layers over a base that is not Q_p: Kummer over Kummer (degree 54),
# quadratic (both unramified, f = 2), custom, Kummer over the custom
# layer x^2 + x + 1, an unramified Kummer layer (f = 3), and a custom
# layer over an unramified quadratic base (f = 2)
PACKED_TOWERS = {
    "kummer p=3 degree 54": ORACLE_TOWERS["kummer p=3 degree 54"],
    "quad p=3": ORACLE_TOWERS["quad p=3"],
    "quad p=7": ORACLE_TOWERS["quad p=7"],
    "custom p=2": ORACLE_TOWERS["custom p=2"],
    "custom p=5": ORACLE_TOWERS["custom p=5"],
    "kummer p=3 over custom": COFACTOR_TOWERS["kummer p=3 over custom"],
    "kummer p=3 unramified": (3, [T.cyclotomic(3),
                                  T.kummer(3, {0: 2, 1: -3})]),
    "custom p=3 over f=2": (3, [T.custom([-2, 0]), T.custom([-3, 0, 0])]),
}


def _packed_gate_digits(fld):
    """The most digits m with p^m at most d^_PACKED_EXPONENT, d the degree
    of the layer fld over its base: the widest modulus below its
    packed-product gate."""
    m = 1
    while fld.p ** (m + 1) <= fld.d ** _PACKED_EXPONENT:
        m += 1
    return m


def _packed_gate_moduli(fld):
    """p^m just below and just above the packed-product gate of fld."""
    m = _packed_gate_digits(fld)
    return fld.p ** m, fld.p ** (m + 1)


def _spy_packed(monkeypatch):
    """The layers of every ``_packed`` call from now on, in call order."""
    calls = []
    real = LocalField._packed

    def spy(fld, xs, ys, pm):
        calls.append(fld)
        return real(fld, xs, ys, pm)

    monkeypatch.setattr(LocalField, "_packed", spy)
    return calls


@pytest.mark.parametrize("name", sorted(PACKED_TOWERS))
def test_packed_products_match_schoolbook(name, monkeypatch):
    K = _oracle_tower(name, PACKED_TOWERS)
    rng = random.Random(f"packed:{name}")
    layers = [fld for fld in _layers(K) if fld.base.base is not None]
    assert layers
    calls = _spy_packed(monkeypatch)
    for fld in layers:
        d = fld.d
        for pm, packs in zip(_packed_gate_moduli(fld), (True, False)):
            # reduced entries, then unreduced ones: negative and >= p^m
            for lo, hi in ((0, pm), (-pm, 2 * pm)):
                for nx, ny in _block_shapes(d):
                    x = _with_blocks(rng, fld, nx, lo, hi)
                    y = _with_blocks(rng, fld, ny, lo, hi)
                    assert (list(fld._mul_mod(x, y, pm))
                            == _schoolbook(fld, x, y, pm))
                # the last shape is (d, d): a dense square, which packs
                # below the layer's own gate and not above it
                calls.clear()
                assert list(fld._mul_mod(x, x, pm)) == _schoolbook(fld, x, x, pm)
                assert (calls[:1] == [fld]) == packs


@pytest.mark.parametrize("d", sorted(KARATSUBA_TOWERS))
def test_packed_product_dispatch(d):
    K = _oracle_tower(KARATSUBA_TOWERS[d])
    base = K.base
    rng = random.Random(f"packed dispatch:{d}")
    below, above = _packed_gate_moduli(K)
    calls = []
    real = base._mul_mod

    def counting(xs, ys, m):
        calls.append(m)
        return real(xs, ys, m)

    base._mul_mod = counting
    try:
        def count(x, y, pm):
            calls.clear()
            K._mul_mod(x, y, pm)
            return len(calls)
        x, y = (_with_blocks(rng, K, d, 1, below) for _ in range(2))
        # below the gate the dense product is one packed multiply, read
        # back through the tower's slot table: the base kernel is not called
        assert len(K.relation) == 1 and K._slot_table is not None
        assert count(x, y, below) == 0
        assert count(x, x, below) == 0
        # above it, d(d+1)/2 base products convolve, and the fold by the
        # monomial relation x^d = a makes none
        assert count(x, y, above) == d * (d + 1) // 2
        # a sparse operand skips zero blocks on both sides of the gate
        one = [c if i < base.n else 0 for i, c in enumerate(x)]
        for pm in (below, above):
            assert count(one, y, pm) == d
    finally:
        del base._mul_mod


# a layer whose relation constant is dense: the top layer of
# Q_3(zeta_9, (3 2^9)^(1/9)), whose normalized radicand has 18 nonzero
# coordinates over its base
DENSE_TOWER = {"kummer p=3 dense": (3, [T.cyclotomic(9),
                                        T.kummer(9, 3 * 2 ** 9)])}


def test_dense_relation_folds_by_base_products():
    K = _oracle_tower("kummer p=3 dense", DENSE_TOWER)
    base, d = K.base, K.d
    ((_, r),) = K.relation
    assert sum(map(bool, r)) > 1
    assert K._fold_rows is None and K._slot_table is None
    rng = random.Random("dense fold count")
    below, above = _packed_gate_moduli(K)
    calls = []
    real = base._mul_mod

    def counting(xs, ys, m):
        calls.append(m)
        return real(xs, ys, m)

    base._mul_mod = counting
    try:
        def count(x, y, pm):
            calls.clear()
            assert list(K._mul_mod(x, y, pm)) == _schoolbook(K, x, y, pm)
            return len(calls)
        x, y = (_with_blocks(rng, K, d, 1, below) for _ in range(2))
        # below the gate the packed multiply folds by x^d = a through the
        # matrix of a, which the first fold makes with one base product per
        # basis vector and the layer keeps; above it, one base product per
        # nonzero top block after the d(d+1)/2 of the convolution
        assert count(x, y, below) == base.n
        assert count(x, y, below) == 0
        assert count(x, y, above) == d * (d + 1) // 2 + d - 1
    finally:
        del base._mul_mod


def test_packed_product_cap(monkeypatch):
    # a layer whose packed product would pass _PACKED_PRODUCT_BITS
    # convolves its blocks, and the base products pack in turn
    K = _oracle_tower("kummer p=3 degree 54")
    base, d = K.base, K.d
    assert base.base.base is not None
    rng = random.Random("packed cap")
    below, _ = _packed_gate_moduli(K)
    top = 8 * _slot_bytes(K.n, below) * K._init_packing()[2]
    x, y = (_with_blocks(rng, K, d, 0, below) for _ in range(2))
    want = _schoolbook(K, x, y, below)
    calls = []
    for fld in (K, base):
        def counting(xs, ys, pm, real=fld._packed, fld=fld):
            calls.append(fld)
            return real(xs, ys, pm)
        fld._packed = counting
    try:
        monkeypatch.setattr(fields, "_PACKED_PRODUCT_BITS", top - 1)
        assert list(K._mul_mod(x, y, below)) == want
        assert K not in calls and len(calls) >= d * (d + 1) // 2
        calls.clear()
        monkeypatch.setattr(fields, "_PACKED_PRODUCT_BITS", top)
        assert list(K._mul_mod(x, y, below)) == want
        assert calls == [K]
    finally:
        del K._packed, base._packed


def test_packed_layout_is_kept_on_the_layer():
    # the layout and the gate's limit are set on the layer's first dense
    # product and reused; they keep no reference that outlives the tower
    p, steps = ORACLE_TOWERS["kummer p=3 degree 54"]
    K = build_field(p, steps)
    below, _ = _packed_gate_moduli(K)
    x = [1 + i for i in range(K.n)]
    assert K._packing is None
    K._mul_mod(x, x, below)
    layout = K._packing
    assert layout is not None
    K._mul_mod(x, x, below)
    assert K._packing is layout
    ref = weakref.ref(K)
    del K, layout
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name", sorted(ORACLE_TOWERS))
def test_products_packed_at_64_bits_still_pack(name, monkeypatch):
    # the gate replaced a flat one that packed every dense product while
    # p^m had at most 64 bits and the packed product fitted the cap
    K = _oracle_tower(name)
    rng = random.Random(f"64 bits:{name}")
    calls = _spy_packed(monkeypatch)
    for fld in _layers(K):
        if fld.base.base is None:
            continue
        size = fld._init_packing()[2]
        m = 1
        while (fld.p ** m).bit_length() <= 64:
            pm = fld.p ** m
            if 8 * _slot_bytes(fld.n, pm) * size <= _PACKED_PRODUCT_BITS:
                x, y = (_with_blocks(rng, fld, fld.d, 1, pm) for _ in "xy")
                calls.clear()
                fld._mul_mod(x, y, pm)
                assert calls[:1] == [fld], (fld.name, m)
            m += 1


# the eleven towers of the benchmark's invariants workload, with the two
# p^r-th power radicand factors b^(p^r) it draws
LOG_TOWERS = ([(p, 1, p) for p in (3, 5, 7)]
              + [(p, 1, 1 + p) for p in (3, 5, 7)]
              + [(3, 2, 3), (3, 2, 4), (2, 2, 2), (2, 2, 5), (2, 3, 3)])


@pytest.mark.parametrize("p, r, a", LOG_TOWERS)
def test_log_products_pack(p, r, a, monkeypatch):
    # every dense product that l_invariant(p (1 + pi)) and l_invariant of
    # its square make, at the log's cut of 29-149 bits, takes one packed
    # multiply.  v(q) is read first: its frame walk runs at the working
    # precision of q, before the log cuts x, and is not a log product
    dense, unpacked, open_calls = [], [], []
    real_mul, real_packed = LocalField._mul_mod, LocalField._packed

    def mul(fld, xs, ys, pm):
        if fld.base is None or fld.base.base is None:
            return real_mul(fld, xs, ys, pm)
        b, d = fld.base.n, fld.d
        nx, ny = (sum(any(v[i * b:(i + 1) * b]) for i in range(d))
                  for v in (xs, ys))
        if nx * ny <= d * (d + 1) // 2:         # sparse: skips zero blocks
            return real_mul(fld, xs, ys, pm)
        dense.append((fld.n, pm.bit_length()))
        open_calls.append(False)
        try:
            return real_mul(fld, xs, ys, pm)
        finally:
            if not open_calls.pop():
                unpacked.append((fld.n, pm.bit_length()))

    def packed(fld, xs, ys, pm):
        open_calls[-1] = True
        return real_packed(fld, xs, ys, pm)

    bs = [b for b in range(2, 6) if b % p][:2]
    for b in bs:
        K = KummerFieldSpec(p, r, a * b ** p ** r).build()
        q = K.from_int(p) * (K.one() + K.pi)
        qq = q * q
        q.valuation(), qq.valuation()
        monkeypatch.setattr(LocalField, "_mul_mod", mul)
        monkeypatch.setattr(LocalField, "_packed", packed)
        l_invariant(q), l_invariant(qq)
        monkeypatch.undo()
    assert dense
    assert unpacked == []


# ----------------------------------------------------------------------
# integer products: Karatsuba for dense operands at a wide modulus p^m,
# the zero-skipping schoolbook otherwise

# cyclotomic layers on Q_p, by d; d = 18 halves to 9, an odd split
INTEGER_LAYERS = {2: (2, 4), 4: (5, 5), 6: (7, 7), 18: (3, 27), 20: (5, 25)}


def _integer_layer(d):
    p, modulus = INTEGER_LAYERS[d]
    return build_field(p, [T.cyclotomic(modulus)])


def _gate_moduli(p):
    """p^m just below and just above the Karatsuba gate, by bit length."""
    m = 1
    while (p ** m).bit_length() < _KARATSUBA_BITS:
        m += 1
    return p ** (m - 1), p ** m


@pytest.mark.parametrize("d", sorted(INTEGER_LAYERS))
def test_integer_products_match_schoolbook(d):
    fld = _integer_layer(d)
    assert fld.d == d and fld.base.base is None
    rng = random.Random(f"integer karatsuba:{d}")
    for pm in _gate_moduli(fld.p):
        # reduced entries, then unreduced ones: negative and >= p^m
        for lo, hi in ((0, pm), (-pm, 2 * pm)):
            for nx, ny in _block_shapes(d):
                x = _with_blocks(rng, fld, nx, lo, hi)
                y = _with_blocks(rng, fld, ny, lo, hi)
                assert list(fld._mul_mod(x, y, pm)) == _schoolbook(fld, x, y, pm)
            # the last shape is (d, d): a dense square
            assert list(fld._mul_mod(x, x, pm)) == _schoolbook(fld, x, x, pm)


@pytest.mark.parametrize("d", sorted(INTEGER_LAYERS))
def test_integer_product_dispatch(d):
    fld = _integer_layer(d)
    rng = random.Random(f"integer dispatch:{d}")
    calls = []
    real = fld._karatsuba

    def counting(xs, ys):
        calls.append(len(xs))
        return real(xs, ys)

    fld._karatsuba = counting
    try:
        below, above = _gate_moduli(fld.p)
        for nx, ny in _block_shapes(d):
            x = _with_blocks(rng, fld, nx, 0, above)
            y = _with_blocks(rng, fld, ny, 0, above)
            for pm in (below, above):
                calls.clear()
                fld._mul_mod(x, y, pm)
                # dense (nx ny > d(d+1)/2) above the gate: one top-level
                # call on the whole operands; otherwise the schoolbook
                karatsuba = pm == above and nx * ny > d * (d + 1) // 2
                assert calls[:1] == ([d] if karatsuba else [])
    finally:
        del fld._karatsuba


@pytest.mark.parametrize("modulus", (8, 9, 25, 7))
def test_zeta_poly_matches_generator_powers(modulus):
    p = next(q for q in (2, 3, 5, 7) if modulus % q == 0)
    K = build_field(p, [T.cyclotomic(modulus)])
    z = K.gen()
    for t in range(2 * modulus):
        assert K.from_zeta_poly({t: 1}).vec == (z ** t).vec
    # exponents that collide mod p^r, and exponents past p^r, fold as sums
    poly = {3: 2, 3 + modulus: -5, 2 * modulus + 1: 4, modulus - 1: 7,
            2 * modulus - 1: -1}
    want = K.zero()
    for t, c in poly.items():
        want = want + z ** t * c
    assert K.from_zeta_poly(poly).vec == want.vec


RING_TOWERS = ("cyclo p=3", "kummer p=2", "kummer p=5", "quad p=7",
               "custom p=3")


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_ring_axioms(data):
    K = _oracle_tower(data.draw(st.sampled_from(RING_TOWERS)))
    p = K.p
    vecs = st.lists(st.integers(-p ** 6, p ** 6), min_size=K.n, max_size=K.n)
    x, y, z = (FieldElement(K, data.draw(vecs)) for _ in range(3))
    assert ((x * y) * z).vec == (x * (y * z)).vec
    assert (x * (y + z)).vec == (x * y + x * z).vec
    try:
        xi = x.inv()
    except ZeroDivisionError:     # x is zero to precision
        return
    e = x * xi - 1
    assert all(a % p ** e.m == 0 for a in e.vec)


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_difference_is_the_sum_with_the_negation(data):
    # x - y and n - x build no negated copy, and give the (vec, s, m,
    # exact) of x + (-y) and (-x) + n, at different denominators and
    # precisions
    K = _oracle_tower(data.draw(st.sampled_from(RING_TOWERS)))
    p = K.p
    vecs = st.lists(st.integers(-p ** 6, p ** 6), min_size=K.n, max_size=K.n)
    x, y = (FieldElement(K, data.draw(vecs), s, data.draw(
        st.integers(s + 12, K.M))) for s in data.draw(
            st.lists(st.integers(0, 3), min_size=2, max_size=2)))
    n = data.draw(st.integers(-p ** 4, p ** 4))

    def key(w):
        return w.vec, w.s, w.m, w.exact

    assert key(x - y) == key(x + (-y))
    assert key(n - x) == key((-x) + n)
    assert key(x - n) == key(x + (-K.from_int(n)))


def _no_layer_product(*args):
    raise AssertionError("a layer product")


def _constant(K, q):
    """q = a / (p^t b) as the vector (a b^-1 mod p^M, 0, ...) over p^t,
    exact when q is an int, as from_int and from_fraction made it."""
    t = 0
    while q.denominator % K.p ** (t + 1) == 0:
        t += 1
    a = q.numerator * pow(q.denominator // K.p ** t, -1, K.pM) % K.pM
    return FieldElement(K, [a] + [0] * (K.n - 1), t, K.M,
                        exact=isinstance(q, int))


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_a_product_by_a_number_scales_the_coordinates(data):
    # k x, x k, x q for q = a / (p^t b) and -x give the (vec, s, m, exact)
    # of the product with the constant element k, q or -1, on unreduced
    # and negative vectors, at s > 0 and at m > M, and make no layer
    # product; so does K.from_fraction(q)
    K = _oracle_tower(data.draw(st.sampled_from(RING_TOWERS)))
    p = K.p
    s = data.draw(st.integers(0, 3))
    m = data.draw(st.sampled_from([s + 15, K.M, K.M + 2,
                                   data.draw(st.integers(s + 15, K.M))]))
    pm = p ** m
    x = FieldElement(K, data.draw(st.lists(st.integers(-2 * pm, 2 * pm),
                                           min_size=K.n, max_size=K.n)),
                     s, m, exact=data.draw(st.booleans()))
    k = data.draw(st.sampled_from([-1, 0, 1, 2, p, 3 * p, p ** 2 - 1,
                                   data.draw(st.integers(-p ** 9, p ** 9))]))
    q = Fraction(data.draw(st.integers(-p ** 4, p ** 4)),
                 p ** data.draw(st.integers(0, 3))
                 * data.draw(st.integers(1, p ** 2).filter(lambda b: b % p)))

    def key(w):
        return w.vec, w.s, w.m, w.exact

    want = [key(_constant(K, k) * x), key(x * _constant(K, k)),
            key(x * _constant(K, q)), key(x * _constant(K, -1)),
            key(_constant(K, q))]
    with mock.patch.object(LocalField, "_mul_mod", _no_layer_product), \
            mock.patch.object(fields.QpField, "_mul_mod", _no_layer_product):
        got = [key(k * x), key(x * k), key(x * q), key(-x),
               key(K.from_fraction(q))]
    assert got == want


# ----------------------------------------------------------------------
# products by a layer's fixed constants through integer matrices


def test_walk_above_the_gate_makes_no_matrix():
    # a walk at the working precision of the degree-54 tower's top layer,
    # past its base's packing limit, multiplies by beta through base
    # products; a walk at 12 digits makes the matrix
    K = build_field(3, [T.cyclotomic(9), T.kummer(9, 4)])
    rng = random.Random("walk gate")
    x = [rng.randrange(K.pM) for _ in range(K.n)]
    assert K.pM > K._fixed.limit
    K._val(x, 0, K.M)
    assert not K._fixed._rows
    K._val(x, 0, 12)
    assert K._fixed._rows


def test_a_wrong_matrix_entry_changes_a_vector():
    # a mutant matrix, one entry off by one, gives another product
    K = build_field(3, [T.cyclotomic(9), T.kummer(9, 3)])
    fixed, B = K._fixed, K.base
    ((_, r),) = K.relation
    pm = 3 ** 12
    x = [1] * B.n
    want = fixed.mul(x, r, pm)
    (get, ms), *rest = fixed._rows[r]
    fixed._rows[r] = ((get, (ms[0] + 1,) + ms[1:]), *rest)
    assert fixed.mul(x, r, pm) != want
    assert list(B._mul_mod(x, r, pm)) == want
