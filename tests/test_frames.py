"""Valuations read off the per-layer frames against the norm oracle.

Each certified layer carries a frame gen = gamma delta + beta, and
``val_or_bound`` reads v_K from it layer by layer.  The full norm
valuation ``norm_valuation`` (v_p(N(x)) / f) is the oracle: on
random elements of towers whose top layer has each frame shape (cyclo;
Eisenstein, unit and unramified Kummer; ramified and unramified
quadratic; custom) the two must agree whenever both certify, and a bound
from the frame must not exceed the norm's value.  The same draws check
v(xy) = v(x) + v(y) and the ultrametric inequality.  A seeded sweep at
low precision checks that every frame answer holds for each lift of the
element to a higher precision.  The random draws are known mod p^M or
mod a narrow p^m below the packed-product gate, where dense products are
one packed multiply and a layer over Q_p reads its integer coordinates
in its own walk, as in Tate's algorithm.

The residues the same walk reads (``residue_at``) are checked against
a lift scan: the first c in F_q whose lift ``K.lift(c)`` has
v(x / pi^k - lift) >= 1.  The draws also check that residues multiply,
res(xy / pi^(a+b)) = res(x / pi^a) res(y / pi^b).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anabelomorph.fields import (_MIN_EFFECTIVE, FieldElement, FieldError,
                                 LocalField, TowerStep, build_field,
                                 find_uniformizer, norm_to_qp, residue)
from anabelomorph.padic import PrecisionError
from test_kernels import _packed_gate_digits

T = TowerStep

# (shape, p) -> steps; the top layer of each tower has the named shape.
# Quadratic layers need odd p.
FRAME_TOWERS = {
    ("cyclo", 2): [T.cyclotomic(8)],
    ("cyclo", 3): [T.cyclotomic(9)],
    ("cyclo", 5): [T.cyclotomic(25)],
    ("cyclo", 7): [T.cyclotomic(7)],
    ("kummer-eisenstein", 2): [T.kummer(2, 2)],
    ("kummer-eisenstein", 3): [T.cyclotomic(3), T.kummer(9, 3)],
    ("kummer-eisenstein", 5): [T.cyclotomic(5), T.kummer(5, 5)],
    ("kummer-eisenstein", 7): [T.cyclotomic(7), T.kummer(7, 7)],
    ("kummer-unit", 2): [T.cyclotomic(4), T.kummer(4, 5)],
    ("kummer-unit", 3): [T.cyclotomic(9), T.kummer(9, 3)],
    ("kummer-unit", 5): [T.cyclotomic(5), T.kummer(5, 2)],
    ("kummer-unit", 7): [T.cyclotomic(7), T.kummer(7, 2)],
    ("kummer-unramified", 2): [T.kummer(2, 5)],
    ("kummer-unramified", 3): [T.cyclotomic(3), T.kummer(3, {0: 2, 1: -3})],
    ("kummer-unramified", 5): [T.cyclotomic(5), T.kummer(5, {0: 2, 1: 5})],
    ("kummer-unramified", 7): [T.cyclotomic(7), T.kummer(7, {0: 6, 1: -7})],
    ("quad-ramified", 3): [T.custom([-3, 3])],
    ("quad-ramified", 5): [T.custom([-5, 5])],
    ("quad-ramified", 7): [T.custom([-7, 7])],
    ("quad-unramified", 3): [T.custom([-18, 0])],
    ("quad-unramified", 5): [T.custom([2, 1])],
    ("quad-unramified", 7): [T.cyclotomic(7), T.custom([-3, 0])],
    ("custom", 2): [T.cyclotomic(4), T.custom([-2, 0, 0])],
    ("custom", 3): [T.custom([-3, 3, 0])],
    ("custom", 5): [T.cyclotomic(5), T.custom([-5, 0, 0])],
    ("custom", 7): [T.custom([-49, 0, 0, 7, 0])],
}
# the residue reads add x^2 - 2 over Q_3 (residue degree 2), and layers
# whose constants c1 = res(pi_B / pi^scale), c2 = res(delta / pi^w) are
# not +-1, so that c^-1 != c
RESIDUE_TOWERS = dict(FRAME_TOWERS)
RESIDUE_TOWERS.update({
    ("quad-unramified-x2-2", 3): [T.custom([-2, 0])],
    ("quad-ramified-x2-10", 5): [T.custom([-10, 0])],                # c1 = 3
    ("kummer-eisenstein-50", 5): [T.cyclotomic(5), T.kummer(5, 50)],  # c2 = 3
    ("kummer-eisenstein-98", 7): [T.cyclotomic(7), T.kummer(7, 98)],  # c2 = 2
    ("custom-x3-21", 7): [T.custom([-21, 0, 0])],                     # c1 = 5
    # the least frame term of pi has residue 2 here, and c1 = c2 = 3
    ("kummer-unit-2+z", 5): [T.cyclotomic(5), T.kummer(5, {0: 2, 1: 1})],
})
_BUILT = {}


def _tower(key):
    if key not in _BUILT:
        _BUILT[key] = build_field(key[1], RESIDUE_TOWERS[key])
    return _BUILT[key]


def _shape(K):
    beta, _, scale, _ = K.frame
    for prefix in ("ramified", "unramified"):
        if K.certificate.startswith(f"{prefix} quadratic"):
            return f"quad-{prefix}"
    if K.kind in ("cyclo", "custom"):
        return K.kind
    if scale == 1:
        return f"{K.kind}-unramified"
    return "kummer-unit" if beta is not None else "kummer-eisenstein"


def _fresh(x):
    """x with no cached valuation (products carry their factors' sum)."""
    return FieldElement(x.field, x.vec, x.s, x.m)


def _lift_full(x):
    """x's vector known mod p^M: a lift of a narrow x, with the same
    certified valuation and residue, and no cached valuation."""
    return FieldElement(x.field, x.vec, x.s, x.field.M)


def norm_valuation(x):
    """v_K(x) = v_p(N_{K/Q_p}(x)) / f from the full norm, independent of
    the frames; raises PrecisionError when the norm is zero to precision."""
    v = norm_to_qp(x).valuation()
    assert v % x.field.f == 0
    return v // x.field.f


def _oracle(x):
    try:
        return norm_valuation(x)
    except PrecisionError:
        return None


def _check_against_norm(x):
    v, bound = x.val_or_bound()
    vn = _oracle(x)
    if v is not None and vn is not None:
        assert v == vn
    elif vn is not None:
        assert bound <= vn
    return v


@st.composite
def _elements(draw, K):
    """Sparse vectors of mixed p-adic size, whole blocks over the base
    left out at random, with a small denominator, known mod p^M or mod a
    narrow p^m below the packed-product gate."""
    p = K.p
    b = K.base.n
    keep = draw(st.lists(st.booleans(), min_size=K.d, max_size=K.d))
    vec = [draw(st.sampled_from([0, 1, -1, p, 1 + p, p ** 3 - 1]))
           * p ** draw(st.integers(0, 4)) if keep[i // b] else 0
           for i in range(K.n)]
    # a product of two draws, of s <= 4, keeps _MIN_EFFECTIVE digits
    m = draw(st.sampled_from(
        [K.M, draw(st.integers(4 + _MIN_EFFECTIVE, _packed_gate_digits(K)))]))
    return FieldElement(K, vec, draw(st.integers(0, 2)), m)


@pytest.mark.parametrize("key", sorted(FRAME_TOWERS),
                         ids=[f"{s}-p{p}" for s, p in sorted(FRAME_TOWERS)])
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_frame_valuation_matches_norm(key, data):
    K = _tower(key)
    assert _shape(K) == key[0]
    x, y = data.draw(_elements(K)), data.draw(_elements(K))
    vx, vy = _check_against_norm(x), _check_against_norm(y)
    vxy = _check_against_norm(_fresh(x * y))
    if None not in (vx, vy, vxy):
        assert vxy == vx + vy
    vs = _check_against_norm(x + y)
    if vs is not None and None not in (vx, vy):
        assert vs >= min(vx, vy)
        if vx != vy:
            assert vs == min(vx, vy)


@pytest.mark.parametrize("key", sorted(FRAME_TOWERS),
                         ids=[f"{s}-p{p}" for s, p in sorted(FRAME_TOWERS)])
def test_frame_answer_holds_for_every_lift(key):
    # at a low precision m, a certified valuation must be that of every
    # element the numerator stands for, and a bound must hold for each;
    # digits up to p^15 and whole blocks left out reach the edge where
    # a term known only by its bound decides the answer
    K = _tower(key)
    p, b = K.p, K.base.n
    rng = random.Random(f"lift:{key}")
    for _ in range(150):
        s = rng.randrange(3)
        m = s + rng.randrange(12, 17)
        keep = [rng.random() < 0.5 for _ in range(K.d)]
        vec = [rng.choice((0, 1, -1, p, 1 + p)) * p ** rng.randrange(16)
               if keep[i // b] else 0 for i in range(K.n)]
        v, bound = FieldElement(K, vec, s, m).val_or_bound()
        lift = FieldElement(K, [a + p ** m * rng.randrange(p ** 6)
                                for a in vec], s, m + 6)
        vl, bl = lift.val_or_bound()
        if v is not None:
            assert vl == v
        else:
            assert (bl if vl is None else vl) >= bound


@pytest.mark.parametrize("key", sorted(FRAME_TOWERS),
                         ids=[f"{s}-p{p}" for s, p in sorted(FRAME_TOWERS)])
def test_base_element_valuation_stays_below_the_floor(key):
    # an element of the base, its digits at the edge p^(m-3) .. p^(m-1)
    # of its modulus: every layer certifies a valuation only below
    # e (m - s), so the base's answer, scaled by e(K/B), is the layer's.
    # LocalField._val therefore takes a certified base valuation on such
    # elements with no floor check: it never reaches e (m - s)
    K = _tower(key)
    p, B = K.p, K.base
    scale = K.frame[2]
    rng = random.Random(f"floor:{key}")
    for _ in range(100):
        s = rng.randrange(3)
        m = s + rng.randrange(12, 17)
        vec = [rng.choice((0, 0, 1, -1, 1 + p)) * p ** (m - rng.randrange(1, 4))
               for _ in range(B.n)]
        vb, bb, _ = B._val(vec, s, m)
        v, bound, _ = K._val(vec + [0] * (K.n - B.n), s, m)
        if vb is not None:
            assert vb < B.e * (m - s)
            assert (v, bound) == (scale * vb, None)
        else:
            assert v is None and bound == min(K.e * (m - s), scale * bb)


@pytest.mark.parametrize("key", sorted(FRAME_TOWERS),
                         ids=[f"{s}-p{p}" for s, p in sorted(FRAME_TOWERS)])
def test_frame_certifies_uniformizer_and_base(key):
    K = _tower(key)
    assert K.pi.valuation() == 1
    assert K.embed(K.base.pi).valuation() == K.e // K.base.e
    assert K.from_int(K.p).valuation() == K.e


@pytest.mark.slow
def test_radicand_6_degree_500_uniformizer_certified():
    # the norm of this uniformizer carries 5^1000 under a modulus of
    # 5^604, so the norm could not certify it; the frames do
    K = build_field(5, [T.cyclotomic(25), T.kummer(25, 6)])
    assert K.n == 500
    assert _fresh(K.pi).val_or_bound() == (1, None)
    assert find_uniformizer(K) is K.pi


# ----------------------------------------------------------------------
# residues read off the frames


def _scan_residue(x, k):
    """The residue of x / pi^k by the lift scan; None when the scan cannot
    decide, or when q >= 1000 (the scan costs up to q walks)."""
    K = x.field
    F = K.residue_field
    if F.q >= 1000:
        return None
    y = x * K.pi_pow(-k)
    try:
        for c in F.elements:
            if K.val_at_least(y - K.lift(c), 1):
                return c
    except PrecisionError:
        return None
    return None


@pytest.mark.parametrize("key", sorted(RESIDUE_TOWERS),
                         ids=[f"{s}-p{p}" for s, p in sorted(RESIDUE_TOWERS)])
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_residue_read_matches_lift_scan(key, data):
    K = _tower(key)
    F = K.residue_field
    assert F.q == K.p ** K.f
    x, y = data.draw(_elements(K)), data.draw(_elements(K))
    vx, vy = x.val_or_bound()[0], y.val_or_bound()[0]
    if vx is None or vy is None:
        return
    rx, ry = K.residue_at(x, vx), K.residue_at(y, vy)
    assert any(rx) and any(ry)
    # the scan runs at full precision, on a lift of a narrow draw
    want = _scan_residue(_lift_full(x), vx)
    if want is not None:
        assert rx == want
    # above the valuation the residue is 0, below it there is none
    assert K.residue_at(_fresh(x), vx - 1) == F.zero
    with pytest.raises(FieldError):
        K.residue_at(_fresh(x), vx + 1)
    # residues multiply, read afresh off the product's frame
    rxy = K.residue_at(_fresh(x * y), vx + vy)
    assert rxy == F.mul(rx, ry)
    # the public residue of an integral element is the scan's
    if vx >= 0:
        z = _fresh(x) if vx == 0 else _fresh(x) + K.one()
        c, lift = K.residue(z)
        want = _scan_residue(_lift_full(z), 0)
        if want is not None:
            assert c == want and residue(z)[0] == want
        # the lift is the one K.lift makes, and reduces to c
        made = K.lift(c)
        assert (lift.vec, lift.s, lift.m) == (made.vec, made.s, made.m)
        assert K.val_at_least(_fresh(z) - lift, 1)


@pytest.mark.parametrize("key", sorted(RESIDUE_TOWERS),
                         ids=[f"{s}-p{p}" for s, p in sorted(RESIDUE_TOWERS)])
def test_residue_read_seeded_sweep(key):
    # hypothesis shrinks toward p-adically small draws; a seeded sweep
    # reaches least terms at every v_B, where c1^v_B matters
    K = _tower(key)
    p, b = K.p, K.base.n
    rng = random.Random(f"residue:{key}")
    for _ in range(40 if K.residue_field.q < 1000 else 4):
        keep = [rng.random() < 0.6 for _ in range(K.d)]
        vec = [rng.choice((0, 1, -1, 2, p, 1 + p, p ** 3 - 1))
               * p ** rng.randrange(5) if keep[i // b] else 0
               for i in range(K.n)]
        x = FieldElement(K, vec, rng.randrange(3), K.M)
        v = x.val_or_bound()[0]
        if v is None:
            continue
        r = K.residue_at(x, v)
        want = _scan_residue(_fresh(x), v)
        if want is not None:
            assert r == want
        # the read residue's lift is congruent to x / pi^v, at any q
        assert K.val_at_least(_fresh(x) * K.pi_pow(-v) - K.lift(r), 1)


@pytest.mark.parametrize("key", sorted(RESIDUE_TOWERS),
                         ids=[f"{s}-p{p}" for s, p in sorted(RESIDUE_TOWERS)])
def test_residue_of_each_lift_is_its_index(key):
    # each lift reads back as its coordinates: all of F_q when q <= 50,
    # else 50 seeded draws
    K = _tower(key)
    F = K.residue_field
    if F.q <= 50:
        cs = list(F.elements)
    else:
        rng = random.Random(f"lift:{key}")
        cs = [tuple(rng.randrange(K.p) for _ in range(K.f)) for _ in range(50)]
    for c in cs:
        assert K.residue(_fresh(K.lift(c)))[0] == c
    assert K.residue_at(K.pi_pow(3), 3) == K.residue_field.one
    # zero to precision: residue 0 above the bound, undecided below it
    z = K.zero()
    bound = z.val_or_bound()[1]
    assert K.residue_at(z, bound - 1) == K.residue_field.zero
    with pytest.raises(PrecisionError):
        K.residue_at(K.zero(), bound)


def test_residue_constants_survive_a_failed_read(monkeypatch):
    # c1 = 4 and c2 = 3 here, so constants left half set by a failed read
    # of rho (the base's residue of the layer norm) would give the frame
    # term delta pi_B a residue other than c1 c2 = 2
    K = build_field(5, [T.cyclotomic(5), T.kummer(5, 50)])
    K.base.residue_field
    read = LocalField.residue_at
    failed = []

    def fail_once(self, x, k):
        if self is K.base and not failed:
            failed.append(self)
            raise PrecisionError("a residue constant is not determined")
        return read(self, x, k)

    monkeypatch.setattr(LocalField, "residue_at", fail_once)
    with pytest.raises(PrecisionError):
        K.residue_at(_fresh(K.pi), 1)
    assert failed == [K.base]
    assert K.residue_at(_fresh(K.pi), 1) == K.residue_field.one
    _, _, scale, w = K.frame
    x = _fresh(K.delta * K.embed(K.base.pi))
    assert (K.residue_at(x, w + scale) == _scan_residue(x, w + scale)
            != K.residue_field.one)
