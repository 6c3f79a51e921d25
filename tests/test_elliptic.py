import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from anabelomorph import elliptic, fields
from anabelomorph.elliptic import (POTENTIALLY_GOOD,
                                   POTENTIALLY_MULTIPLICATIVE,
                                   SingularModelError, WeierstrassModel,
                                   _b8_b6_residues, _ev, _singular_point,
                                   _translate,
                                   change_coords, iwasawa_log,
                                   l_invariant, parse_curve, reduction_class,
                                   tate_algorithm, tate_parameter_valuation,
                                   weak_amphoricity_report,
                                   weierstrass_invariants)
from anabelomorph.fields import (_MIN_EFFECTIVE, FieldElement, FieldError,
                                 LocalField, ResidueField, TowerStep,
                                 build_field)
from anabelomorph.padic import PadicScalar, PrecisionError, padic_log
from test_table_regression import ADDITIVE_ROWS as GOLDEN_ADDITIVE

T = TowerStep


@pytest.fixture(scope="module")
def Q5():
    return build_field(5, [])


@pytest.fixture(scope="module")
def K54():
    return build_field(3, [T.cyclotomic(9), T.kummer(9, 3)])


@pytest.fixture(scope="module")
def L54_2():
    return build_field(3, [T.cyclotomic(9), T.kummer(9, 2)])


@pytest.fixture(scope="module")
def L54_4():
    return build_field(3, [T.cyclotomic(9), T.kummer(9, 4)])


# ----------------------------------------------------------------------
# invariants


def test_disc_minus_432(Q5):
    m = WeierstrassModel.from_a_invariants(Q5, a6=1)
    inv = weierstrass_invariants(m)
    d = inv.disc - Q5.from_int(-432)
    assert d.is_zero_to_precision()


def test_singular_curve_rejected(Q5):
    with pytest.raises(SingularModelError):
        WeierstrassModel.from_a_invariants(Q5, a1=1)   # y^2 + xy = x^3


def test_singular_curve_from_zeta_polys_rejected():
    # zeta-polynomial coefficients are exact like integers, so a vanishing
    # discriminant is a singular curve, not a precision problem
    K = build_field(3, [T.cyclotomic(3)])
    with pytest.raises(SingularModelError):
        WeierstrassModel.from_a_invariants(K, {0: 0}, {0: 0}, {0: 0},
                                           {0: 0}, {0: 0})
    # Phi_3(z) = 1 + z + z^2 vanishes exactly: y^2 = x^3 + Phi_3(z) x^2
    with pytest.raises(SingularModelError):
        WeierstrassModel.from_a_invariants(K, 0, {0: 1, 1: 1, 2: 1})
    assert K.from_zeta_poly({0: 2, 1: -1}).exact


def test_j_1728(Q5):
    m = WeierstrassModel.from_a_invariants(Q5, a4=1)
    inv = weierstrass_invariants(m)
    j = inv.c4 ** 3 * inv.disc.inv()
    assert (j - Q5.from_int(1728)).is_zero_to_precision()


def test_invariant_identities_randomized(Q5, K54):
    rng = random.Random(23)
    for K in (Q5, K54):
        for _ in range(5):
            coeffs = [rng.randrange(-9, 10) for _ in range(5)]
            try:
                m = WeierstrassModel.from_a_invariants(K, *coeffs)
            except SingularModelError:
                continue
            inv = weierstrass_invariants(m)   # check=True verifies identities
            assert inv is not None


# ----------------------------------------------------------------------
# reduction class and Tate parameter


def test_reduction_class(Q5):
    m = WeierstrassModel.from_a_invariants(Q5, a4=1, a6=1)
    assert reduction_class(m) == POTENTIALLY_GOOD
    m0 = WeierstrassModel.from_a_invariants(Q5, a6=1)   # j = 0
    assert reduction_class(m0) == POTENTIALLY_GOOD
    # multiplicative example: y^2 + xy = x^3 + a6 with v(j) < 0
    mm = WeierstrassModel.from_a_invariants(Q5, a1=1, a6=5)
    assert reduction_class(mm) == POTENTIALLY_MULTIPLICATIVE
    v = tate_parameter_valuation(mm)
    inv = weierstrass_invariants(mm)
    assert v == -(inv.c4 ** 3 * inv.disc.inv()).valuation() > 0
    with pytest.raises(FieldError):
        tate_parameter_valuation(m)


# ----------------------------------------------------------------------
# Tate over Q_p: known reduction data


@pytest.mark.parametrize("p,coeffs,expect", [
    (5, (0, 0, 0, 1, 1), (0, 0, "I0", 1)),
    (11, (0, -1, 1, -10, -20), (5, 1, "I5", 5)),     # X_0(11)
    (37, (0, 0, 1, -1, 0), (1, 1, "I1", 1)),
    (3, (0, 0, 1, 0, -7), (9, 3, "IV*", 3)),         # conductor 27 curve
    (2, (0, 0, 0, -1, 0), (6, 5, "III", 2)),         # conductor 32 curve
])
def test_tate_known_curves(p, coeffs, expect):
    K = build_field(p, [])
    r = tate_algorithm(WeierstrassModel.from_a_invariants(K, *coeffs))
    assert r.quadruple() == expect
    assert r.conductor == r.v_min_disc - r.components + 1


def test_tate_nonminimal_model_rescaled(Q5):
    # scale a good-reduction curve by u = 5: the algorithm must undo it
    m = WeierstrassModel.from_a_invariants(
        Q5, a4=5 ** 4, a6=5 ** 6)
    r = tate_algorithm(m)
    assert r.quadruple() == (0, 0, "I0", 1)
    # the common pi-power is stripped before the first pass
    assert r.trace == (("scale", -1), ("branch", "I0"))
    # shifted by x -> x + 1 the scaling is hidden from the strip, and
    # the first pass ends in one restart
    r = tate_algorithm(change_coords(m, r=1))
    assert r.quadruple() == (0, 0, "I0", 1)
    assert r.trace.count(("restart",)) == 1
    assert r.trace[0][0] == "singular"
    assert [e[1] for e in r.trace if e[0] == "translate"] == [
        "sbar", "tbar", "sigma", "cubic", "IV*"]
    assert r.trace[-2:] == (("restart",), ("branch", "I0"))


def test_tate_trace_in_star(Q5):
    # I2*: the cubic has a double root, then one Y-quadratic translation
    r = tate_algorithm(WeierstrassModel.from_a_invariants(
        Q5, a4=-3 * 25, a6=27 * 125))
    assert r.quadruple() == (8, 2, "I2*", 2)
    zero = (0,)
    assert r.trace == (
        ("singular", zero, zero),
        ("translate", "sbar", "s", zero),
        ("translate", "tbar", "t", zero),
        ("translate", "sigma", "t", zero),
        ("translate", "cubic", "r", (1,)),
        ("translate", "I1*", "t", zero),
        ("branch", "I2*"))
    # the trace stays out of the printed data
    assert "trace" not in r.to_dict()
    assert len(r.quadruple()) == 4


# ----------------------------------------------------------------------
# the additive pair over the degree-54 towers


def test_paper_pair_one(K54, L54_2):
    rK = tate_algorithm(WeierstrassModel.from_a_invariants(K54, a2=3, a6=9))
    rL = tate_algorithm(WeierstrassModel.from_a_invariants(L54_2, a2=3, a6=9))
    assert rK.quadruple() == (6, 4, "IV", 1)
    assert rL.quadruple() == (6, 2, "I0*", 4)


def test_paper_pair_two(K54, L54_2):
    rK = tate_algorithm(WeierstrassModel.from_a_invariants(K54, a2=3, a6=3))
    rL = tate_algorithm(WeierstrassModel.from_a_invariants(L54_2, a2=3, a6=3))
    assert rK.quadruple() == (12, 6, "IV*", 3)
    assert rL.quadruple() == (12, 10, "IV", 1)


def test_paper_all_four_quantities_differ(K54, L54_4):
    curve = parse_curve("[0,0,0,-z^5+8z^4-z^3+z^2-2z-11,"
                        "-408z^5-6z^4+201z^3+37z^2-38z+1348]")
    rep = weak_amphoricity_report(curve, K54, L54_4)
    assert rep["first"].quadruple() == (15, 15, "II", 1)
    assert rep["second"].quadruple() == (39, 37, "IV", 3)
    assert not any(rep["flags"].values())


def test_semistable_rows_identical(K54, L54_4):
    rows = [
        ("[0,z^5+z^4-6z^3-z-9,0,z^5-z^4+8z^2-z+12,z^5+z^2+1]", 9),
        ("[0,-z^5-z^4-z^3+z^2-3,0,-z^4-2z^3-3z^2-z-16,31z^5-3z^4-z^3+z+53]", 27),
    ]
    for txt, n in rows:
        rep = weak_amphoricity_report(parse_curve(txt), K54, L54_4)
        assert rep["first"].quadruple() == (n, 1, f"I{n}", n)
        assert rep["all_equal"]


# ----------------------------------------------------------------------
# metamorphic: unimodular coordinate changes do not move the output


@pytest.mark.parametrize("p,coeffs", [
    (5, (0, 0, 0, 1, 1)),
    (11, (0, -1, 1, -10, -20)),
    (3, (0, 0, 1, 0, -7)),
    (2, (0, 0, 0, -1, 0)),
])
def test_tate_invariant_under_coordinate_changes(p, coeffs):
    K = build_field(p, [])
    m = WeierstrassModel.from_a_invariants(K, *coeffs)
    base = tate_algorithm(m).quadruple()
    rng = random.Random(p)
    for _ in range(50):
        u = K.from_int(rng.choice([a for a in range(1, 3 * p) if a % p]))
        r = K.from_int(rng.randrange(-2 * p, 2 * p + 1))
        s = K.from_int(rng.randrange(-2 * p, 2 * p + 1))
        t = K.from_int(rng.randrange(-2 * p, 2 * p + 1))
        m2 = change_coords(m, u=u, r=r, s=s, t=t)
        assert tate_algorithm(m2).quadruple() == base


def test_tate_invariant_under_changes_tower():
    K = build_field(3, [T.cyclotomic(3), T.kummer(3, 3)])
    m = WeierstrassModel.from_a_invariants(K, a2=3, a6=9)
    base = tate_algorithm(m).quadruple()
    rng = random.Random(99)
    g = K.step_generators[1]
    for _ in range(10):
        u = K.from_int(rng.choice([1, 2, 4, 5])) + K.pi * rng.randrange(3)
        r = K.from_int(rng.randrange(-3, 4)) + g * rng.randrange(-2, 3)
        s = K.from_int(rng.randrange(-3, 4))
        t = g * rng.randrange(-2, 3)
        m2 = change_coords(m, u=u, r=r, s=s, t=t)
        assert tate_algorithm(m2).quadruple() == base


def test_change_coords_u1_inverts_nothing(monkeypatch):
    # u = 1, as the integer or as K.one(), skips u^-1 and the scalings;
    # the coefficients are those of the products with u^-1 = 1, digit
    # for digit, inexact included
    K = build_field(3, [T.cyclotomic(3), T.kummer(3, 3)])
    m = WeierstrassModel.from_a_invariants(K, a2=3, a6=9)
    g = K.step_generators[1]
    r, s, t = K.from_int(2) + g, K.from_int(-1), g * 2
    uinv = K.one().inv()
    want = [(x.vec, x.s, x.m, x.exact) for x in
            (a * uinv for a in _translate(*m.coefficients(), r, s, t))]
    calls = []
    invert = LocalField.invert

    def counted(self, x):
        calls.append(x)
        return invert(self, x)

    monkeypatch.setattr(LocalField, "invert", counted)
    for u in (1, K.one()):
        m2 = change_coords(m, u=u, r=r, s=s, t=t)
        assert [(x.vec, x.s, x.m, x.exact)
                for x in m2.coefficients()] == want
    assert calls == []
    change_coords(m, u=2, r=r, s=s, t=t)
    assert len(calls) == 1


def test_ogg_saito_ledger_on_samples(Q5):
    rng = random.Random(31)
    additive = 0
    for _ in range(25):
        coeffs = [rng.randrange(-20, 21) for _ in range(5)]
        try:
            m = WeierstrassModel.from_a_invariants(Q5, *coeffs)
        except SingularModelError:
            continue
        r = tate_algorithm(m)
        assert r.conductor == r.v_min_disc - r.components + 1
        assert r.tamagawa >= 1
        # the additive-conductor bound: f = 2 at p >= 5
        if r.kodaira.kind not in ("I0", "In"):
            assert r.conductor == 2
            additive += 1
    assert additive >= 1


@pytest.mark.parametrize("p,coeffs,m", [
    (5, (0, 0, 0, 0, 5 ** 4), 8),       # IV*: f = 8 - 7 + 1 = 2
    (3, (0, 0, 1, 0, -7), 9),           # IV*: f = 9 - 7 + 1 = 3
])
def test_wrong_component_count_fails_the_conductor_bound(p, coeffs, m,
                                                         monkeypatch):
    # a wrong IV* component count gives f = 1 through Ogg's formula, which
    # the additive bound 2 <= f <= 2 + 3 v(3) + 6 v(2) refuses
    model = WeierstrassModel.from_a_invariants(build_field(p, []), *coeffs)
    assert str(tate_algorithm(model).kodaira) == "IV*"
    monkeypatch.setitem(elliptic._COMPONENTS, "IV*", m)
    with pytest.raises(ArithmeticError, match="additive conductor 1 "):
        tate_algorithm(model)


def test_wrong_tamagawa_number_fails_the_component_bound(monkeypatch):
    # one more Tamagawa number than the III branch finds is outside the
    # component group of III, which allows only c = 2
    model = WeierstrassModel.from_a_invariants(build_field(5, []),
                                               0, 0, 0, 5, 0)
    assert tate_algorithm(model).quadruple() == (3, 2, "III", 2)
    end = elliptic._end

    def one_more(trace, vD, kodaira, c, split=None):
        return end(trace, vD, kodaira, c + 1, split)

    monkeypatch.setattr(elliptic, "_end", one_more)
    with pytest.raises(ArithmeticError, match="tamagawa number 3 outside "
                       "the component bound for III"):
        tate_algorithm(model)


# ----------------------------------------------------------------------
# p = 2 towers


@pytest.mark.slow
def test_p2_paper_example():
    K = build_field(2, [T.cyclotomic(16), T.kummer(2, {2: 1, 0: -1}),
                        T.kummer(2, {6: 1, 0: -1})], prec=160)
    L = build_field(2, [T.cyclotomic(16), T.kummer(4, {4: 1, 0: -1})],
                    prec=160)
    curve = parse_curve(
        "[0,0,0,-2z^7+2z^6-2z^5+2z^4-2z^3+4z^2+6z+30,"
        "32z^7-76z^6-8z^5+32z^4-24z^3-20z^2+16z-28]")
    rep = weak_amphoricity_report(curve, K, L)
    assert rep["first"].quadruple() == (64, 60, "I0*", 2)
    assert rep["second"].quadruple() == (52, 52, "II", 1)


# ----------------------------------------------------------------------
# Tate parameter and the log/ord invariant


def test_l_invariant_of_p_powers():
    Q3 = build_field(3, [])
    for m in (1, 2, 5):
        assert l_invariant(Q3.from_int(3 ** m)).is_zero_to_precision()


def test_l_invariant_scaling():
    Q3 = build_field(3, [])
    q = Q3.from_int(12)     # p (1 + p)
    l1 = l_invariant(q)
    for k in (2, 3, 5):
        d = l_invariant(q ** k) - l1
        assert d.is_zero_to_precision() or d.valuation() > 20


# golden value frozen from the rational series oracle in test_padic
GOLDEN_LOG_4_BASE3_MOD3_7 = 1992


def test_l_invariant_golden_series_value():
    Q3 = build_field(3, [])
    li = l_invariant(Q3.from_int(12))
    assert li.vec[0] % 3 ** 7 == GOLDEN_LOG_4_BASE3_MOD3_7
    sc = padic_log(PadicScalar.from_int(4, 3, 40), prec=20)
    assert sc.lift() % 3 ** 7 == GOLDEN_LOG_4_BASE3_MOD3_7


def test_iwasawa_log_over_tower():
    # e l(p (1 + p)) = log(1 + p) on Q_p(zeta_p, p^(1/p)), against the
    # scalar series; d may be zero to precision, so its certified lower
    # bound is what must pass 10 e (60 at p = 3)
    for p in (3, 5, 7):
        K = build_field(p, [T.cyclotomic(p), T.kummer(p, p)])
        li = l_invariant(K.from_int(p * (1 + p)))       # v_K(q) = e
        sc = padic_log(PadicScalar.from_int(1 + p, p, 60), prec=24)
        d = li * K.e - K.from_int(sc.lift())
        v, bound = d.val_or_bound()
        assert (bound if v is None else v) > 10 * K.e


@pytest.mark.parametrize("p,r,rad", [(3, 2, 3 * 2 ** 9), (5, 1, 6 * 2 ** 5),
                                     (2, 2, 5 * 3 ** 4)])
def test_log_claims_only_its_truncation(p, r, rad):
    # the series is summed to v_K >= e * target_digits, so a longer sum
    # must agree with it to the precision it returns
    K = build_field(p, [T.cyclotomic(p ** r), T.kummer(p ** r, rad)])
    q = K.from_int(p) * (K.one() + K.pi)
    d = l_invariant(q, target_digits=24) - l_invariant(q, target_digits=60)
    assert d.is_zero_to_precision()


def _term_by_term(t, n):
    """Oracle for elliptic._log_series: one product per term."""
    acc, tj = t.field.zero(), t
    for j in range(1, n + 1):
        acc = acc + tj * Fraction((-1) ** (j + 1), j)
        if j < n:
            tj = tj * t
    return acc


_LOG_TOWERS = {
    "Q_2(i, 5^(1/4)), f = 2": (2, [T.cyclotomic(4), T.kummer(4, 5)]),
    "Q_2(zeta_8)": (2, [T.cyclotomic(8)]),
    "Q_3(zeta_3, 4^(1/3))": (3, [T.cyclotomic(3), T.kummer(3, 4)]),
    "Q_3(zeta_3), f = 3": (3, [T.cyclotomic(3), T.kummer(3, {0: 2, 1: -3})]),
    "Q_3(zeta_9, 3^(1/9))": (3, [T.cyclotomic(9), T.kummer(9, 3)]),
    "Q_5(zeta_5, 6^(1/5))": (5, [T.cyclotomic(5), T.kummer(5, 6)]),
    "Q_7(zeta_7, 2^(1/7))": (7, [T.cyclotomic(7), T.kummer(7, 2)]),
}
_LOG_FIELDS = {}


@pytest.mark.parametrize("name", list(_LOG_TOWERS))
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_log_series_matches_term_by_term(name, data):
    if name not in _LOG_FIELDS:
        _LOG_FIELDS[name] = build_field(*_LOG_TOWERS[name])
    K = _LOG_FIELDS[name]
    p = K.p
    # a unit c_0 + p (...) times pi^shift: units and non-units
    c0 = data.draw(st.integers(1, p ** 3).filter(lambda c: c % p))
    rest = data.draw(st.lists(st.integers(-p ** 3, p ** 3),
                              min_size=K.n - 1, max_size=K.n - 1))
    x = FieldElement(K, [c0] + [p * c for c in rest])
    x = x * K.pi ** data.draw(st.integers(0, 3))
    assume(not x.is_zero_to_precision())
    got = iwasawa_log(x)
    with mock.patch.object(elliptic, "_log_series", _term_by_term):
        want = iwasawa_log(x)
    assert (got.vec, got.s, got.m) == (want.vec, want.s, want.m)


@pytest.mark.parametrize("name", list(_LOG_TOWERS))
def test_series_division_by_j_is_the_fraction_product(name):
    # _over_j(w, j) is w * Fraction((-1)^(j+1), j) bit for bit, p | j
    # included, on elements with and without a denominator, cut or not
    if name not in _LOG_FIELDS:
        _LOG_FIELDS[name] = build_field(*_LOG_TOWERS[name])
    K = _LOG_FIELDS[name]
    p = K.p
    rng = random.Random(p * K.n)
    vec = [rng.randrange(-p ** 40, p ** 40) for _ in range(K.n)]
    dense, over = FieldElement(K, vec), FieldElement(K, vec, 2)
    ws = [dense, over, K.pi, over * K.pi, (K.one() + K.pi).capped(30),
          K.from_int(p ** 2) * K.pi]
    for w in ws:
        for j in range(1, 3 * p * p + 1):
            got = elliptic._over_j(w, j)
            want = w * Fraction((-1) ** (j + 1), j)
            assert (got.vec, got.s, got.m) == (want.vec, want.s, want.m), j


@pytest.mark.parametrize("p,r,rad,n", [(3, 2, 3 * 2 ** 9, 13),
                                       (7, 1, 8 * 2 ** 7, 19)])
def test_log_series_product_count(p, r, rad, n, monkeypatch):
    # Paterson-Stockmeyer makes (k - 1) + (ceil(n/k) - 1) products of two
    # non-scalar elements for n terms, term by term takes n - 1.  The
    # series divides by j with no product (elliptic._over_j), so the one
    # Fraction product is the result's 1/divisor; powers in the reduction
    # are not counted.
    K = build_field(p, [T.cyclotomic(p ** r), T.kummer(p ** r, rad)])
    x = K.from_int(p) * (K.one() + K.pi)
    count = {"dense": 0, "fraction": 0, "in_pow": 0}
    mul, power = FieldElement.__mul__, FieldElement.__pow__

    def counting_mul(a, b):
        if isinstance(b, Fraction):
            count["fraction"] += 1
        elif (not count["in_pow"] and isinstance(b, FieldElement)
              and all(sum(1 for c in y.vec if c) > 1 for y in (a, b))):
            count["dense"] += 1
        return mul(a, b)

    def counting_pow(a, k):
        count["in_pow"] += 1
        try:
            return power(a, k)
        finally:
            count["in_pow"] -= 1

    monkeypatch.setattr(FieldElement, "__mul__", counting_mul)
    monkeypatch.setattr(FieldElement, "__pow__", counting_pow)
    iwasawa_log(x)
    assert count["fraction"] == 1
    assert count["dense"] <= min(k - 1 + -(-n // k) - 1
                                 for k in range(1, n + 1))


# ----------------------------------------------------------------------
# property: the log at the precision its answer reads

_LOG_DIGITS = elliptic._log_digits

# the towers of the invariants benchmark, (p, r, a): Q_p(zeta_(p^r),
# (a b^(p^r))^(1/p^r)) with b = 2, or 3 at p = 2
_LOG_SHAPES = ([(p, 1, p) for p in (3, 5, 7)] + [(p, 1, 1 + p) for p in (3, 5, 7)]
               + [(3, 2, 3), (3, 2, 4), (2, 2, 2), (2, 2, 5), (2, 3, 3)])
_SHAPE_FIELDS = {}


def _shape_field(p, r, a):
    if (p, r, a) not in _SHAPE_FIELDS:
        b = 3 if p == 2 else 2
        _SHAPE_FIELDS[p, r, a] = build_field(
            p, [T.cyclotomic(p ** r), T.kummer(p ** r, a * b ** (p ** r))])
    return _SHAPE_FIELDS[p, r, a]


def _log_cut(q, digits):
    """iwasawa_log(q) with x cut to ``digits`` (None: the derived
    digits), or PrecisionError; and the digits used."""
    used = []

    def cut(K, v, s, target_digits):
        used.append(_LOG_DIGITS(K, v, s, target_digits) if digits is None
                    else digits)
        return used[-1]

    with mock.patch.object(elliptic, "_log_digits", cut):
        try:
            return iwasawa_log(q), used[0]
        except PrecisionError:
            return PrecisionError, used[0]


def _check_log_digits(q, descend):
    """At the derived digits iwasawa_log(q) is the uncut (vec, s, m).
    With ``descend``, each smaller count down to target_digits gives a
    value that claims no more digits and agrees with the uncut one to
    its claim, or raises PrecisionError."""
    want, _ = _log_cut(q, q.field.M + q.s)
    got, derived = _log_cut(q, None)
    assert (got.vec, got.s, got.m) == (want.vec, want.s, want.m)
    assert derived < q.field.M
    for digits in range(derived - 1, 23, -1) if descend else ():
        got, _ = _log_cut(q, digits)
        if got is not PrecisionError:
            assert got.m - got.s <= want.m - want.s, digits
            assert (got - want).is_zero_to_precision(), digits
    return derived


# the derived digits of both logs of a linv item, q = p (1 + pi) and q^2,
# by (p, r, a) of _LOG_SHAPES; before the p^a strip and the valuation
# charge they were 36-195, and q^2 took more than q
_LOG_DIGITS_PINNED = {(3, 1, 3): 41, (5, 1, 5): 48, (7, 1, 7): 52,
                      (3, 1, 4): 41, (5, 1, 6): 48, (7, 1, 8): 52,
                      (3, 2, 3): 49, (3, 2, 4): 71, (2, 2, 2): 28,
                      (2, 2, 5): 44, (2, 3, 3): 69}


@pytest.mark.parametrize("shape", _LOG_SHAPES)
def test_log_derived_digits_invariants_towers(shape):
    # q = p (1 + pi) and q^2, the two logs of a linv item; every smaller
    # count for q
    K = _shape_field(*shape)
    q = K.from_int(K.p) * (K.one() + K.pi)
    assert _check_log_digits(q, descend=True) == _LOG_DIGITS_PINNED[shape]
    assert (_check_log_digits(q * q, descend=False)
            == _LOG_DIGITS_PINNED[shape])


_SERIES_DIGITS = elliptic._series_digits
# the digits the series cut of l(p (1 + pi)) can lose before the log
# claims fewer; on the other _LOG_SHAPES the derived cut is the least
_SERIES_CUT_SLACK = {(3, 2, 4): 3, (2, 3, 3): 3}


@pytest.mark.parametrize("shape", _LOG_SHAPES)
def test_log_series_cut_short_never_changes_a_claimed_digit(shape):
    # t cut to the derived digits gives the uncut log; cut short by more
    # than the slack, down to target_digits, the log claims fewer digits
    # and agrees with the uncut log to its claim, or raises
    slack = _SERIES_CUT_SLACK.get(shape, 0)
    K = _shape_field(*shape)
    q = K.from_int(K.p) * (K.one() + K.pi)
    used = []

    def run(short):
        def cut(K, vt, n, target_digits):
            used.append(_SERIES_DIGITS(K, vt, n, target_digits))
            return K.M if short is None else used[-1] - short
        with mock.patch.object(elliptic, "_series_digits", cut):
            try:
                return iwasawa_log(q)
            except PrecisionError:
                return PrecisionError

    want = run(None)
    got = run(0)
    assert (got.vec, got.s, got.m) == (want.vec, want.s, want.m)
    assert used[-1] < q.field.M
    for short in range(1, used[-1] - 24 + 1):
        got = run(short)
        if short <= slack:
            assert (got.vec, got.s, got.m) == (want.vec, want.s, want.m)
        elif got is not PrecisionError:
            assert got.m - got.s < want.m - want.s, short
            assert (got - want).is_zero_to_precision(), short


@pytest.mark.parametrize("name", list(_LOG_TOWERS))
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_log_derived_digits_tate_parameters(name, data):
    # u pi^k, k >= 1, u a unit c_0 + p (...): the derived cut gives the
    # uncut l_invariant
    if name not in _LOG_FIELDS:
        _LOG_FIELDS[name] = build_field(*_LOG_TOWERS[name])
    K = _LOG_FIELDS[name]
    p = K.p
    c0 = data.draw(st.integers(1, p ** 3).filter(lambda c: c % p))
    rest = data.draw(st.lists(st.integers(-p ** 3, p ** 3),
                              min_size=K.n - 1, max_size=K.n - 1))
    q = FieldElement(K, [c0] + [p * c for c in rest])
    q = q * K.pi_pow(data.draw(st.integers(1, 3 * K.e)))
    assume(not q.is_zero_to_precision())
    _check_log_digits(q, descend=False)


@pytest.mark.parametrize("name", list(_LOG_TOWERS))
def test_log_derived_digits_any_valuation(name):
    # u pi^k, u a unit, for v = k off the multiples of e, where x / p^a
    # keeps a valuation b = k mod e > 0, and for v <= 0, where a <= 0:
    # the derived cut gives the uncut log
    if name not in _LOG_FIELDS:
        _LOG_FIELDS[name] = build_field(*_LOG_TOWERS[name])
    K = _LOG_FIELDS[name]
    p, e = K.p, K.e
    rng = random.Random(p * K.n + 1)
    u = FieldElement(K, [1 + p * rng.randrange(p ** 3)]
                     + [p * rng.randrange(-p ** 3, p ** 3)
                        for _ in range(K.n - 1)])
    for k in sorted({-e - 1, -e, -1, 0, 1, e - 1, e + 1, 2 * e + 1}):
        q = u * K.pi_pow(k)
        assert q.valuation() == k
        _check_log_digits(q, descend=False)


def test_log_products_run_at_the_derived_width(monkeypatch):
    # every product of l_invariant(p (1 + pi)) on (3, 2, 3 2^9) runs at
    # most at the derived digits above the denominator of x = q / p; the
    # uncut x ** e ran at m = q.m = 284
    K = _shape_field(3, 2, 3)
    q = K.from_int(3) * (K.one() + K.pi)
    a, b = divmod(q.valuation(), K.e)
    x = elliptic._over_p(q, a)
    derived = x.s + _LOG_DIGITS(K, b, x.s, 24)
    assert derived < q.m
    widths = []
    mul = FieldElement.__mul__

    def recording_mul(a, b):
        widths.append(min(a.m, b.m) if isinstance(b, FieldElement) else a.m)
        return mul(a, b)

    monkeypatch.setattr(FieldElement, "__mul__", recording_mul)
    l_invariant(q)
    assert widths and max(widths) <= derived


def test_parse_curve():
    c = parse_curve("[0,3,0,0,9]")
    cleaned = [{k: v for k, v in d.items() if v} for d in c]
    assert cleaned == [{}, {0: 3}, {}, {}, {0: 9}]
    with pytest.raises(ValueError):
        parse_curve("[1,2,3]")


def test_weak_report_reflexive(K54):
    rep = weak_amphoricity_report([{}, {0: 3}, {}, {}, {0: 9}], K54, K54)
    assert rep["all_equal"]


@pytest.mark.slow
def test_p2_paper_example_two():
    K = build_field(2, [T.cyclotomic(16), T.kummer(2, {2: 1, 0: -1}),
                        T.kummer(2, {6: 1, 0: -1})], prec=160)
    L = build_field(2, [T.cyclotomic(16), T.kummer(4, {4: 1, 0: -1})],
                    prec=160)
    curve = parse_curve(
        "[0,0,0,-2z^6-2z^4+4z^2+2,"
        "28z^6-40z^5-24z^4+8z^3+16z^2-40z+60]")
    rep = weak_amphoricity_report(curve, K, L)
    assert rep["first"].quadruple() == (68, 60, "II*", 1)
    assert rep["second"].quadruple() == (56, 52, "I0*", 2)


def test_weak_report_flags_first_pair(K54, L54_2):
    rep = weak_amphoricity_report([{}, {0: 3}, {}, {}, {0: 9}], K54, L54_2)
    f = rep["flags"]
    assert (f["v_disc_equal"], f["conductor_equal"],
            f["kodaira_equal"], f["tamagawa_equal"]) == (True, False, False, False)


def test_semistable_row_reduction_class_and_tate_parameter(K54, L54_4):
    curve = parse_curve("[0,z^5+z^4-6z^3-z-9,0,z^5-z^4+8z^2-z+12,z^5+z^2+1]")
    mK = WeierstrassModel.from_a_invariants(K54, *curve)
    mL = WeierstrassModel.from_a_invariants(L54_4, *curve)
    assert reduction_class(mK) == reduction_class(mL) == POTENTIALLY_MULTIPLICATIVE
    # v(q) = -v(j) = n = v(disc_min) on multiplicative rows
    assert tate_parameter_valuation(mK) == 9
    assert tate_parameter_valuation(mL) == 9


# ----------------------------------------------------------------------
# full Kodaira sweep over Q_5: for residue characteristic >= 5 the type
# is forced by (v(c4), v(Delta)) alone, so the expected rows are theory,
# not fixture data


@pytest.mark.parametrize("coeffs,expect", [
    ((0, 0, 0, 0, 5), (2, 2, "II", 1)),          # v(D)=2
    ((0, 0, 0, 5, 0), (3, 2, "III", 2)),         # v(D)=3
    ((0, 0, 0, 0, 25), (4, 2, "IV", 3)),         # v(D)=4, a6/pi^2 square
    ((0, 0, 0, 25, 0), (6, 2, "I0*", 4)),        # cubic T^3+T splits mod 5
    ((0, 0, 0, -3 * 25, 7 * 125), (7, 2, "I1*", 4)),
    ((0, 0, 0, -3 * 25, 27 * 125), (8, 2, "I2*", 4)),
    ((0, 0, 0, -3 * 25, 127 * 125), (9, 2, "I3*", 4)),
    ((0, 0, 0, 125, 625), (8, 2, "IV*", 3)),     # v(c6)=4, v(D)=8
    ((0, 0, 0, 125, 5 ** 5), (9, 2, "III*", 2)),
    ((0, 0, 0, 5 ** 4, 5 ** 5), (10, 2, "II*", 1)),
])
def test_kodaira_sweep_q5(coeffs, expect):
    Q5 = build_field(5, [])
    r = tate_algorithm(WeierstrassModel.from_a_invariants(Q5, *coeffs))
    got = r.quadruple()
    assert (got[0], got[1], got[2]) == (expect[0], expect[1], expect[2])
    if expect[2] not in ("I1*", "I2*", "I3*"):
        assert got[3] == expect[3]
    else:
        assert got[3] in (2, 4)


def test_nonsplit_multiplicative_q5():
    # node tangents T^2 - 2 irreducible mod 5: nonsplit, odd n gives c = 1
    Q5 = build_field(5, [])
    r = tate_algorithm(WeierstrassModel.from_a_invariants(Q5, a2=2, a6=125))
    assert r.quadruple() == (3, 1, "I3", 1)
    assert r.split is False


def test_table_row_good_reduction_on_one_side(K54, L54_4):
    curve = parse_curve("[0,-z^5+z^4+z^3-11z^2-12z-47,0,"
                        "-78z^5-z^4-z^3+z^2-z-160,2z^5-z^4-z^3-2z^2-10]")
    rep = weak_amphoricity_report(curve, K54, L54_4)
    assert rep["first"].quadruple() == (12, 4, "II*", 1)
    assert rep["second"].quadruple() == (0, 0, "I0", 1)


def test_table_row_both_additive_same_vdisc(K54, L54_4):
    row = parse_curve("[0,2z^5-4z^4+z^3+8z^2+2z+204,"
                      "0,4z^5-z^4-4z^3-z^2+z+7,-54z^5+z^4+z^3-z^2-106]")
    rep = weak_amphoricity_report(row, K54, L54_4)
    assert rep["first"].quadruple() == (15, 7, "II*", 1)
    assert rep["second"].quadruple() == (15, 13, "IV", 1)
    assert rep["flags"]["v_disc_equal"] and not rep["flags"]["kodaira_equal"]


def test_unramified_base_change_stability():
    # v(disc), conductor and Kodaira type are unchanged under unramified
    # base change; the Tamagawa number may grow when nonsplit tangents
    # split in the bigger residue field
    Q2 = build_field(2, [])
    U = build_field(2, [T.kummer(2, 5)])    # unramified quadratic, f = 2
    assert (U.e, U.f) == (1, 2)
    for coeffs in [(1, 0, 0, 0, 16), (0, 0, 0, -1, 0), (1, 1, 1, -10, -10)]:
        r1 = tate_algorithm(WeierstrassModel.from_a_invariants(Q2, *coeffs))
        r2 = tate_algorithm(WeierstrassModel.from_a_invariants(U, *coeffs))
        assert r1.quadruple()[:3] == r2.quadruple()[:3]


def test_nonsplit_becomes_split_in_residue_extension():
    Q2 = build_field(2, [])
    U = build_field(2, [T.kummer(2, 5)])
    coeffs = (1, 1, 0, 0, 16)
    r1 = tate_algorithm(WeierstrassModel.from_a_invariants(Q2, *coeffs))
    r2 = tate_algorithm(WeierstrassModel.from_a_invariants(U, *coeffs))
    assert r1.quadruple() == (4, 1, "I4", 2) and r1.split is False
    assert r2.quadruple() == (4, 1, "I4", 4) and r2.split is True


def test_singular_point_late_in_large_residue_field():
    # q = 3125, and the node lies over x = 4, late in the order of F_q
    K = build_field(5, [T.cyclotomic(5), T.kummer(5, {0: 2, 1: 5})])
    assert K.residue_field.q == 3125
    r = tate_algorithm(WeierstrassModel.from_a_invariants(K, 0, -7, 0, 8, 41))
    assert r.quadruple() == (4, 2, "IV", 3)
    assert r.trace[0] == ("singular", (4, 0, 0, 0, 0), (0, 0, 0, 0, 0))


def _singular_point_oracle(F, a1, a2, a3, a4, a6):
    """The common zero of W, W_x and W_y by trying every (x, y) in
    F_q x F_q; None when there is none."""
    for x in F.elements:
        for y in F.elements:
            wy = F.add(F.add(F.scale(y, 2), F.mul(a1, x)), a3)
            wx = F.add(F.mul(a1, y), F.scale(
                _ev(F, [a4, F.scale(a2, 2), F.scale(F.one, 3)], x), -1))
            w = F.add(F.mul(y, F.add(y, F.add(F.mul(a1, x), a3))),
                      F.scale(_ev(F, [a6, a4, a2, F.one], x), -1))
            if not any(wy) and not any(wx) and not any(w):
                return x, y
    return None


# F_{p^2} = F_p[rho], rho^2 = rel_0 + rel_1 rho irreducible
_F_P2 = {2: (1, 1), 3: (2, 0), 5: (2, 0), 7: (3, 0)}


@pytest.mark.parametrize("p", (2, 3, 5, 7))
@pytest.mark.parametrize("f", (1, 2))
def test_singular_point_matches_double_loop(p, f):
    Fp = ResidueField(p)
    F = Fp if f == 1 else ResidueField(p, Fp, _F_P2[p])
    rng = random.Random(f"singular:{p}:{f}")
    elems = list(F.elements)
    add, mul, neg = F.add, F.mul, (lambda u: F.scale(u, -1))
    found = 0
    for trial in range(40):
        a1 = rng.choice(elems)
        if p == 2:
            # in characteristic 2, W_y = a1 x + a3 has no y term, so both
            # a1 = 0 (y enumerated) and a1 != 0 (y from W_x) are covered
            a1 = F.zero if trial % 2 else rng.choice(elems[1:])
        a2, x0, y0 = (rng.choice(elems) for _ in range(3))
        if trial % 4 == 3:
            a3, a4, a6 = (rng.choice(elems) for _ in range(3))
        else:
            # singular at (x0, y0): W_y = W_x = W = 0 there
            a3 = neg(add(F.scale(y0, 2), mul(a1, x0)))
            a4 = add(mul(a1, y0), neg(
                _ev(F, [F.zero, F.scale(a2, 2), F.scale(F.one, 3)], x0)))
            a6 = add(mul(y0, add(y0, add(mul(a1, x0), a3))),
                     neg(_ev(F, [F.zero, a4, a2, F.one], x0)))
        want = _singular_point_oracle(F, a1, a2, a3, a4, a6)
        if want is None:
            with pytest.raises(FieldError):
                _singular_point(F, a1, a2, a3, a4, a6)
        else:
            assert _singular_point(F, a1, a2, a3, a4, a6) == want
            found += 1
    assert found >= 30


# ----------------------------------------------------------------------
# the additive branch on residues


@pytest.mark.parametrize("p,steps", [
    (2, []), (3, []), (5, []), (7, []),
    (3, [T.cyclotomic(9)]),                 # e = 6
    (2, [T.kummer(2, 5)]),                  # f = 2
], ids=["Q2", "Q3", "Q5", "Q7", "Q3(z9)", "Q2(sqrt5)"])
def test_b8_b6_residues_match_field_products(p, steps):
    # at the III and IV tests pi | a3, a4, pi^2 | a6 and the tangent
    # T^2 + a1 T - a2 = (T - c)^2 mod pi, so pi | b2; the residues of b8
    # and b6 made by field products, as the full formulas give them, are
    # the F_q values of the helper (4 = 0 in F_2 and 4 = 1 in F_3)
    K = build_field(p, steps)
    F = K.residue_field
    res = K.residue_at
    rng = random.Random(f"b8b6:{p}:{len(steps)}")
    elems = list(F.elements)

    def draw(k):
        return sum((K.lift(rng.choice(elems)) * K.pi_pow(j)
                    for j in range(k, k + 3)), K.zero())

    nonzero = [0, 0]
    for _ in range(25):
        c = K.lift(rng.choice(elems))
        a1 = c.scaled(-2) + draw(1)
        a2 = -(c * c) + draw(1)
        a3, a4, a6 = draw(1), draw(1), draw(2)
        b8 = ((a1 * a1 + a2.scaled(4)) * a6 - a3 * (a1 * a4 - a2 * a3)
              - a4 * a4)
        b6 = a3 * a3 + a6.scaled(4)
        want = (res(b8, 2), res(b6, 2))
        got = _b8_b6_residues(F, res(a1, 0), res(a2, 0), res(a3, 1),
                              res(a4, 1), res(a6, 2))
        assert got == want
        nonzero = [n + bool(any(w)) for n, w in zip(nonzero, want)]
    assert min(nonzero) >= 5


def test_tate_zero_residue_translates_nothing(Q5, monkeypatch):
    # the I2* trace keeps its zero translations, but only the cubic's
    # nonzero root moves the model
    calls = []
    translate = elliptic._translate

    def counted(*args, **kw):
        calls.append(kw)
        return translate(*args, **kw)

    monkeypatch.setattr(elliptic, "_translate", counted)
    r = tate_algorithm(WeierstrassModel.from_a_invariants(
        Q5, a4=-3 * 25, a6=27 * 125))
    assert r.quadruple() == (8, 2, "I2*", 2)
    assert sum(e[0] == "translate" for e in r.trace) == 5
    moved = [[v for v, lift in kw.items() if lift is not None]
             for kw in calls]
    assert [m for m in moved if m] == [["r"]]


def test_tate_step_six_failure_is_a_field_error(Q5, monkeypatch):
    # a t-translation that leaves a unit in a3 fails the step-six check
    # with its own error, not with the residue read's
    m = change_coords(WeierstrassModel.from_a_invariants(Q5, a4=25), t=5)
    translate = elliptic._translate

    def broken(*args, **kw):
        a1, a2, a3, a4, a6 = translate(*args, **kw)
        if kw.get("t") is not None and any(kw["t"].vec):
            a3 = a3 + 1
        return a1, a2, a3, a4, a6

    monkeypatch.setattr(elliptic, "_translate", broken)
    with pytest.raises(FieldError, match="^step-six normalization failed$"):
        tate_algorithm(m)


def test_tate_restart_budget_is_derived(Q5, monkeypatch):
    # a non-minimal pass divides Delta by pi^12, so a run makes at most
    # v(Delta) // 12 + 1 passes; passes that always report non-minimal
    # raise after exactly that many
    m = change_coords(WeierstrassModel.from_a_invariants(
        Q5, a4=5 ** 8, a6=5 ** 12), r=1)
    assert m.vdisc == 24
    passes = []

    def non_minimal(K, vD, depth, trace, a):
        passes.append(vD)
        return a

    monkeypatch.setattr(elliptic, "_tate_pass", non_minimal)
    with pytest.raises(FieldError, match="restart budget"):
        tate_algorithm(m)
    assert passes == [24, 12, 0]


def _golden_row_0(L):
    """Golden additive row 0: II* over Q_3(zeta_9, 4^(1/9)), after two
    restarts."""
    return WeierstrassModel.from_a_invariants(
        L, {}, {0: -11, 1: 3, 2: -1, 3: -6, 4: 1, 5: -1}, {},
        {0: -418, 1: 2, 2: -1, 4: -3}, {0: 22, 1: -1, 2: -1, 4: -3, 5: 1})


def test_tate_product_and_walk_count(monkeypatch):
    # golden additive row 0 on a freshly built tower: b8 and b6 come from
    # residues, divisibility tests are residue reads, zero residues
    # translate nothing, and neither the strip of pi^-1 nor a restart
    # divides a coefficient: the passes read deeper instead (dividing the
    # five coefficients by pi^w at the strip and at each restart makes 60
    # products and 35 walks here).
    #
    # The cold run's 21 products: the three passes make 3 translations by
    # a nonzero residue (the cubic r at k = 3, 5 and 7), each one lift_at
    # product and 4 products of _translate's r formulas, so 15 in all;
    # the residue constants of the top layer take delta^3, which is read
    # off the layer relation, (gen - beta)^3 mod f block by block, from
    # the powers of beta that the build's frame check left cached, so it
    # takes no product (0), while the build's unit peels, which read
    # residues over the cyclotomic and middle Kummer layers, set those
    # two layers' constants; and the three monomials need 6: a product
    # delta^a embed(B.monomial(b)) for each new monomial with a > 0 (2 on
    # the top layer, 2 on the middle one, 1 on the cyclotomic one, whose
    # delta^5 takes one more).  The peels' lift_at shifts made the lower
    # layers' other monomials and the cyclotomic delta^4 during the
    # build.  The 18 walks are 17 residue reads and the top layer's
    # residue-constant read.  On a warm tower the constants, delta powers
    # and monomials are cached: the 15 products of the translations and
    # the 17 residue reads.  The cold count needs a fresh cyclotomic
    # layer too, not the one that earlier towers over Q_3(zeta_9) at this
    # precision share and have filled (two of its monomials).
    fields._cyclotomic.cache_clear()
    L = build_field(3, [T.cyclotomic(9), T.kummer(9, 4)])
    count = {"mul": 0, "walk": 0, "depth": 0}
    mul, val = FieldElement.__mul__, LocalField._val

    def counting_mul(a, b):
        count["mul"] += 1
        return mul(a, b)

    def counting_val(self, *args, **kw):
        # a walk of a base layer inside a walk is part of that walk
        count["walk"] += not count["depth"]
        count["depth"] += 1
        try:
            return val(self, *args, **kw)
        finally:
            count["depth"] -= 1

    monkeypatch.setattr(FieldElement, "__mul__", counting_mul)
    monkeypatch.setattr(LocalField, "_val", counting_val)
    for cold in (True, False):
        model = _golden_row_0(L)
        count.update(mul=0, walk=0)
        r = tate_algorithm(model)
        assert r.quadruple() == (18, 10, "II*", 1)
        assert r.trace.count(("restart",)) == 2
        if cold:
            assert (count["mul"], count["walk"]) == (21, 18)
        else:
            assert (count["mul"], count["walk"]) == (15, 17)


def test_tate_restarts_divide_nothing(monkeypatch):
    # golden row 0 is stripped of pi^-1 and restarts twice, and inverts
    # nothing: no pi^-k is made
    L = build_field(3, [T.cyclotomic(9), T.kummer(9, 4)])
    model = _golden_row_0(L)

    def refuse(self, x):
        raise AssertionError("LocalField.invert called")

    monkeypatch.setattr(LocalField, "invert", refuse)
    r = tate_algorithm(model)
    assert r.quadruple() == (18, 10, "II*", 1)
    assert r.trace.count(("restart",)) == 2


# ----------------------------------------------------------------------
# property: unimodular coordinate changes over towers at p = 2, 3, 5, 7

_TATE_TOWERS = {
    "Q2": (2, [], (0, 0, 0, -1, 0)),
    "Q2(sqrt5)": (2, [T.kummer(2, 5)], (1, 1, 0, 0, 16)),          # f = 2
    "Q3(z3,3^(1/3))": (3, [T.cyclotomic(3), T.kummer(3, 3)], (0, 3, 0, 0, 9)),
    "Q5": (5, [], (0, 0, 0, -3 * 25, 27 * 125)),                   # I2*
    "Q5(z5)": (5, [T.cyclotomic(5)], (0, 0, 0, 0, 5)),             # IV*
    "Q7(z7)": (7, [T.cyclotomic(7)], (0, 0, 0, 7, 0)),             # I0*
    "Q7(z7) I6": (7, [T.cyclotomic(7)], (1, 0, 0, 0, 7)),
    "K54": (3, [T.cyclotomic(9), T.kummer(9, 3)], (0, 3, 0, 0, 9)),
    "L54": (3, [T.cyclotomic(9), T.kummer(9, 4)], (0, 3, 0, 0, 9)),
}
_TATE_BASE = {}


def _tate_base(name):
    """(tower, model, reduction data) of the named base curve."""
    if name not in _TATE_BASE:
        p, steps, coeffs = _TATE_TOWERS[name]
        K = build_field(p, steps)
        m = WeierstrassModel.from_a_invariants(K, *coeffs)
        _TATE_BASE[name] = (K, m, tate_algorithm(m))
    return _TATE_BASE[name]


@pytest.mark.parametrize("name", list(_TATE_TOWERS))
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_tate_invariant_under_unimodular_changes(name, data):
    K, m, base = _tate_base(name)
    base = base.quadruple()
    small = st.integers(-2 * K.p, 2 * K.p)

    def integral():
        # a + b pi + c g, g the last step generator (or pi^2)
        g = K.step_generators[-1] if K.step_generators else K.pi_pow(2)
        a, b, c = data.draw(small), data.draw(small), data.draw(small)
        return K.from_int(a) + K.pi * b + g * c

    unit = data.draw(st.integers(1, 3 * K.p).filter(lambda a: a % K.p))
    u = K.from_int(unit) + K.pi * data.draw(small)
    r, s, t = integral(), integral(), integral()
    rd = tate_algorithm(change_coords(m, u=u, r=r, s=s, t=t))
    assert rd.quadruple() == base
    # the trace records residues as fields.residue gives them: F_q
    # coordinate tuples over F_p
    for entry in rd.trace:
        if entry[0] in ("singular", "translate"):
            for c in entry[1:]:
                if isinstance(c, tuple):
                    assert len(c) == K.f and all(0 <= a < K.p for a in c)


@pytest.mark.parametrize("j", [1, 2, 3])
@pytest.mark.parametrize("name", list(_TATE_TOWERS))
@settings(max_examples=2, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_tate_hidden_non_minimality(name, j, data):
    # scaled by u = pi^-j, then moved by units r, s, t: a1 = 2s (p odd)
    # or a4 = r^2 (p = 2) mod pi is a unit, so the integral scaling strips
    # nothing, and each power of pi hidden in the model, the j new ones
    # and those the base model had stripped, costs one restart
    K, m, base = _tate_base(name)

    def unit():
        a = data.draw(st.integers(1, 3 * K.p).filter(lambda a: a % K.p))
        return K.from_int(a) + K.pi * data.draw(st.integers(-K.p, K.p))

    hidden = change_coords(change_coords(m, u=K.pi_pow(-j)),
                           r=unit(), s=unit(), t=unit())
    rd = tate_algorithm(hidden)
    assert rd.quadruple() == base.quadruple()
    assert not [e for e in rd.trace if e[0] == "scale"]
    stripped = -sum(e[1] for e in base.trace if e[0] == "scale")
    assert stripped >= 0
    assert (rd.trace.count(("restart",))
            == base.trace.count(("restart",)) + stripped + j)


# ----------------------------------------------------------------------
# property: Tate's algorithm at the precision its reads need

_DERIVED_DIGITS = elliptic._tate_digits


def _tate_cut(monkeypatch, model, digits=None):
    """((quadruple, trace), or PrecisionError) of Tate's algorithm with
    the coefficients cut to ``digits``, or to the derived digits when
    None; and the digits used."""
    used = []

    def cut(K, vD, depth):
        used.append(_DERIVED_DIGITS(K, vD, depth) if digits is None
                    else digits)
        return used[-1]

    monkeypatch.setattr(elliptic, "_tate_digits", cut)
    try:
        rd = tate_algorithm(model)
        out = (rd.quadruple(), rd.trace)
    except PrecisionError:
        out = PrecisionError
    return out, used[0]


@pytest.mark.parametrize("floor", [12, 0])
@pytest.mark.parametrize("name", list(_TATE_TOWERS))
def test_tate_digits_are_the_former_cut(name, floor, monkeypatch):
    # the cut Tate derived on its own, max(ceil((R + 2) / e) + walk, 12)
    # plus 3 sigma with R = vD + 6 depth + 5, is _read_digits(K, R + 2)
    # plus 3 sigma; with the floor lowered to 0 the reads' term shows
    monkeypatch.setattr(fields, "_MIN_EFFECTIVE", floor)
    K, m, _ = _tate_base(name)
    sigma = fields._denominator_bound(K)
    for depth in (0, 1, 2):
        R = m.vdisc + 6 * depth + 5
        former = (max(-(-(R + 2) // K.e) + fields._walk_digits(K), floor)
                  + 3 * sigma)
        assert elliptic._tate_digits(K, m.vdisc, depth) == former, depth


def _check_derived_digits(monkeypatch, model):
    """At the derived digits the run equals the uncut run at M; with
    fewer, down to the floor, it equals it or raises PrecisionError."""
    uncut, _ = _tate_cut(monkeypatch, model, model.field.M)
    assert uncut is not PrecisionError
    got, derived = _tate_cut(monkeypatch, model)
    assert got == uncut
    for digits in range(derived - 1, _MIN_EFFECTIVE - 1, -1):
        got, _ = _tate_cut(monkeypatch, model, digits)
        assert got in (uncut, PrecisionError), digits
    return derived


@pytest.mark.parametrize("row", range(len(GOLDEN_ADDITIVE)))
def test_tate_derived_digits_golden_rows(row, K54, L54_4, monkeypatch):
    for K in (K54, L54_4):
        model = WeierstrassModel.from_a_invariants(K, *GOLDEN_ADDITIVE[row][0])
        # the degree-54 runs need tens of digits, not M = 290
        assert _check_derived_digits(monkeypatch, model) < 30


@pytest.mark.parametrize("row", [0, 1, 5])
def test_tate_integral_scaling_golden_rows(row, K54, L54_4):
    # u = pi^4 divides a_w by pi^(4w), so the model is not integral.  As
    # given, a row's run starts ("scale", -1), a strip of one pi; the
    # scaled model's run multiplies a_w by pi^(3w) = pi^(4w) pi^(-w),
    # the integral scaling no other test reaches, and finds the golden
    # quadruple
    coeffs, *quadruples = GOLDEN_ADDITIVE[row]
    for K, want in zip((K54, L54_4), quadruples):
        model = WeierstrassModel.from_a_invariants(K, *coeffs)
        r = tate_algorithm(change_coords(model, u=K.pi_pow(4)))
        assert r.trace[0] == ("scale", 3)
        assert r.quadruple() == want


@pytest.mark.parametrize("change", ["none", "scaled", "hidden"])
@pytest.mark.parametrize("name", list(_TATE_TOWERS))
def test_tate_derived_digits_towers(name, change, monkeypatch):
    # the base curves; scaled by u = pi^-2, which the integral strip
    # turns into a start two pi deeper; and hidden non-minimal by the
    # same u, so that the reads come after two more restarts
    K, m, _ = _tate_base(name)
    if change != "none":
        m = change_coords(m, u=K.pi_pow(-2))
    if change == "hidden":
        m = change_coords(m, r=K.one() + K.pi, s=-K.one(),
                          t=K.one() + K.pi_pow(2))
    _check_derived_digits(monkeypatch, m)


# ----------------------------------------------------------------------
# property: translations lift residues by frame monomials

# name -> (p, steps, a-invariants of a curve over the tower); the curve
# only sets the deepest read R.  Q_2(zeta_8, 3^(1/8)) has an unramified
# layer between ramified ones, Q_3(zeta_3) an unramified one on top, and
# Q_2(zeta_16, 3^(1/16)) (degree 128) is a tall p = 2 tower; on the
# towers at p = 3, 5 and 7 many monomials have a residue r_k != 1
_MONOMIAL_TOWERS = {
    "Q2(z8,3^(1/8))": (2, [T.cyclotomic(8), T.kummer(8, 3)],
                       (0, 0, 0, 0, 2)),
    "Q2(z16,3^(1/16))": (2, [T.cyclotomic(16), T.kummer(16, 3)],
                         (0, 0, 0, 0, 2)),
    "Q3(z3)(unramified)": (3, [T.cyclotomic(3), T.kummer(3, {0: 2, 1: -3})],
                           (0, 3, 0, 0, 9)),
    "Q3(z3,3^(1/3))": _TATE_TOWERS["Q3(z3,3^(1/3))"],
    "K54": _TATE_TOWERS["K54"],
    "L54": _TATE_TOWERS["L54"],
    "Q5(z5,6^(1/5))": (5, [T.cyclotomic(5), T.kummer(5, 6)],
                       (0, 0, 0, 0, 5)),
    "Q7(z7,2^(1/7))": (7, [T.cyclotomic(7), T.kummer(7, 2)],
                       (0, 0, 0, 7, 0)),
}
_MONOMIAL_BASE = {}


def _monomial_tower(name):
    """(tower, R): R = vD + 6 depth + 5 for the named curve run two pi
    deeper (vD + 24 at depth 2), the deepest read of those runs of
    ``test_tate_derived_digits_towers``."""
    if name not in _MONOMIAL_BASE:
        p, steps, coeffs = _MONOMIAL_TOWERS[name]
        K = build_field(p, steps)
        vD = WeierstrassModel.from_a_invariants(K, *coeffs).vdisc
        _MONOMIAL_BASE[name] = (K, vD + 24 + 6 * 2 + 5)
    return _MONOMIAL_BASE[name]


@pytest.mark.parametrize("name", list(_MONOMIAL_TOWERS))
def test_monomial_denominators_within_sigma(name):
    # the cut of _tate_digits charges sigma for each translation by
    # lift(c') monomial(k): no monomial up to the deepest read carries
    # more denominator, though one can end in p^b with b < 0 over Q_p
    K, R = _monomial_tower(name)
    sigma = fields._denominator_bound(K)
    for k in range(R + 1):
        assert K.monomial(k).s <= sigma, k
        assert K.monomial(k).valuation() == k


@pytest.mark.parametrize("name", list(_MONOMIAL_TOWERS))
def test_shift_keeps_its_valuation_and_residue(name):
    # every shift element y = lift_at(c, k), k from 1 to the deepest
    # read R and c a seeded nonzero residue, has v(y) = k and residue c
    # at pi^k, read by a fresh walk, and a denominator within sigma; on
    # the towers with some r_k != 1 a lift of c alone would read c r_k
    K, R = _monomial_tower(name)
    F = K.residue_field
    sigma = fields._denominator_bound(K)
    rng = random.Random(name)
    for k in range(1, R + 1):
        c = F.zero
        while not any(c):
            c = tuple(rng.randrange(K.p) for _ in range(K.f))
        y = K.lift_at(c, k)
        assert y.s <= sigma, k
        y = FieldElement(K, y.vec, y.s, y.m)
        assert y.valuation() == k
        assert K.residue_at(y, k) == c, k
    if K.p > 2:
        assert any(K._monomial_residue(k) != F.one for k in range(1, R + 1))


@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(row=st.integers(0, len(GOLDEN_ADDITIVE) - 1),
       data=st.data())
def test_change_coords_carries_the_discriminant_valuation(row, data, K54,
                                                          L54_4):
    # the new model carries v(Delta') = v(Delta) - 12 v(u) without
    # computing Delta', and it equals a fresh recomputation of Delta'
    # wherever that is determined
    K = data.draw(st.sampled_from([K54, L54_4]))
    model = WeierstrassModel.from_a_invariants(K, *GOLDEN_ADDITIVE[row][0])
    small = st.integers(-9, 9)

    def element():
        return K.from_zeta_poly({i: data.draw(small) for i in range(6)})

    j = data.draw(st.integers(-2, 2))
    u = (K.from_int(data.draw(st.integers(1, 8).filter(lambda a: a % 3)))
         + K.pi * data.draw(small)) * K.pi_pow(j)
    r, s, t = element(), element(), element()
    with mock.patch.object(elliptic, "_disc",
                           side_effect=AssertionError("Delta recomputed")):
        new = change_coords(model, u, r, s, t)
    assert new.vdisc == model.vdisc - 12 * j
    v, _ = weierstrass_invariants(new, check=False).disc.val_or_bound()
    if v is not None:
        assert new.vdisc == v


# ----------------------------------------------------------------------
# property: a model's arithmetic in the lowest layer that holds it

# (x, y) -> (x + r, y + s x + t) with zeta-polynomial r, s, t, as
# tools/parity.py applies it to the golden rows
_GOLDEN_RST = ({0: 1, 1: -2}, {2: 1}, {0: -1, 3: 2})


def _in_k(xs):
    """``elliptic._lowered`` that keeps every element in its own field."""
    return xs[0].field, xs


def _key(x):
    return (x.vec, x.s, x.m, x.exact)


def _check_descent(model, r, s, t, u=1):
    """The model's vdisc and v(j), and change_coords(model, u, r, s, t),
    against the same arithmetic run in K; returns the layer L."""
    K = model.field
    coeffs = model.coefficients()
    inv = weierstrass_invariants(coeffs, check=False)
    assert model.vdisc == inv.disc.val_or_bound()[0]
    v4 = inv.c4.val_or_bound()[0]
    assert elliptic._v_j(model) == (None if v4 is None
                                    else 3 * v4 - model.vdisc)
    r, s, t = (K.coerce(a) for a in (r, s, t))
    L, xs = elliptic._lowered([*coeffs, r, s, t])
    assert [_key(K.embed(y)) for y in _translate(*xs)] == [
        _key(y) for y in _translate(*coeffs, r, s, t)]
    new = change_coords(model, u, r, s, t)
    with mock.patch.object(elliptic, "_lowered", _in_k):
        want = change_coords(model, u, r, s, t)
    assert [_key(y) for y in new.coefficients()] == [
        _key(y) for y in want.coefficients()]
    assert new.vdisc == want.vdisc
    return L


@pytest.mark.parametrize("row", range(len(GOLDEN_ADDITIVE)))
def test_golden_models_descend_bit_identically(row, K54, L54_4):
    # the golden rows and r, s, t lie in Q_3(zeta_9), n = 6, under both
    # degree-54 towers: the descent takes the cyclotomic layer, and its
    # vdisc, v(j) and translated coefficients are K's digit for digit,
    # m included (the translation in K caps at K.M = 285, while the
    # cyclotomic layer's M is 290 on Q_3(zeta_9, 3^(1/9)))
    assert (K54.M, L54_4.M, K54.base.base.M) == (285, 290, 290)
    for K in (K54, L54_4):
        model = WeierstrassModel.from_a_invariants(K, *GOLDEN_ADDITIVE[row][0])
        rst = [K.from_zeta_poly(c) for c in _GOLDEN_RST]
        assert _check_descent(model, *rst).n == 6
        assert _check_descent(model, *rst, u=K.from_int(2)).n == 6


# towers at p = 2, 3, 5, 7 with a layer between Q_p and the top; the
# unramified ones have f > 1, so e(K/L) != [K:L] on their lower layers
_DESCENT_TOWERS = {
    "Q2(i)(unramified)": (2, [T.cyclotomic(4), T.kummer(4, 5)]),
    "Q3(z3)(unramified)": (3, [T.cyclotomic(3), T.kummer(3, {0: 2, 1: -3})]),
    "Q3(z9,3^(1/3))": (3, [T.cyclotomic(9), T.kummer(3, 3)]),
    "Q5(z5,6^(1/5))": (5, [T.cyclotomic(5), T.kummer(5, 6)]),
    "Q7(z7,2^(1/7))": (7, [T.cyclotomic(7), T.kummer(7, 2)]),
}
_DESCENT_BUILT = {}


def _descent_tower(name):
    if name not in _DESCENT_BUILT:
        _DESCENT_BUILT[name] = build_field(*_DESCENT_TOWERS[name])
    return _DESCENT_BUILT[name]


def test_descent_towers_have_e_below_the_degree():
    degrees = set()
    for name in _DESCENT_TOWERS:
        K = _descent_tower(name)
        L = K.base
        while L is not None:
            degrees.add(K.e // L.e == K.n // L.n)
            L = L.base
    assert degrees == {True, False}
    K = _descent_tower("Q3(z3)(unramified)")
    assert (K.e // K.base.e, K.n // K.base.n) == (1, 3)


@pytest.mark.parametrize("name", list(_DESCENT_TOWERS))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_drawn_models_descend_bit_identically(name, data):
    # integral curves drawn as integers, zeta-polynomials (the cyclotomic
    # layer) or with a term in the top generator (no descent), under a
    # drawn integral r, s, t and u = 1 or a unit: the lowered arithmetic
    # gives K's vdisc, v(j) and coefficients, and a model singular or
    # zero to precision fails as it does in K
    K = _descent_tower(name)
    top = K.step_generators[-1]
    deg = K.base.n if K.base.kind == "cyclo" else 1
    small = st.integers(-2 * K.p ** 2, 2 * K.p ** 2)

    def element():
        kind = data.draw(st.sampled_from(["int", "zeta", "top"]))
        if kind == "int":
            return K.from_int(data.draw(small))
        x = K.from_zeta_poly({i: data.draw(small) for i in range(deg)})
        return x + top * data.draw(small) if kind == "top" else x

    coeffs = [element() for _ in range(5)]
    inv = weierstrass_invariants(coeffs, check=False)
    v, _ = inv.disc.val_or_bound()
    try:
        model = WeierstrassModel(*coeffs)
    except SingularModelError:
        assert v is None and inv.disc.exact
        return
    except PrecisionError:
        assert v is None and not inv.disc.exact
        return
    unit = data.draw(st.integers(1, 3 * K.p).filter(lambda a: a % K.p))
    u = data.draw(st.sampled_from([1, K.from_int(unit)]))
    _check_descent(model, element(), element(), element(), u=u)


def test_exact_singular_models_still_raise(K54):
    # coefficients in Q_3 and in Q_3(zeta_9) descend, and an exactly
    # vanishing discriminant there is still a singular curve: the zero
    # model, the node y^2 + xy = x^3, and y^2 = x^3 + Phi_9(z) x^2
    phi9 = {0: 1, 3: 1, 6: 1}
    for coeffs in ((0, 0, 0, 0, 0), (1, 0, 0, 0, 0), (0, phi9, 0, 0, 0)):
        xs = [K54.coerce(a) for a in coeffs]
        assert elliptic._lowered(xs)[0].n < K54.n
        with pytest.raises(SingularModelError):
            WeierstrassModel(*xs)
    with pytest.raises(SingularModelError):
        WeierstrassModel.from_a_invariants(K54, {0: 3}, {1: 3, 4: 3, 7: 3})


def test_descent_keeps_denominators_and_other_fields_in_k(K54):
    # r = (z - 1) / 3 and a1 = (z - 1)^5 / 3 come from Q_3(zeta_9) at its
    # M = 290.  In K, r a1 = (z - 1)^6 / 9 keeps m = 290 and its
    # normalization strips one 3 to m = 289, and a3 + r a1 caps at
    # K.M = 285; lowered, r and a1 enter at 285 and the product strips
    # to 284, which the sum keeps.  So such inputs stay in K
    C = K54.base.base
    z, third = C.from_zeta_poly({0: -1, 1: 1}), C.from_fraction(Fraction(1, 3))
    r, a1 = K54.embed(z * third), K54.embed(z ** 5 * third)
    assert (r.s, r.m, a1.s, a1.m) == (1, 290, 1, 290)
    model = WeierstrassModel(a1, K54.zero(), K54.one(), K54.zero(), K54.one())
    assert _check_descent(model, r, 0, 0) is K54
    assert change_coords(model, 1, r, 0, 0).a3.m == 285
    assert elliptic._lowered([K54.one(), K54.one()])[0].n == 1
    # an element of another field stays too, and the translation raises
    # as in K
    with pytest.raises(FieldError):
        change_coords(model, 1, C.one())


@pytest.mark.parametrize("row", [0, 1, 5])
def test_integral_scaling_cuts_before_the_product(row, K54, L54_4,
                                                  monkeypatch):
    # scaled by u = pi^4, a row's run multiplies a_w by pi^(3w); each
    # a_w is cut to the run's digits plus that power's s first, and the
    # coefficients the first pass gets are those of the product at M
    # cut afterwards, digit for digit
    passes = []
    tate_pass = elliptic._tate_pass

    def first(K, vD, depth, trace, a):
        passes.append(dict(a))
        return tate_pass(K, vD, depth, trace, a)

    monkeypatch.setattr(elliptic, "_tate_pass", first)
    for K in (K54, L54_4):
        model = WeierstrassModel.from_a_invariants(
            K, *GOLDEN_ADDITIVE[row][0])
        model = change_coords(model, u=K.pi_pow(4))
        passes.clear()
        rd = tate_algorithm(model)
        (_, shift), vD = rd.trace[0], model.vdisc + 12 * 3
        assert shift == 3
        digits = elliptic._tate_digits(K, vD, 0)
        want = {w: (aw * K.pi_pow(w * shift)).capped(digits)
                for w, aw in zip(elliptic._WEIGHTS, model.coefficients())}
        assert {w: (x.vec, x.s, x.m) for w, x in passes[0].items()} == {
            w: (x.vec, x.s, x.m) for w, x in want.items()}
