import random
from fractions import Fraction

import pytest

from anabelomorph.fields import (CertificationError, DegreeDropError,
                                 TowerStep, build_field, different_bound,
                                 different_valuation, discriminant_valuation,
                                 find_uniformizer, norm_to_qp,
                                 parse_field_spec, parse_zeta_poly, residue,
                                 closed_form_disc)

T = TowerStep


@pytest.fixture(scope="module")
def F9():
    return build_field(3, [T.cyclotomic(9)])


@pytest.fixture(scope="module")
def K1():
    return build_field(3, [T.cyclotomic(3), T.kummer(3, 3)])


@pytest.fixture(scope="module")
def L1():
    return build_field(3, [T.cyclotomic(3), T.kummer(3, 4)])


@pytest.fixture(scope="module")
def K2():
    return build_field(3, [T.cyclotomic(9), T.kummer(9, 3)])


# ----------------------------------------------------------------------
# construction


def test_build_qp():
    Q5 = build_field(5, [])
    assert (Q5.n, Q5.e, Q5.f) == (1, 1, 1)


def test_build_cyclotomic9(F9):
    assert (F9.n, F9.e, F9.f) == (6, 6, 1)
    assert F9.from_int(3).valuation() == 6


def test_build_degree54(K2):
    assert (K2.n, K2.e, K2.f) == (54, 54, 54 // 54 * 1)
    assert K2.from_int(3).valuation() == 54


def test_reducible_step_raises(F9):
    with pytest.raises(DegreeDropError):
        build_field(3, [T.cyclotomic(3), T.kummer(3, 27)])


def test_basic_invariants_every_field(K1, L1, K2):
    for K in (K1, L1, K2):
        assert K.n == K.e * K.f
        assert K.from_int(K.p).valuation() == K.e
        assert K.pi.valuation() == 1


# ----------------------------------------------------------------------
# norms and valuations


def test_norm_of_cyclotomic_uniformizer(F9):
    z = F9.gen()
    nv = norm_to_qp(z - F9.one())
    assert nv.valuation() == 1            # Phi_9(1) = 3


def test_norm_of_constant_is_power(K2):
    n = norm_to_qp(K2.from_int(7))
    assert n.valuation() == 0
    assert n.lift() % 3 ** 40 == pow(7, 54, 3 ** 40)


def test_norm_of_ninth_root(K2):
    g = K2.step_generators[1]
    assert (g ** 9 - K2.from_int(3)).is_zero_to_precision()
    assert norm_to_qp(g).valuation() == 6
    assert g.valuation() == 6


def test_valuation_examples(K2):
    z = K2.step_generators[0]
    assert (z - K2.one()).valuation() == 9


def test_norm_multiplicative_randomized(K2):
    rng = random.Random(41)
    g = K2.step_generators[1]
    for _ in range(8):
        a = K2.from_zeta_poly({i: rng.randrange(-5, 6) for i in range(6)}) \
            + g * rng.randrange(1, 4)
        b = K2.from_zeta_poly({i: rng.randrange(-5, 6) for i in range(6)}) \
            + (g * g) * rng.randrange(1, 4)
        d = norm_to_qp(a * b) - norm_to_qp(a) * norm_to_qp(b)
        assert d.is_bottom or d.valuation() > 80


def test_inverse_roundtrip(K2):
    g = K2.step_generators[1]
    x = K2.from_zeta_poly({0: 2, 1: 1}) + g
    assert (x * x.inv() - K2.one()).is_zero_to_precision()


# ----------------------------------------------------------------------
# residues


def test_residues(K2):
    z = K2.step_generators[0]
    g = K2.step_generators[1]
    assert residue(z)[0] == (1,)          # zeta_9 = 1 in the residue field
    assert residue(g)[0] == (0,)          # positive valuation
    assert residue(K2.from_int(2))[0] == (2,)


# ----------------------------------------------------------------------
# uniformizers


def test_uniformizer_qp():
    Q7 = build_field(7, [])
    assert find_uniformizer(Q7).valuation() == 1


def test_uniformizer_closed_form_r1(K1):
    # (1 - zeta_3) / 3^(1/3) has valuation one
    z3 = K1.embed(K1.base.gen())
    g = K1.step_generators[1]
    om = (K1.one() - z3) * g.inv()
    assert om.valuation() == 1
    assert find_uniformizer(K1).valuation() == 1


def test_uniformizer_degree54(K2):
    assert find_uniformizer(K2).valuation() == 1


# ----------------------------------------------------------------------
# differents and discriminants


def test_different_qp():
    assert different_valuation(build_field(3, [])) == 0


def test_different_r1_pair(K1, L1):
    # the radicand-p field measures 2p(p-1) - 1 (cross-checked against the
    # conductor-discriminant identity and an exact global minimal
    # polynomial computation); the radicand-(1+p) field gives p^2 - 2.
    assert different_valuation(K1) == 11
    assert different_valuation(L1) == 7


def test_discriminant_table_rows():
    expected = {3: 165, 4: 121, -7: 121}
    for rad, want in expected.items():
        K = build_field(3, [T.cyclotomic(9), T.kummer(9, rad)])
        assert discriminant_valuation(K) == want


def test_discriminant_zeta_polynomial_rows():
    for radtxt, want in [("-6z^2-2", 141), ("-3z^4-6z+3", 157)]:
        K = build_field(3, [T.cyclotomic(9),
                            T.kummer(9, parse_zeta_poly(radtxt))])
        assert discriminant_valuation(K) == want


def test_closed_form_disc_values():
    assert closed_form_disc(3, 2, "radicand-p") == 165
    assert closed_form_disc(3, 2, "radicand-1+p") == 121
    assert closed_form_disc(3, 1, "radicand-1+p") == 7
    assert closed_form_disc(5, 1, "radicand-1+p") == 23
    # the exact-fraction evaluation at r = 1 gives 2p(p-1) - 1
    assert closed_form_disc(3, 1, "radicand-p") == 11
    assert closed_form_disc(5, 1, "radicand-p") == 39


def test_closed_form_matches_general_r1():
    for p, rads in ((3, (3, 4)), (5, (5, 6))):
        Kp = build_field(p, [T.cyclotomic(p), T.kummer(p, rads[0])])
        Lp = build_field(p, [T.cyclotomic(p), T.kummer(p, rads[1])])
        assert different_valuation(Kp) == closed_form_disc(p, 1, "radicand-p")
        assert different_valuation(Lp) == closed_form_disc(p, 1, "radicand-1+p")


def test_closed_form_matches_general_r2_p3(K2):
    assert discriminant_valuation(K2) == closed_form_disc(3, 2, "radicand-p")
    L = build_field(3, [T.cyclotomic(9), T.kummer(9, 4)])
    assert discriminant_valuation(L) == closed_form_disc(3, 2, "radicand-1+p")


@pytest.mark.slow
def test_closed_form_matches_general_r2_p5():
    K = build_field(5, [T.cyclotomic(25), T.kummer(25, 5)])
    assert discriminant_valuation(K) == closed_form_disc(5, 2, "radicand-p") == 1515
    L = build_field(5, [T.cyclotomic(25), T.kummer(25, 6)])
    assert discriminant_valuation(L) == closed_form_disc(5, 2, "radicand-1+p") == 1083


def test_different_bound(K1, K2):
    # e - 1 + n/f; at r = 1 the measured different meets it with equality,
    # at r = 2 the measured value exceeds it: recorded as a finding, not a
    # failure (the quantity stays useful as the anabelian yardstick)
    assert different_bound(K1) == 11
    assert different_valuation(K1) <= different_bound(K1)
    assert different_bound(K2) == 107
    findings = []
    if different_valuation(K2) > different_bound(K2):
        findings.append((K2.name, different_valuation(K2), different_bound(K2)))
    assert findings  # the r = 2 family genuinely exceeds e - 1 + n/f


def test_tower_order_independence():
    KA = build_field(3, [T.cyclotomic(9), T.kummer(9, 3)])
    KB = build_field(3, [T.custom([-3] + [0] * 8),   # x^9 - 3
                         T.custom([1, 1]),           # x^2 + x + 1
                         T.kummer(3, "gen:1")])      # cube root of that root
    assert (KA.n, KA.e, KA.f) == (KB.n, KB.e, KB.f)
    assert discriminant_valuation(KA) == discriminant_valuation(KB) == 165


def test_p2_towers():
    K = build_field(2, [T.cyclotomic(16), T.kummer(2, {2: 1, 0: -1}),
                        T.kummer(2, {6: 1, 0: -1})])
    L = build_field(2, [T.cyclotomic(16), T.kummer(4, {4: 1, 0: -1})])
    assert (K.n, K.e, K.f) == (32, 32, 1)
    assert (L.n, L.e, L.f) == (32, 32, 1)
    assert different_valuation(K) != different_valuation(L)


# ----------------------------------------------------------------------
# text format


def test_parse_field_spec():
    K = parse_field_spec("cyclotomic 9\nkummer 9 rad=3\n", 3)
    assert K.n == 54
    K2b = parse_field_spec("# comment\ncyclotomic 9\nkummer 9 rad=-6z^2-2\n", 3)
    assert discriminant_valuation(K2b) == 141


def test_parse_zeta_poly():
    assert parse_zeta_poly("-6z^2-2") == {2: -6, 0: -2}
    assert parse_zeta_poly("z") == {1: 1}
    assert parse_zeta_poly("10z^4+5z^2-25z+5") == {4: 10, 2: 5, 1: -25, 0: 5}


def test_unramified_kummer_layer_p2():
    # x^2 = 5 over Q_2: boundary level with an Artin-Schreier obstruction
    K = build_field(2, [T.kummer(2, 5)])
    assert (K.n, K.e, K.f) == (2, 1, 2)
    assert different_valuation(K) == 0
    assert len(K.residue_lifts) == 4
    g = K.step_generators[0]
    assert (g * g - K.from_int(5)).is_zero_to_precision()
    assert K.from_int(2).valuation() == 1


def test_unramified_quadratic_custom_p3():
    K = build_field(3, [T.custom([-2, 0])])   # x^2 - 2, nonsquare unit
    assert (K.n, K.e, K.f) == (2, 1, 2)
    assert different_valuation(K) == 0
    assert len(K.residue_lifts) == 9
    y = K.step_generators[0] * 3 + K.from_int(1)
    assert residue(y)[0] == (1, 0)


def test_square_radicand_drops_p2():
    with pytest.raises(DegreeDropError):
        build_field(2, [T.kummer(2, 17)])    # 17 is a 2-adic square


def test_nested_coefficient_view(K1):
    from anabelomorph.padic import PadicScalar
    g = K1.step_generators[1]
    x = g + K1.from_int(5)
    nested = x.coefficients()
    assert len(nested) == 3                       # kummer layer degree
    assert all(len(blk) == 2 for blk in nested)   # cyclotomic layer degree
    flat = [c for blk in nested for c in blk]
    assert all(isinstance(c, PadicScalar) for c in flat)
    assert flat[0].lift() == 5


def test_different_bound_qp():
    assert different_bound(build_field(7, [])) == 1


def test_nonprime_p_rejected():
    from anabelomorph.fields import FieldError
    with pytest.raises(FieldError):
        build_field(6, [])


def test_discriminant_larger_zeta_row():
    K = build_field(3, [T.cyclotomic(9),
                        T.kummer(9, parse_zeta_poly("10z^4+5z^2-25z+5"))])
    assert discriminant_valuation(K) == 189


def test_parse_int_poly_empty_is_value_error():
    from anabelomorph.fields import _parse_int_poly
    with pytest.raises(ValueError):
        _parse_int_poly("")
