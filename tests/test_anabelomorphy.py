import itertools
from fractions import Fraction

import pytest

from anabelomorph.anabelomorphy import (ANABELOMORPHIC, NOT_ANABELOMORPHIC,
                                        PEU, TRES, UNDECIDED,
                                        KummerFieldSpec, _certify,
                                        jarden_ritter,
                                        krasner_rationalize,
                                        partition_classes,
                                        peu_tres_classify)
from anabelomorph.fields import (DegreeDropError, FieldError, TowerStep,
                                 build_field)
from anabelomorph.formats import parse_kummer_spec, parse_zeta_poly
from anabelomorph.padic import PadicScalar


def S(p, r, rad=None):
    return KummerFieldSpec(p, r, rad)


# ----------------------------------------------------------------------
# verdicts


def test_radicand_pair_r1():
    v = jarden_ritter(S(3, 1, 3), S(3, 1, 4))
    assert v.status == ANABELOMORPHIC
    assert v.degree1 == v.degree2 == 6
    assert v.k0_label1 == v.k0_label2 == "Q_3(zeta_3)"


def test_table_pairs_r2():
    assert jarden_ritter(S(3, 2, 3), S(3, 2, 4)).status == ANABELOMORPHIC
    assert jarden_ritter(S(3, 2, 3), S(3, 2, -7)).status == ANABELOMORPHIC


def test_p_and_1p_families():
    for p in (3, 5):
        for r in (1, 2):
            v = jarden_ritter(S(p, r, p), S(p, r, 1 + p))
            assert v.status == ANABELOMORPHIC, (p, r, v.reason)


def test_degree_mismatch():
    v = jarden_ritter(S(3, 1, 3), S(3, 1))
    assert v.status == NOT_ANABELOMORPHIC
    assert {v.degree1, v.degree2} == {6, 2}
    assert jarden_ritter(S(3, 1, 3), S(3, 2, 3)).status == NOT_ANABELOMORPHIC


def test_degree_budget_refused_before_any_build(monkeypatch):
    # Q_3(zeta_2187, 3^(1/2187)) has degree 1458 * 2187: refused with
    # build_field's message, in either position, before the p-th power
    # test builds the degree-1458 cyclotomic level
    from anabelomorph import anabelomorphy

    def refuse(*args, **kwargs):
        raise AssertionError("built a field")

    monkeypatch.setattr(anabelomorphy, "build_field", refuse)
    for pair in ((S(3, 7, 3), S(3, 1)), (S(3, 1), S(3, 7, 3)),
                 (S(3, 7, 3), S(3, 7, 3))):
        with pytest.raises(FieldError, match="tower degree 3188646 exceeds "
                           "the degree budget of 2500"):
            jarden_ritter(*pair)
    assert S(3, 7, 3).degree() == 1458 * 2187 and S(3, 7).degree() == 1458


def test_prime_mismatch():
    assert jarden_ritter(S(3, 1, 3), S(5, 1, 5)).status == NOT_ANABELOMORPHIC


def test_same_spec_reflexive():
    assert jarden_ritter(S(3, 2, 3), S(3, 2, 3)).status == ANABELOMORPHIC


def test_degree_drop_error():
    with pytest.raises(DegreeDropError):
        jarden_ritter(S(3, 1, 27), S(3, 1, 3))


# p = 2 radicands: squares and non-squares in Q_2(zeta_(2^r)), -4 and
# other elements of -4 Q^4, fractions, and zeta-polynomials
P2_RADICANDS = [-4, -1, 9, 17, 3, 5, 7, -3, -7, 2, -2, 6, 4, 16, -16, 81,
                25, 49, -64, 64, Fraction(3, 4), Fraction(1, 9),
                Fraction(-1, 4), Fraction(5, 16), Fraction(9, 25), 33, -15,
                12, -12, 36, 100, 1025, Fraction(17, 81)] + [
    parse_zeta_poly(z) for z in ("z+1", "2z", "3z^2+4", "z", "-z+2")]


@pytest.mark.parametrize("r", [2, 3])
def test_p2_degree_test_matches_the_build(r):
    # the build certifies every layer of Q_2(zeta_(2^r), a^(1/2^r)), so it
    # is the oracle for the one p-th-power test of the verdicts
    for rad in P2_RADICANDS:
        spec = S(2, r, rad)
        try:
            degree = spec.build().n
        except DegreeDropError:
            with pytest.raises(DegreeDropError):
                _certify(spec)
        else:
            assert _certify(spec)[0] == degree, rad


def test_p2_r1_out_of_scope_on_both_paths():
    # zeta_2 = -1 lies in Q_2: a spec refuses p = 2, r = 1 with its scope,
    # with a radicand or without, before any layer is built, and a tower
    # built from steps refuses the cyclotomic layer itself
    for rad in (3, None):
        with pytest.raises(ValueError, match="spec p=2 r=1 is out of scope"):
            S(2, 1, rad)
    with pytest.raises(FieldError, match="cyclotomic modulus"):
        build_field(2, [TowerStep.cyclotomic(2)])


def test_zeta_poly_radicand_undecided():
    v = jarden_ritter(S(3, 2, parse_zeta_poly("-6z^2-2")), S(3, 2, 3))
    assert v.status == UNDECIDED
    assert v.degree1 == v.degree2 == 54


def test_symmetry_and_transitivity():
    specs = [S(3, 2, 3), S(3, 2, 4), S(3, 2, -7)]
    for a, b in itertools.permutations(specs, 2):
        assert jarden_ritter(a, b).status == jarden_ritter(b, a).status
    # transitivity on decided verdicts across the triple
    ab = jarden_ritter(specs[0], specs[1]).status
    bc = jarden_ritter(specs[1], specs[2]).status
    ac = jarden_ritter(specs[0], specs[2]).status
    if ab == bc == ANABELOMORPHIC:
        assert ac == ANABELOMORPHIC


# ----------------------------------------------------------------------
# partition


def test_partition_one_class():
    classes, flags = partition_classes([S(3, 2, 3), S(3, 2, 4), S(3, 2, -7)])
    assert classes == [[0, 1, 2]]
    assert flags == [False, False, False]


def test_partition_singleton():
    classes, flags = partition_classes([S(3, 1, 3)])
    assert classes == [[0]]


def test_partition_mixed_r():
    classes, _ = partition_classes([S(3, 1, 3), S(3, 2, 3), S(3, 1, 4)])
    assert classes == [[0, 2], [1]]


# ----------------------------------------------------------------------
# peu / tres


def test_peu_tres_examples():
    assert peu_tres_classify(S(3, 1, 3)) == TRES
    assert peu_tres_classify(S(3, 1, 4)) == PEU
    assert peu_tres_classify(S(3, 1, 3 ** 3 * 5)) == PEU


def test_peu_tres_not_constant_on_class():
    # one anabelomorphism class, two labels
    a, b = S(3, 1, 3), S(3, 1, 4)
    assert jarden_ritter(a, b).status == ANABELOMORPHIC
    assert peu_tres_classify(a) != peu_tres_classify(b)


def test_peu_tres_scope():
    with pytest.raises(ValueError):
        peu_tres_classify(S(3, 2, 3))


# ----------------------------------------------------------------------
# spec parsing


def test_parse_kummer_spec():
    s = parse_kummer_spec("p=3 r=2 rad=3")
    assert (s.p, s.r, s.radicand) == (3, 2, 3)
    s = parse_kummer_spec("p=3 r=1")
    assert s.radicand is None
    s = parse_kummer_spec("p=3 r=2 rad=-6z^2-2")
    assert s.radicand == {2: -6, 0: -2}
    for text in ("p=3 p=3 r=1", "p=3 r=1 rad=3 rad=4"):
        with pytest.raises(ValueError, match="repeated in spec"):
            parse_kummer_spec(text)


# ----------------------------------------------------------------------
# krasner rationalization


def Sc(n, p=3, prec=40):
    return PadicScalar.from_int(n, p, prec)


def test_krasner_already_rational():
    coeffs = [Sc(-2, p=7), Sc(0, p=7), Sc(1, p=7)]
    out, cert = krasner_rationalize(coeffs)
    assert out == [-2, 0, 1]
    assert cert["attained_closeness"] > cert["threshold"]


def test_krasner_linear():
    u = Sc(1, p=5) + Sc(5, p=5) + Sc(50, p=5)
    out, cert = krasner_rationalize([PadicScalar.from_int(-56, 5, 40),
                                     PadicScalar.from_int(1, 5, 40)])
    assert out == [-56, 1]


def test_krasner_eisenstein_certificate():
    # x^3 - (3 + 9 u) for a truncated unit u; the output integer cubic has
    # the same discriminant valuation (checked by an exact resultant)
    u = Sc(1 + 3 * 7)             # some unit
    c0 = -(Sc(3) + Sc(9) * u)
    coeffs = [c0, Sc(0), Sc(0), Sc(1)]
    out, cert = krasner_rationalize(coeffs)
    assert out[3] == 1 and out[1] == out[2] == 0
    assert cert["disc_valuations_match"]
    assert cert["disc_valuation_input"] == cert["disc_valuation_output"] == 5
    assert cert["attained_closeness"] > cert["threshold"]


def test_krasner_height_bound():
    coeffs = [Sc(-2, p=7, prec=60), Sc(0, p=7), Sc(1, p=7)]
    with pytest.raises(ValueError):
        krasner_rationalize(coeffs, height_bound=1)


def test_kummer_class_equivalent_radicands():
    # -24 = (-1) * 2^3 * 3: same Kummer class as 3 up to cubes and the
    # sign (a cube at p = 3), so the fields coincide and the verdict is
    # affirmative with the same certificate data
    v = jarden_ritter(S(3, 1, 3), S(3, 1, -24))
    assert v.status == ANABELOMORPHIC
    assert v.degree1 == v.degree2 == 6


def test_partition_undecided_flag():
    specs = [S(3, 2, parse_zeta_poly("-6z^2-2")), S(3, 2, 3)]
    classes, flags = partition_classes(specs)
    assert classes == [[0], [1]]
    assert flags[0] and flags[1]


def test_krasner_insufficient_precision_raises():
    from anabelomorph.padic import PrecisionError
    # deg * root-bound threshold exceeds the known digits
    coeffs = [PadicScalar(3, 1, 1, 2), Sc(0), Sc(0), Sc(1)]   # x^3 - (3+O(3^3))
    with pytest.raises(PrecisionError):
        krasner_rationalize(coeffs)


def test_krasner_truncated_coefficient_rounds():
    # coefficient with a genuine tail beyond the working digits: the lift
    # rounds it away and the discriminant valuation certificate still holds
    c0 = PadicScalar(3, 1, -(1 + 3 ** 9) % 3 ** 12, 12)   # v=1 unit mod 3^12
    coeffs = [c0, Sc(0), Sc(0), Sc(1)]
    out, cert = krasner_rationalize(coeffs)
    assert out[3] == 1
    assert cert["disc_valuations_match"]
    assert cert["attained_closeness"] > cert["threshold"]


def test_krasner_rejects_non_monic_lead():
    # 8 = 1 mod 7 but the polynomial 8x^2 - 2 is not monic
    with pytest.raises(ValueError):
        krasner_rationalize([Sc(-2, p=7), Sc(0, p=7), Sc(8, p=7)])
