import collections
import importlib.util
import itertools
import math
import random
import re
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

from anabelomorph.fields import (DEFAULT_DIGITS, CertificationError,
                                 DegreeDropError, FieldElement, FieldError,
                                 TowerStep, _charpoly, _normalize_radicand,
                                 _peel_unit, _read_digits, _walk_digits,
                                 build_field,
                                 different_bound, different_valuation,
                                 discriminant_valuation,
                                 find_uniformizer, norm_to_qp, residue,
                                 closed_form_disc)
from anabelomorph.formats import parse_field_spec, parse_zeta_poly
from anabelomorph.galois import (different_from_filtration,
                                 ramification_filtration)
from test_frames import norm_valuation
from test_kernels import _packed_gate_moduli, _schoolbook, _with_blocks

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


def test_power_starts_from_its_base(L1, monkeypatch):
    # x ** k makes bitlen(k) + popcount(k) - 2 products, none by one(),
    # agrees with the product of k factors, and x ** 0 is one()
    rng = random.Random(5)
    x = FieldElement(L1, [rng.randrange(3 ** 30) for _ in range(L1.n)], 1)
    assert x ** 1 is x
    one = x ** 0
    assert (one.vec, one.s, one.m) == (L1.one().vec, 0, L1.M)
    mul, count = FieldElement.__mul__, [0]

    def counting_mul(a, b):
        count[0] += 1
        return mul(a, b)

    want = x
    for k in range(2, 20):
        want = want * x
        monkeypatch.setattr(FieldElement, "__mul__", counting_mul)
        count[0] = 0
        got = x ** k
        monkeypatch.setattr(FieldElement, "__mul__", mul)
        assert count[0] == k.bit_length() + bin(k).count("1") - 2, k
        assert (got - want).is_zero_to_precision(), k


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


@pytest.fixture(scope="module")
def K3r3():
    return build_field(3, [T.cyclotomic(27), T.kummer(27, 3)])


@pytest.fixture(scope="module")
def K2r4():
    return build_field(2, [T.cyclotomic(16), T.kummer(16, 3)])


# each layer certifies its frame through its own layer norm: a norm down to
# Q_p carries about n s digits of p-power denominator more, which these
# towers do not have at their working precision
@pytest.mark.slow
def test_closed_form_matches_general_r3_p3(K3r3):
    K = K3r3
    assert discriminant_valuation(K) == closed_form_disc(3, 3, "radicand-p") == 1983
    L = build_field(3, [T.cyclotomic(27), T.kummer(27, 4)])
    assert discriminant_valuation(L) == closed_form_disc(3, 3, "radicand-1+p") == 1579


@pytest.mark.slow
def test_different_matches_filtration_p2_r4(K2r4):
    K = K2r4
    assert (K.e, K.f) == (64, 2)
    filt = ramification_filtration(K)
    assert different_valuation(K) == different_from_filtration(filt) == 266
    assert discriminant_valuation(K) == 532


@pytest.mark.slow
def test_different_matches_filtration_p2_r5():
    # degree 512: when each layer's pi came from the last layer's pi^-k,
    # an inverse that lost digits with the degree left none here
    K = build_field(2, [T.cyclotomic(32), T.kummer(32, 3)])
    assert (K.e, K.f) == (256, 2)
    filt = ramification_filtration(K)
    assert different_valuation(K) == different_from_filtration(filt) == 1322
    assert discriminant_valuation(K) == 2644


@pytest.mark.slow
def test_pi_keeps_its_digits(K3r3, K2r4):
    # when each layer's pi was built from the last layer's pi^-k,
    # inverses that lost about n s digits on a denominator p^s left pi of
    # these towers 353 and 87 digits, and pi^-1 of both was zero to
    # precision
    for K, floor in ((K3r3, 600), (K2r4, 300)):
        assert K.pi.m - K.pi.s >= floor
        assert K.pi_pow(-1).m - K.pi_pow(-1).s >= floor


CLOSED_FORM_DRAWS = [(p, r, variant) for p, rs in ((2, (1, 2, 3, 4)),
                                                    (3, (1, 2)), (5, (1,)),
                                                    (7, (1,)))
                     for r in rs for variant in ("radicand-p", "radicand-1+p")]


def test_closed_form_disc_equals_the_tower_or_raises():
    # a closed form outside its scope raises, naming the scope; in scope
    # it is the certified tower's v_p(disc), and it gives no number for a
    # tower that does not exist
    from anabelomorph.fields import FieldError
    answered = []
    for p, r, variant in CLOSED_FORM_DRAWS:
        try:
            got = closed_form_disc(p, r, variant)
        except ValueError as exc:
            assert p == 2 and "odd p" in str(exc)
            continue
        q = p ** r
        rad = p if variant == "radicand-p" else 1 + p
        try:
            want = discriminant_valuation(
                build_field(p, [T.cyclotomic(q), T.kummer(q, rad)]))
        except FieldError:
            want = None
        assert got == want, (p, r, variant)
        answered.append((p, r, variant))
    assert len(answered) == len(CLOSED_FORM_DRAWS) - 7
    assert (2, 2, "radicand-p") in answered


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


def _presentations(p):
    """(name, steps, steps) of one field presented two ways at an odd p:
    the radicand times an 8^p, kummer(p, p) as custom x^p - p,
    Q_p(zeta_(p^2)) as a Kummer layer over Q_p(zeta_p), and Q_p(zeta_p) as
    custom Phi_p(x + 1)."""
    cyc = T.cyclotomic(p)
    return [
        (f"p={p} radicand", [cyc, T.kummer(p, 2 * p)],
         [cyc, T.kummer(p, 2 * p * 8 ** p)]),
        (f"p={p} x^p-p", [cyc, T.kummer(p, p)],
         [cyc, T.custom([-p] + [0] * (p - 1))]),
        (f"p={p} zeta_(p^2)", [T.cyclotomic(p * p)],
         [cyc, T.kummer(p, {1: 1})]),
        (f"p={p} Phi_p(x+1)", [cyc],
         [T.custom([math.comb(p, k + 1) for k in range(p - 1)])]),
    ]


PRESENTATIONS = {name: (p, one, two)
                 for p in (3, 5, 7) for name, one, two in _presentations(p)}
PRESENTATIONS.update({
    "p=2 zeta_8": (2, [T.cyclotomic(8)],
                   [T.cyclotomic(4), T.kummer(2, {1: 1})]),
    "p=2 radicand": (2, [T.cyclotomic(4), T.kummer(2, 3)],
                     [T.cyclotomic(4), T.kummer(2, 27)]),
})


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_one_field_two_presentations(name):
    # the invariants of a field do not depend on how it is presented
    from anabelomorph.elliptic import WeierstrassModel, tate_algorithm
    p, one, two = PRESENTATIONS[name]
    answers = []
    for steps in (one, two):
        K = build_field(p, steps)
        assert K.n <= 54
        answers.append((K.n, K.e, K.f, different_valuation(K),
                        K.residue_field.q,
                        [tate_algorithm(WeierstrassModel.from_a_invariants(
                            K, *curve)).quadruple()
                         for curve in ([0, 3, 0, 0, 9], [0, 0, 0, 1, 1])]))
    assert answers[0] == answers[1]


def test_p2_towers():
    K = build_field(2, [T.cyclotomic(16), T.kummer(2, {2: 1, 0: -1}),
                        T.kummer(2, {6: 1, 0: -1})])
    L = build_field(2, [T.cyclotomic(16), T.kummer(4, {4: 1, 0: -1})])
    assert (K.n, K.e, K.f) == (32, 32, 1)
    assert (L.n, L.e, L.f) == (32, 32, 1)
    assert different_valuation(K) != different_valuation(L)


# ----------------------------------------------------------------------
# the cyclotomic base, built once per (p, p^r, digits) and shared


def test_towers_over_one_base_share_it():
    # the same cyclotomic step at the same precision gives one layer, and
    # an element of it embeds into every tower over it; another prec, p
    # or modulus gives another layer
    from anabelomorph.fields import _cyclotomic
    K = build_field(3, [T.cyclotomic(9), T.kummer(9, 3)])
    L = build_field(3, [T.cyclotomic(9), T.kummer(9, 4)])
    base = K.layers[1]
    assert L.layers[1] is base is _cyclotomic(3, 9, base.M)
    z = base.gen()
    assert L.embed(z).vec == K.embed(z).vec == z.vec + (0,) * 48
    others = [build_field(3, [T.cyclotomic(9), T.kummer(9, 3)], prec=300),
              build_field(3, [T.cyclotomic(27)], prec=base.M),
              build_field(5, [T.cyclotomic(5)], prec=base.M)]
    assert all(O.layers[1] is not base for O in others)
    assert _cyclotomic(3, 9, base.M + 1) is not base


def test_cyclotomic_certificate_runs_once_per_key(monkeypatch):
    # after cache_clear each cyclotomic base is certified once per key,
    # and every Kummer and custom layer above it on every build
    from anabelomorph.fields import LocalField, _cyclotomic
    certify, calls = LocalField._certify, collections.Counter()

    def counting(self, *args, **kw):
        calls[self.kind] += 1
        return certify(self, *args, **kw)

    monkeypatch.setattr(LocalField, "_certify", counting)
    _cyclotomic.cache_clear()
    towers = [[T.cyclotomic(9), T.kummer(9, 3)],
              [T.cyclotomic(9), T.kummer(9, 4)],
              [T.cyclotomic(3), T.custom([-3, 0, 0])]]
    for _ in range(3):
        for steps in towers:
            build_field(3, steps)
    assert calls == {"cyclo": 2, "kummer": 12, "custom": 3}
    build_field(3, towers[0], prec=300)
    assert calls["cyclo"] == 3
    _cyclotomic.cache_clear()
    build_field(3, towers[0])
    assert calls == {"cyclo": 4, "kummer": 16, "custom": 3}


# the towers of the invariants workload, Q_p(zeta_(p^r), a^(1/p^r)) as
# (p, r, a); the two towers of each (p, r) share their cyclotomic base
INVARIANT_SHAPES = [(3, 1, 3), (5, 1, 5), (7, 1, 7), (3, 1, 4), (5, 1, 6),
                    (7, 1, 8), (3, 2, 3), (3, 2, 4), (2, 2, 2), (2, 2, 5),
                    (2, 3, 3)]


def _reads(p, r, a, log=True):
    """n, e, f, the different and pi of a fresh build of Q_p(zeta_(p^r),
    a^(1/p^r)), and with ``log`` l_invariant(p (1 + pi)) and the Tate
    quadruple of [0,3,0,0,9]."""
    from anabelomorph.elliptic import (WeierstrassModel, l_invariant,
                                       tate_algorithm)
    K = build_field(p, [T.cyclotomic(p ** r), T.kummer(p ** r, a)])
    out = [K.n, K.e, K.f, different_valuation(K), (K.pi.vec, K.pi.s, K.pi.m)]
    if log:
        li = l_invariant(K.from_int(p) * (K.one() + K.pi))
        curve = WeierstrassModel.from_a_invariants(K, 0, 3, 0, 0, 9)
        out += [(li.vec, li.s, li.m), tate_algorithm(curve).quadruple()]
    return out


def test_shared_bases_read_the_same_in_either_order():
    # a tower reads the same over a fresh base and over one that the
    # towers before it filled: the base's lazy caches (pi and delta
    # powers, monomials, residue constants, fold tables) are functions
    # of their keys alone
    from anabelomorph.fields import _cyclotomic
    runs = []
    for order in (INVARIANT_SHAPES, INVARIANT_SHAPES[::-1]):
        _cyclotomic.cache_clear()
        runs.append({shape: _reads(*shape) for shape in order})
        assert _cyclotomic.cache_info().hits == 5
    assert runs[0] == runs[1]
    _cyclotomic.cache_clear()
    cold = _reads(5, 2, 5, log=False)       # degree 500
    assert _reads(5, 2, 5, log=False) == cold
    assert _cyclotomic.cache_info().hits == 1


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


@pytest.mark.parametrize("text", ["3z2", "zz", "z2+1", "1+z^2z", "z^"])
def test_zeta_poly_takes_only_an_exponent_after_z(text):
    # after the variable comes nothing or ^<digits>: 3z2 is not 3z, nor
    # zz z
    with pytest.raises(ValueError, match="bad exponent"):
        parse_zeta_poly(text)


@pytest.mark.parametrize("what, text, bad", [
    ("radicand", "p=3\ncyclotomic 9\nkummer 9 rad=3z2\n", "3z2"),
    ("radicand", "p=3\ncyclotomic 9\nkummer 9 rad=zz\n", "zz"),
    ("custom polynomial", "p=3\ncustom x2-3\n", "x2-3"),
    ("custom polynomial", "p=3\ncustom x^2-3xx\n", "x^2-3xx"),
    ("curve coefficient", "[0,3,0,0,3z2]", "3z2"),
    ("curve coefficient", "[0,zz,0,0,9]", "zz"),
])
def test_text_after_the_variable_names_the_grammar(what, text, bad):
    # radicands, custom steps and curve coefficients refuse it with the
    # text and its grammar, rather than read a prefix of it
    from anabelomorph.formats import parse_curve
    parse = parse_curve if what.startswith("curve") else parse_field_spec
    with pytest.raises(ValueError, match=re.escape(f"bad {what} '{bad}': ")):
        parse(text)


def test_unramified_kummer_layer_p2():
    # x^2 = 5 over Q_2: boundary level with an Artin-Schreier obstruction
    K = build_field(2, [T.kummer(2, 5)])
    assert (K.n, K.e, K.f) == (2, 1, 2)
    assert different_valuation(K) == 0
    assert K.residue_field.q == 4
    g = K.step_generators[0]
    assert (g * g - K.from_int(5)).is_zero_to_precision()
    assert K.from_int(2).valuation() == 1


def test_unramified_kummer_layer_p7():
    # 6 - 7 zeta_7 peels to the Artin-Schreier obstruction; F_q has 7^7
    # elements, and none is listed to build the layer
    K = build_field(7, [T.cyclotomic(7), T.kummer(7, {0: 6, 1: -7})])
    assert (K.n, K.e, K.f) == (42, 6, 7)
    assert K.certificate.startswith("unramified")
    assert K.residue_field.q == 7 ** 7
    c = (3, 1, 4, 1, 5, 2, 6)
    assert residue(K.lift(c))[0] == c


def test_unramified_quadratic_custom_p3():
    K = build_field(3, [T.custom([-2, 0])])   # x^2 - 2, nonsquare unit
    assert (K.n, K.e, K.f) == (2, 1, 2)
    assert different_valuation(K) == 0
    assert K.residue_field.q == 9
    y = K.step_generators[0] * 3 + K.from_int(1)
    assert residue(y)[0] == (1, 0)


@pytest.mark.parametrize("p, steps", [
    (3, [T.custom([-4, 0])]),                       # 4 = 2^2
    (3, [T.custom([-2, 0]), T.custom([-2, 0])]),    # 2 is a square in F_9
])
def test_quadratic_square_discriminant_is_reducible(p, steps):
    with pytest.raises(CertificationError, match="reducible"):
        build_field(p, steps)


@pytest.mark.parametrize("p, c", [(5, 2), (7, 3)])
def test_quadratic_nonsquare_unit_is_unramified(p, c):
    K = build_field(p, [T.custom([-c, 0])])
    assert (K.n, K.e, K.f) == (2, 1, 2)
    assert K.certificate.startswith("unramified quadratic")


def test_square_radicand_drops_p2():
    with pytest.raises(DegreeDropError):
        build_field(2, [T.kummer(2, 17)])    # 17 is a 2-adic square


# radicands over bases at p = 2, 3, 5, 7 as (p, base steps, radicand,
# kind); a radicand None is the base's last step generator, the next
# radicand of a Kummer tower
PEEL_CASES = {
    "5 over Q_2": (2, [], 5, "unram"),
    "17 over Q_2": (2, [], 17, "drop"),
    "3 over Q_2(zeta_8)": (2, [T.cyclotomic(8)], 3, "unram"),
    "1 + 2 zeta_8": (2, [T.cyclotomic(8)], {0: 1, 1: 2}, "tr"),
    "5 over Q_2(5^(1/2)), f = 2": (2, [T.kummer(2, 5)], 5, "drop"),
    "5^(1/2) over Q_2(i, 5^(1/2)), f = 2":
        (2, [T.cyclotomic(4), T.kummer(2, 5)], None, "tr"),
    "2 - 3 zeta_3": (3, [T.cyclotomic(3)], {0: 2, 1: -3}, "unram"),
    "27 over Q_3(zeta_3)": (3, [T.cyclotomic(3)], 27, "drop"),
    "4 over Q_3(zeta_3, (2 - 3 zeta_3)^(1/3)), f = 3":
        (3, [T.cyclotomic(3), T.kummer(3, {0: 2, 1: -3})], 4, "tr"),
    "4^(1/3) over Q_3(zeta_9, 4^(1/3))":
        (3, [T.cyclotomic(9), T.kummer(3, 4)], None, "tr"),
    "2 + 5 zeta_5": (5, [T.cyclotomic(5)], {0: 2, 1: 5}, "unram"),
    "6 over Q_5(zeta_25)": (5, [T.cyclotomic(25)], 6, "tr"),
    "26 over Q_5(zeta_5)": (5, [T.cyclotomic(5)], 26, "drop"),
    "6 - 7 zeta_7": (7, [T.cyclotomic(7)], {0: 6, 1: -7}, "unram"),
    "2 over Q_7(zeta_7)": (7, [T.cyclotomic(7)], 2, "tr"),
    "50 over Q_7(zeta_7)": (7, [T.cyclotomic(7)], 50, "drop"),
}


def _peeled_unit(base, rad):
    """The unit a Kummer layer of radicand ``rad`` over the base peels,
    rad1 monomial(-v1/p)^p: rad times a p-th power, as the builder makes
    it."""
    p = base.p
    rad = base.step_generators[-1] if rad is None else base.coerce(rad)
    rad1, _, _ = _normalize_radicand(base, rad)
    v1 = rad1.valuation()
    return rad1 * base.monomial(-v1 // p) ** p if v1 else rad1


def _peel_by_search(base, u):
    """The reference for ``_peel_unit``: at each step take A's vector mod
    p^m, for the peel's cut m = max(s(u), p s(A)) + ``_read_digits``, as
    the exact value of A, and try the lifts of the nonzero residues, in
    the order of ``ResidueField.elements``, times the frame monomial of
    valuation v / p, until the defect rises.  Every defect is read at the
    full working precision, so the peel's reads at the cut are checked
    against reads that no cut touches.  Returns (kind, lambda, A, steps),
    A exact at the working precision, and steps the number of defects of
    accepted adjusters."""
    p, M = base.p, base.M
    T2 = Fraction(p * base.e, p - 1)
    digits = _read_digits(base, int(T2) + 1)

    def exact(x, m):
        return FieldElement(base, tuple(a % p ** m for a in x.vec), x.s, m)

    def cut(x):
        return exact(x, min(max(u.s, p * x.s) + digits, u.m, M))

    def defect(adj):
        return base.val_or_bound(u - exact(cut(adj), M) ** p)

    def lifts():
        units = itertools.islice(base.residue_field.elements, 1, None)
        return (base.lift(c) for c in units)

    def rises(adj, v):
        dv, _ = defect(adj)
        return dv is None or dv > v

    A = next(c for c in lifts() if base.val_at_least(u - c ** p, 1))
    steps = 0
    while True:
        steps += 1
        A = cut(A)
        v, bound = defect(A)
        if v is None or v > T2:
            assert v is not None or bound > T2
            return "drop", None, None, steps
        if v % p:
            return "tr", v, exact(A, M), steps
        shift = base.monomial(v // p)
        adjusted = (exact(A, min(A.m + y.s, M)) * (base.one() + y)
                    for y in (c * shift for c in lifts()))
        nxt = next((a for a in adjusted if rises(a, v)), None)
        if nxt is None:
            assert v == T2
            return "unram", v, exact(A, M), steps
        A = nxt


@pytest.mark.parametrize("name", PEEL_CASES)
def test_peel_reads_the_search_correction(name, monkeypatch):
    # each correction read off the defect's residue is the first
    # candidate the search accepts, so at the same cut the classification
    # and A agree bit for bit; a step takes one p-th power, and the peel
    # asks for no power of pi
    from anabelomorph.fields import LocalField
    p, steps, rad, kind = PEEL_CASES[name]
    base = build_field(p, steps)
    u = _peeled_unit(base, rad)
    want, lam, A, nsteps = _peel_by_search(base, u)
    assert want == kind
    powers = collections.Counter()
    power, pi_pow = FieldElement.__pow__, LocalField.pi_pow

    def counting_pow(x, k):
        powers[k] += 1
        return power(x, k)

    def counting_pi_pow(self, k):
        powers["pi_pow"] += 1
        return pi_pow(self, k)

    monkeypatch.setattr(FieldElement, "__pow__", counting_pow)
    monkeypatch.setattr(LocalField, "pi_pow", counting_pi_pow)
    got, data = _peel_unit(base, u)
    assert got == kind
    assert powers == {p: nsteps}
    if kind == "drop":
        assert data is None
        return
    assert data["lambda"] == lam
    assert (data["A"].vec, data["A"].s, data["A"].m) == (A.vec, A.s, A.m)
    assert data["certificate"] == (
        f"totally ramified (unit defect level {lam} below bound "
        f"{Fraction(p * base.e, p - 1)})" if kind == "tr" else
        f"unramified (artin-schreier obstruction at level {lam})")


def _peel_answer(kind, data):
    """What a peel decides, with A's exact value: equal at every working
    precision whose cut is the same."""
    if data is None:
        return kind, None
    A = data["A"]
    return kind, data["lambda"], data["certificate"], A.vec, A.s


@pytest.mark.parametrize("name", PEEL_CASES)
def test_peel_does_not_depend_on_the_working_precision(name):
    # the peel reads its defects at a cut derived from s(u), s(A) and the
    # frames, not from M, so at twice the working precision it makes the
    # same A and decides the same; the bases agree to every digit of pi
    p, steps, rad, kind = PEEL_CASES[name]
    base = build_field(p, steps)
    high = build_field(p, steps, prec=2 * DEFAULT_DIGITS)
    got = _peel_unit(base, _peeled_unit(base, rad))
    want = _peel_unit(high, _peeled_unit(high, rad))
    assert got[0] == kind
    assert _peel_answer(*got) == _peel_answer(*want)
    assert _agrees(base.pi, high.pi)


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
    from anabelomorph.formats import _parse_int_poly
    with pytest.raises(ValueError):
        _parse_int_poly("")


def test_norm_denominator_swallowing_modulus_is_precision_error(F9):
    # 3^-10 zeta with an unnormalized denominator 3^20: the norm carries
    # 3^120 under a modulus of 3^40, so the norm certificate knows nothing
    # about it, while the valuation frame reads it off the one coordinate
    from anabelomorph.fields import FieldElement
    from anabelomorph.padic import PrecisionError
    x = FieldElement(F9, (0, 3 ** 10, 0, 0, 0, 0), 20, 40)
    with pytest.raises(PrecisionError):
        norm_valuation(x)
    assert x.val_or_bound() == (-60, None)
    assert not x.is_zero_to_precision()
    assert x._normalized().valuation() == -60


def test_custom_rejects_non_integral_coefficients():
    # x^3 - 1/3 generates Q_3(3^(1/3)), but the layer relation folds with
    # numerators only; the scope error names what custom steps take
    from anabelomorph.fields import FieldError
    for coeffs in ([Fraction(-1, 3), 0, 0], [Fraction(1, 3), 0]):
        with pytest.raises(FieldError, match="integral monic polynomials"):
            build_field(3, [T.custom(coeffs)])
    # a denominator prime to p is integral and stays accepted
    assert build_field(3, [T.custom([Fraction(-3, 2), 0, 0])]).e == 3


_NO_ZETA_P = ("kummer layer needs zeta_p in the base, read from a "
              "cyclotomic layer or a custom layer of relation "
              "1 + x + ... + x^(p-1)")
# (p, steps, class, message) of each scope error a step can meet: the
# error names the scope, and is not a failed internal identity
_SCOPE_ERRORS = {
    "kummer without zeta_p": (
        3, [T.kummer(3, 2)], CertificationError, _NO_ZETA_P),
    # Q_3[x]/(x^2 + 3x + 3) holds zeta_3 = x + 1, but its relation is not
    # 1 + x + x^2, so the scope refuses it
    "kummer over a custom layer holding zeta_p": (
        3, [T.custom([3, 3]), T.kummer(3, 3)], CertificationError,
        _NO_ZETA_P),
    "kummer exponent 6": (
        3, [T.cyclotomic(3), T.kummer(6, 2)], FieldError,
        "kummer exponent must be a power of p"),
    "custom of degree 1": (
        3, [T.custom([1])], FieldError,
        "custom step must have degree at least 2"),
    "quadratic custom at p = 2": (
        2, [T.cyclotomic(4), T.custom([-3, 0])], CertificationError,
        "quadratic custom layers require odd p"),
    "slope 1 of x^3 + 54": (
        3, [T.custom([54, 0, 0])], CertificationError,
        "newton polygon inconclusive: slope denominator is not the degree"),
    "two slopes of x^3 + 3x + 9": (
        3, [T.custom([9, 3, 0])], CertificationError,
        "newton polygon has several segments"),
}


@pytest.mark.parametrize("case", list(_SCOPE_ERRORS))
def test_scope_errors_name_the_scope(case):
    p, steps, cls, message = _SCOPE_ERRORS[case]
    with pytest.raises(FieldError) as info:
        build_field(p, steps)
    assert type(info.value) is cls
    assert str(info.value) == message


def _agrees(a, b):
    """a and b, elements of one tower at two working precisions, agree
    to every digit that a claims."""
    p = a.field.p
    top = max(a.s, b.s)
    return all((x * p ** (top - a.s) - y * p ** (top - b.s))
               % p ** (a.m + top - a.s) == 0 for x, y in zip(a.vec, b.vec))


def test_step_generator_precision_is_honest(K2):
    # g * g must agree with the same product at a higher working
    # precision to every digit it claims (the generator may not claim
    # more digits than its stored layer relation carries), on a fresh
    # copy and after g.valuation() has cached v(g)
    from anabelomorph.fields import FieldElement
    H = build_field(3, [T.cyclotomic(9), T.kummer(9, 3)], prec=600)
    for g, h in zip(K2.step_generators, H.step_generators):
        fresh = FieldElement(K2, g.vec, g.s, g.m)
        assert _agrees(fresh * fresh, h * h)
        g.valuation()
        assert _agrees(g * g, h * h)
    # nor may a product of integer vectors: it folds by the top layer's
    # relation, whose radicand is known to fewer digits than the base's
    rng = random.Random("step generator")
    for _ in range(4):
        x, y = ([rng.randrange(3 ** 5) for _ in range(K2.n)]
                for _ in range(2))
        assert _agrees(FieldElement(K2, x) * FieldElement(K2, y),
                       FieldElement(H, x) * FieldElement(H, y))


PI_POW_TOWERS = {
    3: (3, [T.cyclotomic(9), T.kummer(9, 4)]),
    5: (5, [T.cyclotomic(5), T.kummer(5, 6)]),
    7: (7, [T.cyclotomic(7), T.kummer(7, 8)]),
    2: (2, [T.cyclotomic(8), T.kummer(8, 3)]),
    # degree 128: pi^-1 was zero to precision when an inverse lost
    # digits with the tower degree
    "2 r=4": (2, [T.cyclotomic(16), T.kummer(16, 3)]),
    # a unit-defect Kummer layer whose adjuster A is 2, not 1
    "7 A=2": (7, [T.cyclotomic(7), T.kummer(7, 2)]),
}


@pytest.fixture(scope="module")
def honest_pair():
    """name -> the tower of PI_POW_TOWERS or NORMALIZER_TOWERS at the
    default precision and at prec=700, each pair built once."""
    built = {}

    def pair(name):
        if name not in built:
            p, steps = {**PI_POW_TOWERS, **NORMALIZER_TOWERS}[name]
            built[name] = (build_field(p, steps),
                           build_field(p, steps, prec=700))
        return built[name]
    return pair


@pytest.mark.parametrize("name", PI_POW_TOWERS)
def test_pi_pow_precision_is_honest(name, honest_pair):
    # pi^k claims no digit that the same power at a higher working
    # precision does not have, whatever valuations are cached on the way
    K, H = honest_pair(name)
    for k in range(1, 3 * K.e):
        assert _agrees(K.pi_pow(k), H.pi_pow(k)), k
    # pi^-k, an inverse of pi^k, against (pi^-1)^k at the higher precision
    h = H.pi_pow(-1)
    for k in range(1, 3 * K.e):
        assert _agrees(K.pi_pow(-k), h), -k
        h = h * H.pi_pow(-1)


# Kummer layers whose radicand has valuation at least p, so that their
# normalizer c = B.monomial(-k) has k != 0
NORMALIZER_TOWERS = {
    "2 k!=0": (2, [T.cyclotomic(4), T.kummer(4, 2)]),
    "3 k!=0": (3, [T.cyclotomic(9), T.kummer(9, 3)]),
}


def _layers(K):
    """The layers of K above Q_p, from the top down."""
    while K.base is not None:
        yield K
        K = K.base


@pytest.mark.parametrize("name", [*PI_POW_TOWERS, *NORMALIZER_TOWERS])
def test_frame_monomials_are_honest(name, honest_pair):
    # the elements a build makes of frame monomials (each Kummer layer's
    # normalizer c and its inverse, each ramified layer's base factor of
    # pi) and the user step generators claim no digit that the same
    # element at a higher working precision does not have
    K, H = honest_pair(name)
    normalized = 0
    for fld, hfld in zip(_layers(K), _layers(H)):
        assert fld.frame[2:] == hfld.frame[2:]
        d, w = fld.frame[2:]
        if d > 1:
            y = (1 - pow(w, -1, d) * w) // d
            assert _agrees(fld.base.monomial(y), hfld.base.monomial(y))
        if getattr(fld, "normalizer", None) is not None:
            normalized += 1
            for a, b in zip(fld.normalizer, hfld.normalizer):
                assert _agrees(a, b)
    assert normalized > 0 or name in PI_POW_TOWERS
    for g, h in zip(K.step_generators, H.step_generators):
        assert _agrees(g, h)
    # and each generator of a Kummer step p^s is a p^s-th root of its
    # radicand to precision
    for step, g in zip(K.user_steps, K.step_generators):
        if step.kind == "kummer":
            root = g ** step.exponent - K.coerce(step.radicand)
            assert root.is_zero_to_precision(), step


@pytest.fixture
def inversions(monkeypatch):
    """Counter of ``LocalField.invert`` calls by the name of the field
    that inverts, from now on."""
    from anabelomorph.fields import LocalField
    invert, calls = LocalField.invert, collections.Counter()

    def counting(self, x):
        calls[self.name] += 1
        return invert(self, x)

    monkeypatch.setattr(LocalField, "invert", counting)
    return calls


def test_builds_invert_no_power_of_pi(monkeypatch, inversions):
    # uniformizers and Kummer normalizers are frame monomials: building
    # these towers asks for no pi^k with k < 0.  A Kummer layer's
    # normalizer c, an element of its base, is inverted only where the
    # layer's user generator is the next radicand: K and H, whose two
    # Kummer layers both have c != 1, invert the lower layer's c in the
    # cyclotomic layer and not the top layer's
    from anabelomorph.fields import LocalField
    pi_pow = LocalField.pi_pow
    negative = []

    def counting(self, k):
        if k < 0:
            negative.append((self.name, k))
        return pi_pow(self, k)

    monkeypatch.setattr(LocalField, "pi_pow", counting)
    K = build_field(5, [T.cyclotomic(25), T.kummer(25, 5)])
    L = build_field(3, [T.cyclotomic(9), T.kummer(9, 4)])
    H = build_field(*NORMALIZER_TOWERS["3 k!=0"])
    assert (K.n, L.n, H.n) == (500, 54, 54)
    assert negative == []
    for M in (K, H):
        assert inversions[M.name] == inversions[M.base.name] == 0
    assert inversions == {K.base.base.name: 1, H.base.base.name: 1}
    assert all(f.normalizer is not None for f in (K, K.base, H, H.base))
    # the unit peeling takes the radicand times a p-th power of a frame
    # monomial, so the degree-162 layer of Q_3(zeta_27, 3^(1/27)), whose
    # normalized radicand has valuation 486, needs no pi^-486
    Z = build_field(3, [T.cyclotomic(27), T.kummer(27, 3)])
    assert Z.n == 486 and negative == []


@pytest.mark.parametrize("read", ["normalizer", "step_generators"])
def test_top_normalizer_inverse_made_once_on_first_read(read, inversions):
    # the first read of the top layer's normalizer, or of the step
    # generators, which embed its user generator gen c^-1 p^-t, inverts
    # c once in the base; later reads of either invert nothing
    K = build_field(*NORMALIZER_TOWERS["3 k!=0"])
    built = inversions.copy()
    first = getattr(K, read)
    assert inversions - built == {K.base.name: 1}
    assert getattr(K, read) is first
    assert K.normalizer and K.step_generators
    assert inversions - built == {K.base.name: 1}


@pytest.mark.parametrize("radicand", ["gen:5", "gen:x", "gen:-1"])
def test_gen_radicand_names_an_earlier_step(radicand):
    # gen:<i> takes the generator of step i; an index out of range, a
    # negative one or none at all is an error that names the grammar
    with pytest.raises(FieldError, match=r"gen:<i> .* 0 <= i < 1"):
        build_field(3, [T.cyclotomic(9), T.kummer(3, radicand)])


@pytest.mark.parametrize("p, steps", [
    (5, [T.cyclotomic(5), T.kummer(5, {0: 2, 1: 5})]),
    (7, [T.cyclotomic(7), T.kummer(7, {0: 6, 1: -7})]),
])
def test_lift_takes_cached_delta_powers(p, steps):
    # on an unramified Kummer layer, lift(c) = sum_k lift_B(c_k) delta^k
    # takes delta^k from _delta_pow, which halves, rather than from the
    # chain delta^(k-1) delta, which strips a digit at some steps: the
    # same value, and no fewer digits (more on these layers)
    K = build_field(p, steps)
    assert K.certificate.startswith("unramified")
    b, rng, gained = K.base.f, random.Random(f"lift {p}"), 0
    for _ in range(4):
        c = tuple(rng.randrange(p) for _ in range(K.f))
        chained, dk = K.zero(), K.one()
        for k in range(K.d):
            chained = chained + K.embed(K.base.lift(c[k * b:(k + 1) * b])) * dk
            dk = dk * K.delta
        lifted = K.lift(c)
        assert (lifted - chained).is_zero_to_precision()
        assert lifted.m - lifted.s >= chained.m - chained.s
        gained += lifted.m - lifted.s > chained.m - chained.s
    assert gained


def test_lift_adds_no_term_for_a_zero_block():
    # 0 delta^k would cap a lift's digits at delta^k's: the lift of a
    # residue with zero blocks keeps every digit of the layer, and the
    # unit peel of Q_2(i)(5^(1/4)), which lifts such residues, gives a top
    # pi of 174 digits, all of which the same tower at twice the working
    # precision has.  The peel's A comes back exact at M = 176 over p^1,
    # so beta and pi keep two digits more than an A made at M, 172
    L = build_field(5, [T.cyclotomic(5), T.kummer(5, {0: 2, 1: 5})])
    one = L.lift((1, 0, 0, 0, 0))
    assert (one - L.one()).is_zero_to_precision()
    assert one.m - one.s == L.M
    steps = [T.cyclotomic(4), T.kummer(4, 5)]
    K = build_field(2, steps)
    H = build_field(2, steps, prec=2 * DEFAULT_DIGITS)
    assert K.base.certificate.startswith("unramified")
    assert K.lift((1, 0)).m - K.lift((1, 0)).s == K.M
    assert K.pi.m - K.pi.s == 174
    assert _agrees(K.pi, H.pi)


INVERSE_TOWERS = {
    "x^3-9": (3, [T.custom([-9, 0, 0])]),
    "x^3+7x^2-7": (7, [T.custom([-7, 0, 7])]),
}


@pytest.mark.parametrize("name", INVERSE_TOWERS)
def test_inverse_precision_is_honest(name):
    # a non-unit x inverts through its norm p^v u, whose unit u is known
    # to v digits fewer than the norm; x^-1 claims no digit that the same
    # inverse at a higher working precision does not have
    from anabelomorph.fields import FieldElement
    p, steps = INVERSE_TOWERS[name]
    K = build_field(p, steps)
    H = build_field(p, steps, prec=700)
    rng = random.Random(f"inverse:{name}")
    checked = 0
    while checked < 12:
        vec = [rng.randrange(p ** 4) * p ** rng.randrange(3)
               for _ in range(K.n)]
        x = FieldElement(K, vec)
        if x.valuation() == 0:
            continue
        assert _agrees(x.inv(), FieldElement(H, vec).inv()), vec
        checked += 1


# ----------------------------------------------------------------------
# degree budget and cut elements


def test_degree_budget_checked_from_the_steps(monkeypatch):
    # the budget is read off the steps: no layer is built for a tower
    # over it, and the largest tower known to build is admitted
    from anabelomorph import fields
    from anabelomorph.fields import DEGREE_BUDGET, FieldError

    class Built(Exception):
        pass

    def refuse(*args, **kw):
        raise Built

    monkeypatch.setattr(fields, "QpField", refuse)
    with pytest.raises(FieldError, match=f"degree budget of {DEGREE_BUDGET}"):
        build_field(3, [T.cyclotomic(3 ** 40), T.kummer(3 ** 40, 3)])
    with pytest.raises(FieldError, match="degree budget"):
        build_field(5, [T.cyclotomic(125)] + [T.custom([5, 0, 0])] * 3)
    with pytest.raises(Built):
        build_field(7, [T.cyclotomic(49), T.kummer(49, 7)])    # degree 2058


def test_capped_keeps_what_the_cut_leaves_certified(K2):
    from anabelomorph.padic import PrecisionError
    x = K2.pi_pow(5) + K2.pi_pow(80)
    assert K2.residue_at(x, 5) is not None          # caches v and residue
    cut = x.capped(14)
    assert (cut.m, cut.s) == (x.s + 14, x.s)
    assert all(a < 3 ** cut.m for a in cut.vec)
    # v = 5 < e (m' - s) = 756: kept, so no walk is needed
    assert cut._val == x._val and cut._res == x._res
    assert x.capped(x.m - x.s) is x
    # a cached bound is kept up to the cut's floor
    z = K2.zero()
    assert K2.val_or_bound(z) == (None, 54 * K2.M)
    assert z.capped(20)._val == (None, 54 * 20)
    with pytest.raises(PrecisionError):
        x.capped(11)


# ----------------------------------------------------------------------
# the layer certificate, across layer kinds


# towers whose layers reach every builder branch at p = 2, 3, 5, 7:
# cyclotomic, Kummer ramified by slope, Kummer ramified by unit defect,
# Kummer unramified, quadratic (there is none at p = 2) and custom
LAYER_TOWERS = {
    "p=2 slope": (2, [T.kummer(2, 2)]),
    "p=2 unramified then unit defect": (2, [T.cyclotomic(4), T.kummer(4, 5)]),
    "p=2 custom": (2, [T.cyclotomic(4), T.custom([-2, 0, 0])]),
    "p=3 slope": (3, [T.cyclotomic(3), T.kummer(3, 3)]),
    "p=3 unit defect": (3, [T.cyclotomic(3), T.kummer(3, 4)]),
    "p=3 unramified": (3, [T.cyclotomic(3), T.kummer(3, {0: 2, 1: -3})]),
    "p=3 quadratics": (3, [T.custom([-3, 3]), T.custom([-2, 0])]),
    "p=3 custom then quadratic": (3, [T.custom([-9, 0, 0]),
                                      T.custom([-3, 0])]),
    "p=5 slope": (5, [T.cyclotomic(5), T.kummer(5, 5)]),
    "p=5 unit defect": (5, [T.cyclotomic(5), T.kummer(5, 6)]),
    "p=5 unramified": (5, [T.cyclotomic(5), T.kummer(5, {0: 2, 1: 5})]),
    "p=5 quadratics": (5, [T.custom([2, 1]), T.custom([-5, 5])]),
    "p=5 custom": (5, [T.cyclotomic(5), T.custom([-5, 0, 0])]),
    "p=7 slope": (7, [T.cyclotomic(7), T.kummer(7, 7)]),
    "p=7 unit defect": (7, [T.cyclotomic(7), T.kummer(7, 2)]),
    "p=7 unramified": (7, [T.cyclotomic(7), T.kummer(7, {0: 6, 1: -7})]),
    "p=7 quadratics": (7, [T.custom([-7, 0]), T.custom([-3, 0])]),
    "p=7 custom": (7, [T.cyclotomic(7), T.custom([{0: 1, 1: -1}, 0, 0])]),
}


@pytest.mark.parametrize("name", LAYER_TOWERS)
def test_layers_are_the_base_walk(name):
    # K.layers, and the layers of each layer, are the .base chain from
    # Q_p up: the same objects in the same order
    p, steps = LAYER_TOWERS[name]
    walk, fld = [], build_field(p, steps)
    while fld is not None:
        walk.insert(0, fld)
        fld = fld.base
    for i, fld in enumerate(walk):
        assert len(fld.layers) == i + 1
        assert all(a is b for a, b in zip(fld.layers, walk))


def test_embed_refuses_elements_outside_the_tower():
    # an element of another tower of the same p, at a layer built by the
    # same step or at its Q_p, and an element of a higher layer are not
    # elements of the layer
    K = build_field(3, [T.cyclotomic(3), T.kummer(3, 3)])
    other = build_field(3, [T.cyclotomic(3)])
    for fld, x in ((K, other.gen()), (K, other.base.one()),
                   (K.base, K.gen())):
        with pytest.raises(FieldError, match="cannot embed element from "
                                             "unrelated field"):
            fld.embed(x)


def _branch(fld):
    """The builder branch that certified a layer."""
    for prefix, branch in (("ramified quadratic", "quad ramified"),
                           ("unramified quadratic", "quad unramified")):
        if fld.certificate.startswith(prefix):
            return branch
    if fld.kind != "kummer":
        return fld.kind
    for prefix, branch in (("eisenstein-type", "kummer slope"),
                           ("totally ramified", "kummer unit defect"),
                           ("unramified", "kummer unramified")):
        if fld.certificate.startswith(prefix):
            return branch


def test_layer_towers_reach_every_branch():
    reached = {(p, _branch(fld)) for p, steps in LAYER_TOWERS.values()
               for fld in _layers(build_field(p, steps))}
    quad = {"quad ramified", "quad unramified"}
    branches = {"cyclo", "kummer slope", "kummer unit defect",
                "kummer unramified", "custom"} | quad
    for p in (2, 3, 5, 7):
        want = branches - quad if p == 2 else branches
        assert {b for q, b in reached if q == p} == want


@pytest.mark.parametrize("floor", [12, 0])
def test_read_digits_is_the_former_peel_cut(floor, monkeypatch):
    # _read_digits(base, floor(T2) + 1) is the cut the peel derived on
    # its own, floor(p / (p - 1)) + 1 digits plus the walk: 3 at p = 2
    # and 2 at odd p, since (p - 1) | e and T2 = p e / (p - 1).  Every
    # such cut is the 12-digit floor, so the floor is also lowered to 0,
    # which bares the reads' term
    from anabelomorph import fields
    monkeypatch.setattr(fields, "_MIN_EFFECTIVE", floor)
    bases = [fld.base for p, steps in LAYER_TOWERS.values()
             for fld in _layers(build_field(p, steps))
             if fld.kind == "kummer"]
    assert {B.p for B in bases} == {2, 3, 5, 7}
    for B in bases:
        p, T2 = B.p, Fraction(B.p * B.e, B.p - 1)
        former = max(p // (p - 1) + 1 + _walk_digits(B), floor)
        assert _read_digits(B, int(T2) + 1) == former, (B.name, floor)


@pytest.mark.parametrize("name", LAYER_TOWERS)
def test_every_layer_kind_passes_one_certificate(name):
    # valuations from the full norm, independently of the frames
    p, steps = LAYER_TOWERS[name]
    for fld in _layers(build_field(p, steps)):
        B = fld.base
        e_rel = fld.e // B.e
        assert norm_valuation(fld.pi) == 1
        assert norm_valuation(fld.embed(B.pi)) == e_rel
        assert fld.e * fld.f == fld.n
        assert fld.different_val == fld.layer_diff + e_rel * B.different_val


@pytest.mark.parametrize("name", LAYER_TOWERS)
def test_base_products_take_one_base_product(name):
    # operands in block 0, as embedded base elements are, with reduced,
    # unreduced and negative entries: the schoolbook's product, and on a
    # layer over a base that is not Q_p one product of the base and no
    # fold
    from anabelomorph.fields import LocalField
    p, steps = LAYER_TOWERS[name]
    rng = random.Random(f"base block:{name}")
    for fld in _layers(build_field(p, steps)):
        B = fld.base
        for m in (fld.M, 20):
            pm = p ** m
            for lo, hi in ((0, pm), (-pm, 2 * pm), (-p ** 4, p ** 4)):
                x, y = ([rng.randrange(lo, hi) for _ in range(B.n)]
                        + [0] * (fld.n - B.n) for _ in range(2))
                with mock.patch.object(B, "_mul_mod",
                                       side_effect=B._mul_mod) as mul, \
                        mock.patch.object(LocalField, "_fold_blocks",
                                          autospec=True,
                                          side_effect=LocalField._fold_blocks
                                          ) as fold:
                    got = fld._mul_mod(x, y, pm)
                if B.base is not None:
                    assert mul.call_count == 1
                    assert all(c.args[0] is not fld
                               for c in fold.call_args_list)
                assert list(got) == _schoolbook(fld, x, y, pm)
                assert list(fld._mul_mod(x, x, pm)) == _schoolbook(
                    fld, x, x, pm)


def _fixed_constants(fld, rng):
    """The frame's beta and gamma^k, the relation terms and one dense
    random constant of a layer, as base vectors."""
    beta, gamma, _, _ = fld.frame
    out = [beta[0]] if beta else []
    out += list(gamma[0][1:]) if gamma else []
    out += [r for _, r in fld.relation]
    out.append(tuple(rng.randrange(fld.pM) for _ in range(fld.base.n)))
    return out


def _matrix_digits(fixed, p):
    """The digits of the widest modulus that takes the matrices."""
    m = 0
    while p ** (m + 1) <= fixed.limit:
        m += 1
    return m


@pytest.mark.parametrize("name", LAYER_TOWERS)
def test_fixed_products_match_base_products(name):
    # on every layer over a base that is not Q_p, at the widest width the
    # matrices take, one digit past it and 12 digits, for reduced,
    # unreduced and negative vectors, and for beta, gamma^k, the relation
    # terms and a dense constant: the product through the matrix is the
    # base product
    p, steps = LAYER_TOWERS[name]
    rng = random.Random(f"fixed:{name}")
    for fld in _layers(build_field(p, steps)):
        if fld.base.base is None:
            continue
        fixed, B = fld._fixed, fld.base
        assert fixed.limit, fld.name
        top = _matrix_digits(fixed, p)
        for c in _fixed_constants(fld, rng):
            for m in (top, top + 1, 12):
                pm = p ** m
                for lo, hi in ((0, pm), (-pm, 2 * pm), (-p ** 4, 0)):
                    x = [rng.randrange(lo, hi) for _ in range(B.n)]
                    assert list(fixed.mul(x, c, pm)) == list(
                        B._mul_mod(x, c, pm))
            assert c in fixed._rows


# the pi headroom m - s of each layer, from Q_p up, that these towers
# had when the peel made A at the working precision (before its reads
# took a per-step cut and A came back exact at M)
LAYER_HEADROOM_FLOOR = {
    "p=2 slope": [164],
    "p=2 unramified then unit defect": [176, 176, 172],
    "p=2 custom": [172, 171],
    "p=3 slope": [172, 171],
    "p=3 unit defect": [172, 171],
    "p=3 unramified": [172, 172],
    "p=3 quadratics": [168, 168],
    "p=3 custom then quadratic": [171, 171],
    "p=5 slope": [200, 199],
    "p=5 unit defect": [200, 199],
    "p=5 unramified": [200, 200],
    "p=5 quadratics": [168, 168],
    "p=5 custom": [184, 183],
    "p=7 slope": [254, 253],
    "p=7 unit defect": [254, 253],
    "p=7 unramified": [254, 254],
    "p=7 quadratics": [168, 168],
    "p=7 custom": [196, 196],
}


@pytest.mark.parametrize("name", LAYER_TOWERS)
def test_layer_pi_headroom_keeps_its_floor(name):
    p, steps = LAYER_TOWERS[name]
    got = [fld.pi.m - fld.pi.s
           for fld in _layers(build_field(p, steps))][::-1]
    floor = LAYER_HEADROOM_FLOOR[name]
    assert len(got) == len(floor)
    assert all(g >= f for g, f in zip(got, floor)), (got, floor)


@pytest.mark.parametrize("name", LAYER_TOWERS)
def test_layer_peels_do_not_depend_on_the_working_precision(name,
                                                            monkeypatch):
    # every Kummer layer that peels makes the same A, and decides the
    # same, at the working precision and at twice it; the top pi agrees
    # with the 2P build to every digit it claims, and v_p(disc) is equal
    from anabelomorph import fields
    p, steps = LAYER_TOWERS[name]
    peel = fields._peel_unit
    answers = []

    def recording_peel(base, u):
        out = peel(base, u)
        answers.append(_peel_answer(*out))
        return out

    monkeypatch.setattr(fields, "_peel_unit", recording_peel)
    K = build_field(p, steps)
    got = answers.copy()
    answers.clear()
    H = build_field(p, steps, prec=2 * DEFAULT_DIGITS)
    assert got == answers
    assert len(got) == sum(_branch(fld) in ("kummer unit defect",
                                            "kummer unramified")
                           for fld in _layers(K))
    assert _agrees(K.pi, H.pi)
    assert discriminant_valuation(K) == discriminant_valuation(H)


def _different_oracle(fld):
    """v_K(D_{K/B}) of a ramified layer from its uniformizer, O_K = O_B[pi]:
    the sum of v_K(pi - sigma pi) over the conjugates of a Galois layer,
    else v_K(g'(pi)) for g the characteristic polynomial of pi over B,
    from the matrix of multiplication by pi.  Valuations come from the
    full norm, not the frames."""
    pi, B, d = fld.pi, fld.base, fld.d
    if hasattr(fld, "_conjugates"):
        return sum(norm_valuation(pi - FieldElement(fld, cv, pi.s, pi.m))
                   for cv in fld._conjugates(pi.vec, pi.m))
    # pi = V / p^s: column j is V gen^j, and g's c_k is V's c_k / p^(s k)
    pm, b, gen = fld.p ** pi.m, B.n, fld.gen().vec
    cols = [pi.vec]
    for _ in range(d - 1):
        cols.append(fld._mul_mod(cols[-1], gen, pm))
    c = _charpoly([[col[i * b:(i + 1) * b] for col in cols]
                   for i in range(d)], B._mul_mod, pm)
    dg = fld.from_int(d) * pi ** (d - 1)
    for k, ck in enumerate(c[:-1], 1):
        dg = dg + (fld.embed(FieldElement(B, ck, pi.s * k, pi.m)) * (d - k)
                   * pi ** (d - 1 - k))
    return norm_valuation(dg)


@pytest.mark.parametrize("name", LAYER_TOWERS)
def test_layer_different_matches_conjugate_oracle(name):
    # the frame formula v_K(f'(gen)) - (d - 1)(w - 1) against an oracle
    # that reads no frame, and the same differents at prec P and 2P
    p, steps = LAYER_TOWERS[name]
    K = build_field(p, steps)
    ramified = [fld for fld in _layers(K) if fld.e > fld.base.e]
    assert ramified
    for fld in ramified:
        assert fld.layer_diff == _different_oracle(fld)
    K2 = build_field(p, steps, prec=2 * DEFAULT_DIGITS)
    assert ([fld.layer_diff for fld in _layers(K2)]
            == [fld.layer_diff for fld in _layers(K)])


def test_custom_layer_of_slope_2_3_has_a_different():
    # x^3 - 9 (slope 2/3) and x^3 - 3 (slope 1/3) give the same field
    K = build_field(3, [T.custom([-9, 0, 0])])
    assert different_valuation(K) == 5
    assert different_valuation(build_field(3, [T.custom([-3, 0, 0])])) == 5


def test_quadratic_over_custom_slope_2_3(tmp_path, capsys):
    # x^2 - 3 over Q_3(9^(1/3)): the layer adds 1 to 2 * 5
    from anabelomorph.cli import main
    K = build_field(3, [T.custom([-9, 0, 0]), T.custom([-3, 0])])
    assert (K.n, K.e, K.f) == (6, 6, 1)
    assert different_valuation(K) == 11
    spec = tmp_path / "tower.txt"
    spec.write_text("p=3\ncustom x^3-9\ncustom x^2-3\n")
    assert main(["disc", str(spec)]) == 0
    assert capsys.readouterr().out == "11\n"


# ----------------------------------------------------------------------
# the layer relation in the base: the norm of delta, delta^d and powers
# of frame monomials


def _gamma_one_layers(name):
    """The layers of a LAYER_TOWERS tower whose frame is gen = delta +
    beta (gamma = 1): every ramified layer, and the unramified quadratic
    ones of unit discriminant."""
    p, steps = LAYER_TOWERS[name]
    out = [fld for fld in _layers(build_field(p, steps))
           if fld.frame[1] is None]
    assert out
    return out


@pytest.mark.parametrize("name", LAYER_TOWERS)
def test_norm_of_delta_is_the_relation_at_beta(name):
    # N_{K/B}(gen - beta) = (-1)^d f(beta): the certificate's f(beta) is
    # the conjugate product of _layer_cofactor up to that sign, and so
    # has its valuation
    for fld in _gamma_one_layers(name):
        B, x, d = fld.base, fld.delta, fld.d
        _, nvec = fld._layer_cofactor(x.vec, x.m)
        norm = FieldElement(B, nvec, x.s * d, x.m)
        f_beta = fld._norm_of_delta()
        assert (norm - f_beta * (-1) ** d).is_zero_to_precision()
        v = B.val_or_bound(norm)[0]
        assert v is not None and B.val_or_bound(f_beta)[0] == v


@pytest.mark.parametrize("name", LAYER_TOWERS)
def test_delta_pow_d_is_read_off_the_relation(name):
    # (gen - beta)^d mod f block by block equals the halving product
    # delta^ceil(d/2) delta^floor(d/2), with no fewer digits, and it is
    # the power _delta_pow keeps
    for fld in _gamma_one_layers(name):
        d = fld.d
        rel = fld._relation_delta_pow()
        halved = fld._delta_pow((d + 1) // 2) * fld._delta_pow(d // 2)
        assert (rel - halved).is_zero_to_precision()
        assert rel.m - rel.s >= halved.m - halved.s
        kept = fld._delta_pow(d)
        assert (kept.vec, kept.s, kept.m) == (rel.vec, rel.s, rel.m)


@pytest.mark.parametrize("name", LAYER_TOWERS)
def test_monomial_power_through_delta_powers(name):
    # monomial(v)^k = delta^(ak) embed(B.monomial(b)^k) layer by layer
    # equals monomial(v) ** k, for v of both signs, and claims no digit
    # that the same power at twice the working precision does not have
    p, steps = LAYER_TOWERS[name]
    K = build_field(p, steps)
    H = build_field(p, steps, prec=2 * DEFAULT_DIGITS)
    for fld, hfld in zip(_layers(K), _layers(H)):
        for v in range(-fld.e - 2, 2 * fld.e + 2):
            for k in sorted({2, p, fld.d}):
                x = fld.monomial_power(v, k)
                assert (x - fld.monomial(v) ** k).is_zero_to_precision()
                assert _agrees(x, hfld.monomial_power(v, k)), (v, k)


@pytest.mark.parametrize("name", LAYER_TOWERS)
def test_builds_take_layer_norms_only_to_invert(name, monkeypatch):
    # a build certifies its frames and makes delta^d and the powers of
    # its monomials in the base, with no _layer_cofactor call; only the
    # unramified Kummer branch still inverts (alpha^-1 and pi_B^-eun,
    # through the base's layer norm)
    from anabelomorph.fields import CustomField, GaloisLayer, LocalField
    calls = collections.Counter()
    inverting = []
    invert = LocalField.invert

    def counting_invert(self, x):
        inverting.append(self)
        try:
            return invert(self, x)
        finally:
            inverting.pop()

    monkeypatch.setattr(LocalField, "invert", counting_invert)
    for cls in (GaloisLayer, CustomField):
        def counting(self, vec, m, _cofactor=cls._layer_cofactor):
            calls["invert" if inverting else "other"] += 1
            return _cofactor(self, vec, m)
        monkeypatch.setattr(cls, "_layer_cofactor", counting)
    p, steps = LAYER_TOWERS[name]
    K = build_field(p, steps)
    assert calls["other"] == 0
    if all(_branch(fld) != "kummer unramified" for fld in _layers(K)):
        assert calls["invert"] == 0


# ----------------------------------------------------------------------
# fold tables of monomial relations (anabelomorph.folds)


def _kernel_table_towers():
    """The towers of the rows of tools/kernel_table.py, loaded read-only
    from its file, by row name."""
    path = Path(__file__).resolve().parents[1] / "tools" / "kernel_table.py"
    spec = importlib.util.spec_from_file_location("kernel_table", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return {name: (p, list(steps)) for name, p, steps, _ in mod.ROWS}


FOLD_TOWERS = {**LAYER_TOWERS, **_kernel_table_towers()}
_FOLD_BUILT = {}


def _monomial(fld):
    """Whether every relation term of fld and of the layers below it is
    one nonzero coordinate of its base."""
    return all(sum(map(bool, r)) == 1
               for layer in _layers(fld) for _, r in layer.relation)


@pytest.mark.parametrize("name", sorted(FOLD_TOWERS))
def test_fold_tables_match_schoolbook(name):
    # every layer from the bottom up, each against a schoolbook over its
    # base whose block products are the base's kernel, checked before it:
    # the table folds of the layered kernel above the packed gate, the
    # packed gather below it, and the sparse shapes' folds
    if name not in _FOLD_BUILT:
        _FOLD_BUILT[name] = build_field(*FOLD_TOWERS[name])
    K = _FOLD_BUILT[name]
    rng = random.Random(f"fold tables:{name}")
    for fld in reversed(list(_layers(K))):
        if not _monomial(fld):
            # a dense relation constant, here or below, folds by products
            assert fld._fold_rows is None and fld._slot_table is None
            continue
        assert fld._fold_rows is not None and fld._slot_table is not None
        p, d = fld.p, fld.d
        if fld.base.base is None:
            moduli = (p ** 20, fld.pM)
        else:
            moduli = _packed_gate_moduli(fld)
        for pm in moduli:
            # reduced entries, then unreduced ones: negative and >= p^m
            for lo, hi in ((0, pm), (-pm, 2 * pm)):
                for nx, ny in ((d, d), (1, d), (d, 1)):
                    x = _with_blocks(rng, fld, nx, lo, hi)
                    y = _with_blocks(rng, fld, ny, lo, hi)
                    want = _schoolbook(fld, x, y, pm, fld.base._mul_mod)
                    assert list(fld._mul_mod(x, y, pm)) == want, fld.name


def test_fold_tables_cover_every_prime():
    primes = {p for p, steps in FOLD_TOWERS.values()
              if any(_monomial(fld) and fld.base.base is not None
                     for fld in _layers(build_field(p, steps)))}
    assert primes == {2, 3, 5, 7}
    # x^3 = 2 over Q_2(i): a custom layer of degree d != p
    K = build_field(*FOLD_TOWERS["p=2 custom"])
    assert K.kind == "custom" and K._fold_rows is not None


def test_fold_tables_are_shared_across_precisions():
    # the tables depend on the relations' integers alone, not on p^M
    p, steps = 3, [T.cyclotomic(9), T.kummer(9, 4)]
    K1, K2 = build_field(p, steps), build_field(p, steps, prec=300)
    assert K1.M != K2.M
    for f1, f2 in zip(_layers(K1), _layers(K2)):
        assert f1._fold_rows is not None
        assert f1._fold_rows is f2._fold_rows
        assert f1._slot_table is f2._slot_table
