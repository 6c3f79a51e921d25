"""Acceptance gate: one test per criterion, each printing a verdict line.

All expected values are exact integers or enum labels; every comparison
is exact equality.  Criterion 2 includes an erratum: the r = 1
radicand-p discriminant is sometimes quoted as 2p(p-1)+1, but the
Eisenstein polynomial of the uniformizer, the tower formula through
Q_p(p^(1/p)) and the conductor-discriminant identity all give
2p(p-1)-1; the companion test derives that value from integers and
asserts it.
"""

import random
import time
from fractions import Fraction

import pytest

from anabelomorph.anabelomorphy import (ANABELOMORPHIC, NOT_ANABELOMORPHIC,
                                        KummerFieldSpec, jarden_ritter)
from anabelomorph.cli import main as cli_main
from anabelomorph.elliptic import (WeierstrassModel, change_coords,
                                   l_invariant, tate_algorithm,
                                   weak_amphoricity_report)
from anabelomorph.fields import (TowerStep, build_field, different_valuation,
                                 discriminant_valuation, closed_form_disc)
from anabelomorph.formats import parse_curve
from anabelomorph.galois import (conductor_discriminant_check,
                                 ramification_filtration)
from anabelomorph.padic import PadicScalar, padic_log

T = TowerStep


def _report(line):
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def towers():
    out = {
        "K1": build_field(3, [T.cyclotomic(3), T.kummer(3, 3)]),
        "L1": build_field(3, [T.cyclotomic(3), T.kummer(3, 4)]),
        "K54_3": build_field(3, [T.cyclotomic(9), T.kummer(9, 3)]),
        "K54_2": build_field(3, [T.cyclotomic(9), T.kummer(9, 2)]),
        "K54_4": build_field(3, [T.cyclotomic(9), T.kummer(9, 4)]),
    }
    return out


# ----------------------------------------------------------------------
# criterion 1: Jarden-Ritter verdicts


def test_criterion_1_jarden_ritter():
    def S(p, r, rad=None):
        return KummerFieldSpec(p, r, rad)

    pairs = [(S(3, 2, 3), S(3, 2, 4)), (S(3, 2, 3), S(3, 2, -7))]
    for p in (3, 5):
        for r in (1, 2):
            pairs.append((S(p, r, p), S(p, r, 1 + p)))
    worst = 0.0
    for a, b in pairs:
        t0 = time.time()
        v = jarden_ritter(a, b)
        worst = max(worst, time.time() - t0)
        assert v.status == ANABELOMORPHIC, (a, b, v.reason)
    neg = jarden_ritter(S(3, 1, 3), S(3, 2, 3))
    assert neg.status == NOT_ANABELOMORPHIC
    neg2 = jarden_ritter(S(3, 1, 3), S(3, 1))
    assert neg2.status == NOT_ANABELOMORPHIC
    assert worst < 1.0, f"verdict took {worst:.2f}s"
    _report(f"criterion 1 PASS: all listed pairs affirmative, "
            f"mismatches negative, worst verdict {worst * 1000:.0f} ms")


# ----------------------------------------------------------------------
# criterion 2: discriminants


def test_criterion_2_discriminants(towers):
    t0 = time.time()
    assert different_valuation(towers["L1"]) == 7
    table = {3: 165, 4: 121, -7: 121}
    worst54 = 0.0
    for rad, want in table.items():
        t1 = time.time()
        K = build_field(3, [T.cyclotomic(9), T.kummer(9, rad)])
        got = discriminant_valuation(K)
        worst54 = max(worst54, time.time() - t1)
        assert got == want, (rad, got, want)
    # the closed forms agree with the general tower computation
    for p, rads in ((3, (3, 4)), (5, (5, 6))):
        for r in (1, 2):
            Kp = build_field(p, [T.cyclotomic(p ** r), T.kummer(p ** r, rads[0])])
            Lp = build_field(p, [T.cyclotomic(p ** r), T.kummer(p ** r, rads[1])])
            assert different_valuation(Kp) == closed_form_disc(p, r, "radicand-p")
            assert different_valuation(Lp) == closed_form_disc(p, r, "radicand-1+p")
    assert worst54 < 30.0
    _report(f"criterion 2 PASS: L1=7, table rows 165/121/121, closed forms "
            f"match the general computation for p in {{3,5}}, r in {{1,2}}; "
            f"worst degree-54 field {worst54:.2f}s "
            f"[total {time.time() - t0:.1f}s]")


def _vp(n, p):
    n, v = abs(n), 0
    while n % p == 0:
        n, v = n // p, v + 1
    return v


def _binomial_disc(n, a):
    """disc(x^n + a) = (-1)^(n(n-1)/2) n^n a^(n-1)."""
    return (-1) ** (n * (n - 1) // 2) * n ** n * a ** (n - 1)


def _tower_disc_r1(p):
    """v_p(disc) of Q_p(zeta_p, p^(1/p)), built as Q_p(p^(1/p)) then zeta_p.

    x^p - p is Eisenstein, so the first step has v_p(disc) =
    v_p(disc(x^p - p)); the second step is tame of degree p - 1 and adds
    e - 1 = p - 2 to the different.  With f = 1, v_p(disc) = v_K(different).
    """
    d_first = _vp(_binomial_disc(p, -p), p)
    assert d_first == 2 * p - 1
    return (p - 1) * d_first + (p - 2)


def test_criterion_2_quoted_r1_radicand_p_value(towers):
    """r = 1 radicand-p discriminant: 2p(p-1) - 1, i.e. 11 at p = 3.

    Erratum: the value is sometimes quoted as 2p(p-1)+1 (13 at p = 3).
    That contradicts the transitivity of the different and the
    conductor-discriminant formula (Serre, Local Fields, III.4 and VI.3).
    The expected value is derived here from integers, independently of
    the program's different computation, in two ways:

    1. Eisenstein: the certified uniformizer pi of K1 = Q_3(zeta_3, 3^(1/3))
       satisfies pi^6 + 3 = 0 closely enough for Hensel's lemma
       (v_K(pi^6 + 3) > 2 v_K(6 pi^5)), so K1 holds a root of the
       Eisenstein polynomial x^6 + 3 next to pi.  That root generates O_K,
       hence v_3(disc K1) = v_3(disc(x^6 + 3)) = v_3(6^6 3^5).
    2. Tower formula: (p-1)(2p-1) + (p-2) = 2p(p-1) - 1.

    The program's different, its closed form and the conductor sum
    0 + 1 + 2*5 over the characters of S_3 must all equal it exactly.
    """
    K1 = towers["K1"]
    p, n = 3, 6
    assert (K1.n, K1.e, K1.f) == (n, n, 1)
    assert K1.val_or_bound(K1.pi) == (1, None)
    v, bound = K1.val_or_bound(K1.pi ** n + p)
    hensel = 2 * (K1.e * _vp(n, p) + (n - 1))     # 2 v_K(f'(pi))
    assert (bound if v is None else v) > hensel, (v, bound, hensel)
    want = _vp(_binomial_disc(n, p), p)
    assert want == _tower_disc_r1(p) == 2 * p * (p - 1) - 1 == 11

    got = different_valuation(K1)
    cd = conductor_discriminant_check(K1)["sum_dim_times_conductor"]
    assert got == want
    assert closed_form_disc(p, 1, "radicand-p") == want
    assert cd == want
    assert closed_form_disc(5, 1, "radicand-p") == _tower_disc_r1(5) == 39
    _report(f"criterion 2 PASS (r=1 radicand-p): v_3(disc K1) = {got} = "
            f"v_3(disc(x^6+3)) = tower formula = conductor sum {cd}; "
            f"p=5 closed form 39; quoted 2p(p-1)+1 = "
            f"{2 * p * (p - 1) + 1} is an erratum")


# ----------------------------------------------------------------------
# criterion 3: conductors


def test_criterion_3_conductors(towers):
    t0 = time.time()
    repK = conductor_discriminant_check(towers["K1"])
    repL = conductor_discriminant_check(towers["L1"])
    assert repK["match"] and repL["match"]
    fK = repK["conductors"]["induced"]
    fL = repL["conductors"]["induced"]
    assert fK != fL                      # unamphoricity witness
    assert (fK, fL) == (5, 3)
    assert repK["swan"]["psi^0"] == 0
    assert repK["conductors"]["psi^1"] == 1
    dt = time.time() - t0
    assert dt < 10.0
    _report(f"criterion 3 PASS: identities {repK['sum_dim_times_conductor']}"
            f"={discriminant_valuation(towers['K1'])} and "
            f"{repL['sum_dim_times_conductor']}="
            f"{discriminant_valuation(towers['L1'])}; induced conductors "
            f"(5, 3) differ; swan(trivial)=0, tame f=1 [{dt:.2f}s]")


# ----------------------------------------------------------------------
# criterion 4: additive reduction over the degree-54 pair


def test_criterion_4_additive_tables(towers):
    K, L = towers["K54_3"], towers["K54_2"]
    want = [((0, 3, 0, 0, 9), (6, 4, "IV", 1), (6, 2, "I0*", 4)),
            ((0, 3, 0, 0, 3), (12, 6, "IV*", 3), (12, 10, "IV", 1))]
    worst = 0.0
    for coeffs, wK, wL in want:
        t0 = time.time()
        rK = tate_algorithm(WeierstrassModel.from_a_invariants(K, *coeffs))
        worst = max(worst, time.time() - t0)
        t0 = time.time()
        rL = tate_algorithm(WeierstrassModel.from_a_invariants(L, *coeffs))
        worst = max(worst, time.time() - t0)
        assert rK.quadruple() == wK
        assert rL.quadruple() == wL
    assert worst < 60.0
    _report(f"criterion 4 PASS: (6,4,IV,1)/(6,2,I0*,4) and "
            f"(12,6,IV*,3)/(12,10,IV,1); worst run {worst:.1f}s")


# ----------------------------------------------------------------------
# criterion 5: semistable rows identical across the pair


SEMISTABLE_ROWS = [
    ("[0,z^5+z^4-6z^3-z-9,0,z^5-z^4+8z^2-z+12,z^5+z^2+1]", 9),
    ("[0,2z^5-2z^4-z^3+z-5,0,-z^4+z^3-3z^2+8z+11,z^5+z^4-2z^3+3z^2-z+1]", 18),
    ("[0,-8z^5+8z^4-z^2+z+4,0,2z^5+z^3-5z^2-2z-10,-3z^5+z^4-z^3-z^2+5z-22]", 9),
    ("[0,-z^5-7z^4+2z^2-2z-12,0,z^5-z^4+z^3-z+4,-z^4-3z^2+z+3]", 9),
    ("[0,-4z^5-2z^4+z^3+z^2-z-3,0,3z^3-10z^2-z-12,z^5+z^4+2z^3-z^2-10z-14]", 18),
    ("[0,-z^5-z^4-z^3+z^2-3,0,-z^4-2z^3-3z^2-z-16,31z^5-3z^4-z^3+z+53]", 27),
]


def test_criterion_5_semistable_tables(towers):
    t0 = time.time()
    K, L = towers["K54_3"], towers["K54_4"]
    for txt, n in SEMISTABLE_ROWS:
        rep = weak_amphoricity_report(parse_curve(txt), K, L)
        want = (n, 1, f"I{n}", n)
        assert rep["first"].quadruple() == want
        assert rep["second"].quadruple() == want
        assert rep["all_equal"]
    dt = time.time() - t0
    assert dt < 300.0
    _report(f"criterion 5 PASS: {len(SEMISTABLE_ROWS)} semistable rows with "
            f"identical quadruples incl. (9,1,I9,9), (18,1,I18,18), "
            f"(27,1,I27,27) [{dt:.1f}s]")


# ----------------------------------------------------------------------
# criterion 6: p = 2 stretch


def test_criterion_6_p2_pair():
    t0 = time.time()
    K = build_field(2, [T.cyclotomic(16), T.kummer(2, {2: 1, 0: -1}),
                        T.kummer(2, {6: 1, 0: -1})], prec=160)
    L = build_field(2, [T.cyclotomic(16), T.kummer(4, {4: 1, 0: -1})],
                    prec=160)
    curve = parse_curve(
        "[0,0,0,-2z^7+2z^6-2z^5+2z^4-2z^3+4z^2+6z+30,"
        "32z^7-76z^6-8z^5+32z^4-24z^3-20z^2+16z-28]")
    rep = weak_amphoricity_report(curve, K, L)
    got = (rep["first"].quadruple(), rep["second"].quadruple())
    assert got == ((64, 60, "I0*", 2), (52, 52, "II", 1))
    assert not rep["all_equal"]
    _report(f"criterion 6 PASS: p=2 pair (64,60,I0*,2) vs (52,52,II,1) "
            f"reproduced exactly at raised precision "
            f"[{time.time() - t0:.1f}s]")


# ----------------------------------------------------------------------
# criterion 7: property suites


def test_criterion_7_ultrametric_and_log():
    rng = random.Random(7001)
    for _ in range(1000):
        a = PadicScalar.from_int(rng.randrange(-3 ** 8, 3 ** 8) or 1, 3, 40)
        b = PadicScalar.from_int(rng.randrange(-3 ** 8, 3 ** 8) or 1, 3, 40)
        s = a + b
        vmin = min(a.valuation(), b.valuation())
        if s.is_bottom:
            assert s.valuation_lower_bound() >= vmin
        else:
            assert s.valuation() >= vmin
            if a.valuation() != b.valuation():
                assert s.valuation() == vmin
    for _ in range(1000):
        u = PadicScalar.from_int(rng.randrange(1, 3 ** 9), 3, 36)
        w = PadicScalar.from_int(rng.randrange(1, 3 ** 9), 3, 36)
        d = padic_log(u * w, prec=16) - (padic_log(u, prec=16)
                                         + padic_log(w, prec=16))
        assert d.is_bottom or d.valuation() >= 14
    _report("criterion 7a PASS: ultrametric and log-homomorphism checks "
            "(1000 samples each)")


def test_criterion_7_tate_unimodular_invariance():
    t0 = time.time()
    cases = [(5, (0, 0, 0, 1, 1)), (11, (0, -1, 1, -10, -20)),
             (3, (0, 0, 1, 0, -7)), (2, (0, 0, 0, -1, 0))]
    total = 0
    for p, coeffs in cases:
        K = build_field(p, [])
        m = WeierstrassModel.from_a_invariants(K, *coeffs)
        base = tate_algorithm(m)
        assert base.conductor == base.v_min_disc - base.components + 1
        rng = random.Random(p * 101)
        for _ in range(50):
            u = K.from_int(rng.choice([a for a in range(1, 4 * p) if a % p]))
            r = K.from_int(rng.randrange(-3 * p, 3 * p + 1))
            s = K.from_int(rng.randrange(-3 * p, 3 * p + 1))
            t = K.from_int(rng.randrange(-3 * p, 3 * p + 1))
            rr = tate_algorithm(change_coords(m, u=u, r=r, s=s, t=t))
            assert rr.quadruple() == base.quadruple()
            assert rr.conductor == rr.v_min_disc - rr.components + 1
            total += 1
    _report(f"criterion 7b PASS: Tate output invariant under {total} "
            f"unimodular coordinate changes (50 per curve) "
            f"[{time.time() - t0:.1f}s]")


def test_criterion_7_filtration_pi_independence(towers):
    for name in ("K1", "L1"):
        K = towers[name]
        f1 = ramification_filtration(K)
        pi2 = K.pi * (K.one() + K.pi)
        f2 = ramification_filtration(K, pi=pi2)
        assert f1.i_values == f2.i_values
    _report("criterion 7c PASS: filtration independent of the uniformizer "
            "on both r=1 towers")


def test_criterion_7_search_reproducible(tmp_path):
    outs = []
    for i in range(2):
        path = tmp_path / f"s{i}.txt"
        code = cli_main(["search", "--count", "4", "--seed", "20260808",
                         "--out", str(path)])
        assert code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]
    _report("criterion 7d PASS: search runs byte-identical for a fixed seed")


# ----------------------------------------------------------------------
# criterion 8: the log-over-ord invariant


GOLDEN_LOG_4_BASE3_MOD3_7 = 1992   # frozen from the rational series oracle


def test_criterion_8_l_invariant():
    Q3 = build_field(3, [])
    for m in (1, 3, 6):
        assert l_invariant(Q3.from_int(3 ** m)).is_zero_to_precision()
    q = Q3.from_int(12)   # p (1 + p)
    l1 = l_invariant(q)
    for k in (2, 4):
        d = l_invariant(q ** k) - l1
        assert d.is_zero_to_precision() or d.valuation() > 20
    assert l1.vec[0] % 3 ** 7 == GOLDEN_LOG_4_BASE3_MOD3_7
    _report("criterion 8 PASS: l(p^m)=0, scaling invariance, golden series "
            "value for q = p(1+p)")
