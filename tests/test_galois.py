import itertools
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from anabelomorph import galois
from anabelomorph.fields import (DegreeDropError, FieldElement, FieldError,
                                 TowerStep, build_field, different_valuation,
                                 discriminant_valuation)
from anabelomorph.galois import (GaloisElement, NonGaloisTowerError,
                                 _characters, _conjugacy_classes,
                                 apply_automorphism,
                                 artin_conductor, characters,
                                 conductor_discriminant_check,
                                 different_from_filtration, galois_group,
                                 ramification_filtration, swan_conductor,
                                 upper_numbering_breaks,
                                 wild_subgroup_conductor)
from anabelomorph.padic import PrecisionError

T = TowerStep


def _compose(g, h):
    """g after h: (a, b)(a', b') = (a a', a b' + b), affine in the index."""
    m = g.modulus
    return GaloisElement(g.a * h.a % m, (g.a * h.b + g.b) % m, m)


def _inverse(g):
    """g^-1: (a, b) -> (a^-1, -a^-1 b)."""
    ainv = pow(g.a, -1, g.modulus)
    return GaloisElement(ainv, -ainv * g.b % g.modulus, g.modulus)


@pytest.fixture(scope="module")
def K1():
    return build_field(3, [T.cyclotomic(3), T.kummer(3, 3)])


@pytest.fixture(scope="module")
def L1():
    return build_field(3, [T.cyclotomic(3), T.kummer(3, 4)])


# ----------------------------------------------------------------------
# the group and its action


def test_group_order(K1):
    assert len(galois_group(K1)) == 6


def test_identity_fixes_generators(K1):
    e = GaloisElement(1, 0, 3)
    assert e.is_identity
    for g in K1.step_generators:
        img = apply_automorphism(e, g)
        assert (img - g).is_zero_to_precision()


def test_semidirect_relation_exhaustive():
    # sigma_a tau_b sigma_a^{-1} = tau_{a b}
    for m in (3, 9):
        units = [a for a in range(1, m) if a % 3]
        for a in units:
            for b in range(m):
                sa = GaloisElement(a, 0, m)
                tb = GaloisElement(1, b, m)
                conj = _compose(_compose(sa, tb), _inverse(sa))
                assert (conj.a % m, conj.b % m) == (1, a * b % m)


def test_action_is_homomorphism(K1):
    rng = random.Random(9)
    sig = GaloisElement(2, 1, 3)
    g = K1.step_generators[1]
    for _ in range(5):
        x = K1.from_int(rng.randrange(1, 20)) + g * rng.randrange(1, 3)
        y = K1.from_int(rng.randrange(1, 20)) + (g * g) * rng.randrange(1, 3)
        d = apply_automorphism(sig, x * y) - \
            apply_automorphism(sig, x) * apply_automorphism(sig, y)
        assert d.is_zero_to_precision()


def test_action_preserves_valuation(K1):
    rng = random.Random(10)
    g = K1.step_generators[1]
    for sig in galois_group(K1):
        x = K1.from_int(3 * rng.randrange(1, 5)) + g
        assert apply_automorphism(sig, x).valuation() == x.valuation()


def test_action_keeps_the_precision_of_its_argument(K1):
    # the step generator known only to 3^20: its image may not claim more
    # digits, and the images of two lifts of it agree to every digit the
    # image claims
    g = K1.step_generators[1]
    x = FieldElement(K1, [c % 3 ** 20 for c in g.vec], g.s, 20)
    rng = random.Random(20)
    lift = FieldElement(K1, [c + 3 ** 20 * rng.randrange(3 ** 5)
                             for c in x.vec], x.s, K1.M)
    for sig in galois_group(K1):
        y = apply_automorphism(sig, x)
        assert y.m - y.s <= x.m - x.s
        d = apply_automorphism(sig, g) - apply_automorphism(sig, lift)
        assert K1.val_at_least(d, K1.e * (y.m - y.s))


@pytest.mark.parametrize("p, r, rad", [(2, 2, 5), (2, 3, 3), (3, 1, 3),
                                       (3, 2, 4), (5, 1, 6), (7, 1, 2)])
def test_action_obeys_the_group_law(p, r, rad):
    # sigma(tau(x)) = (sigma tau)(x) for the law the conjugacy classes
    # are built from
    K = build_field(p, [T.cyclotomic(p ** r), T.kummer(p ** r, rad)])
    elems = galois_group(K)
    rng = random.Random(p * 100 + r)
    for _ in range(4):
        sig, tau = rng.choice(elems), rng.choice(elems)
        x = FieldElement(K, [rng.randrange(-p ** 8, p ** 8)
                             for _ in range(K.n)], rng.randrange(2))
        d = (apply_automorphism(sig, apply_automorphism(tau, x))
             - apply_automorphism(_compose(sig, tau), x))
        assert d.is_zero_to_precision()


def test_action_restricts_to_intermediate_layers():
    # sigma on an element of Q_3(zeta_9, 4^(1/3)) is the restriction of
    # sigma on the top of Q_3(zeta_9, 4^(1/9)): it multiplies 4^(1/3) by
    # zeta_9^(3b), not by zeta_9^b
    K = build_field(3, [T.cyclotomic(9), T.kummer(9, 4)])
    L = K.base
    for a, b in ((1, 1), (2, 0), (4, 5), (8, 7)):
        sig = GaloisElement(a, b, 9)
        d = (K.embed(apply_automorphism(sig, L.gen()))
             - apply_automorphism(sig, K.embed(L.gen())))
        assert d.is_zero_to_precision()


def test_action_rejects_a_sigma_of_another_modulus(K1):
    with pytest.raises(NonGaloisTowerError):
        apply_automorphism(GaloisElement(2, 1, 9), K1.gen())


def test_non_galois_tower_rejected():
    K = build_field(3, [T.cyclotomic(9), T.kummer(9, {2: -6, 0: -2})])
    with pytest.raises(NonGaloisTowerError):
        galois_group(K)


@pytest.mark.parametrize("p, steps", [
    (3, [T.custom([-3, 3])]), (2, [T.kummer(2, 2)]),
    (3, [T.cyclotomic(9), T.kummer(3, 3)]),
    (3, [T.cyclotomic(3), T.custom([-2, 0])])])
def test_other_shapes_have_no_galois_group(p, steps):
    # only cyclotomic(p^r), alone or under kummer(p^r, a), is in scope
    with pytest.raises(NonGaloisTowerError, match=r"cyclotomic\(p\^r\)"):
        galois_group(build_field(p, steps))


# ----------------------------------------------------------------------
# filtration


def test_filtration_k1(K1):
    filt = ramification_filtration(K1)
    assert sorted(filt.i_values.values()) == [1, 1, 1, 4, 4]
    assert filt.breaks == [0, 3]
    assert different_from_filtration(filt) == 11


def test_filtration_l1(L1):
    filt = ramification_filtration(L1)
    assert sorted(filt.i_values.values()) == [1, 1, 1, 2, 2]
    assert different_from_filtration(filt) == 7


def test_filtration_differs_between_pair(K1, L1):
    fK = ramification_filtration(K1)
    fL = ramification_filtration(L1)
    assert sorted(fK.i_values.values()) != sorted(fL.i_values.values())


def test_g0_full_and_g1_sylow(K1):
    filt = ramification_filtration(K1)
    assert len(filt.group(0)) == 6
    g1 = filt.group(1)
    assert len(g1) == 3
    assert all(s.a % 3 == 1 for s in g1 if not s.is_identity)


def test_groups_normal_and_tame_quotient_cyclic(K1):
    elems = galois_group(K1)
    filt = ramification_filtration(K1)
    for i in range(max(filt.i_values.values()) + 1):
        grp = filt.group(i)
        members = set((s.a, s.b) for s in grp)
        for g in elems:
            for h in grp:
                c = _compose(_compose(g, h), _inverse(g))
                assert (c.a % 3, c.b % 3) in members
    # G_0 / G_1 cyclic of order dividing p - 1
    assert len(filt.group(0)) // len(filt.group(1)) in (1, 2)


def _filtration_every_sigma(K):
    """i_values by v_K(sigma pi - pi) and the rho moves on every sigma:
    the least certified move, which no move known only by a bound (zero
    to precision) may undercut."""
    rhos, fld = [], K
    while fld.base is not None:
        if fld.f > fld.base.f:
            rhos.append(K.embed(fld.delta))
        fld = fld.base
    out = {}
    for sig in galois_group(K):
        if not sig.is_identity:
            moves = [K.val_or_bound(apply_automorphism(sig, x) - x)
                     for x in [K.pi] + rhos]
            out[sig] = min(v for v, _ in moves if v is not None)
            assert all(v is not None or b >= out[sig] for v, b in moves)
    return out


# (p, r, radicand): the Galois towers of the tests and demos, then the
# invariants workload's towers with both of its b^(p^r) radicand factors
_CLASS_TOWERS = (
    [(3, 1, 3), (3, 1, 4), (3, 2, 3), (3, 2, 4), (3, 2, -7), (3, 2, 2),
     (5, 1, 5), (5, 1, 6), (2, 2, 5), (2, 2, 3), (2, 3, 3)]
    + [(p, r, a * b ** (p ** r))
       for p, r, a in [(3, 1, 3), (5, 1, 5), (7, 1, 7), (3, 1, 4), (5, 1, 6),
                       (7, 1, 8), (3, 2, 3), (3, 2, 4), (2, 2, 2), (2, 2, 5),
                       (2, 3, 3)]
       for b in [b for b in range(2, 6) if b % p][:2]])


@pytest.mark.parametrize("p, r, rad", _CLASS_TOWERS)
def test_class_representatives_match_every_sigma(p, r, rad):
    K = build_field(p, [T.cyclotomic(p ** r), T.kummer(p ** r, rad)])
    assert ramification_filtration(K).i_values == _filtration_every_sigma(K)


# the per-index definitions of the filtration's invariants, as a reference
# for the library's single sums over i(sigma)


def _groups_by_index(K, ivals):
    """[G_0, G_1, ...] with G_i = {sigma : i(sigma) >= i + 1}, in
    ``galois_group`` order, up to the first trivial G_i."""
    groups = []
    while not groups or len(groups[-1]) > 1:
        i = len(groups)
        groups.append([s for s in galois_group(K)
                       if s.is_identity or ivals[s] >= i + 1])
    return groups


def _invariant_dim(chi, grp, p):
    """dim V^(G_i) of chi = Ind_H^G(theta), G_i = grp, by Mackey: one for
    each double coset G_i x H, x = sigma_(c,0), on which theta(x^-1 g x)
    is 0 for every g in G_i cap H.  The cosets x H are the classes
    c U_psi, and G_i moves them by its a's."""
    m = grp[0].modulus
    units = [a for a in range(1, m) if a % p]
    cosets = {frozenset(c * u % m for u in chi.lam) for c in units}
    seen, count = set(), 0
    for coset in sorted(cosets, key=min):
        if coset not in seen:
            seen |= {frozenset(g.a * a % m for a in coset) for g in grp}
            x = GaloisElement(min(coset), 0, m)
            count += all(
                chi.theta(_compose(_compose(_inverse(x), g), x), p) == 0
                for g in grp if chi.theta(g, p) is not None)
    return count


def _conductor_by_index(chi, groups, p, start):
    """sum_{i >= start} (|G_i|/|G_0|) (chi(1) - dim V^(G_i)): the Artin
    conductor at start = 0, the Swan conductor at start = 1."""
    return sum((Fraction(len(grp), len(groups[0]))
                * (chi.dim - _invariant_dim(chi, grp, p))
                for grp in groups[start:]), Fraction(0))


def _dirichlet_exponent(chi, p):
    """The least c with lambda trivial on {a = 1 mod p^c}: the conductor
    exponent of a character of (Z/p^r)^*."""
    return next(c for c in itertools.count()
                if all(v == 0 for a, v in chi.lam.items()
                       if (a - 1) % p ** c == 0))


def _check_conductors_by_index(K, filt):
    """Every character's Artin and Swan conductor against the per-index
    definitions, and every character trivial on N (k = s) against its
    Dirichlet conductor exponent."""
    groups = _groups_by_index(K, filt.i_values)
    chars = characters(filt)
    assert len({chi.label for chi in chars}) == len(chars)
    assert sum(chi.dim ** 2 for chi in chars) == K.n
    top = max(chi.k for chi in chars)
    for chi in chars:
        f = artin_conductor(chi, filt)
        assert f == _conductor_by_index(chi, groups, K.p, 0)
        assert swan_conductor(chi, filt) == _conductor_by_index(
            chi, groups, K.p, 1)
        if chi.k == top:
            assert f == _dirichlet_exponent(chi, K.p)


@pytest.mark.parametrize("p, r, rad", _CLASS_TOWERS)
def test_invariants_match_the_per_index_definitions(p, r, rad):
    K = build_field(p, [T.cyclotomic(p ** r), T.kummer(p ** r, rad)])
    filt = ramification_filtration(K)
    # the filtration keeps the shape (p, r, s) of its tower, by which the
    # characters are read
    assert filt.shape == (p, r, r)
    assert characters(filt) is _characters(p, r, r)
    groups = _groups_by_index(K, filt.i_values)
    top = len(groups) - 1                   # G_top is the first trivial one
    for i, grp in enumerate(groups + [groups[-1]]):
        assert list(filt.group(i)) == grp
        assert filt.order_at(i) == len(grp)
    assert filt.breaks == [i for i in range(top)
                           if len(groups[i]) != len(groups[i + 1])]
    assert different_from_filtration(filt) == sum(len(g) - 1 for g in groups)
    assert upper_numbering_breaks(filt) == [
        sum((Fraction(len(groups[min(i, top)]), len(groups[0]))
             for i in range(1, b + 1)), Fraction(0))
        for b in filt.breaks]
    # f over Q_p(zeta_(p^r)) of a faithful character of N, the a = 1
    # part: the sum of |N_i|/|N_0| over the i with N_i nontrivial
    wild = [[s for s in grp if s.a % s.modulus == 1] for grp in groups]
    assert wild_subgroup_conductor(filt) == sum(
        Fraction(len(n), len(wild[0])) for n in wild if len(n) > 1)
    _check_conductors_by_index(K, filt)


@pytest.mark.slow
def test_degree_500_filtration():
    # 26 conjugacy classes: 25 sigma evaluations instead of 499; the
    # conductors of the 26 irreducibles give the discriminant, and the
    # dim-20 one, induced from the faithful orbit, separates the
    # anabelomorphic radicands 5 and 6
    for rad, disc, induced in ((5, 1515, 65), (6, 1083, 45)):
        K = build_field(5, [T.cyclotomic(25), T.kummer(25, rad)])
        filt = ramification_filtration(K)
        assert (different_from_filtration(filt) == discriminant_valuation(K)
                == disc)
        if rad == 5:
            assert filt.breaks == [0, 4, 9, 109]
        dim_f = [(chi.dim, artin_conductor(chi, filt))
                 for chi in characters(filt)]
        assert sum(dim * f for dim, f in dim_f) == disc
        assert [f for dim, f in dim_f if dim == 20] == [induced]


@pytest.mark.slow
def test_r3_conductor_identity():
    # Q_3(zeta_27, 3^(1/27)), degree 486: 31 irreducibles up to dimension
    # 18, and the identity at v_3(disc) = 1983
    K = build_field(3, [T.cyclotomic(27), T.kummer(27, 3)])
    rep = conductor_discriminant_check(K)
    assert rep["sum_dim_times_conductor"] == 1983
    assert rep["conductors"]["induced"] == 81


def test_filtration_pi_independent(K1):
    f1 = ramification_filtration(K1)
    pi2 = K1.pi * (K1.one() + K1.pi)
    assert pi2.valuation() == 1
    f2 = ramification_filtration(K1, pi=pi2)
    assert f1.i_values == f2.i_values


# ----------------------------------------------------------------------
# characters and conductors


def _r1_characters(p):
    """The characters of Gal(Q_p(zeta_p, p^(1/p))/Q_p) = Z/p x| (Z/p)^*."""
    K = build_field(p, [T.cyclotomic(p), T.kummer(p, p)])
    return galois_group(K), characters(ramification_filtration(K))


def test_character_table_p3():
    elems, chars = _r1_characters(3)
    assert [(c.dim, c.label) for c in chars] == [
        (1, "psi^0"), (1, "psi^1"), (2, "induced")]
    assert all(chars[0].theta(s, 3) == 0 for s in elems)


def test_character_table_p5():
    _, chars = _r1_characters(5)
    assert sorted(c.dim for c in chars) == [1, 1, 1, 1, 4]


def _induced_value(chi, g, p, elems):
    """Ind_H^G theta (g) as the sorted exponents q of its roots of unity
    exp(2 pi i q): theta(x^-1 g x) over the coset representatives x =
    sigma_(c,0) of G/H, none when g is off H (H is normal)."""
    m = g.modulus
    reps, covered = [], set()
    for s in elems:
        if s.b == 0 and s.a not in covered:
            reps.append(s)
            covered |= {s.a * u % m for u in chi.lam}
    if chi.theta(g, p) is None:
        return []
    return sorted(chi.theta(_compose(_compose(_inverse(x), g), x), p)
                  for x in reps)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_characters_are_class_functions_on_the_classes(p):
    # each induced character, as its multiset of roots of unity, is
    # constant on each class of _conjugacy_classes, the classes partition
    # the group of order p(p - 1), and the linear characters are
    # homomorphisms
    elems, chars = _r1_characters(p)
    classes = _conjugacy_classes(p, 1, 1)
    assert sum(len(cls) for _, cls in classes) == p * (p - 1)
    for chi in chars:
        for rep, cls in classes:
            want = _induced_value(chi, rep, p, elems)
            assert all(_induced_value(chi, s, p, elems) == want for s in cls)
    for chi in (c for c in chars if c.dim == 1):
        for g in elems:
            for h in elems:
                assert chi.theta(_compose(g, h), p) == (
                    chi.theta(g, p) + chi.theta(h, p)) % 1


def test_induced_character_values_match_induction():
    # induction from the wild Z/p of a faithful character: p - 1 roots of
    # unity 1 at the identity, the nontrivial p-th roots (sum -1) on the
    # tau class, none (0) off the wild Z/p
    for p in (3, 5):
        elems, chars = _r1_characters(p)
        big = [c for c in chars if c.dim == p - 1][0]
        assert _induced_value(big, GaloisElement(1, 0, p), p, elems) == [
            Fraction(0)] * (p - 1)
        assert _induced_value(big, GaloisElement(1, 1, p), p, elems) == [
            Fraction(j, p) for j in range(1, p)]
        for a in range(2, p):
            assert _induced_value(big, GaloisElement(a, 0, p), p,
                                  elems) == []


# ----------------------------------------------------------------------
# group data derived once per shape (p, r, s)

# the bare (s = 0) and Kummer (s = r) shapes at p in {2, 3, 5, 7}, r <= 3,
# of order at most 500, where conjugating by every element stays quick
_SHAPES = [(p, r, s) for p in (2, 3, 5, 7) for r in (1, 2, 3) for s in (0, r)
           if (p, r) != (2, 1) and p ** s * (p ** r - p ** (r - 1)) <= 500]


def _brute_classes(p, r, s):
    """The classes {tau sigma tau^-1 : tau in G} of every sigma, in
    integers: (a, b)(a', b') = (a a', a b' + b) mod p^r."""
    m = p ** r
    elems = [(a, b) for a in range(1, m) if a % p
             for b in range(0, m, p ** (r - s))]
    inverse = {(a, b): (pow(a, -1, m), -pow(a, -1, m) * b % m)
               for a, b in elems}
    return {frozenset((c * a * ci % m, (c * (a * di + b) + d) % m)
                      for (c, d), (ci, di) in inverse.items())
            for a, b in elems}


@pytest.mark.parametrize("p, r, s", _SHAPES)
def test_shape_data_equals_an_uncached_derivation(p, r, s):
    from anabelomorph import galois
    elems = galois._group.__wrapped__(p, r, s)
    assert galois._group(p, r, s) == elems
    assert len(elems) == p ** s * (p ** r - p ** (r - 1))
    classes = _conjugacy_classes(p, r, s)
    assert {frozenset((g.a, g.b) for g in cls)
            for _, cls in classes} == _brute_classes(p, r, s)
    assert all(rep in cls for rep, cls in classes)
    assert sum(len(cls) for _, cls in classes) == len(elems)
    chars = galois._characters(p, r, s)
    assert chars == galois._characters.__wrapped__(p, r, s)
    assert sum(chi.dim ** 2 for chi in chars) == len(elems)
    for chi in chars:
        assert chi.theta_nonzero == tuple(
            (g, chi.theta(g, p) != 0) for g in elems
            if chi.theta(g, p) is not None and not g.is_identity)


def test_shape_data_is_shared_across_towers_and_precisions():
    # Q_3(zeta_9, 4^(1/9)) at two precisions and Q_3(zeta_9, 3^(1/9)), one
    # shape (3, 2, 2): one group, one class list and one character tuple
    steps = [T.cyclotomic(9), T.kummer(9, 4)]
    towers = [build_field(3, steps), build_field(3, steps, prec=300),
              build_field(3, [T.cyclotomic(9), T.kummer(9, 3)])]
    assert towers[0].M != towers[1].M
    filts = [ramification_filtration(K) for K in towers]
    assert galois_group(towers[0]) is galois_group(towers[1]) \
        is galois_group(towers[2])
    assert characters(filts[0]) is characters(filts[1]) \
        is characters(filts[2])
    for filt in filts[1:]:
        assert all(g is h for g, h in zip(filt.i_values, filts[0].i_values))
    # the towers differ: the data shared holds no i(sigma)
    assert filts[0].i_values != filts[2].i_values


def test_shape_data_is_immutable(K1):
    import dataclasses
    elems = galois_group(K1)
    classes = _conjugacy_classes(3, 1, 1)
    chars = characters(ramification_filtration(K1))
    assert type(elems) is type(classes) is type(chars) is tuple
    assert all(type(pair) is tuple and type(pair[1]) is frozenset
               for pair in classes)
    assert all(type(chi.theta_nonzero) is tuple for chi in chars)
    with pytest.raises(dataclasses.FrozenInstanceError):
        elems[1].b = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        chars[0].theta_nonzero = ()
    with pytest.raises(TypeError):
        chars[0].lam[1] = Fraction(1, 2)


def test_conductors_trivial_and_tame(K1):
    filt = ramification_filtration(K1)
    chars = characters(filt)
    triv = next(c for c in chars if c.label == "psi^0")
    tame = next(c for c in chars if c.label == "psi^1")
    assert artin_conductor(triv, filt) == 0
    assert swan_conductor(triv, filt) == 0
    assert artin_conductor(tame, filt) == 1
    assert swan_conductor(tame, filt) == 0


def test_conductor_discriminant_identity(K1, L1):
    repK = conductor_discriminant_check(K1)
    repL = conductor_discriminant_check(L1)
    assert repK["match"] and repL["match"]
    assert repK["sum_dim_times_conductor"] == discriminant_valuation(K1) == 11
    assert repL["sum_dim_times_conductor"] == discriminant_valuation(L1) == 7


def test_two_dim_conductor_distinguishes_pair(K1, L1):
    # the headline witness: the induced character's Artin conductor
    # differs across an anabelomorphic pair (5 = 2p-1 versus 3 = p)
    repK = conductor_discriminant_check(K1)
    repL = conductor_discriminant_check(L1)
    fK = repK["conductors"]["induced"]
    fL = repL["conductors"]["induced"]
    assert (fK, fL) == (5, 3)
    assert fK != fL
    # over the cyclotomic base the inducing character separates them too
    assert repK["wild_char_conductor_over_cyclotomic"] == 4
    assert repL["wild_char_conductor_over_cyclotomic"] == 2


def test_conductor_discriminant_p5():
    K = build_field(5, [T.cyclotomic(5), T.kummer(5, 5)])
    rep = conductor_discriminant_check(K)
    assert rep["match"]
    assert rep["conductors"]["induced"] == 9   # 2p - 1


def test_r2_pair_conductor_multisets():
    # the paper's theorem at r = 2: Q_3(zeta_9, 3^(1/9)) and
    # Q_3(zeta_9, 4^(1/9)) are anabelomorphic, and the (dim, f) multisets
    # of their irreducible characters differ from dimension 2 on
    from anabelomorph.anabelomorphy import (ANABELOMORPHIC, KummerFieldSpec,
                                            jarden_ritter)
    v = jarden_ritter(KummerFieldSpec(3, 2, 3), KummerFieldSpec(3, 2, 4))
    assert v.status == ANABELOMORPHIC
    want = {3: {(1, 0): 1, (1, 1): 1, (1, 2): 4, (2, 5): 3, (6, 21): 1},
            4: {(1, 0): 1, (1, 1): 1, (1, 2): 4, (2, 3): 1, (2, 4): 2,
                (6, 15): 1}}
    for rad, multiset in want.items():
        K = build_field(3, [T.cyclotomic(9), T.kummer(9, rad)])
        filt = ramification_filtration(K)
        chars = characters(filt)
        assert Counter((chi.dim, artin_conductor(chi, filt))
                       for chi in chars) == multiset
        rep = conductor_discriminant_check(K)
        assert rep["sum_dim_times_conductor"] == discriminant_valuation(K)
        assert rep["conductors"]["induced"] == (21 if rad == 3 else 15)
        # f(theta) of the faithful orbit over Q_3(zeta_9), whose v_3(d) is
        # 9: f(induced) = 9 theta(1) + f(theta), so 21 - 9 and 15 - 9
        assert wild_subgroup_conductor(filt) == (12 if rad == 3 else 6)


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(p_r=st.sampled_from([(2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]),
       num=st.integers(-50, 50).filter(bool), den=st.integers(1, 12))
def test_conductors_on_drawn_galois_towers(p_r, num, den):
    # every Galois tower with p^r <= 9 and a rational radicand: integral
    # conductors, sum dim^2 = |G| and the conductor-discriminant identity
    p, r = p_r
    try:
        K = build_field(p, [T.cyclotomic(p ** r),
                            T.kummer(p ** r, Fraction(num, den))])
    except DegreeDropError:
        return
    filt = ramification_filtration(K)
    chars = characters(filt)
    fs = [artin_conductor(chi, filt) for chi in chars]
    assert all(type(f) is int and f >= 0 for f in fs)
    assert sum(chi.dim ** 2 for chi in chars) == K.n
    assert (sum(chi.dim * f for chi, f in zip(chars, fs))
            == discriminant_valuation(K))
    # the faithful orbit k = 0 at s = r: f(induced) = v_p(d) of
    # Q_p(zeta_(p^r)) + f(theta), f(theta) the wild conductor over it
    (f_induced,) = (f for chi, f in zip(chars, fs) if chi.label == "induced")
    assert f_induced == (r * (p ** r - p ** (r - 1)) - p ** (r - 1)
                         + wild_subgroup_conductor(filt))


def test_conductor_discriminant_bare_cyclotomic():
    # degree p-1 tame case: disc valuation p-2, each nontrivial character
    # contributes one; the characters are the psi^k, trivial on tau
    for p in (3, 5, 7):
        F = build_field(p, [T.cyclotomic(p)])
        rep = conductor_discriminant_check(F)
        assert rep["match"]
        assert rep["sum_dim_times_conductor"] == p - 2
        assert rep["conductors"] == {f"psi^{k}": int(k != 0)
                                     for k in range(p - 1)}
        assert rep["swan"] == {f"psi^{k}": 0 for k in range(p - 1)}
        assert rep["filtration_breaks"] == [0]
        assert rep["upper_numbering_breaks"] == ["0"]
        assert rep["wild_char_conductor_over_cyclotomic"] == 0


@pytest.mark.parametrize("p, r", [(2, 2), (2, 3), (2, 4), (3, 1), (3, 2),
                                  (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)])
def test_bare_cyclotomic_filtration(p, r):
    # Gal(Q_p(zeta_(p^r))/Q_p) = (Z/p^r)^*, the sigma_{a,0}: Hilbert's sum is
    # the different, the lower breaks are p^k - 1 (from k = 1 at p = 2,
    # where G_0 = G_1) and the upper breaks are consecutive integers,
    # the k with a break at p^k - 1
    K = build_field(p, [T.cyclotomic(p ** r)])
    elems = galois_group(K)
    assert len(elems) == K.n and all(s.b == 0 for s in elems)
    filt = ramification_filtration(K)
    assert filt.shape == (p, r, 0)
    assert characters(filt) is _characters(p, r, 0)
    assert different_from_filtration(filt) == different_valuation(K)
    assert filt.breaks == [p ** k - 1 for k in range(p == 2, r)]
    assert upper_numbering_breaks(filt) == list(range(p == 2, r))
    # the psi^t of (Z/p^r)^*, each with its Dirichlet conductor exponent
    _check_conductors_by_index(K, filt)
    assert conductor_discriminant_check(K)["match"]


def test_r2_filtration_matches_different():
    # the filtration route (explicit action, sigma pi - pi valuations) and
    # the layer closed-form route must agree on the degree-54 towers
    for rad, want, breaks in ((3, 165, [0, 2, 5, 23]), (4, 121, [0, 1, 4, 13])):
        K = build_field(3, [T.cyclotomic(9), T.kummer(9, rad)])
        filt = ramification_filtration(K)
        assert different_from_filtration(filt) == want == discriminant_valuation(K)
        assert filt.breaks == breaks


@pytest.mark.parametrize("p, r, rad, want", [(2, 2, 5, 6), (2, 3, 3, 50)])
def test_f2_filtration_matches_different(p, r, rad, want):
    # residue degree 2: a sigma outside inertia moves a residue lift by a
    # unit and leaves G_0, and Hilbert's formula sum i_G = v_K(different)
    # holds
    K = build_field(p, [T.cyclotomic(p ** r), T.kummer(p ** r, rad)])
    assert K.f == 2
    filt = ramification_filtration(K)
    assert len(filt.group(0)) == K.e          # G_0 is the inertia group
    assert (sum(filt.i_values.values()) == different_from_filtration(filt)
            == different_valuation(K) == want)


@pytest.mark.parametrize("rad", [3, 11])
def test_f2_filtration_where_sigma_fixes_pi(rad):
    # Q_2(zeta_4, rad^(1/4)), n = 8, e = 4, f = 2: some sigma outside
    # inertia fixes pi exactly and moves only the unramified frame delta,
    # by a unit, so i(sigma) = 0
    K = build_field(2, [T.cyclotomic(4), T.kummer(4, rad)])
    assert (K.n, K.e, K.f) == (8, 4, 2)
    assert any((apply_automorphism(s, K.pi) - K.pi).is_zero_to_precision()
               for s in galois_group(K) if not s.is_identity)
    filt = ramification_filtration(K)
    assert different_from_filtration(filt) == different_valuation(K) == 8
    assert filt.breaks == [1, 3]
    assert filt.order_at(0) == K.e == 4
    rep = conductor_discriminant_check(K)
    assert rep["sum_dim_times_conductor"] == discriminant_valuation(K) == 16


def test_inertia_order_check_fails_on_a_wrong_action(K1, monkeypatch):
    # an action x -> x + 1 moves pi by a unit, so every sigma reads
    # i(sigma) = 0 and G_0 is trivial, which the check against e refuses;
    # the shape's group data, cached by a correct call first, holds no
    # i(sigma)
    from anabelomorph import galois
    assert ramification_filtration(K1).order_at(0) == 6
    monkeypatch.setattr(galois, "_horner",
                        lambda sigma, gen_imgs, x: x + x.field.one())
    with pytest.raises(FieldError, match=r"\|G_0\| = 1 is not e = 6"):
        ramification_filtration(K1)


def test_upper_numbering_derived_report(K1):
    from anabelomorph.galois import upper_numbering_breaks
    from fractions import Fraction
    filt = ramification_filtration(K1)
    ups = upper_numbering_breaks(filt)
    assert ups[0] == 0
    assert ups == sorted(ups)
    assert ups[-1] == Fraction(3, 2)   # phi(3) = (3+3+3)/6


def test_unamphoricity_witness_with_certified_pair(K1, L1):
    from anabelomorph.anabelomorphy import (ANABELOMORPHIC, KummerFieldSpec,
                                            jarden_ritter)
    v = jarden_ritter(KummerFieldSpec(3, 1, 3), KummerFieldSpec(3, 1, 4))
    assert v.status == ANABELOMORPHIC
    fK = conductor_discriminant_check(K1)["conductors"]["induced"]
    fL = conductor_discriminant_check(L1)["conductors"]["induced"]
    assert fK != fL


def test_conductor_pair_p5_matches_pattern():
    # radicand p gives 2p-1, radicand 1+p gives p, at every odd p in scope
    L5 = build_field(5, [T.cyclotomic(5), T.kummer(5, 6)])
    rep = conductor_discriminant_check(L5)
    assert rep["conductors"]["induced"] == 5


# towers whose Kummer layers carry a normalizer c = B.monomial(-k) with
# k != 0 (a radicand of valuation at least p), at p = 2, 3, 5, 7
NORMALIZED_GALOIS_TOWERS = {
    2: [T.cyclotomic(4), T.kummer(4, 2)],
    3: [T.cyclotomic(9), T.kummer(9, 3)],
    5: [T.cyclotomic(5), T.kummer(5, 25)],
    7: [T.cyclotomic(7), T.kummer(7, 49)],
}


@pytest.mark.parametrize("p", NORMALIZED_GALOIS_TOWERS)
def test_action_is_a_homomorphism_at_every_p(p):
    # sigma = (a, b) is a ring homomorphism, maps zeta to zeta^a and the
    # user generator g to zeta^b g, through the normalizers' sigma(c) c^-1
    K = build_field(p, NORMALIZED_GALOIS_TOWERS[p])
    fld, normalized = K, 0
    while fld.kind == "kummer":
        normalized += fld.normalizer is not None
        fld = fld.base
    assert normalized > 0
    z, g = K.step_generators
    rng = random.Random(f"action {p}")
    elems = galois_group(K)
    for sig in rng.sample(elems, min(8, len(elems))):
        x, y = (FieldElement(K, [rng.randrange(p ** 3) for _ in range(K.n)])
                for _ in range(2))
        sx, sy = apply_automorphism(sig, x), apply_automorphism(sig, y)
        for u, v in ((x * y, sx * sy), (x + y, sx + sy), (z, z ** sig.a),
                     (g, z ** sig.b * g)):
            assert (apply_automorphism(sig, u) - v).is_zero_to_precision()


def test_action_homomorphism_r2():
    K = build_field(3, [T.cyclotomic(9), T.kummer(9, 3)])
    sig = GaloisElement(2, 3, 9)
    g = K.step_generators[1]
    z = K.step_generators[0]
    x = z + g
    y = K.from_int(4) + g * g
    d = apply_automorphism(sig, x * y) - \
        apply_automorphism(sig, x) * apply_automorphism(sig, y)
    assert d.is_zero_to_precision()
    assert apply_automorphism(sig, x).valuation() == x.valuation()
    # the relation theta -> zeta^b theta respects theta^9 = 3
    img = apply_automorphism(sig, g)
    assert (img ** 9 - K.from_int(3)).is_zero_to_precision()


# ----------------------------------------------------------------------
# the action and the filtration at their arguments' precision

# (p, r, radicand): Kummer layers with normalizers, and two without
_CUT_TOWERS = [(2, 2, 2), (3, 2, 3), (2, 3, 6), (5, 1, 25), (7, 1, 49),
               (2, 2, 5), (3, 2, 4)]


def _uncut(sigma, x):
    """sigma(x) with the normalizer pairs whole."""
    with mock.patch.object(galois, "_image_bounds", lambda chain: (10 ** 6, 0)):
        return apply_automorphism(sigma, x)


def _outcome(f, *args):
    try:
        y = f(*args)
    except PrecisionError:
        return PrecisionError
    return y.vec, y.s, y.m


@pytest.mark.parametrize("p, r, rad", _CUT_TOWERS)
def test_action_with_cut_normalizers_is_the_uncut_image(p, r, rad):
    # on the top field and each Kummer layer below it, for x of every
    # modulus from the least an element keeps to the tower's: the same
    # (vec, s, m), or PrecisionError from both
    K = build_field(p, [T.cyclotomic(p ** r), T.kummer(p ** r, rad)])
    elems = galois_group(K)
    rng = random.Random(f"cut {p} {r} {rad}")
    for F in [K] + list(K.layers[2:-1]):
        for m in (12, 13, 15, 20, 40, F.M - 3, F.M):
            s = rng.randrange(3)
            x = FieldElement(F, [rng.randrange(p ** (m + s))
                                 for _ in range(F.n)], s, m + s)._normalized()
            sig = rng.choice(elems)
            assert (_outcome(apply_automorphism, sig, x)
                    == _outcome(_uncut, sig, x)), (F.n, m, sig)


@pytest.mark.parametrize("p, r, rad", [(2, 2, 2), (3, 2, 3), (2, 3, 6)])
def test_short_horner_term_never_changes_an_i(p, r, rad, monkeypatch):
    # the filtration's cut of pi with Horner's term one to three digits
    # short: PrecisionError or the same i-values, and PrecisionError once
    # the term is two short
    K = build_field(p, [T.cyclotomic(p ** r), T.kummer(p ** r, rad)])
    want = ramification_filtration(K).i_values
    loss = galois._horner_loss
    for short in (1, 2, 3):
        monkeypatch.setattr(galois, "_horner_loss",
                            lambda *a, k=short: loss(*a) - k)
        try:
            got = ramification_filtration(K).i_values
        except PrecisionError:
            continue
        assert short == 1 and got == want, short


def _mutant(K, moves):
    """The filtration of K with each class of (representative, step)
    moved by step."""
    filt = ramification_filtration(K)
    ivals = dict(filt.i_values)
    for rep, cls in _conjugacy_classes(*filt.shape):
        for sig in cls:
            if not sig.is_identity:
                ivals[sig] += moves.get((rep.a, rep.b), 0)
    return filt, galois.RamificationFiltration(ivals, K, filt.shape)


def test_conductor_integrality_fires_on_a_moved_class(monkeypatch):
    # one class of Q_2(i, 2^(1/4)) moved by 1: some Artin conductor is
    # no longer an integer
    K = build_field(2, [T.cyclotomic(4), T.kummer(4, 2)])
    filt, mutant = _mutant(K, {(3, 0): 1})
    assert different_from_filtration(mutant) != \
        different_from_filtration(filt)
    monkeypatch.setattr(galois, "ramification_filtration", lambda K: mutant)
    with pytest.raises(ArithmeticError, match="conductor is not an integer"):
        conductor_discriminant_check(K)


def test_conductor_identity_fires_on_a_moved_pair(monkeypatch):
    # two classes moved by -2 and +2 keep Hilbert's sum and every
    # conductor integral; only the conductor-discriminant identity fails
    K = build_field(2, [T.cyclotomic(4), T.kummer(4, 2)])
    filt, mutant = _mutant(K, {(1, 1): -2, (3, 0): 2})
    assert different_from_filtration(mutant) == \
        different_from_filtration(filt)
    assert mutant.i_values != filt.i_values
    monkeypatch.setattr(galois, "ramification_filtration", lambda K: mutant)
    with pytest.raises(ArithmeticError,
                       match="conductor-discriminant identity failed"):
        conductor_discriminant_check(K)
