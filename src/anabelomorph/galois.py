"""Galois action on Kummer-over-cyclotomic towers and conductor arithmetic.

For K = Q_p(zeta_{p^r}, a^{1/p^r}) with rational radicand the group is the
semidirect product Z/p^r x| (Z/p^r)^*, acting by

    sigma_{a,b}:  zeta -> zeta^a,   theta -> zeta^b theta,

and for the bare cyclotomic field Q_p(zeta_{p^r}) it is the (Z/p^r)^* of
the sigma_{a,0}.  These elements are the one description of the group:
the filtration, the conjugacy classes and, at r = 1, the character table
(evaluated once per class, keyed by element) are all made from them.

sigma acts layer by layer: an exponent map and one fold on the
cyclotomic layer, then Horner's rule over the image of each Kummer
generator.  The lower-numbering ramification filtration is computed from
i(sigma) = v_K(sigma(pi) - pi) with the certified uniformizer (and, when
f > 1, the least v_K(sigma(c) - c) over the frame deltas c of the
unramified layers, which generate O_K with pi); i is a class function, so
one sigma per conjugacy class is evaluated.  The filtration keeps i alone,
and each invariant is one sum over the group (Serre, Local Fields, IV 1
and VI 2): the different, the Herbrand images of the breaks, and the
Artin and Swan conductors of characters, which are exact rational sums
over a small cyclotomic coefficient field (never floating point).
"""

from __future__ import annotations

import functools
import types
from dataclasses import dataclass
from fractions import Fraction

from .fields import (FieldElement, FieldError, _unit_group,
                     discriminant_valuation)
from .padic import is_prime


class NonGaloisTowerError(FieldError):
    pass


# ----------------------------------------------------------------------
# exact cyclotomic rationals for character values


def _cyclotomic_poly(m):
    # x^m - 1 divided by the product of Phi_d for proper divisors d
    poly = [Fraction(-1)] + [Fraction(0)] * (m - 1) + [Fraction(1)]
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div(poly, _cyclotomic_poly(d))
    return poly


def _poly_div(num, den):
    num = list(num)
    out = [Fraction(0)] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1] / den[-1]
        out[k] = c
        for j, dj in enumerate(den):
            num[k + j] -= c * dj
    if any(c != 0 for c in num[:len(den) - 1]):
        raise ArithmeticError("inexact polynomial division")
    return out


class CycRat:
    """Element of Q(zeta_m) as a rational vector modulo Phi_m."""

    _tables = {}

    __slots__ = ("m", "vec")

    def __init__(self, m, vec):
        self.m = m
        self.vec = tuple(vec)

    @classmethod
    def _phi(cls, m):
        tab = cls._tables.get(m)
        if tab is None:
            phi_poly = _cyclotomic_poly(m)
            deg = len(phi_poly) - 1
            # representation of zeta^t for t in [0, m)
            rep = []
            for t in range(m):
                if t < deg:
                    row = [Fraction(0)] * deg
                    row[t] = Fraction(1)
                else:
                    # zeta^t = zeta * zeta^(t-1), zeta^deg folded by Phi_m
                    prev = rep[t - 1]
                    row = [Fraction(0)] + list(prev[:-1])
                    for j in range(deg):
                        row[j] -= prev[-1] * phi_poly[j]
                rep.append(tuple(row))
            tab = (deg, rep)
            cls._tables[m] = tab
        return tab

    @classmethod
    def zeta_power(cls, m, t):
        deg, rep = cls._phi(m)
        return cls(m, rep[t % m])

    @classmethod
    def rational(cls, m, q):
        deg, _ = cls._phi(m)
        vec = [Fraction(0)] * deg
        vec[0] = Fraction(q)
        return cls(m, vec)

    def __add__(self, other):
        return CycRat(self.m, [a + b for a, b in zip(self.vec, other.vec)])

    def __sub__(self, other):
        return CycRat(self.m, [a - b for a, b in zip(self.vec, other.vec)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycRat(self.m, [a * other for a in self.vec])
        deg, rep = self._phi(self.m)
        out = [Fraction(0)] * deg
        for i, a in enumerate(self.vec):
            if a == 0:
                continue
            for j, b in enumerate(other.vec):
                if b == 0:
                    continue
                row = rep[(i + j) % self.m] if i + j >= deg else None
                if row is None:
                    out[i + j] += a * b
                else:
                    for k2, r in enumerate(row):
                        if r:
                            out[k2] += a * b * r
        return CycRat(self.m, out)

    def conj(self):
        """zeta -> zeta^{-1}."""
        deg, rep = self._phi(self.m)
        out = [Fraction(0)] * deg
        for i, a in enumerate(self.vec):
            if a == 0:
                continue
            row = rep[(-i) % self.m]
            for k2, r in enumerate(row):
                if r:
                    out[k2] += a * r
        return CycRat(self.m, out)

    def as_rational(self):
        if any(c != 0 for c in self.vec[1:]):
            raise ArithmeticError("cyclotomic value is not rational")
        return self.vec[0]

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            try:
                return self.as_rational() == other
            except ArithmeticError:
                return False
        return self.m == other.m and self.vec == other.vec

    def __repr__(self):
        return f"CycRat(m={self.m}, {self.vec})"


# ----------------------------------------------------------------------
# group elements and the action on the tower


@dataclass(frozen=True)
class GaloisElement:
    """sigma: zeta -> zeta^a, theta -> zeta^b theta (modulo p^r)."""
    a: int
    b: int
    modulus: int

    @property
    def is_identity(self):
        return self.a % self.modulus == 1 and self.b % self.modulus == 0


def galois_group(K):
    """All automorphisms of K over Q_p: sigma_{a,b} on K = Q_p(zeta_{p^r},
    a^{1/p^r}) with rational a, and sigma_{a,0} on the bare cyclotomic
    field K = Q_p(zeta_{p^r})."""
    steps = K.user_steps
    kummer = len(steps) == 2 and steps[1].kind == "kummer"
    if (not steps or steps[0].kind != "cyclotomic" or len(steps) > 1 + kummer
            or kummer and steps[1].exponent != steps[0].modulus):
        raise NonGaloisTowerError(
            "galois action requires the shape cyclotomic(p^r), alone or "
            "followed by kummer(p^r, a)")
    if kummer and not isinstance(steps[1].radicand, (int, Fraction)):
        # a zeta-polynomial radicand is generally moved by zeta -> zeta^a
        raise NonGaloisTowerError(
            "tower is not certified Galois over Q_p: radicand is not rational")
    m = steps[0].modulus
    elems = [GaloisElement(a, b, m) for a in range(1, m) if a % K.p
             for b in (range(m) if kummer else [0])]
    if len(elems) != K.n:
        raise NonGaloisTowerError("group order does not match field degree")
    return elems


def _compose(g, h):
    """g after h: (a, b)(a', b') = (a a', a b' + b), affine in the index."""
    m = g.modulus
    return GaloisElement(g.a * h.a % m, (g.a * h.b + g.b) % m, m)


def _inverse(g):
    """g^-1: (a, b) -> (a^-1, -a^-1 b)."""
    ainv = pow(g.a, -1, g.modulus)
    return GaloisElement(ainv, -ainv * g.b % g.modulus, g.modulus)


def _conjugacy_classes(elems):
    """[(representative, class)] of the group ``elems``, by conjugating
    with every element: (c, d)(a, b)(c, d)^-1 = (a, c b + d (1 - a))."""
    seen, classes = set(), []
    for sig in elems:
        if sig not in seen:
            cls = {_compose(_compose(tau, sig), _inverse(tau)) for tau in elems}
            seen |= cls
            classes.append((sig, cls))
    return classes


def apply_automorphism(sigma, x):
    """Image of x under sigma (a ring homomorphism of the tower), carrying
    x's precision.  On the cyclotomic layer sigma maps zeta^l to zeta^(l a),
    then one fold by Phi_{p^r}, p^r = sigma.modulus.  Kummer layer t maps
    gen_t = a^(1/p^t) c p^j, with c and c^-1 in the base (``normalizer``),
    to zeta^(b p^(r-t)) gen_t sigma(c) c^-1, whichever layer x lies in,
    and x = sum c_k gen_t^k, by Horner's rule, to
    sum sigma(c_k) sigma(gen_t)^k."""
    chain, fld = [], x.field
    while fld.base is not None:
        chain.insert(0, fld)
        fld = fld.base
    if (not chain or chain[0].kind != "cyclo"
            or any(fld.kind != "kummer" for fld in chain[1:])):
        raise NonGaloisTowerError(
            "galois action needs kummer layers over a cyclotomic layer")
    if chain[0].cyclo_modulus != sigma.modulus:
        raise NonGaloisTowerError(
            f"sigma acts on zeta_{sigma.modulus}, the tower's cyclotomic "
            f"layer is Q_p(zeta_{chain[0].cyclo_modulus})")
    gen_imgs = {}
    for t, fld in enumerate(chain[1:], 1):
        img = (fld.from_zeta_poly({sigma.b * sigma.modulus // fld.p ** t: 1})
               * fld.gen())
        if fld.normalizer is not None:
            c, cinv = fld.normalizer
            img = img * fld.embed(_horner(sigma, gen_imgs, c) * cinv)
        gen_imgs[fld] = img
    return _horner(sigma, gen_imgs, x)


def _horner(sigma, gen_imgs, x):
    """sigma(x), given the images of the generators of x's layer and of
    the layers below it."""
    fld = x.field
    if fld.kind == "cyclo":
        return FieldElement(fld, fld._sigma(x.vec, sigma.a, fld.p ** x.m),
                            x.s, x.m)
    B, b = fld.base, fld.base.n
    acc = None
    for k in range(fld.d - 1, -1, -1):
        if acc is not None:
            acc = acc * gen_imgs[fld]
        blk = x.vec[k * b:(k + 1) * b]
        if any(blk):
            ck = fld.embed(_horner(sigma, gen_imgs, FieldElement(B, blk, 0, x.m)))
            acc = ck if acc is None else acc + ck
    if acc is None:
        return x
    return FieldElement(fld, acc.vec, acc.s + x.s, acc.m)._normalized()


# ----------------------------------------------------------------------
# ramification filtration (lower numbering)


@dataclass
class RamificationFiltration:
    """The lower-numbering filtration G_i = {sigma : i(sigma) >= i + 1},
    kept as i(sigma) = i_G(sigma) alone: v_K(sigma(pi) - pi) on inertia,
    0 outside it, the identity absent.  Every G_i and every invariant
    below is read from i_values."""
    i_values: dict        # sigma -> i(sigma); identity absent
    field: object

    @property
    def breaks(self):
        """The i >= 0 with G_i != G_(i+1), that is i(sigma) - 1."""
        return sorted({i - 1 for i in self.i_values.values() if i > 0})

    def group(self, i):
        """The members of G_i, identity first."""
        m = next(iter(self.i_values)).modulus
        return (GaloisElement(1, 0, m),) + tuple(
            s for s, v in self.i_values.items() if v >= i + 1)

    def order_at(self, i):
        return 1 + sum(v >= i + 1 for v in self.i_values.values())


def ramification_filtration(K, pi=None):
    """Lower-numbering filtration of Gal(K/Q_p) for the Kummer shape.

    i_G(sigma) is a class function (Serre, Local Fields, IV 1), so it is
    evaluated on one representative per conjugacy class and copied to
    the other members."""
    elems = galois_group(K)
    if pi is None:
        pi = K.pi
    # O_K = Z_p[pi, rho_1, ..., rho_k] with rho_j the frame delta of the
    # j-th unramified layer, so i_G(sigma) is the least move among them
    # (Serre, Local Fields, IV 1 Lemma 1); outside inertia some rho moves
    # by a unit and sigma leaves G_0
    rhos, fld = [], K
    while fld.base is not None:
        if fld.f > fld.base.f:
            rhos.append(K.embed(fld.delta))
        fld = fld.base
    by_class = {}
    for rep, cls in _conjugacy_classes(elems):
        if rep.is_identity:
            continue
        i = (apply_automorphism(rep, pi) - pi).valuation()
        for c in rhos:
            dc = apply_automorphism(rep, c) - c
            if not K.val_at_least(dc, i):
                i = dc.valuation()
        by_class.update(dict.fromkeys(cls, i))
    filt = RamificationFiltration(
        {sig: by_class[sig] for sig in elems if not sig.is_identity}, K)
    # sanity: G_0 is the inertia group, of order e
    if filt.order_at(0) != K.e:
        raise FieldError(f"|G_0| = {filt.order_at(0)} is not e = {K.e}")
    return filt


def different_from_filtration(filt):
    """Hilbert's formula v_K(D) = sum over sigma != 1 of i(sigma)
    (Serre, Local Fields, IV 1 Prop. 4): cross-check for the different."""
    return sum(filt.i_values.values())


def upper_numbering_breaks(filt):
    """Images of the lower breaks b under the Herbrand function,
    phi(b) = sum_{1<=i<=b} |G_i|/|G_0| = (b + sum over sigma != 1 of
    min(b, max(i(sigma) - 1, 0))) / |G_0|, as exact fractions.  Derived
    report only; conductor formulas consume the lower numbering
    directly."""
    g0 = filt.order_at(0)
    return [Fraction(b + sum(min(b, max(i - 1, 0))
                             for i in filt.i_values.values()), g0)
            for b in filt.breaks]


# ----------------------------------------------------------------------
# characters of Z/p x| (Z/p)^* and conductors


@dataclass(frozen=True)
class Character:
    """Character values on the elements sigma_{a,b} mod p of
    Z/p x| (Z/p)^*, in Q(zeta_{p-1}); frozen, with read-only values, as
    ``character_table`` shares one table."""
    p: int
    dim: int
    values: types.MappingProxyType     # GaloisElement mod p -> CycRat
    label: str

    def value(self, sigma):
        p = self.p
        return self.values[GaloisElement(sigma.a % p, sigma.b % p, p)]


def character_table(p, r=1):
    """Exact character table of Z/p x| (Z/p)^* (the r = 1 Galois group).

    p - 1 linear characters psi^k through (Z/p)^* plus one irreducible of
    dimension p - 1, induced from a faithful character of the wild Z/p,
    as a tuple of frozen characters, each evaluated once per conjugacy
    class of ``_conjugacy_classes``.  The table is built and checked for
    orthogonality once per (p, r) and then shared.
    """
    return _character_table(p, r)


@functools.lru_cache(maxsize=None)
def _character_table(p, r):
    if r != 1:
        raise NotImplementedError("character tables are built for r = 1 only")
    if p == 2 or not is_prime(p):
        raise ValueError("character tables are built for an odd prime p "
                         f"and r = 1 only; got p = {p}")
    m = p - 1
    # discrete log table for (Z/p)^*, cyclic of order p - 1
    (powers,) = _unit_group(p, p)
    dlog = {v: k for k, v in enumerate(powers)}
    classes = _conjugacy_classes(
        [GaloisElement(a, b, p) for a in range(1, p) for b in range(p)])

    def character(dim, label, at_rep):
        vals = {sig: at_rep(rep) for rep, cls in classes for sig in cls}
        return Character(p, dim, types.MappingProxyType(vals), label)

    chars = [character(1, f"psi^{k}",
                       lambda rep, k=k: CycRat.zeta_power(m, k * dlog[rep.a]))
             for k in range(m)]
    # p - 1 at 1, -1 on the class of tau = sigma_{1,1}, 0 off the wild Z/p
    chars.append(character(m, "induced", lambda rep: CycRat.rational(
        m, m if rep.is_identity else -1 if rep.a == 1 else 0)))
    _check_orthogonality(chars, p)
    return tuple(chars)


def _check_orthogonality(chars, p):
    order = p * (p - 1)
    m = p - 1
    if sum(c.dim ** 2 for c in chars) != order:
        raise ArithmeticError("character table: sum of dim^2 != |G|")
    # every character is defined on the whole group
    classes = _conjugacy_classes(list(chars[0].values))
    for i, ci in enumerate(chars):
        for j, cj in enumerate(chars):
            acc = CycRat.rational(m, 0)
            for rep, cls in classes:
                acc = acc + ci.values[rep] * cj.values[rep].conj() * len(cls)
            want = Fraction(order if i == j else 0)
            if acc.as_rational() != want:
                raise ArithmeticError("character orthogonality failed")


def _conductor_sum(chi, filt, weight):
    """(1/|G_0|) sum over sigma != 1 of weight(i(sigma)) (chi(1) - chi(sigma)),
    which must be an integer."""
    acc, total = CycRat.rational(chi.p - 1, 0), 0
    for sig, i in filt.i_values.items():
        w = weight(i)
        if w:
            acc = acc + chi.value(sig) * w
            total += w
    out = Fraction(chi.dim * total - acc.as_rational(), filt.order_at(0))
    if out.denominator != 1:
        raise ArithmeticError(
            f"conductor is not an integer: {out} (filtration/character mismatch)")
    return int(out)


def artin_conductor(chi, filt):
    """Artin conductor exponent f(chi) = (1/|G_0|) sum over sigma != 1 of
    i(sigma) (chi(1) - chi(sigma)), the Artin character a_G (Serre, Local
    Fields, VI 2)."""
    return _conductor_sum(chi, filt, lambda i: i)


def swan_conductor(chi, filt):
    """Swan conductor: the same sum with max(i(sigma) - 1, 0), that is
    without the tame index i = 0."""
    return _conductor_sum(chi, filt, lambda i: max(i - 1, 0))


def wild_subgroup_conductor(filt):
    """Conductor exponent, over the cyclotomic subfield, of a faithful
    character of the wild part Z/p: the largest i(sigma) over the
    nontrivial sigma with a = 1, the number of indices i with the wild
    subgroup H_i nontrivial (the full-sum average vanishes there)."""
    return max((i for s, i in filt.i_values.items()
                if s.a % s.modulus == 1), default=0)


def conductor_discriminant_check(K):
    """Exact conductor-discriminant identity sum chi(1) f(chi) = v_p(disc)
    for the r = 1 Kummer shape Q_p(zeta_p, a^(1/p)) and the bare
    Q_p(zeta_p), odd p, through one filtration and one character table.
    Gal(Q_p(zeta_p)/Q_p) is the quotient of Z/p x| (Z/p)^* by the wild
    Z/p = <tau>, tau = sigma_{1,1}, so its characters are the table's
    characters that are trivial on tau, the psi^k.

    Returns a report with both sides, the per-character Artin and Swan
    conductors and the lower and upper breaks; a mismatch raises.
    """
    p = K.p
    steps = K.user_steps
    cyc = steps[0].modulus if steps and steps[0].kind == "cyclotomic" else None
    if p == 2 or cyc not in (None, p):
        # character_table is the r = 1 table of Z/p x| (Z/p)^*; at p = 2
        # every Kummer tower has r >= 2
        raise FieldError(
            "conductor-discriminant check covers the r = 1 Kummer shape "
            "Q_p(zeta_p, a^(1/p)) and bare Q_p(zeta_p), odd p only; "
            f"got p = {p}" + (f", zeta_{cyc}" if cyc else ""))
    filt = ramification_filtration(K)
    chars = character_table(p)
    if len(steps) == 1:
        tau = GaloisElement(1, 1, p)
        chars = [chi for chi in chars if chi.value(tau) == chi.dim]
    conductors = {}
    lhs = 0
    for chi in chars:
        f = artin_conductor(chi, filt)
        conductors[chi.label] = f
        lhs += chi.dim * f
    rhs = discriminant_valuation(K)
    report = {
        "field": K.name,
        "sum_dim_times_conductor": lhs,
        "disc_valuation": rhs,
        "match": lhs == rhs,
        "conductors": conductors,
        "swan": {chi.label: swan_conductor(chi, filt) for chi in chars},
        "filtration_breaks": filt.breaks,
        "upper_numbering_breaks": [str(b) for b in
                                   upper_numbering_breaks(filt)],
        "wild_char_conductor_over_cyclotomic": wild_subgroup_conductor(filt),
    }
    if not report["match"]:
        raise ArithmeticError(
            f"conductor-discriminant identity failed: {lhs} != {rhs}")
    return report
