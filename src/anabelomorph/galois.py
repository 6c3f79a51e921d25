"""Galois action on Kummer-over-cyclotomic towers and conductor arithmetic.

For K = Q_p(zeta_{p^r}, a^{1/p^r}) with rational radicand the group is the
semidirect product G = N x| U, N = Z/p^r and U = (Z/p^r)^*, acting by

    sigma_{a,b}:  zeta -> zeta^a,   theta -> zeta^b theta,

and for the bare cyclotomic field Q_p(zeta_{p^r}) it is the U of the
sigma_{a,0} (N trivial).  These elements are the one description of the
group: the filtration, the conjugacy classes and the characters are all
made from them.

sigma acts layer by layer: an exponent map and one fold on the
cyclotomic layer, then Horner's rule over the image of each Kummer
generator.  The lower-numbering ramification filtration is computed from
i(sigma) = v_K(sigma(pi) - pi) with the certified uniformizer (and, when
f > 1, the least v_K(sigma(c) - c) over the frame deltas c of the
unramified layers, which generate O_K with pi); i is a class function, so
one sigma per conjugacy class is evaluated.  The filtration keeps i alone,
and each invariant is one sum over the group (Serre, Local Fields, IV 1
and VI 2): the different and the Herbrand images of the breaks.

Every irreducible character of G is induced from a linear one, Ind_H^G
theta with theta = psi_(p^k) lambda on H = N x| U_psi (Serre, Linear
Representations of Finite Groups, 8.2 Prop. 25), so its Artin and Swan
conductors come from the filtration by the induction formula (Local
Fields, VI 2 Prop. 4) with theta's values as exact fractions in Q/Z:
no character table and no floating point.

What depends on the group alone is derived once per shape (p, r, s), s
the Kummer level (0 on the bare field), and shared by every tower of
that shape at every precision: the element tuple, the conjugacy classes,
the characters and, for each, the sigma != 1 of H with whether theta
moves them, which is all the induction formula reads of theta; so a
conductor is an integer sum over the i-values.  What reads the tower
runs on every call: the check of its steps, the moves sigma(pi) - pi
and the i-values, |G_0| = e, sum dim^2 = |G|, conductor integrality,
the conductor-discriminant identity and v_p(disc).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import types
from dataclasses import dataclass
from fractions import Fraction

from .fields import (FieldElement, FieldError, _read_digits, _unit_group,
                     different_valuation, discriminant_valuation)
from .padic import PrecisionError, _vp


class NonGaloisTowerError(FieldError):
    pass


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
    field K = Q_p(zeta_{p^r}).  The tuple is derived once per shape
    (``_group``) and shared; K's steps are checked on every call."""
    return _group(*_shape(K))


def _shape(K):
    """(p, r, s) of the Galois tower K = Q_p(zeta_(p^r), a^(1/p^s)), s = 0
    on the bare cyclotomic field, after checking that K has that shape."""
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
    shape = (K.p, _vp(steps[0].modulus, K.p),
             _vp(steps[1].exponent, K.p) if kummer else 0)
    if len(_group(*shape)) != K.n:
        raise NonGaloisTowerError("group order does not match field degree")
    return shape


# the group data kept per process, by shape (p, r, s); a shape past this
# many is derived again
_SHAPES = 64


@functools.lru_cache(maxsize=_SHAPES)
def _group(p, r, s):
    """The sigma_(a,b) of Z/p^s x| (Z/p^r)^*, b in p^(r-s) Z/p^r."""
    m = p ** r
    return tuple(GaloisElement(a, b, m) for a in range(1, m) if a % p
                 for b in range(0, m, p ** (r - s)))


@functools.lru_cache(maxsize=_SHAPES)
def _conjugacy_classes(p, r, s):
    """((representative, class), ...) of ``_group(p, r, s)``, in the
    order of the group's elements, from the closed form (c, d)(a, b)
    (c, d)^-1 = (a, c b + d (1 - a)), c a unit and d in N = p^(r-s) Z/p^r.
    The d (1 - a) make the subgroup g Z/p^r of N, g = gcd(p^(r-s) (1 - a),
    p^r), and the units c move b mod g to every residue of its p-adic
    valuation, so the class of (a, b) is the (a, b') with b' in N and
    gcd(b', g) = gcd(b, g): one pass over the group, and singletons when
    s = 0, where N = 0."""
    m = p ** r
    classes = {}
    for sig in _group(p, r, s):
        g = math.gcd(p ** (r - s) * (1 - sig.a), m)
        classes.setdefault((sig.a, math.gcd(sig.b, g)), []).append(sig)
    return tuple((cls[0], frozenset(cls)) for cls in classes.values())


def apply_automorphism(sigma, x):
    """Image of x under sigma (a ring homomorphism of the tower), carrying
    x's precision.  On the cyclotomic layer sigma maps zeta^l to zeta^(l a),
    then one fold by Phi_{p^r}, p^r = sigma.modulus.  Kummer layer t maps
    gen_t = a^(1/p^t) c p^j, with c and c^-1 in the base (``normalizer``),
    to zeta^(b p^(r-t)) gen_t sigma(c) c^-1, whichever layer x lies in,
    and x = sum c_k gen_t^k, by Horner's rule, to
    sum sigma(c_k) sigma(gen_t)^k.

    Every product keeps the smaller modulus, and a sum no more than its
    terms carry, so sigma(x) reads no digit of an image sigma(gen_t) past
    x's modulus.  The normalizer pairs are therefore cut first, to x's
    modulus plus the digits their images lose (``_generator_images``),
    and sigma(x) is the image under the uncut pairs bit for bit, at the
    cost of products to x's precision instead of the tower's."""
    chain = x.field.layers[1:]
    if (not chain or chain[0].kind != "cyclo"
            or any(fld.kind != "kummer" for fld in chain[1:])):
        raise NonGaloisTowerError(
            "galois action needs kummer layers over a cyclotomic layer")
    if chain[0].cyclo_modulus != sigma.modulus:
        raise NonGaloisTowerError(
            f"sigma acts on zeta_{sigma.modulus}, the tower's cyclotomic "
            f"layer is Q_p(zeta_{chain[0].cyclo_modulus})")
    return _horner(sigma, _generator_images(sigma, chain, x.m), x)


def _generator_images(sigma, chain, m):
    """{layer: sigma(gen_t)} over the Kummer layers of chain, each image
    the uncut one, or that one cut to a modulus of at least m.  Both
    normalizers of every layer are cut to m + max L_t (``_image_bounds``)."""
    keep = m + _image_bounds(chain)[0]
    gen_imgs = {}
    for t, fld in enumerate(chain[1:], 1):
        img = (fld.from_zeta_poly({sigma.b * sigma.modulus // fld.p ** t: 1})
               * fld.gen())
        if fld.normalizer is not None:
            c, cinv = (y.capped(keep - y.s) for y in fld.normalizer)
            img = img * fld.embed(_horner(sigma, gen_imgs, c) * cinv)
        gen_imgs[fld] = img
    return gen_imgs


def _image_bounds(chain):
    """(max L_t, HS) over the Kummer layers t of chain: L_t the digits
    an image sigma(gen_t) may lose below the normalizers' cut mu, and HS
    = sum (d_t - 1) S_t, S_t a bound on its s, so that HS bounds
    Horner's term (``_horner_loss``) of every sigma (Caruso-Roe-Vaccon
    precision tracking).

    Write A = m - s.  A product has A = min(A1 - s2, A2 - s1), a sum
    the smaller A, and a normalization keeps A, so against a cut at mu
    an element made from the cut pairs has A >= mu - L, for the loss L
    below, or is the uncut element.  Horner's rule on layer u over
    blocks of A = mu multiplies d - 1 times by g_u = sigma(gen_u); an
    accumulator there has s <= HS_u = HS_(u-1) + (d - 1) S_u, S_u a bound
    on s(g_u), and loses HA_u = max(HA_(u-1) + (d - 1) S_u, L_u + HS_u),
    the second term a product's A(g_u) - s(acc).  So sigma(c) has
    s <= s(c) + HS_(t-1) and loses s(c) + HA_(t-1), and g_t, a unit
    times sigma(c) c^-1,

        L_t = s(c) + s(c^-1) + HA_(t-1),   S_t = s(c) + s(c^-1) + HS_(t-1);

    a layer with no normalizer has g_t = zeta^k gen_t, uncut: L_t = S_t
    = 0.  An image keeps m >= A >= mu - max L_t, so mu = m + max L_t
    leaves each one the uncut image or cut at a modulus >= m."""
    loss = hs = ha = 0
    for fld in chain[1:]:
        lt = st = 0
        if fld.normalizer is not None:
            c, cinv = fld.normalizer
            lt, st = c.s + cinv.s + ha, c.s + cinv.s + hs
        hs += (fld.d - 1) * st
        ha = max(ha + (fld.d - 1) * st, lt + hs)
        loss = max(loss, lt)
    return loss, hs


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


def _horner_loss(gen_imgs):
    """The digits sigma(x) loses against x by Horner's rule: d - 1
    products by sigma(gen_t) on each Kummer layer t, each costing its
    denominator s, read off the images."""
    return sum((fld.d - 1) * img.s for fld, img in gen_imgs.items())


# ----------------------------------------------------------------------
# ramification filtration (lower numbering)


@dataclass
class RamificationFiltration:
    """The lower-numbering filtration G_i = {sigma : i(sigma) >= i + 1},
    kept as i(sigma) = i_G(sigma) alone: v_K(sigma(pi) - pi) on inertia,
    0 outside it, the identity absent.  Every G_i and every invariant
    below is read from i_values, and the group's data from ``shape``."""
    i_values: dict        # sigma -> i(sigma); identity absent
    field: object
    shape: tuple          # (p, r, s) of the tower, checked by ``_shape``

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
    """Lower-numbering filtration of Gal(K/Q_p) for a Galois tower.

    i_G(sigma) is a class function (Serre, Local Fields, IV 1), so it is
    evaluated on one representative per conjugacy class and copied to
    the other members.

    Hilbert's formula gives i(sigma) <= sum of i = v_K(D), so every read
    lies below v_K(D) + 1, and pi and the rho's are cut once, to
    ``_read_digits(K, v_K(D) + 1)`` plus the digits Horner's rule takes
    from them: d - 1 products by sigma(gen_t) on each Kummer layer t,
    each costing its denominator s, the largest such sum over the class
    representatives (``_horner_loss``).  Each representative's generator
    images are made once, at the read plus a bound on that sum from the
    normalizers' stored s (``_image_bounds``), above the cut's modulus;
    Horner's term is read off them, and they apply sigma to the cut pi
    and rho's, which is ``apply_automorphism`` at the cut bit for bit
    (``_generator_images``).  A cut that came out short would leave a
    move undetermined and raise PrecisionError; it never changes an i."""
    shape = _shape(K)
    if pi is None:
        pi = K.pi
    # O_K = Z_p[pi, rho_1, ..., rho_k] with rho_j the frame delta of the
    # j-th unramified layer, so i_G(sigma) is the least move among them
    # (Serre, Local Fields, IV 1 Lemma 1); outside inertia some rho moves
    # by a unit and sigma leaves G_0
    xs = [pi] + [K.embed(fld.delta) for fld in K.layers[1:]
                 if fld.f > fld.base.f]
    chain = K.layers[1:]
    read = _read_digits(K, different_valuation(K) + 1)
    top = read + _image_bounds(chain)[1] + max(x.s for x in xs)
    images = [(rep, cls, _generator_images(rep, chain, top))
              for rep, cls in _conjugacy_classes(*shape)
              if not rep.is_identity]
    horner = max((_horner_loss(imgs) for _, _, imgs in images), default=0)
    cut = [x.capped(read + horner) for x in xs]
    by_class = {}
    for rep, cls, imgs in images:
        # the least certified move; a move zero to precision is only a
        # bound, and must not lie below it
        moves = [K.val_or_bound(_horner(rep, imgs, x) - x) for x in cut]
        i = min((v for v, _ in moves if v is not None), default=None)
        bound = min((b for v, b in moves if v is None), default=None)
        if i is None or bound is not None and bound < i:
            raise PrecisionError(
                f"sigma_({rep.a},{rep.b}) acts as 1 to precision: least "
                f"certified move {i}, a move zero to v >= {bound}")
        by_class.update(dict.fromkeys(cls, i))
    filt = RamificationFiltration(
        {sig: by_class[sig] for sig in _group(*shape) if not sig.is_identity},
        K, shape)
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
# irreducible characters, induced from linear ones, and conductors


@dataclass(frozen=True)
class Character:
    """Ind_H^G(theta), theta = psi_(p^k) lambda linear on H = N x| U_psi,
    U_psi = {a = 1 mod p^(s-k)} for N = Z/p^s (s = 0 on the bare field):
    theta(sigma_(a,b)) = p^k b / p^r + lambda(a) in Q/Z, and dim =
    [U : U_psi].  ``theta_nonzero`` holds (sigma, theta(sigma) != 0) for
    each sigma != 1 in H, all that the induction formula reads of theta
    (``artin_conductor``)."""
    dim: int
    k: int
    lam: types.MappingProxyType     # a in U_psi -> lambda(a) in [0, 1)
    label: str
    theta_nonzero: tuple = dataclasses.field(default=(), repr=False)

    def theta(self, sigma, p):
        """theta(sigma) in [0, 1), or None for sigma outside H."""
        lam = self.lam.get(sigma.a)
        if lam is None:
            return None
        return (Fraction(p ** self.k * sigma.b, sigma.modulus) + lam) % 1


def characters(filt):
    """The irreducible characters of Gal(K/Q_p), K = filt.field (Serre,
    Linear Representations of Finite Groups, 8.2 Prop. 25): for each
    orbit k = s, ..., 0 of U on the characters of N, that of psi_(p^k),
    one per distinct restriction lambda to U_psi of a character psi^t of
    U, which maps g_1^x_1 g_2^x_2 to sum t_j x_j / |g_j| on the cyclic
    factors g_j of ``_unit_group``.  Labels: psi^t at k = s (trivial on
    N), induced at k = 0 and induced^k psi^t between, t the least
    exponent with that restriction (t_1,t_2 when U has two factors).
    They depend on the group alone, so they are derived once per shape
    (p, r, s) and shared by every tower of that shape."""
    return _characters(*filt.shape)


@functools.lru_cache(maxsize=_SHAPES)
def _characters(p, r, s):
    """``characters`` of the group of shape (p, r, s), each with its
    theta_nonzero over ``_group(p, r, s)``."""
    elems = _group(p, r, s)
    factors, coords = _unit_group(p ** r, p), {1: ()}
    for gens in factors:
        coords = {a * g % p ** r: xs + (x,) for a, xs in coords.items()
                  for x, g in enumerate(gens)}
    chars = []
    for k in range(s, -1, -1):
        stab = sorted(a for a in coords if (a - 1) % p ** (s - k) == 0)
        restrictions = {}
        for t in itertools.product(*map(range, map(len, factors))):
            lam = tuple((a, sum(Fraction(tj * xj, len(g)) for tj, xj, g
                                in zip(t, coords[a], factors)) % 1)
                        for a in stab)
            restrictions.setdefault(lam, "psi^" + ",".join(map(str, t)))
        for lam, psi in restrictions.items():
            label = psi if k == s else "induced" if k == 0 else \
                f"induced^{k} {psi}"
            chi = Character(len(coords) // len(stab), k,
                            types.MappingProxyType(dict(lam)), label)
            chars.append(dataclasses.replace(chi, theta_nonzero=tuple(
                (sig, chi.theta(sig, p) != 0) for sig in elems
                if sig.a in chi.lam and not sig.is_identity)))
    return tuple(chars)


def artin_conductor(chi, filt):
    """Artin conductor exponent of chi = Ind_H^G(theta): v_p(d_K') +
    f(theta) for the fixed field K' = Q_p(zeta_(p^c)) of H, c = s - k,
    totally ramified with v_p(d_K') = c phi(p^c) - p^(c-1) (Serre, Local
    Fields, VI 2 Prop. 4), with f(theta) of the linear theta read off
    H_i = G_i cap H (IV 1 Prop. 2) by ``_linear_conductor``."""
    p, _, s = filt.shape
    c = s - chi.k
    ivals = filt.i_values
    return ((c * (p ** c - p ** (c - 1)) - p ** (c - 1) if c else 0)
            + _linear_conductor([(moved, ivals[sig])
                                 for sig, moved in chi.theta_nonzero]))


def _linear_conductor(ivals):
    """f(theta) = sum_(i=0..j) |H_i|/|H_0| for a linear theta on H, j the
    last i with theta nontrivial on H_i, from the (theta(sigma) != 0,
    i(sigma)) of the sigma != 1 in H: (J + sum of min(J, i(sigma))) /
    |H_0| with J = j + 1, summed in integers.  It must be an integer
    (Artin's theorem; Hasse-Arf when H is abelian)."""
    J = max((i for moved, i in ivals if moved), default=0)
    num = J + sum(min(J, i) for _, i in ivals)
    den = 1 + sum(i > 0 for _, i in ivals)
    if num % den:
        raise ArithmeticError(
            f"conductor is not an integer: {Fraction(num, den)} "
            "(filtration/character mismatch)")
    return num // den


def swan_conductor(chi, filt):
    """Swan conductor f(chi) - chi(1) when f(chi) > 0, that is chi is
    nontrivial on G_0 and so V^(G_0) = 0 (chi irreducible), else 0."""
    f = artin_conductor(chi, filt)
    return f - chi.dim if f else 0


def wild_subgroup_conductor(filt):
    """The conductor exponent over Q_p(zeta_(p^r)) of a faithful character
    psi of N = Gal(K/Q_p(zeta_(p^r))) = Z/p^s, the orbit k = 0 of
    ``characters`` restricted to N: f(psi) = sum |N_i|/|N_0| over the i
    with N_i = N cap G_i nontrivial (``_linear_conductor``).  At s = r it
    is f(induced) - v_p(d) of Q_p(zeta_(p^r)): 12 = 21 - 9 on
    Q_3(zeta_9, 3^(1/9)), and 6 = 15 - 9 on Q_3(zeta_9, 4^(1/9)), where
    the count of i with N_i nontrivial is 24 and 14.  At s = 1 every
    nontrivial N_i is N_0, so f(psi) is that count, the largest i(sigma)
    over N, and a difference raises."""
    ivals = [i for sig, i in filt.i_values.items()
             if sig.a % sig.modulus == 1]
    f = _linear_conductor([(True, i) for i in ivals])
    if filt.shape[2] == 1 and f != max(ivals):
        raise ArithmeticError(f"wild conductor {f} != largest i(sigma) "
                              f"{max(ivals)} over N of order p")
    return f


def conductor_discriminant_check(K):
    """Exact conductor-discriminant identity sum chi(1) f(chi) = v_p(disc)
    on every tower ``galois_group`` accepts, through one filtration and
    the induced characters (the bare Q_p(zeta_(p^r)) is s = 0).

    Returns a report with both sides, the per-character Artin and Swan
    conductors and the lower and upper breaks; a mismatch raises.
    """
    filt = ramification_filtration(K)
    chars = characters(filt)
    if sum(chi.dim ** 2 for chi in chars) != K.n:
        raise ArithmeticError("irreducible characters: sum of dim^2 != |G|")
    conductors = {chi.label: artin_conductor(chi, filt) for chi in chars}
    # each Swan conductor read off its Artin one, as ``swan_conductor`` does
    swan = {chi.label: f - chi.dim if f else 0
            for chi, f in zip(chars, conductors.values())}
    lhs = sum(chi.dim * conductors[chi.label] for chi in chars)
    rhs = discriminant_valuation(K)
    report = {
        "field": K.name,
        "sum_dim_times_conductor": lhs,
        "disc_valuation": rhs,
        "match": lhs == rhs,
        "conductors": conductors,
        "swan": swan,
        "filtration_breaks": filt.breaks,
        "upper_numbering_breaks": [str(b) for b in
                                   upper_numbering_breaks(filt)],
        "wild_char_conductor_over_cyclotomic": wild_subgroup_conductor(filt),
    }
    if not report["match"]:
        raise ArithmeticError(
            f"conductor-discriminant identity failed: {lhs} != {rhs}")
    return report
