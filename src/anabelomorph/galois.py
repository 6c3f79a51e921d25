"""Galois action on Kummer-over-cyclotomic towers and conductor arithmetic.

For K = Q_p(zeta_{p^r}, a^{1/p^r}) with rational radicand the group is the
semidirect product Z/p^r x| (Z/p^r)^*, acting by

    sigma_{a,b}:  zeta -> zeta^a,   theta -> zeta^b theta.

The lower-numbering ramification filtration is computed from
i(sigma) = v_K(sigma(pi) - pi) with the certified uniformizer (and, when
f > 1, the least v_K(sigma(c) - c) over the frame deltas c of the
unramified layers, which generate O_K with pi), and Artin
conductors of characters are exact rational computations over a small
cyclotomic coefficient field (never floating point).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import FieldElement, FieldError


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
                    row = [Fraction(0)] * deg
                    # zeta^t = zeta^(t-deg) * zeta^deg; zeta^deg = -lower part
                    prev = rep[t - 1]
                    # multiply prev by zeta
                    shifted = [Fraction(0)] + list(prev[:-1])
                    top = prev[-1]
                    if top:
                        for j in range(deg):
                            shifted[j] -= top * phi_poly[j]
                    row = shifted
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


def _kummer_shape(K):
    """(cyclo_field, modulus p^r, kummer step) for the supported shape."""
    steps = K.user_steps
    if (len(steps) != 2 or steps[0].kind != "cyclotomic"
            or steps[1].kind != "kummer"
            or steps[0].modulus != steps[1].exponent):
        raise NonGaloisTowerError(
            "galois action requires the shape cyclotomic(p^r) + kummer(p^r, a)")
    return steps[0].modulus, steps[1]


def galois_group(K):
    """All automorphisms of K = Q_p(zeta_{p^r}, a^{1/p^r}) over Q_p."""
    m, kstep = _kummer_shape(K)
    p = K.p
    rad = kstep.radicand
    if not isinstance(rad, (int, Fraction)):
        # a zeta-polynomial radicand is generally moved by zeta -> zeta^a
        raise NonGaloisTowerError(
            "tower is not certified Galois over Q_p: radicand is not rational")
    elems = [GaloisElement(a, b, m)
             for a in range(1, m) if a % p
             for b in range(m)]
    if len(elems) != K.n:
        raise NonGaloisTowerError("group order does not match field degree")
    return elems


def apply_automorphism(sigma, x):
    """Image of x under sigma (a ring homomorphism of the tower)."""
    return _combine(_sigma_images(x.field, sigma), x, x.field)


def _sigma_images(K, sigma):
    """sigma-images of all internal basis monomials, cached per sigma."""
    cache = getattr(K, "_sigma_cache", None)
    if cache is None:
        cache = K._sigma_cache = {}
    key = (sigma.a % sigma.modulus, sigma.b % sigma.modulus)
    imgs = cache.get(key)
    if imgs is not None:
        return imgs

    chain = []
    fld = K
    while fld.base is not None:
        chain.append(fld)
        fld = fld.base
    chain.reverse()
    cyclo = chain[0]
    if cyclo.kind != "cyclo":
        raise NonGaloisTowerError("tower does not start with a cyclotomic layer")
    for fld in chain[1:]:
        if fld.kind != "kummer":
            raise NonGaloisTowerError("galois action supports kummer towers only")
    s = len(chain) - 1

    # basis images of the cyclotomic block
    imgs = [K.from_zeta_poly({l * sigma.a: 1}) for l in range(cyclo.d)]

    for t, fld in enumerate(chain[1:], start=1):
        base = fld.base
        k_strip, t_scale = fld.gen_shift
        gen_img = (K.from_zeta_poly({sigma.b * K.p ** (s - t): 1})
                   * K.embed(fld.gen()))
        if k_strip:
            pi_b = base.pi
            # sigma(pi_b) via the images of the base basis already computed
            sig_pi = _combine(imgs[:base.n], pi_b, K)
            ratio = (K.embed(pi_b) * sig_pi.inv()) ** k_strip
            gen_img = gen_img * ratio
        pows = [K.one()]
        for _ in range(fld.d - 1):
            pows.append((pows[-1] * gen_img)._normalized())
        new_imgs = list(imgs)
        for hi in range(1, fld.d):
            for lo in range(base.n):
                new_imgs.append((imgs[lo] * pows[hi])._normalized())
        imgs = new_imgs
    if len(imgs) != K.n:
        raise FieldError("sigma image count mismatch")
    cache[key] = imgs
    return imgs


def _combine(base_imgs, x, K):
    """sigma(x) in K from the sigma-images of the basis of x's field."""
    acc = None
    for j, c in enumerate(x.vec):
        if c:
            term = base_imgs[j].scaled(c)
            acc = term if acc is None else acc + term
    if acc is None:
        return K.zero()
    if x.s:
        acc = FieldElement(K, acc.vec, acc.s + x.s, acc.m)._normalized()
    return acc


# ----------------------------------------------------------------------
# ramification filtration (lower numbering)


@dataclass
class RamificationFiltration:
    """G_i = {sigma : v_K(sigma(pi) - pi) >= i + 1} in lower numbering."""
    groups: list          # [(i, tuple of GaloisElement)] until trivial
    i_values: dict        # sigma -> i(sigma) = v(sigma pi - pi); identity absent
    field: object

    @property
    def breaks(self):
        out = []
        for idx in range(len(self.groups) - 1):
            if len(self.groups[idx][1]) != len(self.groups[idx + 1][1]):
                out.append(self.groups[idx][0])
        if self.groups and len(self.groups[-1][1]) > 1:
            out.append(self.groups[-1][0])
        return out

    def order_at(self, i):
        for j, grp in self.groups:
            if j == i:
                return len(grp)
        return 1 if i > self.groups[-1][0] else len(self.groups[0][1])


def ramification_filtration(K, pi=None):
    """Lower-numbering filtration of Gal(K/Q_p) for the Kummer shape."""
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
    ivals = {}
    for sig in elems:
        if sig.is_identity:
            continue
        i = (apply_automorphism(sig, pi) - pi).valuation()
        for c in rhos:
            dc = apply_automorphism(sig, c) - c
            if not K.val_at_least(dc, i):
                i = dc.valuation()
        ivals[sig] = i
    imax = max(ivals.values())
    groups = []
    for i in range(imax + 1):
        members = tuple(s for s in elems
                        if s.is_identity or ivals[s] >= i + 1)
        groups.append((i, members))
        if len(members) == 1:
            break
    filt = RamificationFiltration(groups, ivals, K)
    # sanity: G_0 is everything for a totally ramified extension
    if K.f == 1 and len(groups[0][1]) != len(elems):
        raise FieldError("G_0 is not the full group for a totally ramified field")
    return filt


def different_from_filtration(filt):
    """Sum over i of (|G_i| - 1): cross-check for the different."""
    total = 0
    i = 0
    while True:
        size = filt.order_at(i)
        if size <= 1:
            break
        total += size - 1
        i += 1
    return total


def upper_numbering_breaks(filt):
    """Images of the lower breaks under the Herbrand function
    phi(u) = sum_{i<=u} |G_i|/|G_0| (piecewise linear), as exact
    fractions.  Derived report only; conductor formulas consume the
    lower numbering directly."""
    g0 = filt.order_at(0)
    out = []
    for b in filt.breaks:
        acc = Fraction(0)
        for i in range(1, b + 1):
            acc += Fraction(filt.order_at(i), g0)
        out.append(acc)
    return out


# ----------------------------------------------------------------------
# characters of Z/p x| (Z/p)^* and conductors


@dataclass
class Character:
    """Character values per conjugacy class, in Q(zeta_{p-1})."""
    p: int
    dim: int
    values: dict     # class label -> CycRat
    label: str

    def value(self, sigma):
        return self.values[conjugacy_class(sigma, self.p)]


def conjugacy_class(sigma, p):
    a = sigma.a % p
    b = sigma.b % p
    if a == 1:
        return "id" if b == 0 else "tau"
    return f"s{a}"


def character_table(p, r=1):
    """Exact character table of Z/p x| (Z/p)^* (the r = 1 Galois group).

    p - 1 linear characters through (Z/p)^* plus one irreducible of
    dimension p - 1.
    """
    if r != 1:
        raise NotImplementedError("character tables are built for r = 1 only")
    m = p - 1
    # discrete log table for (Z/p)^*
    gen = _primitive_root(p)
    dlog = {}
    v = 1
    for k in range(p - 1):
        dlog[v] = k
        v = v * gen % p
    classes = ["id", "tau"] + [f"s{a}" for a in range(2, p)]
    chars = []
    for k in range(p - 1):
        vals = {}
        for cl in classes:
            a = 1 if cl in ("id", "tau") else int(cl[1:])
            vals[cl] = CycRat.zeta_power(m, k * dlog[a])
        chars.append(Character(p, 1, vals, f"psi^{k}"))
    big = {"id": CycRat.rational(m, p - 1), "tau": CycRat.rational(m, -1)}
    for a in range(2, p):
        big[f"s{a}"] = CycRat.rational(m, 0)
    chars.append(Character(p, p - 1, big, "induced"))
    _check_orthogonality(chars, p)
    return chars


def _primitive_root(p):
    for g in range(2, p):
        seen, v = set(), 1
        for _ in range(p - 1):
            v = v * g % p
            seen.add(v)
        if len(seen) == p - 1:
            return g
    raise ArithmeticError(f"no primitive root mod {p}")


def _class_sizes(p):
    sizes = {"id": 1, "tau": p - 1}
    for a in range(2, p):
        sizes[f"s{a}"] = p
    return sizes


def _check_orthogonality(chars, p):
    sizes = _class_sizes(p)
    order = p * (p - 1)
    m = p - 1
    assert sum(c.dim ** 2 for c in chars) == order, "sum of dim^2 != |G|"
    for i, ci in enumerate(chars):
        for j, cj in enumerate(chars):
            acc = CycRat.rational(m, 0)
            for cl, sz in sizes.items():
                acc = acc + ci.values[cl] * cj.values[cl].conj() * sz
            want = Fraction(order if i == j else 0)
            if acc.as_rational() != want:
                raise ArithmeticError("character orthogonality failed")


def artin_conductor(chi, filt):
    """Artin conductor exponent f(chi) = sum |G_i|/|G_0| (chi(1) - avg_i chi)."""
    p = chi.p
    g0 = filt.order_at(0)
    total = Fraction(0)
    i = 0
    while True:
        size = filt.order_at(i)
        if size <= 1 and i > 0:
            break
        members = _members_at(filt, i)
        m = p - 1
        acc = CycRat.rational(m, 0)
        for sig in members:
            acc = acc + chi.value(sig)
        avg = acc.as_rational() / size
        total += Fraction(size, g0) * (chi.dim - avg)
        i += 1
    if total.denominator != 1:
        raise ArithmeticError(
            f"conductor is not an integer: {total} (filtration/character mismatch)")
    return int(total)


def _members_at(filt, i):
    for j, grp in filt.groups:
        if j == i:
            return grp
    return filt.groups[-1][1] if i <= filt.groups[-1][0] else \
        (next(s for s in filt.groups[0][1] if s.is_identity),)


def swan_conductor(chi, filt):
    """Swan = Artin - (chi(1) - dim of the inertia invariants)."""
    members = _members_at(filt, 0)
    m = chi.p - 1
    acc = CycRat.rational(m, 0)
    for sig in members:
        acc = acc + chi.value(sig)
    fixed_dim = acc.as_rational() / len(members)
    if fixed_dim.denominator != 1:
        raise ArithmeticError("invariant dimension is not an integer")
    art = artin_conductor(chi, filt)
    return art - (chi.dim - int(fixed_dim))


def wild_subgroup_conductor(filt):
    """Conductor exponent, over the cyclotomic subfield, of a faithful
    character of the wild part Z/p: the number of indices i with the
    wild subgroup H_i nontrivial (the full-sum average vanishes there)."""
    count = 0
    i = 0
    while True:
        wild = [s for s in _members_at(filt, i)
                if s.a % s.modulus == 1 and not s.is_identity]
        if not wild:
            break
        count += 1
        i += 1
        if i > 100000:
            raise ArithmeticError("filtration did not terminate")
    return count


def conductor_discriminant_check(K):
    """Exact conductor-discriminant identity for the r = 1 Kummer shape
    (and the bare cyclotomic field, where every nontrivial character of
    the cyclic tame group has conductor one).

    Returns a report with both sides and the per-character conductors.
    """
    from .fields import discriminant_valuation
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
    if len(steps) == 1 and steps[0].kind == "cyclotomic" \
            and steps[0].modulus == p:
        lhs = p - 2          # p - 2 nontrivial tame characters, each f = 1
        rhs = discriminant_valuation(K)
        report = {
            "field": K.name,
            "sum_dim_times_conductor": lhs,
            "disc_valuation": rhs,
            "match": lhs == rhs,
            "conductors": {"trivial": 0,
                           **{f"tame^{k}": 1 for k in range(1, p - 1)}},
            "swan": {"trivial": 0, **{f"tame^{k}": 0 for k in range(1, p - 1)}},
            "filtration_breaks": [0],
            "wild_char_conductor_over_cyclotomic": 0,
        }
        if not report["match"]:
            raise ArithmeticError("conductor-discriminant identity failed")
        return report
    filt = ramification_filtration(K)
    chars = character_table(p)
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
