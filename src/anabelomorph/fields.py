"""Finite extension towers of Q_p with exact truncated arithmetic.

A tower is a chain of fields, each one layer over its base:

  * ``cyclotomic``  -- Q_p(zeta_{p^r}) over Q_p (always the first layer),
  * ``kummer``      -- degree-p cyclic layer x^p = radicand, with zeta_p
                       in the base (a user step of exponent p^s becomes s
                       such layers),
  * ``custom``      -- monic polynomial layer, certified by its Newton
                       polygon (totally ramified case only), or at
                       degree 2, over a base of odd residue
                       characteristic, by its discriminant (ramified or
                       unramified).

``K.layers`` is the tuple of the layers from Q_p up to K, which every walk
of the tower reads.  The cyclotomic layer is built and certified once per
process for each key (p, p^r, working digits), the 64 most recently used
kept (``_cyclotomic``), and shared by every tower over it, so an element
of it embeds into each of them; every Kummer and custom layer is built
and certified on every call.

Elements are flat coefficient vectors over Z/p^m together with a power
of p in the denominator, so all ring operations are big-integer work.
All three relative layer kinds are stored as their monic relation over
the base and multiply through one kernel, which over Q_p folds one
integer convolution by the relation, and over any other base skips the
zero blocks of sparse operands.  Dense operands over such a base take
one packed integer product (Kronecker substitution) while p^m is at
most d^_PACKED_EXPONENT for the layer's degree d over its base, as in
Tate's algorithm and the p-adic log, and the packed product at most
_PACKED_PRODUCT_BITS bits, and otherwise convolve d blocks with d(d+1)/2
base products (one-level Karatsuba), which may pack in turn.  The top
blocks of a product fold down by the relation.  When every relation of
the tower up to the layer is monomial, an integer times one basis
monomial of its base (``folds``), the fold is an integer index table
that serves every modulus and makes no product, and a packed product is
read back through one such table; a relation with a dense constant
folds by base products.
The integer convolution is a recursive Karatsuba when both operands are
dense and p^m is at least _KARATSUBA_BITS wide (the degree-500 towers'
base at M = 788), and a zero-skipping schoolbook otherwise.  Norms are
computed level by level.  The automorphism group of each cyclotomic or
Kummer layer is cyclic, or a product of two cyclic groups, and a
conjugate costs a permutation or block products by roots of unity
rather than a layer product, so the product of the conjugates, whose
product with the element is the resultant of the layer relation against
it, is built by doubling over each cyclic factor in O(log d) layer
products; a custom layer's comes from the characteristic polynomial of
multiplication by the element.

Every layer is certified at construction time (Eisenstein/Newton polygon
data, or the unit-peeling classification of x^p = u, which reads each
correction of its adjuster A off the residue of the defect u - A^p in
F_q and shifts A by a frame monomial), which gives it a valuation frame:
gen = gamma delta + beta with beta, gamma in the base and w = v_K(delta)
known, so that v_K(sum y_k delta^k) = min_k (e_{K/B} v_B(y_k) + k w).
One call, ``LocalField._certify``, takes every layer kind's frame and
derives the rest from it: the uniformizer, pi_B when the layer is
unramified and delta^x B.monomial(y) with xw + yd = 1 when ramified, and
the layer's contribution to the different, 0 when unramified and
v_K(f'(gen)) - (d - 1)(w - 1) for the layer relation f when ramified.
``monomial(v)`` is an element of valuation v made of nonnegative powers
of the frame deltas over a power of p, so building a uniformizer, a
Kummer normalizer c or a unit peel inverts no power of pi.  c^-1 and the
user step generators are made on first read: a build inverts only the
normalizers of the layers whose user generator is a later radicand.
Valuations are read off the frames layer by layer, never from a norm
(a layer over Q_p shifts and reads its integer coordinates in its own
walk).  A ramified frame is gen = delta + beta, and the layer relation
f(x) = x^d - sum r_i x^i answers two questions about delta in the base:
its layer norm, the resultant N_{K/B}(gen - beta) = (-1)^d f(beta), which
certifies v(delta) before the frame exists, and delta^d = (gen - beta)^d
mod f, whose block i is C(d, i)(-beta)^(d-i) + r_i, for the residue
constants and the powers monomial(v)^k = delta^(ak) B.monomial(b)^k of
frame monomials (``monomial_power``).  The same walk reads the residue of
x / pi^v(x) off the least frame term, in the residue field F_q as
coordinate tuples over F_p (``residue_at``), and ``lift`` turns such a
tuple into a representative in K on demand.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from . import folds
from .padic import PadicScalar, PrecisionError, is_prime, _vp

DEFAULT_DIGITS = 64
_GUARD_DIGITS = 96
_MIN_EFFECTIVE = 12
# the largest tower degree build_field accepts, checked from the steps
# before any work.  The slowest admitted tower measured, Q_2(zeta_64,
# 3^(1/64)) of degree 2048, builds in 5.5 s of CPU (tools/big_builds.py
# -n 1), and Q_7(zeta_49, 7^(1/49)), degree 2058, in 0.5 s; the next
# larger Kummer tower, Q_3(zeta_81, 3^(1/81)) of degree 4374, takes
# 101-125 s (three runs; CPython 3.11.7, shared 2-core x86), more than
# one call should, so larger is out of scope
DEGREE_BUDGET = 2500
_KARATSUBA_BITS = 1000     # integer path: Karatsuba from this width of p^m
_KARATSUBA_LEAF = 6        # ... and one-level products up to this length
# a layer of degree d over a base that is not Q_p multiplies dense
# operands by one packed integer product (LocalField._packed) while p^m is
# at most d^_PACKED_EXPONENT and the packed product has at most
# _PACKED_PRODUCT_BITS bits; a layer whose packed product would be larger
# convolves its blocks and its base products pack in turn.  Speed of a
# dense product against the layered kernel, min of 25 rounds interleaved
# over the whole table (CPython 3.11, 2-core x86), by the bits of p^m, on
# the top layer of Q_p(zeta_(p^r), a^(1/p^r)) as (p, r) rad a, then on
# layers below the top (by their degree n over Q_p) and on the custom
# layers off d = p: x^3 = 2 over Q_2(i), x^3 = 5 over Q_5(zeta_5), and of
# degree 2, x^2 = 2 over Q_3(zeta_3) ('quad p=3') and x^2 = 3 over
# Q_7(zeta_7) ('quad p=7'); with the layer's degree d over its base and
# the slots of a whole packed product; * marks the widths the gate packs
# (python3 tools/kernel_table.py --rounds 25 prints the table):
#
#   tower          n  d  slots    32    48    64    72    80    96   112   128   144   160   176   192   208 bits
#   (3,2) rad 3   54  3    275 1.59* 1.50* 1.42* 1.33* 1.28* 1.29* 1.14* 1.09  1.00  0.96  0.93  0.94  0.92
#   (3,2) rad 4   54  3    275 2.78* 2.20* 2.00* 1.77* 1.70* 1.57* 1.29* 1.21  1.06  1.00  0.93  0.99  0.92
#   (5,1) rad 6   20  5     63 2.56* 2.43* 2.26* 2.13* 2.03* 1.92* 1.64* 1.59* 1.51* 1.45* 1.41  1.36  1.21
#   (7,1) rad 8   42  7    143 3.60* 2.99* 2.86* 2.59* 2.35* 2.24* 1.99* 1.94* 1.72* 1.65* 1.41* 1.36* 1.25*
#   (2,3) rad 3   32  2    189 2.63* 2.27* 2.07* 1.77* 1.60  1.53  1.36  1.25  1.10  1.03  0.91  0.90  0.82
#   (3,3) rad 3  486  3   4375 1.66* 1.53* 1.43* 1.35* 1.32* 1.29* 1.22* 1.18  1.19  1.13  1.07  1.06  1.05
#   (2,4) rad 3  128  2   1215 1.92* 1.74* 1.56* 1.37* 1.27  1.15  0.99  1.10  0.98  0.97  0.87  0.81  0.78
#   (2,5) rad 3  512  2   7533 2.05* 1.62* 1.70* 1.54* 1.42  1.38  1.14  1.11  1.02  0.97  0.97  1.01  0.93
#   (3,1) rad 3    6  3     15 1.91* 1.86* 1.85* 1.71* 1.63* 1.69* 1.61* 1.54  1.44  1.42  1.39  1.33  1.28
#   (2,2) rad 2    8  2     27 1.51* 1.43* 1.35* 1.34* 1.30  1.32  1.25  1.23  1.16  1.15  1.10  1.10  1.02
#   (7,1) rad 7   42  7    143 3.49* 2.99* 2.73* 2.54* 2.43* 2.18* 1.88* 1.90* 1.67* 1.62* 1.45* 1.35* 1.21*
#   (2,2) rad 2    4  2      9 1.39* 1.41* 1.38* 1.34* 1.32  1.30  1.28  1.20  1.19  1.17  1.10  1.08  1.04
#   (2,3) rad 3    8  2     21 1.34* 1.26* 1.28* 1.20* 1.12  1.10  1.06  1.03  0.97  0.98  0.91  0.88  0.86
#   (3,2) rad 3   18  3     55 1.34* 1.26* 1.27* 1.16* 1.16* 1.11* 1.03* 1.00  0.94  0.96  0.90  0.89  0.85
#   custom p=2     6  3     15 2.01* 1.90* 1.84* 1.80* 1.74* 1.68* 1.63* 1.55  1.45  1.47  1.40  1.34  1.27
#   custom p=5    12  3     35 1.79* 1.66* 1.63* 1.50* 1.51* 1.41* 1.28* 1.30  1.18  1.21  1.09  1.11  1.02
#   quad p=3       4  2      9 1.44* 1.38* 1.36* 1.40* 1.30  1.38  1.23  1.22  1.18  1.14  1.13  1.07  1.04
#   quad p=7      12  2     33 1.49* 1.40* 1.38* 1.27* 1.24  1.20  1.10  1.12  1.04  1.00  0.95  0.95  0.88
#
# Both ways fold a monomial relation by its table (folds); the rows of
# (3,2) rad 3 and (3,3) rad 3 and the top layer of (2,2) rad 2 have a
# dense relation constant, here or below, and fold by products.  Where
# the gate packs, the eleven top Kummer rows (d = p) read 1.14-3.60x and
# the seven rows below the top and off d = p 1.03-2.01x, the degree-2
# layers right over a layer over Q_p of degree 2 or 4 (the n = 4 layer of
# (2,2), the n = 8 layer of (2,3), quad p=3) 1.20-1.44x.  The gate is
# p^m <= d^74, that is m <= 74 digits on a Kummer layer: 74 bits at d = 2,
# and 117, 172 and 208 bits at d = 3, 5 and 7.  It packs every product of
# Tate's algorithm (at most 29 bits) and the p-adic log's cut products
# (29-72 bits at p = 2, 58-116 at p = 3, 98-114 at p = 5, 127-149 at
# p = 7), which need an exponent of at least 73.  The top rows stay at
# 0.97x or more to 160 bits at p = 2 and 144 bits at p = 3, and the p = 5
# and 7 ones to 208 bits, so a wider gate would not lose there, but no
# workload makes such products.  The tall towers pass the product cap,
# (3,3) and (2,5) from 32 bits and (2,4) from 48 (136 000 bits).  Packed
# whole, as without the cap, the tall p = 2 ones lose from 48 bits, fold
# tables and all ((2,4) at 0.82x and 0.80x of the capped product's speed
# at 48 and 64 bits, (2,5) at 0.58x and 0.44x; (3,3) 0.95-1.01x), as
# their degree-2 Kummer layers multiply cheaply layer by layer while the
# slots grow by 3/2 a layer, and CPython multiplies megabit integers in
# O(N^1.58).
_PACKED_EXPONENT = 74
_PACKED_PRODUCT_BITS = 100_000


class FieldError(ArithmeticError):
    pass


class DegreeDropError(FieldError):
    """The radicand is a p-th power in the base: the step is reducible."""


class CertificationError(FieldError):
    """Irreducibility / ramification of a step could not be certified."""


class UniformizerSearchError(FieldError):
    pass


# ----------------------------------------------------------------------
# steps (user-facing tower description)


@dataclass(frozen=True)
class TowerStep:
    kind: str                      # cyclotomic | kummer | custom
    modulus: int = 0               # cyclotomic: p^r
    exponent: int = 0              # kummer: p^s
    radicand: object = None        # kummer: int, Fraction, zeta-poly dict, FieldElement
    coeffs: tuple = ()             # custom: monic poly, low degree first, no leading 1

    @staticmethod
    def cyclotomic(modulus):
        return TowerStep("cyclotomic", modulus=modulus)

    @staticmethod
    def kummer(exponent, radicand):
        return TowerStep("kummer", exponent=exponent, radicand=radicand)

    @staticmethod
    def custom(coeffs):
        return TowerStep("custom", coeffs=tuple(coeffs))


# ----------------------------------------------------------------------
# elements


class FieldElement:
    """Element of a LocalField: (vec / p^s) in the internal power basis.

    ``exact`` marks values built from integers through ring operations
    only, whose true coefficients are small enough that an all-zero
    vector certifies the exact zero (used to reject singular models).
    """

    __slots__ = ("field", "vec", "s", "m", "_val", "_res", "exact")

    def __init__(self, field, vec, s=0, m=None, exact=False):
        self.field = field
        self.vec = vec if isinstance(vec, tuple) else tuple(vec)
        self.s = s
        self.m = field.M if m is None else m
        self._val = None
        self._res = None        # residue of self / pi^v, read with _val
        self.exact = exact
        if self.m - self.s < _MIN_EFFECTIVE:
            raise PrecisionError(
                f"element effective precision {self.m - self.s} digits; "
                "raise the working precision")

    # -- ring structure ------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise FieldError("elements of different fields")
            return other
        if isinstance(other, int):
            return self.field.from_int(other)
        if isinstance(other, Fraction):
            return self.field.from_fraction(other)
        raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")

    def __add__(self, other):
        other = self._coerce(other)
        F = self.field
        s = max(self.s, other.s)
        m = min(self.m + s - self.s, other.m + s - other.s, F.M)
        pm = F.p ** m
        f1 = F.p ** (s - self.s)
        f2 = F.p ** (s - other.s)
        vec = tuple((a * f1 + b * f2) % pm for a, b in zip(self.vec, other.vec))
        return FieldElement(F, vec, s, m,
                            exact=self.exact and other.exact)._normalized()

    __radd__ = __add__

    def __neg__(self):
        pm = self.field.p ** self.m
        return FieldElement(self.field, tuple(-a % pm for a in self.vec),
                            self.s, self.m, exact=self.exact)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        F = self.field
        # the error sits on the numerators' power-basis coordinates, which
        # v_K does not bound when that order is not maximal: the product is
        # known to the smaller modulus, whatever valuation is cached
        m = min(self.m, other.m)
        vec = F._mul_mod(self.vec, other.vec, F.p ** m)
        out = FieldElement(F, vec, self.s + other.s, m,
                           exact=self.exact and other.exact)
        if (self._val is not None and other._val is not None
                and self._val[0] is not None and other._val[0] is not None):
            out._val = (self._val[0] + other._val[0], None)
            if self._res is not None and other._res is not None:
                out._res = F.residue_field.mul(self._res, other._res)
        return out._normalized() if out.s else out

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        if not k:
            return self.field.one()
        base = self
        while not k & 1:
            base = base * base
            k >>= 1
        out = base
        while k > 1:
            k >>= 1
            base = base * base
            if k & 1:
                out = out * base
        return out

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inv()

    def inv(self):
        return self.field.invert(self)

    def scaled(self, c):
        """Cheap multiplication by a plain integer (no convolution)."""
        pm = self.field.p ** self.m
        out = FieldElement(self.field, tuple(a * c % pm for a in self.vec),
                           self.s, self.m, exact=self.exact)
        return out

    def capped(self, digits):
        """self with its numerator cut to ``digits`` digits above p^s.
        The cut moves x by an error of v_K >= floor = e (m' - s), so a
        cached valuation below the floor, and its residue, still hold,
        and a cached lower bound holds up to the floor."""
        m = min(self.m, self.s + digits)
        if m == self.m:
            return self
        pm = self.field.p ** m
        out = FieldElement(self.field, tuple(a % pm for a in self.vec),
                           self.s, m)
        if self._val is not None:
            v, bound = self._val
            floor = self.field.e * (m - self.s)
            if v is None:
                out._val = (None, min(bound, floor))
            elif v < floor:
                out._val, out._res = self._val, self._res
        return out

    def _normalized(self):
        vec, s, m = _strip(self.vec, self.s, self.m, self.field.p, self.s)
        if s == self.s:
            return self
        out = FieldElement(self.field, vec, s, m, exact=self.exact)
        out._val, out._res = self._val, self._res
        return out

    # -- queries ---------------------------------------------------------

    def valuation(self):
        """Normalized valuation v_K (v_K(uniformizer) = 1)."""
        v, bound = self.field.val_or_bound(self)
        if v is None:
            raise PrecisionError(
                f"valuation undetermined: zero to precision (>= {bound})")
        return v

    def val_or_bound(self):
        return self.field.val_or_bound(self)

    def is_zero_to_precision(self):
        v, _ = self.field.val_or_bound(self)
        return v is None

    def residue(self):
        return self.field.residue(self)

    def coefficients(self):
        """Nested coefficient view: one PadicScalar list per tower layer."""
        return self.field.nested_coefficients(self)

    def __repr__(self):
        name = self.field.name
        try:
            v, bound = self.field.val_or_bound(self)
            vs = f"v={v}" if v is not None else f"v>={bound}"
        except Exception:
            vs = "v=?"
        return f"<{name} element {vs}>"


# ----------------------------------------------------------------------
# residue fields


class ResidueField:
    """The residue field F_q of a layer, q = p^f; elements are flat
    coordinate tuples over F_p.

    ``ResidueField(p)`` is F_p.  An unramified layer of degree d over a
    base with residue field F gives F[rho]/(rho^d - sum_k rel_k rho^k),
    rel read off the layer's frame: an element is d blocks of
    F-coordinates, block k the coefficient of rho^k.  A ramified layer
    keeps its base's residue field.
    """

    def __init__(self, p, base=None, rel=None):
        self.p = p
        self.base = base
        if base is None:
            self.f, self.d = 1, 1
        else:
            b = base.f
            self.d = len(rel) // b
            self.f = b * self.d
            self.rel = [rel[k * b:(k + 1) * b] for k in range(self.d)]
        self.q = p ** self.f
        self.zero = (0,) * self.f
        self.one = (1,) + (0,) * (self.f - 1)

    @property
    def elements(self):
        """F_q, enumerated lazily and lexicographically (the base's
        elements over an unramified layer's d blocks, flattened, come in
        the same order); needs only (p, f), so it reads no frame."""
        return itertools.product(range(self.p), repeat=self.f)

    def add(self, x, y):
        p = self.p
        return tuple((a + c) % p for a, c in zip(x, y))

    def scale(self, x, n):
        """n x for an integer n."""
        p = self.p
        return tuple(a * n % p for a in x)

    def mul(self, x, y):
        if self.base is None:
            return (x[0] * y[0] % self.p,)
        B, d = self.base, self.d
        b = B.f
        conv = [B.zero] * (2 * d - 1)
        for i in range(d):
            xi = x[i * b:(i + 1) * b]
            if any(xi):
                for j in range(d):
                    conv[i + j] = B.add(conv[i + j],
                                        B.mul(xi, y[j * b:(j + 1) * b]))
        # from the top down: rho^(d+t) -> sum rel_k rho^(k+t)
        for t in range(2 * d - 2, d - 1, -1):
            if any(conv[t]):
                for k, rk in enumerate(self.rel):
                    conv[t - d + k] = B.add(conv[t - d + k],
                                            B.mul(conv[t], rk))
        return sum(conv[:d], ())

    def pow(self, x, n):
        """x^n; a negative n inverts through x^(q-2)."""
        if self.base is None:
            return (pow(x[0], n, self.p),)
        if n < 0:
            x, n = self.pow(x, self.q - 2), -n
        out = self.one
        while n:
            if n & 1:
                out = self.mul(out, x)
            x = self.mul(x, x)
            n >>= 1
        return out


# ----------------------------------------------------------------------
# fields


class LocalField:
    """One layer of a tower: built over ``base`` (None means Q_p itself).

    Instances are immutable after construction and safe to share; the
    residue field and constants are set up on the first residue read.
    Every lazy cache (residue constants, pi and delta powers made by
    halving, monomials, fold tables) is a function of its key alone, so a
    shared layer reads the same to every tower over it.
    """

    def __init__(self, p, base, kind, degree, M, name):
        self.p = p
        self.base = base
        self.kind = kind                # qp | cyclo | kummer | custom
        self.d = degree                 # layer degree over the base
        self.n = degree * (base.n if base else 1)
        self.M = M
        self.pM = p ** M
        self.name = name
        # the layers of the tower from Q_p up to this one, this one last
        self.layers = (*base.layers, self) if base else (self,)
        self.e = base.e if base else 1  # a layer's e, f: see _certify
        self.f = base.f if base else 1
        self.different_val = 0
        self.layer_diff = 0
        self.certificate = ""
        self.user_steps = []
        self._step_layers = []          # the layer of each user step
        self.frame = None               # set once the layer is certified
        self._residue_field = None      # F_q, see residue_field
        self._rconst = None             # ramified: (c1, [c2^k]), see _val
        self.delta = None               # the frame's delta, see _certify
        self._packing = None            # see _init_packing
        self._pi_pows = {}
        self._delta_pows = {}           # a -> delta^a, see _delta_pow
        self._beta_pows = None          # see _beta_powers
        self._monomials = {}            # v -> monomial(v)
        self._monomial_rinv = {}        # v -> res(monomial(v)/pi^v)^-1

    # -- constructors of elements ---------------------------------------

    def zero(self):
        return FieldElement(self, (0,) * self.n, 0, self.M)

    def one(self):
        return self.from_int(1)

    def from_int(self, a):
        vec = [0] * self.n
        vec[0] = a % self.pM
        return FieldElement(self, vec, 0, self.M, exact=True)

    def from_fraction(self, q):
        q = Fraction(q)
        t = _vp(q.denominator, self.p) if q.denominator != 1 else 0
        den = q.denominator // self.p ** t
        num = q.numerator * pow(den, -1, self.pM) % self.pM
        vec = [0] * self.n
        vec[0] = num
        return FieldElement(self, vec, t, self.M)

    def embed(self, x):
        """Lift an element of a field below this one in the tower: its flat
        vector is the first block of ours."""
        if x.field is self:
            return x
        if x.field not in self.layers:
            raise FieldError("cannot embed element from unrelated field")
        return FieldElement(self, x.vec + (0,) * (self.n - len(x.vec)), x.s,
                            x.m, exact=x.exact)

    def gen(self):
        """Generator of this layer (internal, normalized)."""
        if self.kind == "qp":
            return self.from_int(self.p)
        vec = [0] * self.n
        b = self.base.n if self.base else 1
        vec[b] = 1
        return FieldElement(self, vec, 0, self.M)

    def user_generator(self):
        """The generator of this layer's user step: ``gen()``, except on
        a Kummer layer."""
        return self.gen()

    @functools.cached_property
    def step_generators(self):
        """The generator of each user step of ``build_field``, in this
        field.  Made on first read from each step's layer, so that a
        build makes no user generator, nor the inverse c^-1 of the top
        Kummer layer's normalizer, that nothing reads."""
        return [self.embed(L.user_generator()) for L in self._step_layers]

    def from_zeta_poly(self, poly):
        """Element from {exponent: int coefficient} in the cyclotomic
        generator: coefficients at their exponents mod p^r, folded once.
        Like ``from_int`` the result is exact: small integers folded by
        Phi_{p^r}, whose coefficients are 0 and -1."""
        root = self.layers[1] if self.base else self    # cyclo is on Q_p
        if root.kind != "cyclo":
            if set(poly) <= {0}:
                return self.from_int(poly.get(0, 0))
            raise FieldError("tower has no cyclotomic layer for zeta coefficients")
        conv = [0] * root.cyclo_modulus
        for expo, c in poly.items():
            conv[expo % root.cyclo_modulus] += c
        acc = FieldElement(root, root._fold(conv, root.pM), 0, root.M,
                           exact=True)
        return self.embed(acc) if root is not self else acc

    def coerce(self, a):
        """Element from a FieldElement (returned as is), an int, a Fraction
        or a zeta-polynomial {exponent: coefficient}."""
        if isinstance(a, FieldElement):
            return a
        if isinstance(a, int):
            return self.from_int(a)
        if isinstance(a, Fraction):
            return self.from_fraction(a)
        if isinstance(a, dict):
            return self.from_zeta_poly(a)
        raise FieldError(f"cannot interpret {a!r} as an element of {self.name}")

    # -- multiplication kernel -------------------------------------------

    def _mul_mod(self, xs, ys, pm):
        """Product mod pm of flat vectors of a relative layer: convolution,
        then the top terms fold down through the layer relation
        theta^d = sum r_i theta^i, whose nonzero terms (i, r_i vec) are
        ``self.relation``; over Q_p the terms are integers (``_fold``).

        Over a base that is not Q_p the convolution is of d blocks, each
        block product one call of the base kernel.  Two operands that lie
        in block 0, as elements of the base do, take that one base product,
        padded with zero blocks, and nothing folds.  Sparse operands (nx ny
        <= d(d+1)/2 nonzero block pairs: integers, lifts, pi) skip their
        zero blocks.  Dense ones take one packed integer product
        (``_packed``) while pm is at most d^_PACKED_EXPONENT and the packed
        product at most _PACKED_PRODUCT_BITS, and otherwise a one-level
        Karatsuba product with d(d+1)/2 base products, D_i = x_i y_i and
        P_ij = (x_i + x_j)(y_i + y_j) for i < j, whose P_ij - D_i - D_j is
        x_i y_j + x_j y_i; on a tall tower at a narrow pm those base
        products pack in turn, once the layers below fit.  The top blocks
        then fold (``_fold_blocks``): by the layer's fold table when the
        relations up to it are monomial, else by base products.  The
        inputs may be unreduced or negative (pair sums are), and
        everything is exact over Z and reduced mod pm at the end, so every
        way gives the same vector.

        Over Q_p the blocks are integers, and the same choice is made by
        the width of pm as well: dense operands take a recursive Karatsuba
        (``_karatsuba``) when pm has at least _KARATSUBA_BITS bits, and
        every other product the zero-skipping schoolbook."""
        d = self.d
        if self.base.base is None:
            # speed of a dense product in Karatsuba against the schoolbook,
            # min of 40 rounds on cyclotomic layers (CPython 3.11, 2-core
            # x86): 0.9-1.0x at 460 bits and 1.0-1.2x at 600 bits for
            # d = 4, 6; 1.1-1.3x at 1000 bits; 2.0-2.3x at 1830 bits for
            # d = 18, 20; flat at d = 2.  The gate leaves every product of
            # the towers below degree 500 (at most 714 bits) as it was.
            if (pm.bit_length() >= _KARATSUBA_BITS
                    and (d - xs.count(0)) * (d - ys.count(0))
                    > d * (d + 1) // 2):
                return self._fold(self._karatsuba(xs, ys), pm)
            conv = [0] * (2 * d - 1)
            for i, a in enumerate(xs):
                if a:
                    for j, b in enumerate(ys):
                        if b:
                            conv[i + j] += a * b
            return self._fold(conv, pm)
        mul = self.base._mul_mod
        b = self.base.n
        if not any(xs[b:]) and not any(ys[b:]):
            return mul(xs[:b], ys[:b], pm) + (0,) * (self.n - b)
        xb = [xs[i * b:(i + 1) * b] for i in range(d)]
        yb = [ys[i * b:(i + 1) * b] for i in range(d)]
        xnz = [i for i, xi in enumerate(xb) if any(xi)]
        ynz = [j for j, yj in enumerate(yb) if any(yj)]
        conv = [None] * (2 * d - 1)     # blocks are allocated on first use
        if len(xnz) * len(ynz) <= d * (d + 1) // 2:
            for i in xnz:
                for j in ynz:
                    _add_block(conv, i + j, mul(xb[i], yb[j], pm))
        elif (pm <= (self._packing or self._init_packing())[3]
              and 8 * _slot_bytes(self.n, pm) * self._packing[2]
              <= _PACKED_PRODUCT_BITS):
            return self._packed(xs, ys, pm)
        else:
            dg = [mul(xi, yi, pm) for xi, yi in zip(xb, yb)]
            for i, di in enumerate(dg):
                _add_block(conv, 2 * i, di)
                for j in range(i + 1, d):
                    pij = mul([u + v for u, v in zip(xb[i], xb[j])],
                              [u + v for u, v in zip(yb[i], yb[j])], pm)
                    _add_block(conv, i + j, [c - u - v for c, u, v
                                             in zip(pij, di, dg[j])])
        return self._fold_blocks(conv, pm)

    def _fold_blocks(self, conv, pm):
        """The 2d - 1 blocks of a product over a base that is not Q_p
        (lists, None for a zero block) folded from the top down by the
        layer relation, theta^(d+k) -> sum r_i theta^(i+k), and reduced mod
        pm at the end.  On a tower of monomial relations (``folds``) a top
        block moves through the layer's fold table; otherwise each nonzero
        top block and relation term take one base product."""
        d, rows = self.d, self._fold_rows
        for t in range(2 * d - 2, d - 1, -1):
            blk = conv[t]
            if blk is None:
                continue
            if rows is not None:
                for i, gather in rows:
                    moved = [sum(map(operator.mul, ms, get(blk)))
                             for get, ms in gather]
                    _add_block(conv, t - d + i, moved)
                continue
            blk = tuple(c % pm for c in blk)
            if any(blk):
                for i, ri in self.relation:
                    _add_block(conv, t - d + i,
                               self.base._mul_mod(blk, ri, pm))
        zero = (0,) * self.base.n
        return tuple(c % pm for blk in conv[:d] for c in (blk or zero))

    @functools.cached_property
    def _relation_shape(self):
        """``folds.relation_shape`` of the tower up to this layer."""
        return folds.relation_shape(self)

    @functools.cached_property
    def _fold_rows(self):
        """The fold table of ``folds.fold_rows``, None unless every
        relation of the tower up to this layer is monomial."""
        shape = self._relation_shape
        return folds.fold_rows(shape) if shape else None

    @functools.cached_property
    def _slot_table(self):
        """The gather of ``folds.slot_table``, None unless every relation of
        the tower up to this layer is monomial; made on the first packed
        product."""
        shape = self._relation_shape
        return folds.slot_table(shape) if shape else None

    def _packed(self, xs, ys, pm):
        """Product mod pm of flat vectors of a layer over a base that is
        not Q_p, by one integer multiply (Kronecker substitution).

        A flat vector is a polynomial in the generators theta_1 .. theta_k
        of the layers from Q_p up, of degree below d_l in theta_l, and the
        product of two has degree at most 2 d_l - 2 in each.  Substituting
        theta_l = X^(S_l), S_1 = 1 and S_(l+1) = S_l (2 d_l - 1), keeps the
        product's terms apart, so with each coordinate reduced into [0, pm)
        and put into its own slot of 2 bits(pm) + bits(n) + 1 bits, in
        whole bytes (a product slot sums at most n terms below pm^2), the
        integer product of the two packed operands holds the exact
        convolution, whose slot j_1 + S_2 j_2 + ... is the monomial
        theta_1^j_1 theta_2^j_2 ....  On a tower of monomial relations the
        slots are read back through one gather (``folds.slot_table``) and
        reduced mod pm once.  Otherwise the layer over Q_p folds them in
        place (``_fold_low``) and every layer above by its relation
        (``_fold_blocks``), from the bottom.  All of it is exact over Z and
        reduced mod pm, so the vector is the layered kernel's."""
        chain, slots, size, _ = self._packing or self._init_packing()
        width = _slot_bytes(self.n, pm)
        zero = bytes(width)

        def pack(vec):
            parts = [zero] * size
            for c, t in zip(vec, slots):
                if c:
                    parts[t] = (c % pm).to_bytes(width, "little")
            return int.from_bytes(b"".join(parts), "little")

        X = pack(xs)
        Y = X if ys is xs else pack(ys)
        raw = (X * Y).to_bytes(size * width, "little")
        conv = [int.from_bytes(raw[o:o + width], "little")
                for o in range(0, size * width, width)]
        gather = self._slot_table
        if gather is not None:
            return tuple(sum(map(operator.mul, ms, get(conv))) % pm
                         for get, ms in gather)
        low = chain[0]
        d, step = low.d, 2 * low.d - 1
        for o in range(0, size, step):
            low._fold_low(conv, o, o + step)
        vec = [c for o in range(0, size, step) for c in conv[o:o + d]]
        for fld in (*chain[1:], self):
            b, step = fld.base.n, 2 * fld.d - 1
            vec = [c for o in range(0, len(vec), b * step)
                   for c in fld._fold_blocks(
                       [vec[o + t * b:o + (t + 1) * b] for t in range(step)],
                       pm)]
        return tuple(vec)

    def _init_packing(self):
        """The slot layout of ``_packed`` and the gate's limit, set on the
        layer's first dense product at any width, since the gate reads the
        limit from it, and kept: the layers below it from the one over Q_p
        up, the slot of each flat coordinate, the number of slots of a
        product, and the widest modulus that packs, d^_PACKED_EXPONENT."""
        chain = self.layers[1:-1]
        slots, size = [0], 1
        for fld in self.layers[1:]:
            slots = [t + i * size for i in range(fld.d) for t in slots]
            size *= 2 * fld.d - 1
        self._packing = (chain, slots, size,
                         self.d ** _PACKED_EXPONENT)
        return self._packing

    def _karatsuba(self, xs, ys):
        """Exact convolution of two integer vectors of one length n, of any
        sign and size.  With x = x0 + t^h x1 and y likewise, three half
        products x0 y0, x1 y1 and (x0 + x1)(y0 + y1) give the middle term
        x0 y1 + x1 y0 as the last minus the first two; the halving stops
        at a length of at most _KARATSUBA_LEAF, where the one-level
        formula takes n(n+1)/2 products."""
        n = len(xs)
        if n <= _KARATSUBA_LEAF:
            dg = [a * b for a, b in zip(xs, ys)]
            conv = [0] * (2 * n - 1)
            for i, di in enumerate(dg):
                conv[2 * i] += di
                a, b = xs[i], ys[i]
                for j in range(i + 1, n):
                    conv[i + j] += (a + xs[j]) * (b + ys[j]) - di - dg[j]
            return conv
        h = n // 2
        lo = self._karatsuba(xs[:h], ys[:h])
        hi = self._karatsuba(xs[h:], ys[h:])
        mid = self._karatsuba(
            [a + b for a, b in itertools.zip_longest(xs[h:], xs[:h],
                                                     fillvalue=0)],
            [a + b for a, b in itertools.zip_longest(ys[h:], ys[:h],
                                                     fillvalue=0)])
        conv = lo + [0] + hi
        for i, (c, u, v) in enumerate(itertools.zip_longest(mid, lo, hi,
                                                            fillvalue=0)):
            conv[h + i] += c - u - v
        return conv

    def _fold(self, conv, pm):
        """Integer coefficients of any length in the generator of a layer
        over Q_p, folded from the top down by its relation (a fold may land
        above theta^d and fold again), and reduced mod pm once, at the end."""
        self._fold_low(conv, 0, len(conv))
        return tuple(c % pm for c in conv[:self.d])

    def _fold_low(self, conv, lo, hi):
        """``_fold`` of conv[lo:hi] in place, without the reduction: each
        top term t moves to t - d + i times r_i, by a subtraction where r_i
        is -1, as on every term of Phi_(p^r)."""
        d = self.d
        for t in range(hi - 1, lo + d - 1, -1):
            c = conv[t]
            if c:
                for i, (r,) in self.relation:
                    if r == -1:
                        conv[t - d + i] -= c
                    else:
                        conv[t - d + i] += c * r

    def _relation_derivative(self):
        """f'(gen) for the layer relation f(x) = x^d - sum r_i x^i, read off
        the relation: block d - 1 holds d and block i - 1 adds -i r_i (i = 0
        adds nothing).  Its valuation gives the layer's different
        (``_certify``)."""
        b, d = self.base.n, self.d
        vec = [0] * self.n
        vec[(d - 1) * b] = d
        for i, r in self.relation:
            for k, c in enumerate(r):
                vec[(i - 1) * b + k] -= i * c
        return FieldElement(self, [c % self.pM for c in vec], 0, self.M)

    # -- norms -------------------------------------------------------------

    def norm_tower(self, x):
        """(integer, s, m): N_{K/Q_p}(x) = integer / p^s, known mod p^(m-s)."""
        vec, s, m = x.vec, x.s, x.m
        for fld in reversed(self.layers[1:]):
            _, vec = fld._layer_cofactor(vec, m)
            s *= fld.d
        return vec[0], s, m

    def _project(self, vec, m):
        """Check the non-constant blocks vanish and return the base block."""
        b = self.base.n
        pm = self.p ** m
        for a in vec[b:]:
            if a % pm:
                raise PrecisionError("norm projection failed: conjugate "
                                     "product not in base field to precision")
        return vec[:b]

    def norm_to_qp(self, x, prec=None):
        """N_{K/Q_p}(x) as a PadicScalar."""
        nint, s, m = self.norm_tower(x)
        nint %= self.p ** m
        if nint == 0:
            return PadicScalar.bottom(self.p, m - s)
        v = _vp(nint, self.p)
        rel = m - v
        if prec is not None:
            rel = min(rel, prec)
        return PadicScalar(self.p, v - s, (nint // self.p ** v) % self.p ** rel, rel)

    def val_or_bound(self, x):
        """(v_K(x), None), or (None, bound) when x is only known to have
        v_K(x) >= bound (zero to precision)."""
        if x._val is None:
            v, bound, _ = self._val(x.vec, x.s, min(x.m, self.M))
            x._val = (v, bound)
        return x._val

    def _val(self, vec, s, m, res=False):
        """(v, bound, r): val_or_bound of x = vec / p^s, vec known mod p^m,
        and with ``res`` the residue r of x / pi^v (None when it is not
        read, or not determined to precision).

        Numerators lie in the order spanned by the power basis, which is
        integral, so an error in p^m of it has v >= e (m - s).  Otherwise
        the frame gen = gamma delta + beta rewrites the element as
        sum y_k delta^k: Taylor-shift the blocks by beta, scale block k by
        gamma^k.  The terms scale v_B(y_k) + k v(delta) never tie in a
        ramified layer (v(delta) is prime to the scale), and in an
        unramified one the residues of the delta^k are independent, so
        v_K is the least term; a y_k only bounded below gives its bound.
        The residue comes from the least terms: r_B(y_k) c1^v_B(y_k) c2^k
        with c1 = res(pi_B / pi^scale) and c2 = res(delta / pi^v(delta))
        in a ramified layer, sum r_B(y_k) rho^k in an unramified one,
        where pi = pi_B and delta = rho.  Over Q_p a block is one integer,
        which the walk shifts, scales and reads itself, with no call of
        the base's kernel or walk.
        """
        p = self.p
        pm = p ** m
        vec = [c % pm for c in vec]
        if not any(vec):
            return None, self.e * (m - s), None
        if self.base is None:
            v = _vp(vec[0], p)
            return v - s, None, (vec[0] // p ** v % p,) if res else None
        B, b, d = self.base, self.base.n, self.d
        beta, gamma, scale, w = self.frame
        if not any(vec[b:]):
            # an element of the base plus an error of v >= e (m - s)
            v, bound, r = B._val(vec[:b], s, m, res)
            if v is not None:
                r = self._lead_residue([(0, v, r)]) if res else None
                return scale * v, None, r
            return None, min(self.e * (m - s), scale * bound), None
        ints = B.base is None         # blocks of one integer coordinate
        blocks = vec if ints else [vec[i * b:(i + 1) * b] for i in range(d)]
        t = u = 0
        if beta is not None:
            bvec, t = beta
            if t:
                # beta = bvec / p^t: shift the blocks p^(t(d-1-i)) X_i by
                # bvec, then y_k carries the denominator p^(s + t(d-1-k))
                pts = [p ** (t * (d - 1 - i)) for i in range(d)]
                blocks = ([c * q % pm for c, q in zip(blocks, pts)] if ints
                          else [[c * q % pm for c in blk]
                                for blk, q in zip(blocks, pts)])
        if gamma is not None:
            gpows, u = gamma
        dens = [s + t * (d - 1 - k) + u * k for k in range(d)]
        # numerators are integral, so term k is at least k w - e dens[k]
        floors = [k * w - self.e * dk for k, dk in enumerate(dens)]
        best = low = None
        lead = []          # (k, v_B(y_k), r_B(y_k)) of the terms at best
        for k in range(d):
            if beta is not None:
                # pass k of the Taylor shift leaves y_k final
                for j in range(d - 2, k - 1, -1):
                    hi = blocks[j + 1]
                    if ints:
                        blocks[j] = (blocks[j] + hi * bvec[0]) % pm
                    elif any(hi):
                        blocks[j] = [(c + a) % pm for c, a in
                                     zip(blocks[j], B._mul_mod(hi, bvec, pm))]
            y = blocks[k]
            if gamma is not None and k:
                y = (y * gpows[k][0] % pm if ints
                     else B._mul_mod(y, gpows[k], pm))
            if not ints:
                v, bound, r = B._val(y, dens[k], m, res)
            elif y:
                # the base's _val of one coordinate
                v = _vp(y, p)
                r = (y // p ** v % p,) if res else None
                v -= dens[k]
            else:
                v, bound = None, m - dens[k]
            if v is not None:
                term = scale * v + k * w
                if best is None or term < best:
                    best, lead = term, [(k, v, r)]
                elif term == best:
                    lead.append((k, v, r))
            else:
                term = scale * bound + k * w
                low = term if low is None else min(low, term)
            if best is not None and k + 1 < d:
                # no later term can reach below best; in an unramified
                # layer a later term at best still adds to the residue
                nxt = min(floors[k + 1:])
                if best < nxt or (best == nxt and (scale > 1 or not res)):
                    break
        if best is not None and (low is None or best <= low):
            # in an unramified layer a term of unknown residue may tie
            tied = scale == 1 and best == low
            return best, None, (self._lead_residue(lead)
                                if res and not tied else None)
        return None, low if best is None else min(best, low), None

    def _lead_residue(self, lead):
        """Residue of x / pi^v from the least frame terms of x; None when
        a term's residue is unknown.  A ramified layer applies its
        (c1, [c2^k])."""
        if any(r is None for _, _, r in lead):
            return None
        if self.frame[2] == 1:
            zero = self.base.residue_field.zero
            blocks = [zero] * self.d
            for k, _, r in lead:
                blocks[k] = r
            return sum(blocks, ())
        if self._rconst is None:
            self._init_residues()
        (k, v, r), = lead
        F = self.base.residue_field      # a ramified layer keeps its base's
        c1, c2pows = self._rconst
        return F.mul(F.mul(r, F.pow(c1, v)), c2pows[k])

    @property
    def residue_field(self):
        """F_q of the layer (a ResidueField), set up on first use."""
        if self._residue_field is None:
            self._init_residues()
        return self._residue_field

    def _init_residues(self):
        """Residue field of a certified layer, and for a ramified layer
        the constants c1 and c2 of ``_val``, from one read: of rho^d off
        the frame when unramified (delta = rho), else of the layer norm
        f(beta) in the base.  Run on the first residue read, so that
        building a tower that reads no residue pays nothing for them.

        The least frame term of delta^scale is y_0 = -f(beta), as
        f(delta + beta) = 0, at k = 0 and v_B = w (``_certify``), so
        c2^scale = rho c1^w with rho = r_B(-f(beta)), read in the base
        (``_norm_of_delta``) with no walk of delta^scale.  The
        uniformizer pi = delta^x u of ``_certify``, u = B.monomial(y) and
        xw + y scale = 1, is its own least frame term, at k = x with
        y_x = u, whose residue r_u the base's constants give
        (``_monomial_residue``, no walk), so 1 = r_u c1^y c2^x.  Together
        they give c1 = rho^-x r_u^-scale and c2 = rho^y r_u^-w.  The
        constants and the field are set only once the read succeeds.
        """
        B = self.base
        _, _, scale, w = self.frame
        if scale == 1:
            rel = self._read(self._delta_pow(self.d))
            self._residue_field = ResidueField(self.p, B.residue_field, rel)
            return
        F = B.residue_field
        rho = B.residue_at(-self._norm_of_delta(), w)
        x = pow(w, -1, scale)
        y = (1 - x * w) // scale
        ru = B._monomial_residue(y)
        c1 = F.mul(F.pow(rho, -x), F.pow(ru, -scale))
        c2 = F.mul(F.pow(rho, y), F.pow(ru, -w))
        self._rconst = (c1, [F.pow(c2, k) for k in range(self.d)])
        self._residue_field = F

    def _read(self, x):
        """Residue of x / pi^v(x), read afresh off the frame."""
        r = self._val(x.vec, x.s, min(x.m, self.M), True)[2]
        if r is None:
            raise PrecisionError("a residue constant is not determined to "
                                 "precision")
        return r

    def residue_at(self, x, k):
        """The residue of x / pi^k in F_q: zero when v(x) > k or x is zero
        to precision with a bound of at least k + 1.  Raises
        PrecisionError when x is known only to a smaller bound, and
        FieldError when v(x) < k."""
        if x._res is None and (x._val is None or x._val[0] == k):
            # one walk reads both; a valuation cached without a residue
            # (by val_or_bound, or a product of such factors) walks again
            v, bound, x._res = self._val(x.vec, x.s, min(x.m, self.M), True)
            if x._val is None:
                x._val = (v, bound)
        v, bound = x._val
        if v is None:
            if bound > k:
                return self.residue_field.zero
            raise PrecisionError(
                f"residue at pi^{k} undetermined: only v >= {bound} known")
        if v != k:
            if v > k:
                return self.residue_field.zero
            raise FieldError(f"residue of x / pi^{k} with v(x) = {v} < {k}")
        if x._res is None:
            raise PrecisionError("residue undetermined to precision")
        return x._res

    def _certify(self, certificate, e_rel, weight, delta, beta=None,
                 gamma=None):
        """Certify a layer: its frame, uniformizer and different.

        The frame is gen = gamma delta + beta with v_K(delta) = weight;
        beta and gamma are base elements, None standing for 0 and 1.  It
        sets e = e_B e_rel and f = f_B d / e_rel.  A nonzero weight is
        certified by the layer norm, v_B(N_{K/B}(delta)) = f_{K/B}
        v_K(delta) (Serre, Local Fields); an unramified layer's delta
        (weight 0) is a unit by construction.  A nonzero weight comes
        with gamma = 1, delta = gen - beta, and the norm is the resultant
        of the relation f against gen - beta, N_{K/B}(gen - beta) =
        (-1)^d f(beta) (Serre, Local Fields, I 4 and III 6), so v_B(f(beta))
        is read in the base (``_norm_of_delta``), with no product of
        conjugates.  The element delta is kept for the residue constants.

        The uniformizer is pi = pi_B on an unramified layer, and on a
        ramified one pi = delta^x B.monomial(y) with x = w^-1 mod d and
        y = (1 - xw) / d, so that v(pi) = xw + yd = 1; the base's factor
        is made of the base's frame deltas over a power of p, not of
        pi_B^y, which for y < 0 is an inverse.  Both v(pi) = 1 and
        v(pi_B) = e_rel are checked on the installed frame.  The
        layer's different is credited by transitivity, v_K(D_K) =
        v_K(D_{K/B}) + e_rel v_B(D_B) (Serre, Local Fields, III 4).

        An unramified layer has v_K(D_{K/B}) = 0.  A ramified layer is
        totally ramified, and its frame is gen = delta + beta (gamma = 1
        on every ramified frame) with w = v_K(delta) prime to d; then

          v_K(D_{K/B}) = v_K(f'(gen)) - (d - 1)(w - 1).

        Take v = v_K on a normal closure, and sigma over the d - 1
        embeddings of K over B other than the identity.
          * delta generates K with minimal polynomial f(t + beta), whose
            derivative at delta is f'(gen): v_K(f'(gen)) is the sum of
            v(sigma delta - delta).
          * pi = delta^x u, v_B(u) = y, is a uniformizer, and O_K = O_B[pi]
            (Serre, Local Fields, I 6): v_K(D_{K/B}) is the sum of
            v(sigma pi - pi).
          * Each v(sigma delta - delta) = v(sigma pi - pi) + w - 1.  As
            K/B is totally ramified, pi^d / pi_B and delta / pi^w are
            congruent to units of B, so sigma pi / pi = theta and
            sigma delta / delta = theta^w mod the maximal ideal, with
            theta^d = 1.  For a tame sigma, theta != 1, so theta^w != 1
            (w is prime to d): the two terms are 1 and w.  A wild sigma
            has theta = 1.  It exists only when p | d: for p prime to d,
            v_K(D_{K/B}) = d - 1 (Serre, Local Fields, III 6), so each of
            the d - 1 terms v(sigma pi - pi) is 1.  Then p does not
            divide x, as xw = 1 mod d.  With sigma delta / delta = 1 + eps
            and v(eps) > 0, sigma pi / pi = (1 + eps)^x = 1 + x eps + ...,
            so the terms are 1 + v(eps) and w + v(eps)."""
        B = self.base
        self.e = B.e * e_rel
        self.f = B.f * (self.d // e_rel)
        self.delta = delta
        if weight:
            # weight != 0 only on a ramified frame, where gen = delta + beta
            v = B.val_or_bound(self._norm_of_delta())[0]
            if v is None:
                raise PrecisionError(
                    f"{self.kind} layer norm of delta is zero to precision; "
                    "raise the working precision")
            if v != weight * (self.d // e_rel):
                raise CertificationError(
                    f"{self.kind} layer frame check failed: v(delta) != {weight}")
        if gamma is not None and (gamma.s or gamma.vec != B.one().vec):
            gpows = [None, gamma.vec]
            for _ in range(2, self.d):
                gpows.append(B._mul_mod(gpows[-1], gamma.vec, self.pM))
            gamma = (gpows, gamma.s)
        else:
            gamma = None
        beta = (beta.vec, beta.s) if beta is not None and any(beta.vec) else None
        self.frame = (beta, gamma, e_rel, weight)
        if e_rel == 1:
            self.pi = self.embed(B.pi)
        else:
            x = pow(weight, -1, e_rel)
            y = (1 - x * weight) // e_rel
            self.pi = self._delta_pow(x) * self.embed(B.monomial(y))
        if self.pi.valuation() != 1:
            raise UniformizerSearchError(
                f"{self.kind} layer uniformizer check failed")
        if self.embed(B.pi).valuation() != e_rel:
            raise CertificationError(
                f"{self.kind} layer ramification check failed")
        self.layer_diff = 0
        if e_rel > 1:
            self.layer_diff = (self._relation_derivative().valuation()
                               - (self.d - 1) * (weight - 1))
        self.different_val = self.layer_diff + e_rel * B.different_val
        self.certificate = certificate

    def val_at_least(self, x, k):
        v, bound = self.val_or_bound(x)
        if v is not None:
            return v >= k
        if bound >= k:
            return True
        raise PrecisionError(f"cannot decide v >= {k}: only known v >= {bound}")

    # -- inversion ----------------------------------------------------------

    def invert(self, x):
        """x^{-1} = T u (``_inverse``): u meets T only here, so that all
        of T's p-power makes up for the digits u has lost."""
        v = self.val_or_bound(x)[0]
        if v is None:
            raise ZeroDivisionError("inversion of element that is zero to precision")
        p = self.p
        (vec, s, m), (u, us, um) = self._inverse(x.vec, x.s, x.m, v)
        vec, s, m = _strip(vec, s, m, p, m)
        m, s = min(m, um), s + us
        if s < 0:
            # p^-s T is known mod p^(m - s)
            m, vec, s = min(m - s, self.M), [c * p ** -s for c in vec], 0
        pm = p ** m
        out = FieldElement(self, tuple(c * u % pm for c in vec), s, m)
        out._val = (-v, None)
        if x._res is not None:
            out._res = self.residue_field.pow(x._res, -1)
        return out

    def _inverse(self, vec, s, m, v):
        """(T, u), triples (vec, s, m) of this layer and of Q_p, with x^{-1}
        = T u for x = vec / p^s of v_K(x) = v, vec known mod p^m.  With
        w = floor(v / e), x = p^w y and 0 <= v_K(y) < e, which only moves
        s, to t = s + w.  Over Q_p, u = y^{-1} and T = 1.  Else y^{-1} =
        cof(y) / N(y) for the layer cofactor and norm N_{K/B}: cof(vec) /
        p^((d-1) t) and N(vec) / p^(d t), each stripped of its common
        p-power so that no denominator grows layer by layer.  N(y), of
        v_B = f_{K/B} v_K(y) < d e_B, is inverted in the base by the same
        rule."""
        p, w = self.p, v // self.e
        t = s + w
        if self.base is None:
            if vec[0] % p ** m == 0:
                raise PrecisionError("a norm to invert is zero to precision")
            (u,), _, um = _strip(vec, t, m, p, t)
            return ((1,), 0, m), (pow(u, -1, p ** um), w, um)
        d = self.d
        cof, nvec = self._layer_cofactor(vec, m)
        (tv, ts, tm), u = self.base._inverse(
            *_strip(nvec, d * t, m, p, d * t),
            self.f // self.base.f * (v - w * self.e))
        cof, cs, cm = _strip(cof, (d - 1) * t, m, p, m)
        m = min(cm, tm)
        tv += (0,) * (self.n - len(tv))
        return (self._mul_mod(cof, tv, p ** m), cs + ts + w, m), u

    # -- residues -------------------------------------------------------------

    def residue(self, x):
        """(c, lift(c)) for the residue c of x in F_q (requires v(x) >= 0)."""
        c = self.residue_at(x, 0)
        return c, self.lift(c)

    def lift(self, c):
        """The residue representative of c in F_q: a polynomial in the
        deltas of the unramified layers, whose residues generate F_q, with
        coefficients in 0 .. p-1.  Made on demand from the frames' cached
        powers of delta (``_delta_pow``), so no residue constant is read.
        A zero coefficient block adds no term: 0 delta^k would cap the
        sum's digits at those of delta^k."""
        B = self.base
        if B is None:
            return self.from_int(c[0])
        if self.f == B.f:
            return self.embed(B.lift(c))
        b = B.f
        acc = self.embed(B.lift(c[:b]))
        for k in range(1, self.d):
            ck = c[k * b:(k + 1) * b]
            if any(ck):
                acc = acc + self.embed(B.lift(ck)) * self._delta_pow(k)
        return acc

    # -- uniformizer helpers ---------------------------------------------------

    def pi_pow(self, k):
        """pi^k, cached; k >= 2 by halving, so a power takes its
        denominators from log2(k) products, not from k - 1."""
        out = self._pi_pows.get(k)
        if out is None:
            if k >= 2:
                out = self.pi_pow((k + 1) // 2) * self.pi_pow(k // 2)
            elif k >= 0:
                x = self.pi if k else self.one()
                out = FieldElement(self, x.vec, x.s, x.m)
            else:
                out = self.pi_pow(-k).inv()
            out._val = (k, None)
            self._pi_pows[k] = out
        return out

    def monomial(self, v):
        """An element of valuation v made of frame deltas, with no power
        of pi inverted: p^v over Q_p (a denominator when v < 0), the
        base's element on an unramified layer, and on a ramified one
        delta^a embed(B.monomial(b)) with v = a w + d b, 0 <= a < d
        (``_monomial_split``).  It is one frame term, at k = a with
        y_a = B.monomial(b).  Cached like ``pi_pow``, with its valuation
        set."""
        out = self._monomials.get(v)
        if out is None:
            if self.base is None:
                out = self.from_fraction(Fraction(self.p) ** v)
            else:
                a, b = self._monomial_split(v)
                out = self.embed(self.base.monomial(b))
                if a:
                    out = self._delta_pow(a) * out
            out._val = (v, None)
            self._monomials[v] = out
        return out

    def monomial_power(self, v, k):
        """monomial(v)^k for k >= 1: delta^(ak) embed(B.monomial(b)^k) for
        (a, b) = ``_monomial_split(v)``, the base's factor by the same rule
        and p^(vk) over Q_p.  With ak = qd + r this is (delta^d)^q delta^r
        times the base's factor, with delta^d read off the relation
        (``_delta_pow``).  An integral delta^d = p^j U gives U^q in place
        of (delta^d)^q: p^(jq) clears as much of the base factor's
        denominator p^s as it can, exactly, and what is left multiplies
        U^q, so that the p-content of delta^d costs no digits against
        that denominator."""
        if self.base is None:
            return self.monomial(v * k)
        a, b = self._monomial_split(v)
        out = self.embed(self.base.monomial_power(b, k))
        q, r = divmod(a * k, self.d)
        if q:
            p, x = self.p, self._delta_pow(self.d)
            vec, s, m = _strip(x.vec, x.s, x.m, p, x.m)
            j = max(-s, 0)
            x = FieldElement(self, vec, s + j, m)
            x = x ** q if q > 1 else x
            g = min(j * q, out.s)
            if j * q > g:
                m = min(x.m + j * q - g, self.M)
                x = FieldElement(self, tuple(c * p ** (j * q - g) % p ** m
                                             for c in x.vec), x.s, m)
            out = x * FieldElement(self, out.vec, out.s - g, out.m)
        if r:
            out = self._delta_pow(r) * out
        return out

    def _delta_pow(self, a):
        """delta^a for a >= 1, cached and made by halving as in
        ``pi_pow``, so that the monomials, the uniformizer and the residue
        constants share their powers of delta.  On a frame with gamma = 1,
        gen = delta + beta, delta^d is read off the layer relation f(x) =
        x^d - sum r_i x^i in the base: (gen - beta)^d mod f has block i
        C(d, i) (-beta)^(d-i) + r_i (``_relation_delta_pow``), as the
        layer norm of delta is (-1)^d f(beta) (``_certify``)."""
        out = self._delta_pows.get(a)
        if out is None:
            if a == 1:
                out = self.delta
            elif a == self.d and self.frame[1] is None:
                out = self._relation_delta_pow()
            else:
                out = self._delta_pow((a + 1) // 2) * self._delta_pow(a // 2)
            self._delta_pows[a] = out
        return out

    def _beta_powers(self):
        """[1, beta, ..., beta^d] in the base, for a frame gen = delta +
        beta: beta is read off delta (its block 0 is -beta), its powers
        made by halving and kept."""
        pows = self._beta_pows
        if pows is None:
            B, x = self.base, self.delta
            pm = self.p ** x.m
            beta = FieldElement(B, [-c % pm for c in x.vec[:B.n]], x.s, x.m)
            pows = [B.one(), beta._normalized()]
            for j in range(2, self.d + 1):
                pows.append(pows[(j + 1) // 2] * pows[j // 2])
            self._beta_pows = pows
        return pows

    def _relation_terms(self):
        """{i: r_i} of the layer relation, as base elements."""
        B, pM = self.base, self.pM
        return {i: FieldElement(B, tuple(c % pM for c in r), 0, self.M)
                for i, r in self.relation}

    def _norm_of_delta(self):
        """N_{K/B}(delta) up to sign, for a frame gen = delta + beta: the
        norm is the resultant of f against gen - beta, (-1)^d f(beta)
        (J.-P. Serre, Local Fields, I 4 and III 6), so it is f(beta) =
        beta^d - sum r_i beta^i, made in the base from the powers of
        beta with no conjugate and no product in the layer."""
        pows = self._beta_powers()
        out = pows[self.d]
        for i, r in self._relation_terms().items():
            out = out - (r if i == 0 else pows[i] * r)
        return out

    def _relation_delta_pow(self):
        """delta^d = (gen - beta)^d mod f from the powers of beta
        (``_delta_pow``): its blocks are base elements brought to one
        denominator."""
        pows, d, p = self._beta_powers(), self.d, self.p
        rel = self._relation_terms()
        blocks = []
        for i in range(d):
            y = pows[d - i].scaled(math.comb(d, i) * (-1) ** (d - i))
            blocks.append(y + rel[i] if i in rel else y)
        s = max(y.s for y in blocks)
        m = min(min(y.m - y.s for y in blocks) + s, self.M)
        pm = p ** m
        vec = tuple(c * p ** (s - y.s) % pm for y in blocks for c in y.vec)
        return FieldElement(self, vec, s, m)._normalized()

    def _monomial_split(self, v):
        """(a, b) with v = a w + d b and 0 <= a < d on a ramified layer of
        degree d and frame weight w, prime to d, so that a = v w^-1 mod d
        (Serre, Local Fields, I 6); (0, v) on an unramified layer."""
        _, _, d, w = self.frame
        if d == 1:
            return 0, v
        a = v * pow(w, -1, d) % d
        return a, (v - a * w) // d

    def _monomial_residue(self, v):
        """The residue of monomial(v) / pi^v, from the residue constants
        of this layer and the ones below, with no frame walk: the residue
        of its one frame term (``_lead_residue``)."""
        if self.base is None:
            return (1,)
        a, b = self._monomial_split(v)
        return self._lead_residue([(a, b, self.base._monomial_residue(b))])

    def lift_at(self, c, v):
        """An element of valuation v whose residue at pi^v is the nonzero
        residue c: lift(c r^-1) monomial(v), with r the residue of
        monomial(v) / pi^v (``_monomial_residue``, r^-1 cached), and
        lift(c) when v = 0.  A monomial has fewer nonzero blocks than the
        dense pi^v, so most products with it skip zero blocks."""
        if not v:
            return self.lift(c)
        F = self.residue_field
        rinv = self._monomial_rinv.get(v)
        if rinv is None:
            rinv = F.pow(self._monomial_residue(v), -1)
            self._monomial_rinv[v] = rinv
        return self.lift(F.mul(c, rinv)) * self.monomial(v)

    # -- misc -------------------------------------------------------------------

    def nested_coefficients(self, x):
        """Coefficients as nested lists; bottom entries are PadicScalar."""
        def split(fld, vec, s, m):
            if fld.base is None:
                a = vec[0] % fld.p ** m
                if a == 0:
                    return PadicScalar.bottom(fld.p, m - s)
                v = _vp(a, fld.p)
                return PadicScalar(fld.p, v - s, a // fld.p ** v, m - v)
            b = fld.base.n
            return [split(fld.base, vec[i * b:(i + 1) * b], s, m)
                    for i in range(fld.d)]
        return split(self, list(x.vec), x.s, x.m)

    def __repr__(self):
        return (f"<LocalField {self.name}: n={self.n} e={self.e} f={self.f} "
                f"p={self.p}>")


# ----------------------------------------------------------------------
# concrete layers


class QpField(LocalField):
    def __init__(self, p, M):
        super().__init__(p, None, "qp", 1, M, f"Q_{p}")
        self.pi = self.from_int(p)
        self._residue_field = ResidueField(p)

    def _mul_mod(self, xs, ys, pm):
        return (xs[0] * ys[0] % pm,)

    def norm_tower(self, x):
        return x.vec[0], x.s, x.m


class GaloisLayer(LocalField):
    """A layer that is Galois over its base, cyclotomic or Kummer; a
    custom layer takes its cofactor from a characteristic polynomial
    instead, Galois or not.  Its automorphisms are
    ``_sigma(vec, a, pm)`` for labels a, and a subclass sets

      * ``galois_factors``: the group as a product of cyclic factors, one
        tuple (a_0, ..., a_(k-1)) per factor of order k, with sigma^i =
        ``_sigma(., a_i)`` for the factor's generator sigma;
      * ``conjugate_labels``: the labels of the automorphisms other than
        the identity, in the order ``_conjugates`` lists them.

    Every sigma is an exact ring automorphism of the representation mod
    p^m, so the order in which the conjugates are multiplied does not
    change a vector."""

    def _conjugates(self, vec, m):
        """The conjugates of vec other than vec itself."""
        pm = self.p ** m
        for a in self.conjugate_labels:
            yield self._sigma(vec, a, pm)

    def _layer_cofactor(self, vec, m):
        """(cofactor vec, base vec of the layer norm).

        The cofactor is the product of the conjugates other than vec;
        times vec it is the layer norm, the resultant of the layer
        relation against the element.  Over a group A x B the norm is
        N_B(N_A(x)), so with y = N_A(x) = x cof_A(x) the cofactor is
        cof_A(x) cof_B(y) and the norm is y cof_B(y).
        """
        pm = self.p ** m
        cof, y = None, vec
        for powers in self.galois_factors:
            c = self._cyclic_cofactor(y, powers, pm)
            cof = c if cof is None else self._mul_mod(cof, c, pm)
            y = self._mul_mod(y, c, pm)
        return cof, self._project(y, m)

    def _cyclic_cofactor(self, vec, powers, pm):
        """prod_(0 < i < k) sigma^i(vec) for the generator sigma of a cyclic
        factor of order k, sigma^i = ``_sigma(., powers[i])``.

        With N_j = prod_(i < j) sigma^i(vec) the product is sigma(N_(k-1)),
        and N_(a+b) = N_a sigma^a(N_b) builds N_(k-1) from the top bit of
        k - 1 down, N_(2j) = N_j sigma^j(N_j) and N_(j+1) = vec sigma(N_j):
        floor(log2(k-1)) + popcount(k-1) - 1 layer products instead of
        k - 2 (T. Itoh and S. Tsujii, Inform. and Comput. 78, 1988).
        """
        sigma, mul = self._sigma, self._mul_mod
        acc, j = vec, 1
        for bit in bin(len(powers) - 1)[3:]:
            acc = mul(acc, sigma(acc, powers[j], pm), pm)
            j *= 2
            if bit == "1":
                acc = mul(vec, sigma(acc, powers[1], pm), pm)
                j += 1
        return sigma(acc, powers[1], pm)


class CycloField(GaloisLayer):
    """Q_p(zeta_{p^r}), totally ramified of degree phi = phi(p^r): the
    relation layer zeta^phi = -sum_{i < p-1} zeta^(i p^(r-1)) of Phi_{p^r}.
    Products, zeta-polynomials and conjugates fold by it, and Z_p[zeta] is
    the ring of integers, so the different is (Phi'(zeta)).  The
    automorphisms are zeta -> zeta^a for the units a mod p^r."""

    def __init__(self, p, modulus, M):
        r = _vp(modulus, p) if modulus > 1 else 0
        if modulus < 3 or p ** r != modulus:
            raise FieldError("cyclotomic modulus must be a power of p, >= 3")
        phi = modulus - modulus // p
        super().__init__(p, QpField(p, M), "cyclo", phi, M,
                         f"Q_{p}(zeta_{modulus})")
        self.cyclo_modulus = modulus
        # its own one-step tower, as build_field returns the shared layer
        self.user_steps = [TowerStep.cyclotomic(modulus)]
        self._step_layers = [self]
        step = modulus // p
        self.relation = [(i * step, (-1,)) for i in range(p - 1)]
        self.galois_factors = _unit_group(modulus, p)
        self.conjugate_labels = [a for a in range(2, modulus) if a % p]
        self._certify(f"cyclotomic({modulus}): Eisenstein after x -> x+1",
                      phi, 1, self.gen() - self.one(), beta=self.base.one())

    def _sigma(self, vec, a, pm):
        """zeta -> zeta^a on a flat vector: c_j moves to the exponent
        j a mod p^r, then one fold."""
        N = self.cyclo_modulus
        conv = [0] * N
        for j, c in enumerate(vec):
            conv[j * a % N] += c
        return self._fold(conv, pm)


# Q_p(zeta_(p^r)) at M digits, certified once per key (p, p^r, M) and
# process; past 64 keys the least recently used is built again
_cyclotomic = functools.lru_cache(maxsize=64)(CycloField)


class KummerField(GaloisLayer):
    """Degree-p cyclic layer x^p = radicand over a base containing zeta_p;
    the automorphisms are gen -> xi^i gen, xi = zeta_p.  The radicand is
    the user's times c^p p^(p t) (``_normalize_radicand``)."""

    def __init__(self, base, radicand, name, xi_powers, c, t):
        p = base.p
        # no element of a layer is known better than its relation
        super().__init__(p, base, "kummer", p, min(base.M, radicand.m), name)
        self.radicand = radicand          # base element, integral coefficients
        # theta^p = radicand, folded with the radicand's own (small) digits
        self.relation = [(0, radicand.vec)]
        self.xi_powers = xi_powers        # zeta_p^t as base elements, t < p
        self.galois_factors = [tuple(range(p))]
        self.conjugate_labels = range(1, p)
        self._c, self._t = c, t
        self._user_gen = None

    @functools.cached_property
    def normalizer(self):
        """(c, c^-1), or None when c = 1, for the Galois action; c^-1 is
        made on first read."""
        return None if self._c is None else (self._c, self._c.inv())

    def user_generator(self):
        """gen c^-1 p^-t, whose p-th power is the user's radicand; made on
        the first call and kept."""
        if self._user_gen is None:
            g = self.gen()
            if self._c is not None:
                g = g * self.embed(self.normalizer[1])
            p_t = self.from_fraction(Fraction(1, self.p ** self._t))
            self._user_gen = g * p_t
        return self._user_gen

    def _sigma(self, vec, i, pm):
        """gen -> xi^i gen: block j times xi^(i j)."""
        b = self.base.n
        out = []
        for j in range(self.d):
            blk = vec[j * b:(j + 1) * b]
            t = (i * j) % self.d
            out.extend(blk if t == 0 else
                       self.base._mul_mod(blk, self.xi_powers[t].vec, pm))
        return tuple(out)


class CustomField(LocalField):
    """Monic polynomial layer, Galois over its base or not."""

    def __init__(self, base, coeffs, name):
        d = len(coeffs)
        super().__init__(base.p, base, "custom", d,
                         min(base.M, *(c.m for c in coeffs)), name)
        self.coeffs = coeffs  # low-degree first, base elements; theta^d = -sum c_i theta^i
        self.relation = _relation(coeffs)

    # bench/spans.py traces these two here by name
    norm_tower = LocalField.norm_tower
    invert = LocalField.invert

    def _layer_cofactor(self, vec, m):
        """(cofactor vec, base vec of the layer norm), as for a Galois layer.

        Column j of the matrix of multiplication by x over the base is
        x theta^j in d base blocks.  For its characteristic polynomial
        t^d + c_1 t^(d-1) + ... + c_d, Cayley-Hamilton makes the cofactor
        (-1)^(d+1) (x^(d-1) + c_1 x^(d-2) + ... + c_(d-1)), and
        ``_project`` checks that x cof, the determinant, lies in the base.
        """
        pm = self.p ** m
        b, d = self.base.n, self.d
        gen = self.gen().vec
        cols = [vec]
        for _ in range(d - 1):
            cols.append(self._mul_mod(cols[-1], gen, pm))
        c = _charpoly([[col[i * b:(i + 1) * b] for col in cols]
                       for i in range(d)], self.base._mul_mod, pm)
        cof = list(vec)
        for k in range(d - 1):          # Horner: (x + c_1) x + c_2 ...
            if k:
                cof = list(self._mul_mod(cof, vec, pm))
            cof[:b] = [a + ck for a, ck in zip(cof[:b], c[k])]
        sign = 1 if d % 2 else -1
        cof = tuple(sign * a % pm for a in cof)
        return cof, self._project(self._mul_mod(vec, cof, pm), m)


def _relation(coeffs):
    """Fold terms (i, -c_i vec), nonzero c_i only, of the monic relation
    theta^d = -sum c_i theta^i; each entry is the representative of least
    absolute value mod p^M, so that integer folds stay small."""
    pM = coeffs[0].field.pM
    h = pM // 2
    return [(i, tuple((h - a) % pM - h for a in c.vec))
            for i, c in enumerate(coeffs) if any(c.vec)]


def _unit_group(N, p):
    """(Z/N)^* for N = p^r as cyclic factors, each the tuple of the powers
    g^0, g^1, ... mod N of its generator g: <g> for the least primitive
    root g when p is odd or N = 4, and <-1> x <5> when N = 2^r >= 8."""
    def powers(g):
        out = [1]
        while out[-1] * g % N != 1:
            out.append(out[-1] * g % N)
        return tuple(out)
    if N % 8 == 0:
        return [powers(N - 1), powers(5)]
    phi = N - N // p
    units = (powers(g) for g in range(2, N) if g % p)
    return [next(gp for gp in units if len(gp) == phi)]


def _strip(vec, s, m, p, g):
    """(vec, s, m) for vec / p^s, vec known mod p^m, with the common
    p-power of vec, but at most p^g, taken out of vec, of p^s and of the
    modulus."""
    for a in vec:
        if not g:
            return vec, s, m
        if a:
            g = min(g, _vp(a, p))
    if not g:
        return vec, s, m
    pg, pm = p ** g, p ** (m - g)
    return tuple(a // pg % pm for a in vec), s - g, m - g


def _slot_bytes(n, pm):
    """Bytes of a slot of ``LocalField._packed`` on a layer of degree n:
    a product slot sums at most n terms below pm^2."""
    return (2 * pm.bit_length() + n.bit_length() + 8) // 8


def _add_block(conv, k, prod):
    """conv[k] += prod, allocating the block on first use."""
    blk = conv[k]
    if blk is None:
        conv[k] = list(prod)
    else:
        for t, c in enumerate(prod):
            blk[t] += c


def _charpoly(A, mul, pm):
    """[c_1, ..., c_d] with det(t I - A) = t^d + c_1 t^(d-1) + ... + c_d
    mod pm, for a d x d matrix A of base-ring vectors with product ``mul``.

    Berkowitz's recursion (Inform. Process. Lett. 18, 1984) divides by
    nothing, so it is exact mod pm.  For the leading blocks
    A_(k+1) = [[A_k, C], [R, a]] and det(t I - A_k) = sum_j q_j t^(k-j),
    det(t I - A_(k+1)) = (t - a) det(t I - A_k) - R adj(t I - A_k) C, where
    adj(t I - A_k) = sum_i t^(k-1-i) sum_(j <= i) q_j A_k^(i-j): the last
    term convolves q with s_l = R A_k^l C.
    """
    b = len(A[0][0])

    def dot(us, vs):
        acc = [0] * b
        for u, v in zip(us, vs):
            acc = [a + c for a, c in zip(acc, mul(u, v, pm))]
        return acc

    q = [(1,) + (0,) * (b - 1)]
    for k, row in enumerate(A):
        v, s = [r[k] for r in A[:k]], []        # v = A_k^l C
        for l in range(k):
            if l:
                v = [dot(r[:k], v) for r in A[:k]]
            s.append(dot(row[:k], v))
        q.append((0,) * b)
        for i in range(k + 1, 0, -1):     # from the top: q[:i] is still old
            t = dot([row[k]] + q[:i - 1], [q[i - 1]] + s[:i - 1][::-1])
            q[i] = tuple((c - u) % pm for c, u in zip(q[i], t))
    return q[1:]


# ----------------------------------------------------------------------
# layer builders


def _pth_root_of_unity(base):
    """zeta_p as an element of ``base`` (requires a cyclotomic layer, a
    layer with minimal polynomial 1 + x + ... + x^(p-1), or p = 2)."""
    p = base.p
    if p == 2:
        return base.from_int(-1)
    for fld in reversed(base.layers):
        if fld.kind == "cyclo":
            return base.from_zeta_poly({fld.cyclo_modulus // p: 1})
        if fld.kind == "custom" and fld.d == p - 1:
            if all((c - c.field.one()).is_zero_to_precision()
                   for c in fld.coeffs):
                return base.embed(fld.gen())
    raise CertificationError(
        "kummer layer needs zeta_p in the base, read from a cyclotomic layer "
        "or a custom layer of relation 1 + x + ... + x^(p-1)")


def _extend_kummer_cyclic(base, rad, name):
    """Adjoin a p-th root of ``rad`` (element of base) as one certified layer.

    The stored layer relation uses the normalized radicand
    rad1 = rad c^p p^(p t) (integral coefficients, small valuation) of
    ``_normalize_radicand``, so the internal generator gen satisfies
    gen = rad^(1/p) c p^t.  When p | v1 = v(rad1), the peeled unit is
    rad1 monomial(-v1/p)^p = rad c^p, and the frame's beta (or alpha) is
    monomial(v1/p) A.  Returns the layer, which keeps c and t: its
    ``normalizer`` (c, c^-1) and ``user_generator()`` gen c^-1 p^-t, whose
    p-th power is rad, are made on first read, so a build that reads
    neither inverts no c.
    """
    p = base.p
    xi = _pth_root_of_unity(base)
    xi_powers = [base.one()]
    for _ in range(p - 1):
        xi_powers.append(xi_powers[-1] * xi)
    kind, peel, rad1, c, t = _classify_radicand(base, rad)
    if kind == "drop":
        raise DegreeDropError(
            "radicand is a p-th power in the base (to working precision)")
    v1 = rad1.valuation()
    K = KummerField(base, rad1, name, xi_powers, c, t)
    gen = K.gen()
    if kind == "eisenstein":
        K._certify(f"eisenstein-type (newton polygon slope {v1}/{p})",
                   p, v1, gen)
    elif kind == "tr":
        beta = base.monomial(v1 // p) * peel["A"]
        K._certify(peel["certificate"], p, peel["lambda"] + v1,
                   gen - K.embed(beta), beta=beta)
    else:  # unramified layer
        eun = base.e // (p - 1)
        alpha = base.monomial(v1 // p) * peel["A"]
        eta = gen * K.embed(alpha.inv())
        rho = (eta - K.one()) * K.embed(base.pi_pow(-eun))
        # gen = alpha (1 + pi_B^eun rho): the frame's delta is rho, a unit
        # whose residue has degree p (the Artin-Schreier obstruction)
        K._certify(peel["certificate"], 1, 0, rho, beta=alpha,
                   gamma=alpha * base.pi_pow(eun))
    return K


def _classify_radicand(base, rad):
    """(kind, peel, rad1, c, t) for x^p = rad over the base, with
    (rad1, c, t) of ``_normalize_radicand``: kind is "eisenstein" when p
    does not divide v1 = v(rad1) (peel None), else the (kind, data) of
    ``_peel_unit`` on the unit rad1 monomial(-v1/p)^p = rad c^p."""
    rad1, c, t = _normalize_radicand(base, rad)
    v1, p = rad1.valuation(), base.p
    if v1 % p:
        return "eisenstein", None, rad1, c, t
    u = rad1 * base.monomial_power(-v1 // p, p) if v1 else rad1
    return (*_peel_unit(base, u), rad1, c, t)


def _normalize_radicand(base, rad):
    """(rad1, c, t) with rad1 = rad c^p p^(p t) carrying integral
    coefficients and no p-power denominator, for c = base.monomial(-k),
    k = floor(v(rad) / p), of valuation -k (None when k = 0): no power of
    pi is inverted, and c's denominator is a power of p, which p^(p t)
    clears with the rest.  Raises FieldError when rad is exact and zero
    to precision, hence zero, and PrecisionError when any other rad is
    zero to precision."""
    if rad.exact and rad.is_zero_to_precision():
        raise FieldError("kummer radicand is zero")
    p = base.p
    k = rad.valuation() // p
    c = base.monomial(-k) if k else None
    rad1 = rad * base.monomial_power(-k, p) if k else rad._normalized()
    t = (rad1.s + p - 1) // p
    if t:
        rad1 = rad1 * base.from_int(p ** (p * t))   # p^(p t) clears p^s
    return FieldElement(base, rad1.vec, 0, rad1.m), c, t


def _walk_digits(K):
    """The digits a frame walk of K (``LocalField._val``) divides off: a
    layer divides block k by its frame's p^(t (d-1-k) + u k) (beta =
    . / p^t, gamma = . / p^u), at most (d - 1) max(t, u), and hands the
    blocks down to the walk of its base."""
    return sum((L.d - 1) * max(beta[1] if beta else 0,
                               gamma[1] if gamma else 0)
               for L in K.layers[1:] for beta, gamma, _, _ in [L.frame])


def _denominator_bound(K):
    """sigma: s(pi) plus (d - 1) s(delta) per unramified layer, a bound on
    the p-power denominator s of a translation lift(c') monomial(k) (the
    lift's share is the unramified layers', the monomial's s(pi)), and so
    of every integral element of K, a sum of such terms to precision."""
    return K.pi.s + sum((L.d - 1) * L.delta.s for L in K.layers[1:]
                        if L.f != L.base.f)


def _read_digits(K, k):
    """The digits above p^s that a cut element of K keeps so that its
    error has v_K >= k, which certifies every valuation and residue read
    below pi^k (Caruso-Roe-Vaccon precision tracking, arXiv:1402.0724).

    A numerator known mod p^m over p^s errs by v >= e (m - s), so
    ceil(k / e) digits reach k; the frame walk that reads the element
    divides its blocks by the frames' denominators (``_walk_digits``),
    which the reads need on top, and every element keeps _MIN_EFFECTIVE
    digits.  A read that a cut leaves short comes back undetermined and
    raises PrecisionError; it never misreads."""
    return max(-(-k // K.e) + _walk_digits(K), _MIN_EFFECTIVE)


def _peel_unit(base, u):
    """Classify x^p = u over the base, for a unit u, by successive unit
    peeling, which inverts nothing and is valid whenever the working
    modulus exceeds the bound p*e/(p-1); u may carry a small p-power
    denominator over non-monogenic bases, which the defect reads allow for.

    Each step makes one defect D = u - A^p, whose walk reads v = v(D)
    and the residue r of D / pi^v, and sets A <- A (1 + y) for the frame
    monomial y = ``lift_at(c, v / p)`` of residue c (p-th powers of
    principal units: I. Fesenko and S. Vostokov, Local Fields and Their
    Extensions, I 5), so the steps and A depend on the frames, not on pi.
    A starts at the lift of res(u)^(1/p), read by the inverse Frobenius
    x^(q/p), so res(A)^p = res(u) throughout.  Below the bound,
    (1 + y)^p = 1 + y^p modulo higher terms, so c = (r / res(u))^(1/p).
    At the bound the term p y counts too, and c solves c^p + eps c =
    r / res(u) with eps = res(p / pi^e); no solution in F_q is the
    Artin-Schreier obstruction of an unramified layer.

    Precision.  The peel searches for an adjuster and stores no value of
    its own, so any A whose reads come out the same is a valid answer:
    each step takes A's vector mod p^m as the exact value of A and reads
    D at the modulus m its reads need: v(D) and its residue up to
    T2 = p e / (p - 1), and the drop v(D) > T2.  A^p is over p^(p s(A))
    and u over p^s(u), so D is over p^s(D) <= max(s(u), p s(A)), and
    m = max(s(u), p s(A)) + ``_read_digits(base, floor(T2) + 1)`` keeps
    those digits of D, capped at u's modulus and M.  The update A (1 + y)
    divides by p^s(y) more, so it takes the exact A at m + s(y) and
    keeps m - s(A) digits above its denominator: A moves by v > T2 under
    the cut, and so does A^p, which no later read sees.  The shifts carry
    denominators, so s(A) grows and m is derived again at every step; a
    cut fixed once runs out on a tall tower.  The answer A comes back
    exact at M, and on a totally ramified layer the frame that takes it
    is certified at M (``LocalField._certify``).

    Returns (kind, data): kind in {"tr", "unram", "drop"}; data carries
    the final defect level lambda and the adjuster A with
    v(u / (A^p) - 1) = lambda, p not dividing lambda in the "tr" case.
    """
    p = base.p
    F = base.residue_field
    ru = base.residue_at(u, 0)
    ru_inv = F.pow(ru, -1)
    A = base.lift(F.pow(ru, F.q // p))
    T2 = Fraction(p * base.e, p - 1)
    digits = _read_digits(base, int(T2) + 1)
    for _ in range(int(T2) + p + 8):
        m = min(max(u.s, p * A.s) + digits, u.m, base.M)
        A = FieldElement(base, tuple(a % p ** m for a in A.vec), A.s)
        D = u.capped(m - u.s) - A.capped(m - A.s) ** p
        v, bound, r = base._val(D.vec, D.s, min(D.m, base.M), True)
        if v is None:
            if bound > T2:
                return "drop", None
            raise PrecisionError(
                "cannot classify kummer layer: unit defect below precision")
        if v > T2:
            return "drop", None
        if v % p:
            return "tr", {
                "A": A, "lambda": v,
                "certificate": f"totally ramified (unit defect level {v} "
                               f"below bound {T2})",
            }
        if r is None:
            raise PrecisionError(
                "cannot classify kummer layer: defect residue undetermined")
        w = F.mul(r, ru_inv)
        if v < T2:
            c = F.pow(w, F.q // p)
        else:
            eps = base.residue_at(base.from_int(p), base.e)
            c = next((c for c in F.elements
                      if F.add(F.pow(c, p), F.mul(eps, c)) == w), None)
            if c is None:
                return "unram", {
                    "A": A, "lambda": v,
                    "certificate": ("unramified (artin-schreier obstruction "
                                    f"at level {v})"),
                }
        y = base.lift_at(c, v // p)
        A = A.capped(m + y.s - A.s) * (base.one() + y)
    raise CertificationError("unit peeling did not terminate")


def _extend_quadratic(base, bcoef, ccoef, name):
    p = base.p
    if p == 2:
        raise CertificationError("quadratic custom layers require odd p")
    disc = bcoef * bcoef - base.from_int(4) * ccoef
    vd, bound = base.val_or_bound(disc)
    if vd is None:
        raise CertificationError("discriminant of quadratic is zero to precision")
    if vd % 2 == 0:
        # Euler's criterion in F_q (q odd); Hensel lifts a square residue
        F = base.residue_field
        if F.pow(base.residue_at(disc, vd), (F.q - 1) // 2) == F.one:
            raise CertificationError(
                "quadratic step is reducible (discriminant is a square)")
        ram = False
    else:
        ram = True
    K = CustomField(base, [ccoef, bcoef], name)
    half_b = bcoef * base.from_fraction(Fraction(1, 2))
    theta = K.gen() + K.embed(half_b)      # theta^2 = disc / 4
    if ram:
        K._certify("ramified quadratic (odd discriminant valuation)",
                   2, vd, theta, beta=-half_b)
    else:
        rho = theta * K.embed(base.pi_pow(-(vd // 2)))
        # the frame's delta is rho, a unit with rho^2 a non-square unit
        K._certify("unramified quadratic (non-square unit discriminant)",
                   1, 0, rho, beta=-half_b, gamma=base.pi_pow(vd // 2))
    return K


def _extend_custom(base, coeffs, name):
    """Monic layer certified by a one-segment Newton polygon."""
    d = len(coeffs)
    if d < 2:
        raise FieldError("custom step must have degree at least 2")
    for i, c in enumerate(coeffs):
        # the layer relation folds with numerators: a p-power denominator
        # would silently change the polynomial
        if c._normalized().s:
            raise FieldError("custom steps take integral monic polynomials; "
                             f"the coefficient of x^{i} is not integral")
    if d == 2:
        return _extend_quadratic(base, coeffs[1], coeffs[0], name)
    vals = []
    for i, c in enumerate(coeffs):
        v, bound = base.val_or_bound(c)
        vals.append((i, v))
    v0 = vals[0][1]
    if v0 is None:
        raise CertificationError("constant coefficient is zero to precision")
    if math.gcd(v0, d) != 1:
        raise CertificationError(
            "newton polygon inconclusive: slope denominator is not the degree")
    for i, v in vals[1:]:
        if v is not None and v * d < v0 * (d - i):
            raise CertificationError("newton polygon has several segments")
    K = CustomField(base, coeffs, name)
    K._certify(f"newton polygon single segment, slope {v0}/{d}", d, v0,
               K.gen())
    return K


# ----------------------------------------------------------------------
# public construction and operations


def build_field(p, steps, prec=None):
    """Construct the tower described by ``steps`` over Q_p.

    Every layer is certified at construction; degree drops or
    uncertifiable steps raise.  The returned field carries n, e, f, a
    verified uniformizer and the different; ``K.lift`` gives the residue
    representatives, and ``K.step_generators`` the generator of each
    step, made on first read.  A Kummer radicand ``"gen:<i>"`` is the
    generator of the earlier step i.  The cyclotomic layer is the shared
    ``_cyclotomic(p, p^r, digits)``, certified once per key and process.
    """
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    n_expected = 1
    for st in steps:
        if st.kind == "cyclotomic":
            n_expected *= st.modulus - st.modulus // p
        elif st.kind == "kummer":
            n_expected *= st.exponent
        else:
            n_expected *= len(st.coeffs)
    if n_expected > DEGREE_BUDGET:
        raise FieldError(f"tower degree {n_expected} exceeds the degree "
                         f"budget of {DEGREE_BUDGET}")
    digits = (max(prec or DEFAULT_DIGITS, n_expected + 32) + _GUARD_DIGITS
              + min(2 * n_expected, 160))
    K = QpField(p, digits)
    layers = []
    for step in steps:
        if step.kind == "cyclotomic":
            if K.base is not None:
                raise CertificationError("cyclotomic layer must sit directly on Q_p")
            K = _cyclotomic(p, step.modulus, digits)
            layers = [K]
        elif step.kind == "kummer":
            m = step.exponent
            s = _vp(m, p) if m > 1 else 0
            if m < 2 or p ** s != m:
                raise FieldError("kummer exponent must be a power of p")
            if isinstance(step.radicand, str) and step.radicand.startswith("gen:"):
                i = _step_index(step.radicand, len(layers))
                cur = layers[i].user_generator()
            else:
                cur = K.coerce(step.radicand)
            for j in range(s):
                if j:
                    cur = K.user_generator()
                K = _extend_kummer_cyclic(
                    K, K.embed(cur),
                    f"{K.name}(t^(1/{p ** (j + 1)}))")
            layers.append(K)
        elif step.kind == "custom":
            coeffs = [K.coerce(c) for c in step.coeffs]
            K = _extend_custom(K, [K.embed(c) for c in coeffs],
                               f"{K.name}[x]/(deg {len(coeffs)})")
            layers.append(K)
        else:
            raise FieldError(f"unknown step kind {step.kind!r}")
    if K.kind != "cyclo":           # a shared base keeps its own steps
        K.user_steps = list(steps)
        K._step_layers = layers
    if K.n != n_expected or K.e * K.f != K.n:
        raise FieldError("degree bookkeeping failed")
    if K.base is not None and K.from_int(p).valuation() != K.e:
        raise FieldError("v_K(p) != e")
    return K


def _step_index(radicand, n):
    """i of a ``gen:<i>`` radicand, the index of one of the n earlier
    steps, whose generator is the radicand."""
    i = radicand[4:]
    if not (i.isdecimal() and int(i) < n):
        raise FieldError(f"bad kummer radicand {radicand!r}: gen:<i> names "
                         f"an earlier step, 0 <= i < {n}")
    return int(i)


def norm_to_qp(x, prec=None):
    """N_{K/Q_p}(x) as a PadicScalar; multiplicative, resultant-based."""
    return x.field.norm_to_qp(x, prec)


def valuation(x):
    """Normalized valuation v_K(x); v_K(uniformizer) = 1, v_K(p) = e."""
    return x.valuation()


def residue(x):
    """Residue of an integral element: (F_q coordinates, lift)."""
    return x.field.residue(x)


def find_uniformizer(K):
    """The uniformizer certified at construction: p on Q_p, and on each
    layer above it ``LocalField._certify`` validates pi through the
    valuation frames as the layer is built, and raises
    UniformizerSearchError there when v_K(pi) != 1."""
    return K.pi


def different_valuation(K):
    """v_K of the different of K/Q_p, accumulated layer by layer: an
    unramified layer adds 0, a ramified one v_K(f'(gen)) - (d - 1)(w - 1)
    for its relation f and frame weight w (``LocalField._certify``)."""
    return K.different_val


def discriminant_valuation(K):
    """v_p of the discriminant of K/Q_p: f times the different valuation."""
    return K.f * different_valuation(K)


def different_bound(K):
    """e - 1 + n/f, that is 2e - 1, a yardstick for the different
    valuation and not a bound on it.  Serre's bound is v_K(D_K) <= e - 1
    + v_K(e) (Local Fields, III 6), which is 2e - 1 only when p divides e
    exactly once; Q_3(zeta_9, 3^(1/9)) has different 165 > 107."""
    return K.e - 1 + K.n // K.f


def closed_form_disc(p, r, variant):
    """Closed-form v_p(disc) for the two Kummer families over Q_p.

    variant "radicand-p": a = p;  variant "radicand-1+p": a = 1 + p.
    Evaluated with exact rationals for every r >= 1 (at r = 1 the first
    formula passes through a fractional intermediate term but its value
    is integral, equal to 2p(p-1) - 1).  They hold for odd p; at p = 2
    only r = 2, radicand p (24) matches its certified tower.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    if p == 2 and (r, variant) != (2, "radicand-p"):
        raise ValueError("closed forms hold for odd p; at p = 2 only r = 2 "
                         "with radicand p, v_2(disc) = 24")
    P, R = Fraction(p), Fraction(r)
    if variant == "radicand-p":
        val = (R * P ** (2 * r - 1) * (P - 1)
               + P * (P ** (2 * r) - 1) / (P + 1)
               - P * (P ** (2 * r - 3) + 1) / (P + 1))
    elif variant == "radicand-1+p":
        val = (P ** r * (R * P ** r - (R + 1) * P ** (r - 1))
               + 2 * (P ** (2 * r) - 1) / (P + 1))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if val.denominator != 1:
        raise ArithmeticError("closed form did not evaluate to an integer")
    return int(val)
