"""Finite extension towers of Q_p with exact truncated arithmetic.

A tower is a chain of fields, each one layer over its base:

  * ``cyclotomic``  -- Q_p(zeta_{p^r}) over Q_p (always the first layer),
  * ``kummer``      -- degree-p cyclic layer x^p = radicand, with zeta_p
                       in the base (a user step of exponent p^s becomes s
                       such layers),
  * ``quadratic``   -- monic degree-2 layer over a base of odd residue
                       characteristic,
  * ``custom``      -- monic polynomial layer certified by its Newton
                       polygon (totally ramified case only).

Elements are flat coefficient vectors over Z/p^m together with a power
of p in the denominator, so all ring operations are big-integer work.
Norms are computed level by level: each Galois layer contributes the
product of its conjugates (which is the resultant of the layer relation
against the element), and non-Galois custom layers fall back to the
determinant of the multiplication matrix.

Valuations come from norms: v_K(x) = v_p(N(x)) / f.  Every layer is
certified at construction time (Eisenstein/Newton polygon data, or the
unit-peeling classification of x^p = u), which also yields an explicit
uniformizer and the layer's contribution to the different.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .padic import PadicScalar, PrecisionError, is_prime, _vp

DEFAULT_DIGITS = 64
_GUARD_DIGITS = 96
_MIN_EFFECTIVE = 12
_MATERIALIZE_CHECK_LIMIT = 128


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
    label: str = ""

    @staticmethod
    def cyclotomic(modulus, label="z"):
        return TowerStep("cyclotomic", modulus=modulus, label=label)

    @staticmethod
    def kummer(exponent, radicand, label="t"):
        return TowerStep("kummer", exponent=exponent, radicand=radicand, label=label)

    @staticmethod
    def custom(coeffs, label="u"):
        return TowerStep("custom", coeffs=tuple(coeffs), label=label)


# ----------------------------------------------------------------------
# elements


class FieldElement:
    """Element of a LocalField: (vec / p^s) in the internal power basis.

    ``exact`` marks values built from integers through ring operations
    only, whose true coefficients are small enough that an all-zero
    vector certifies the exact zero (used to reject singular models).
    """

    __slots__ = ("field", "vec", "s", "m", "_val", "exact")

    def __init__(self, field, vec, s=0, m=None, exact=False):
        self.field = field
        self.vec = vec if isinstance(vec, tuple) else tuple(vec)
        self.s = s
        self.m = field.M if m is None else m
        self._val = None
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
        # the product numerator error is bounded by p^(m_other + w_self)
        # and p^(m_self + w_other) with w = s + floor(v/e) whenever the
        # valuation is known; this stops precision bleed in power chains
        bx = by = 0
        if self._val is not None and self._val[0] is not None:
            bx = max(0, self.s + self._val[0] // F.e)
        if other._val is not None and other._val[0] is not None:
            by = max(0, other.s + other._val[0] // F.e)
        m = min(self.m + by, other.m + bx, F.M)
        vec = F._mul(self.vec, other.vec, m)
        out = FieldElement(F, vec, self.s + other.s, m,
                           exact=self.exact and other.exact)
        if (self._val is not None and other._val is not None
                and self._val[0] is not None and other._val[0] is not None):
            out._val = (self._val[0] + other._val[0], None)
        return out._normalized() if out.s else out

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        out = self.field.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
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

    def _normalized(self):
        if self.s == 0:
            return self
        val = self._val
        p = self.field.p
        g = self.s
        for a in self.vec:
            if a:
                g = min(g, _vp(a, p))
                if g == 0:
                    return self
        if g == 0:
            return self
        pg = p ** g
        m = self.m - g
        pm = p ** m
        vec = tuple((a // pg) % pm for a in self.vec)
        out = FieldElement(self.field, vec, self.s - g, m, exact=self.exact)
        out._val = val
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
# fields


class LocalField:
    """One layer of a tower: built over ``base`` (None means Q_p itself).

    Instances are immutable after construction and safe to share.
    """

    def __init__(self, p, base, kind, degree, M, name):
        self.p = p
        self.base = base
        self.kind = kind                # qp | cyclo | kummer | quad | custom
        self.d = degree                 # layer degree over the base
        self.n = degree * (base.n if base else 1)
        self.M = M
        self.pM = p ** M
        self.name = name
        self._has_custom = bool(base is not None and base._has_custom)
        self.e = base.e if base else 1  # overwritten by builders
        self.f = base.f if base else 1
        self.pi = None
        self.residue_lifts = []
        self.residue_coords = []
        self.different_val = 0
        self.layer_diff = 0
        self.certificate = ""
        self.user_steps = []
        self.step_generators = []
        self._pi_pows = {}

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
        """Lift an element of the base field into this field."""
        if x.field is self:
            return x
        if self.base is None or x.field is not self.base:
            # allow embedding from any field further down the chain
            if self.base is not None:
                return self.embed_vec_elem(self.base.embed(x))
            raise FieldError("cannot embed element from unrelated field")
        return self.embed_vec_elem(x)

    def embed_vec_elem(self, x):
        vec = list(x.vec) + [0] * (self.n - len(x.vec))
        return FieldElement(self, vec, x.s, x.m, exact=x.exact)

    def gen(self):
        """Generator of this layer (internal, normalized)."""
        if self.kind == "qp":
            return self.from_int(self.p)
        vec = [0] * self.n
        b = self.base.n if self.base else 1
        vec[b] = 1
        return FieldElement(self, vec, 0, self.M)

    def from_zeta_poly(self, poly):
        """Element from {exponent: int coefficient} in the cyclotomic generator."""
        root = self
        while root.base is not None and root.kind != "cyclo":
            root = root.base
        if root.kind != "cyclo":
            if set(poly) <= {0}:
                return self.from_int(poly.get(0, 0))
            raise FieldError("tower has no cyclotomic layer for zeta coefficients")
        acc = root.zero()
        for expo, c in poly.items():
            acc = acc + root._zeta_power(expo) * c
        return self.embed(acc) if root is not self else acc

    def _zeta_power(self, t):
        t %= self.cyclo_modulus
        vec = list(self._cyclo_rep[t])
        return FieldElement(self, [a % self.pM for a in vec], 0, self.M,
                            exact=True)

    # -- multiplication kernel -------------------------------------------

    def _mul(self, xs, ys, m):
        pm = self.p ** m
        return self._mul_mod(xs, ys, pm)

    def _mul_mod(self, xs, ys, pm):
        raise NotImplementedError

    # -- norms -------------------------------------------------------------

    def norm_tower(self, x):
        """(integer, s, m): N_{K/Q_p}(x) = integer / p^s, known mod p^(m-s)."""
        vec, s, m = x.vec, x.s, x.m
        fld = self
        while fld.base is not None:
            if fld.kind == "custom":
                el = FieldElement(fld, vec, 0, m)
                nint, _, m2 = fld.norm_tower(el)
                return nint, s * fld.n, m2
            _, vec, extra_s, m = fld._layer_cofactor(vec, m)
            s = s * fld.d + extra_s
            fld = fld.base
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
        if x._val is not None:
            return x._val
        pm_x = self.p ** x.m
        if all(a % pm_x == 0 for a in x.vec[1:]):
            c = x.vec[0] % pm_x
            if c == 0:
                out = (None, (x.m - x.s) * self.e)
            else:
                out = (self.e * (_vp(c, self.p) - x.s), None)
            x._val = out
            return out
        nint, s, m = self.norm_tower(x)
        nint %= self.p ** m
        if nint == 0:
            out = (None, (m - s + self.f - 1) // self.f - (0 if s == 0 else 1))
        else:
            vp = _vp(nint, self.p) - s
            if vp % self.f:
                raise FieldError("norm valuation not divisible by the residue "
                                 "degree: internal inconsistency")
            out = (vp // self.f, None)
        x._val = out
        return out

    def val_at_least(self, x, k):
        v, bound = self.val_or_bound(x)
        if v is not None:
            return v >= k
        if bound >= k:
            return True
        raise PrecisionError(f"cannot decide v >= {k}: only known v >= {bound}")

    # -- inversion ----------------------------------------------------------

    def invert(self, x):
        """x^{-1} via the cofactor: product of all conjugates except x."""
        if self._has_custom:
            return self._invert_by_solve(x)
        a = x.s
        V = FieldElement(self, x.vec, 0, x.m) if a else x
        cof, nint, s2, m = self._cofactor(V)
        nint %= self.p ** m
        if nint == 0:
            raise ZeroDivisionError("inversion of element that is zero to precision")
        vnum = _vp(nint, self.p)
        unit = nint // self.p ** vnum
        uinv = pow(unit, -1, self.p ** m)
        pm = self.p ** m
        vec = tuple(c * uinv % pm for c in cof.vec)
        # V^{-1} = cof * p^{s2} / (p^vnum unit); then x^{-1} = p^a V^{-1}
        s_out = cof.s + vnum - s2 - a
        if s_out < 0:
            vec = tuple(c * self.p ** (-s_out) % pm for c in vec)
            s_out = 0
        out = FieldElement(self, vec, s_out, m)
        if x._val is not None and x._val[0] is not None:
            out._val = (-x._val[0], None)
        return out._normalized()

    def _invert_by_solve(self, x):
        """x^{-1} by solving x * y = 1 (towers with a non-Galois custom
        layer have no conjugate cofactor)."""
        cols, m = self._flat_mult_matrix(FieldElement(self, x.vec, 0, x.m))
        rhs = [0] * self.n
        rhs[0] = 1
        sol, shift = _padic_solve(cols, rhs, self.p, m)
        res = FieldElement(self, tuple(sol), shift, m)._normalized()
        if x.s:
            res = res * self.from_int(self.p ** x.s)
        return res._normalized()

    def _flat_mult_matrix(self, x):
        """Columns: x * basis_j over Q_p, as integer vectors mod p^m."""
        n = self.n
        pm = self.p ** x.m
        cols = []
        for j in range(n):
            basis = [0] * n
            basis[j] = 1
            cols.append(self._mul_mod(x.vec, tuple(basis), pm))
        return cols, x.m

    def _cofactor(self, x):
        """Return (cofactor element of self, norm integer, extra_s, m)."""
        fld = self
        vec, m = x.vec, x.m
        s = 0
        partials = []
        while fld.base is not None:
            partial, vec, extra_s, m = fld._layer_cofactor(vec, m)
            partials.append((fld, partial))
            s = s * fld.d + extra_s
            fld = fld.base
        cof = None
        for fld2, partial in partials:
            lifted = partial if fld2 is self else self.embed(partial)
            cof = lifted if cof is None else cof * lifted
        return cof, vec[0], s, m

    def _layer_cofactor(self, vec, m):
        """(cofactor-of-this-layer as element of self, base vec of N_layer, extra_s, m)."""
        raise NotImplementedError

    # -- residues -------------------------------------------------------------

    def residue(self, x):
        """Index and lift of the residue of x (requires v(x) >= 0)."""
        if not self.val_at_least(x, 0):
            raise FieldError("residue of element with negative valuation")
        for i, c in enumerate(self.residue_lifts):
            if self.val_at_least(x - c, 1):
                return i, c
        raise PrecisionError("no residue representative matched; precision too low")

    # -- uniformizer helpers ---------------------------------------------------

    def pi_pow(self, k):
        out = self._pi_pows.get(k)
        if out is None:
            if k >= 0:
                prev = self.pi_pow(k - 1) if k else self.one()
                out = prev * self.pi if k else prev
            else:
                pos = self.pi_pow(-k)
                out = pos.inv()
            out._val = (k, None)
            self._pi_pows[k] = out
        return out

    def div_pi(self, x, k):
        return x * self.pi_pow(-k)

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
        self.e = self.f = 1
        self.pi = self.from_int(p)
        self.residue_lifts = [self.from_int(c) for c in range(p)]
        self.residue_coords = [(c,) for c in range(p)]
        self.different_val = 0

    def _mul_mod(self, xs, ys, pm):
        return (xs[0] * ys[0] % pm,)

    def norm_tower(self, x):
        return x.vec[0], x.s, x.m

    def _cofactor(self, x):
        return self.one(), x.vec[0], x.s, x.m


class CycloField(LocalField):
    """Q_p(zeta_{p^r}), totally ramified of degree phi(p^r)."""

    def __init__(self, base, modulus, M, name):
        p = base.p
        r = _vp(modulus, p) if modulus > 1 else 0
        if modulus < 3 or p ** r != modulus:
            raise FieldError("cyclotomic modulus must be a power of p, >= 3")
        phi = modulus - modulus // p
        if base.kind != "qp":
            raise CertificationError("cyclotomic layer must sit directly on Q_p")
        super().__init__(p, base, "cyclo", phi, M, name)
        self.cyclo_modulus = modulus
        self.e = phi
        self.f = 1
        # representation of zeta^t in the power basis, for all t < modulus
        rep = [[0] * phi for _ in range(modulus)]
        for t in range(phi):
            rep[t][t] = 1
        step = modulus // p  # zeta^phi = -(1 + zeta^step + ... + zeta^((p-2)step))
        for t in range(phi, modulus):
            acc = [0] * phi
            for i in range(p - 1):
                e2 = t - phi + i * step
                for j in range(phi):
                    acc[j] -= rep[e2][j]
            rep[t] = acc
        self._cyclo_rep = [tuple(row) for row in rep]
        # conjugation tables zeta -> zeta^a for units a
        self._conj_units = [a for a in range(1, modulus) if a % p]
        self._conj_rows = {
            a: [self._cyclo_rep[(j * a) % modulus] for j in range(phi)]
            for a in self._conj_units
        }
        self.pi = self.gen() - self.one()
        self.residue_lifts = [self.from_int(c) for c in range(p)]
        self.residue_coords = [(c,) for c in range(p)]
        if self.pi.valuation() != 1:
            raise CertificationError("cyclotomic uniformizer check failed")
        if self.embed(base.pi).valuation() != self.e:
            raise CertificationError("cyclotomic ramification check failed")
        # different via the derivative of the cyclotomic polynomial at zeta:
        # Phi(x) = sum x^(i*step), Phi'(zeta) = sum (i*step) zeta^(i*step - 1)
        dphi = self.zero()
        for i in range(1, p):
            c = i * step
            dphi = dphi + self._zeta_power(c - 1) * c
        self.layer_diff = dphi.valuation()
        self.different_val = self.layer_diff
        self.certificate = f"cyclotomic({modulus}): Eisenstein after x -> x+1"

    def _mul_mod(self, xs, ys, pm):
        phi = self.d
        conv = [0] * (2 * phi - 1)
        for i, a in enumerate(xs):
            if a:
                for j, b in enumerate(ys):
                    if b:
                        conv[i + j] += a * b
        out = conv[:phi]
        for t in range(phi, 2 * phi - 1):
            c = conv[t]
            if c:
                row = self._cyclo_rep[t % self.cyclo_modulus]
                for j in range(phi):
                    if row[j]:
                        out[j] += c * row[j]
        return tuple(c % pm for c in out)

    def apply_conj(self, vec, a, m):
        """zeta -> zeta^a on a flat vector."""
        pm = self.p ** m
        phi = self.d
        out = [0] * phi
        rows = self._conj_rows[a]
        for j, c in enumerate(vec):
            if c:
                row = rows[j]
                for k in range(phi):
                    if row[k]:
                        out[k] += c * row[k]
        return tuple(c % pm for c in out)

    def _layer_cofactor(self, vec, m):
        prod = None
        for a in self._conj_units:
            if a == 1:
                continue
            cv = self.apply_conj(vec, a, m)
            prod = cv if prod is None else self._mul_mod(prod, cv, self.p ** m)
        full = self._mul_mod(prod, vec, self.p ** m)
        pm = self.p ** m
        for c in full[1:]:
            if c % pm:
                raise PrecisionError("cyclotomic norm did not land in Q_p")
        return (FieldElement(self, prod, 0, m), (full[0],), 0, m)


class KummerField(LocalField):
    """Degree-p cyclic layer x^p = radicand over a base containing zeta_p."""

    def __init__(self, base, radicand, M, name, xi_powers):
        p = base.p
        super().__init__(p, base, "kummer", p, M, name)
        self.radicand = radicand          # base element, integral coefficients
        self.xi_powers = xi_powers        # zeta_p^t as base elements, t < p
        # cumulative e, f set by the builder after certification

    def _mul_mod(self, xs, ys, pm):
        b = self.base.n
        d = self.d
        xb = [xs[i * b:(i + 1) * b] for i in range(d)]
        yb = [ys[i * b:(i + 1) * b] for i in range(d)]
        zero = (0,) * b
        conv = [None] * (2 * d - 1)
        for i in range(d):
            if all(c == 0 for c in xb[i]):
                continue
            for j in range(d):
                if all(c == 0 for c in yb[j]):
                    continue
                prod = self.base._mul_mod(xb[i], yb[j], pm)
                k = i + j
                if conv[k] is None:
                    conv[k] = list(prod)
                else:
                    ck = conv[k]
                    for t, c in enumerate(prod):
                        ck[t] += c
        out = [list(conv[i]) if conv[i] is not None else list(zero)
               for i in range(d)]
        rad = self.radicand.vec
        for t in range(d, 2 * d - 1):
            if conv[t] is None:
                continue
            fold = self.base._mul_mod(tuple(c % pm for c in conv[t]), rad, pm)
            tgt = out[t - d]
            for k, c in enumerate(fold):
                tgt[k] += c
        flat = []
        for blk in out:
            flat.extend(c % pm for c in blk)
        return tuple(flat)

    def _twist(self, vec, i, m):
        """Conjugate gen -> xi^i gen."""
        b = self.base.n
        pm = self.p ** m
        out = []
        for j in range(self.d):
            blk = vec[j * b:(j + 1) * b]
            t = (i * j) % self.d
            if t == 0:
                out.extend(blk)
            else:
                out.extend(self.base._mul_mod(blk, self.xi_powers[t].vec, pm))
        return tuple(out)

    def _layer_cofactor(self, vec, m):
        pm = self.p ** m
        prod = None
        for i in range(1, self.d):
            tw = self._twist(vec, i, m)
            prod = tw if prod is None else self._mul_mod(prod, tw, pm)
        full = self._mul_mod(prod, vec, pm)
        return (FieldElement(self, prod, 0, m), self._project(full, m), 0, m)


class QuadField(LocalField):
    """Monic quadratic layer x^2 + b x + c over a base with p odd."""

    def __init__(self, base, bcoef, ccoef, M, name):
        super().__init__(base.p, base, "quad", 2, M, name)
        self.bcoef = bcoef
        self.ccoef = ccoef

    def _mul_mod(self, xs, ys, pm):
        b = self.base.n
        x0, x1 = xs[:b], xs[b:]
        y0, y1 = ys[:b], ys[b:]
        mul = self.base._mul_mod
        lo = mul(x0, y0, pm)
        hi = mul(x1, y1, pm)
        mid = [a + c for a, c in
               zip(mul(x0, y1, pm), mul(x1, y0, pm))]
        # theta^2 = -b theta - c
        hb = mul(tuple(a % pm for a in hi), self.bcoef.vec, pm)
        hc = mul(tuple(a % pm for a in hi), self.ccoef.vec, pm)
        out0 = tuple((l - c) % pm for l, c in zip(lo, hc))
        out1 = tuple((mi - hbv) % pm for mi, hbv in zip(mid, hb))
        return out0 + out1

    def _conj_vec(self, vec, m):
        # theta -> -b - theta
        b = self.base.n
        pm = self.p ** m
        x0, x1 = vec[:b], vec[b:]
        shift = self.base._mul_mod(x1, self.bcoef.vec, pm)
        out0 = tuple((a - c) % pm for a, c in zip(x0, shift))
        out1 = tuple(-a % pm for a in x1)
        return out0 + out1

    def _layer_cofactor(self, vec, m):
        conj = self._conj_vec(vec, m)
        full = self._mul_mod(vec, conj, self.p ** m)
        return (FieldElement(self, conj, 0, m), self._project(full, m), 0, m)


class CustomField(LocalField):
    """Monic polynomial layer; norms via the multiplication matrix."""

    def __init__(self, base, coeffs, M, name):
        d = len(coeffs)
        super().__init__(base.p, base, "custom", d, M, name)
        self._has_custom = True
        self.coeffs = coeffs  # low-degree first, base elements; theta^d = -sum c_i theta^i

    def _mul_mod(self, xs, ys, pm):
        b = self.base.n
        d = self.d
        xb = [xs[i * b:(i + 1) * b] for i in range(d)]
        yb = [ys[i * b:(i + 1) * b] for i in range(d)]
        conv = [[0] * b for _ in range(2 * d - 1)]
        for i in range(d):
            if all(c == 0 for c in xb[i]):
                continue
            for j in range(d):
                if all(c == 0 for c in yb[j]):
                    continue
                prod = self.base._mul_mod(xb[i], yb[j], pm)
                tgt = conv[i + j]
                for t, c in enumerate(prod):
                    tgt[t] += c
        # reduce from the top down: theta^(d+k) -> -(sum c_i theta^(i+k))
        for t in range(2 * d - 2, d - 1, -1):
            blk = tuple(c % pm for c in conv[t])
            if all(c == 0 for c in blk):
                continue
            for i in range(d):
                ci = self.coeffs[i].vec
                prod = self.base._mul_mod(blk, ci, pm)
                tgt = conv[t - d + i]
                for k, c in enumerate(prod):
                    tgt[k] -= c
        flat = []
        for i in range(d):
            flat.extend(c % pm for c in conv[i])
        return tuple(flat)

    def norm_tower(self, x):
        cols, m = self._flat_mult_matrix(x)
        return _padic_det(cols, self.p, m), x.s * self.n, m

    def invert(self, x):
        # same path as LocalField.invert takes for custom towers; kept as
        # this class's own method because bench/spans.py traces it
        return self._invert_by_solve(x)


def _eliminate(A, p, m):
    """Row-reduce the integer matrix A in place, mod p^m.

    Column by column, pivot on the entry of least p-adic valuation, scale
    the pivot row so that the pivot becomes p^v, and clear the column
    below it.  Rows may extend past the square part (an augmented
    right-hand side rides along).  Every step is exact mod p^m, so the
    determinant of the square part is unit * p^sum(vals) mod p^m for the
    returned (unit, vals).  Raises ZeroDivisionError when a column is zero
    to precision, i.e. when the determinant is.
    """
    n = len(A)
    pm = p ** m
    unit = 1
    vals = []
    for k in range(n):
        piv, pv = None, None
        for i in range(k, n):
            a = A[i][k] % pm
            if a:
                v = _vp(a, p)
                if pv is None or v < pv:
                    piv, pv = i, v
                    if v == 0:
                        break
        if piv is None:
            raise ZeroDivisionError("matrix is singular to precision")
        if piv != k:
            A[k], A[piv] = A[piv], A[k]
            unit = -unit
        u = A[k][k] % pm // p ** pv
        unit = unit * u % pm
        uinv = pow(u, -1, pm)
        A[k] = [a * uinv % pm for a in A[k]]  # pivot becomes p^pv
        vals.append(pv)
        for i in range(k + 1, n):
            a = A[i][k] % pm
            if a == 0:
                continue
            fac = a // p ** pv  # exact: pivot valuation is minimal in column
            A[i] = [(x - fac * y) % pm for x, y in zip(A[i], A[k])]
    return unit, vals


def _padic_det(rows, p, m):
    """Determinant of an integer matrix mod p^m (0 when zero to precision)."""
    try:
        unit, vals = _eliminate([list(r) for r in rows], p, m)
    except ZeroDivisionError:
        return 0
    return unit * p ** sum(vals) % p ** m


def _padic_solve(cols, rhs, p, m):
    """Solve A x = rhs over Q_p to precision, A given by its columns.

    Back substitution over the eliminated rows with a running p-power
    denominator.  Returns (numerator vector, shift) with
    x = numerator / p^shift; raises ZeroDivisionError when A is singular
    to precision.
    """
    n = len(cols)
    pm = p ** m
    A = [list(row) + [b] for row, b in zip(zip(*cols), rhs)]
    _, vals = _eliminate(A, p, m)
    # x_k = (b_k - sum A[k][j] x_j) / p^(pv_k)
    num = [0] * n   # numerators over denominator p^shift
    shift = 0
    for k in range(n - 1, -1, -1):
        t = (A[k][n] * p ** shift
             - sum(A[k][j] * num[j] for j in range(k + 1, n))) % pm
        if vals[k]:
            shift += vals[k]
            num = [c * p ** vals[k] % pm for c in num]
        num[k] = t
    return num, shift


# ----------------------------------------------------------------------
# layer builders


def _pth_root_of_unity(base):
    """zeta_p as an element of ``base`` (requires a cyclotomic layer, a
    layer with minimal polynomial 1 + x + ... + x^(p-1), or p = 2)."""
    p = base.p
    if p == 2:
        return base.from_int(-1)
    fld = base
    while fld is not None:
        if fld.kind == "cyclo":
            return base.embed(fld._zeta_power(fld.cyclo_modulus // p))
        if fld.kind in ("quad", "custom") and fld.d == p - 1:
            coeffs = ([fld.ccoef, fld.bcoef] if fld.kind == "quad"
                      else list(fld.coeffs))
            if all((c - c.field.one()).is_zero_to_precision() for c in coeffs):
                return base.embed(fld.gen())
        fld = fld.base
    raise CertificationError(
        "kummer layer needs zeta_p in the base; add a cyclotomic step first")


def _extend_kummer_cyclic(base, rad, name):
    """Adjoin a p-th root of ``rad`` (element of base) as one certified layer.

    The stored layer relation uses the normalized radicand
    rad1 = rad * pi^(-p k) * p^(p t)  (integral coefficients, small
    valuation), so the internal generator gen satisfies
    gen = rad^(1/p) * pi^(-k) * p^t.  Returns (field, user_generator)
    with user_generator^p = rad exactly.
    """
    p = base.p
    M = base.M
    xi = _pth_root_of_unity(base)
    xi_powers = [base.one()]
    for _ in range(p - 1):
        xi_powers.append(xi_powers[-1] * xi)
    rad1, k, t = _normalize_radicand(base, rad)
    v1 = rad1.valuation()
    peel = None
    if v1 % p != 0:
        cert = f"eisenstein-type (newton polygon slope {v1}/{p})"
        kind = "tr"
    else:
        kind, peel = _peel_unit(base, rad1, v1)
        if kind == "drop":
            raise DegreeDropError(
                "radicand is a p-th power in the base (to working precision)")
        cert = peel["certificate"]
    K = KummerField(base, rad1, M, name, xi_powers)
    K.gen_shift = (k, t)   # gen = rad^(1/p) * pi_B^(-k) * p^t
    gen = K.gen()
    if kind == "tr":
        K.e = base.e * p
        K.f = base.f
        if v1 % p != 0:
            # sigma_i(pi) - pi = gen^x pi^y (xi^(ix) - 1)
            x = pow(v1, -1, p)
            y = (1 - x * v1) // p
            if gen.valuation() != v1:
                raise CertificationError("generator valuation check failed")
            delta, piexp, vdelta = gen, y, v1
        else:
            lam = peel["lambda"]
            c = v1 // p
            delta = gen - K.embed(base.pi_pow(c) * peel["A"])
            vdelta = lam + p * c
            # validate on the integral numerator (delta may carry a p-power
            # denominator through the adjuster)
            dint = FieldElement(K, delta.vec, 0, delta.m)
            if dint.valuation() != vdelta + K.d * base.e * delta.s:
                raise CertificationError("unit-layer defect check failed")
            x = pow(lam, -1, p)
            y = (1 - x * lam) // p
            piexp = y - c * x
        K.pi = (delta ** x * K.embed(base.pi_pow(piexp)))._normalized()
        if v1 % p == 0:
            Ainvx = K.embed(base.invert(peel["A"])) ** x
            K.pi = (K.pi * Ainvx)._normalized()
        K.pi_factored = {"delta": delta, "x": x, "pi_exp": piexp,
                         "A_exp": -x if v1 % p == 0 else 0,
                         "A": peel["A"] if peel else None,
                         "vdelta": vdelta}
        K.residue_lifts = [K.embed(c2) for c2 in base.residue_lifts]
        K.residue_coords = list(base.residue_coords)
    else:  # unramified layer
        K.e = base.e
        K.f = base.f * p
        K.pi = K.embed(base.pi)
        K.pi_factored = None
        eun = base.e // (p - 1)
        eta = gen * K.embed((base.pi_pow(v1 // p) * peel["A"]).inv())
        rho = (eta - K.one()) * K.embed(base.pi_pow(-eun))
        lifts, coords = [], []
        for tup in itertools.product(range(len(base.residue_lifts)), repeat=p):
            acc = K.zero()
            rp = K.one()
            for ci in tup:
                acc = acc + K.embed(base.residue_lifts[ci]) * rp
                rp = rp * rho
            lifts.append(acc)
            coords.append(tup)
        K.residue_lifts = lifts
        K.residue_coords = coords
    K.certificate = cert
    if K.n <= _MATERIALIZE_CHECK_LIMIT:
        if K.pi.valuation() != 1:
            raise UniformizerSearchError("constructed uniformizer is not one")
        if K.embed(base.pi).valuation() != (p if kind == "tr" else 1):
            raise CertificationError("ramification index check failed")
    # different of the layer from the conjugate differences of pi:
    #   sigma_i(pi)/pi = (sigma_i(delta)/delta)^x  and
    #   sigma_i(delta) - delta = (xi^i - 1) gen,
    # so v(sigma_i(pi) - pi) = 1 + p v_B(xi^i - 1) + v1 - v(delta)
    # (the geometric factor of the x-th power is a unit since 0 < x < p).
    if kind == "tr":
        D = 0
        for i in range(1, p):
            vxi = p * xi_powers[1].field.val_or_bound(
                xi_powers[i] - base.one())[0]
            D += 1 + vxi + v1 - vdelta
        K.layer_diff = D
        K.different_val = (D + p * base.different_val
                           if base.different_val is not None else None)
    else:
        K.layer_diff = 0
        K.different_val = base.different_val
    if k or t:
        user_gen = gen * K.embed(base.pi_pow(k)) * K.from_fraction(
            Fraction(1, p ** t))
    else:
        user_gen = gen
    return K, user_gen


def _normalize_radicand(base, rad):
    """(rad1, k, t) with rad1 = rad * pi^(-p k) * p^(p t) carrying integral
    coefficients and no p-power denominator; raises PrecisionError when
    rad is zero to precision."""
    p = base.p
    k = rad.valuation() // p
    rad1 = (rad * base.pi_pow(-p * k))._normalized() if k else rad._normalized()
    t = (rad1.s + p - 1) // p
    if t:
        rad1 = (rad1 * base.from_int(p ** (p * t)))._normalized()
    if rad1.s:
        raise FieldError("radicand has residual denominator after scaling")
    return FieldElement(base, rad1.vec, 0, rad1.m), k, t


def _peel_unit(base, rad1, v1):
    """Classify x^p = unit over the base by successive unit peeling.

    The defect level of the adjuster A is v(u - A^p) - v(u); everything
    stays integral (no inverses), so the computation is valid whenever
    the working modulus exceeds the peeling bound p*e/(p-1).

    Returns (kind, data): kind in {"tr", "unram", "drop"}; data carries
    the final defect level lambda and the adjuster A with
    v(u / (A^p) - 1) = lambda, p not dividing lambda in the "tr" case.
    """
    p = base.p
    # the unit may carry a small p-power denominator over non-monogenic
    # bases; the defect comparisons below are denominator-aware
    u = (rad1 * base.pi_pow(-v1))._normalized() if v1 else rad1
    A = None
    for c in base.residue_lifts[1:]:
        if base.val_at_least(u - c ** p, 1):
            A = c
            break
    if A is None:
        raise PrecisionError("no Teichmueller adjustment found (precision?)")

    def defect(adj):
        return base.val_or_bound(u - adj ** p)

    T2 = Fraction(p * base.e, p - 1)
    boundary = T2.denominator == 1
    max_iter = int(T2) + p + 8
    for _ in range(max_iter):
        v, bound = defect(A)
        if v is None:
            if bound > T2:
                return "drop", None
            raise PrecisionError(
                "cannot classify kummer layer: unit defect below precision")
        if Fraction(v) > T2:
            return "drop", None
        if v % p == 0 or (boundary and v == int(T2)):
            improved = False
            shift = base.pi_pow(v // p) if not (boundary and v == int(T2)) \
                else base.pi_pow(base.e // (p - 1))
            for c in base.residue_lifts[1:]:
                cand = A * (base.one() + c * shift)
                dv, dbound = defect(cand)
                if dv is None or dv > v:
                    A = cand
                    improved = True
                    break
            if improved:
                continue
            if boundary and v == int(T2):
                return "unram", {
                    "A": A, "lambda": v,
                    "certificate": ("unramified (artin-schreier obstruction "
                                    f"at level {v})"),
                }
            raise CertificationError(
                "frobenius peel failed: residue system inconsistent")
        return "tr", {
            "A": A, "lambda": v,
            "certificate": f"totally ramified (unit defect level {v} "
                           f"below bound {T2})",
        }
    raise CertificationError("unit peeling did not terminate")


def _extend_quadratic(base, bcoef, ccoef, M, name):
    p = base.p
    if p == 2:
        raise CertificationError("quadratic custom layers require odd p")
    disc = bcoef * bcoef - base.from_int(4) * ccoef
    vd, bound = base.val_or_bound(disc)
    if vd is None:
        raise CertificationError("discriminant of quadratic is zero to precision")
    if vd % 2 == 0:
        unit = disc * base.pi_pow(-vd)
        for c in base.residue_lifts[1:]:
            if base.val_at_least(unit - c * c, 1):
                raise CertificationError(
                    "quadratic step is reducible (discriminant is a square)")
        ram = False
    else:
        ram = True
    K = QuadField(base, bcoef, ccoef, M, name)
    gen = K.gen()
    theta = gen + K.embed(bcoef * base.from_fraction(Fraction(1, 2)))
    if ram:
        K.e = base.e * 2
        K.f = base.f
        y = (1 - vd) // 2  # v_K(theta) = vd (odd), so theta * pi^y uniformizes
        K.pi = theta * K.embed(base.pi_pow(y))
        K.residue_lifts = [K.embed(c) for c in base.residue_lifts]
        K.residue_coords = list(base.residue_coords)
        conj = FieldElement(K, K._conj_vec(K.pi.vec, K.pi.m), K.pi.s, K.pi.m)
        K.layer_diff = (conj - K.pi).valuation()
        K.different_val = K.layer_diff + 2 * base.different_val
    else:
        K.e = base.e
        K.f = base.f * 2
        K.pi = K.embed(base.pi)
        rho = theta * K.embed(base.pi_pow(-(vd // 2)))
        lifts, coords = [], []
        for tup in itertools.product(range(len(base.residue_lifts)), repeat=2):
            acc = K.embed(base.residue_lifts[tup[0]]) + \
                K.embed(base.residue_lifts[tup[1]]) * rho
            lifts.append(acc)
            coords.append(tup)
        K.residue_lifts = lifts
        K.residue_coords = coords
        K.layer_diff = 0
        K.different_val = base.different_val
    K.certificate = ("ramified quadratic (odd discriminant valuation)" if ram
                     else "unramified quadratic (non-square unit discriminant)")
    if K.pi.valuation() != 1:
        raise UniformizerSearchError("quadratic layer uniformizer failed")
    return K


def _extend_custom(base, coeffs, M, name):
    """Monic layer certified by a one-segment Newton polygon."""
    d = len(coeffs)
    if d < 2:
        raise FieldError("custom step must have degree at least 2")
    if d == 2:
        return _extend_quadratic(base, coeffs[1], coeffs[0], M, name)
    vals = []
    for i, c in enumerate(coeffs):
        v, bound = base.val_or_bound(c)
        vals.append((i, v))
    v0 = vals[0][1]
    if v0 is None:
        raise CertificationError("constant coefficient is zero to precision")
    if _gcd(v0, d) != 1:
        raise CertificationError(
            "newton polygon inconclusive: slope denominator is not the degree")
    for i, v in vals[1:]:
        if v is not None and v * d < v0 * (d - i):
            raise CertificationError("newton polygon has several segments")
    K = CustomField(base, coeffs, M, name)
    K.e = base.e * d
    K.f = base.f
    gen = K.gen()
    x = pow(v0, -1, d)
    y = (1 - x * v0) // d
    K.pi = gen ** x * K.embed(base.pi_pow(y))
    K.residue_lifts = [K.embed(c) for c in base.residue_lifts]
    K.residue_coords = list(base.residue_coords)
    K.certificate = f"newton polygon single segment, slope {v0}/{d}"
    if K.pi.valuation() != 1:
        raise UniformizerSearchError("custom layer uniformizer failed")
    # different: valid when the generator is an Eisenstein uniformizer
    if v0 == 1:
        dg = K.zero()
        for i in range(1, d):
            dg = dg + K.embed(coeffs[i]) * i * gen ** (i - 1)
        dg = dg + K.from_int(d) * gen ** (d - 1)
        K.layer_diff = dg.valuation()
        K.different_val = K.layer_diff + d * base.different_val
    else:
        K.layer_diff = None
        K.different_val = None
    return K


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return abs(a)


# ----------------------------------------------------------------------
# public construction and operations


def build_field(p, steps, prec=None, names=None):
    """Construct the tower described by ``steps`` over Q_p.

    Every layer is certified at construction; degree drops or
    uncertifiable steps raise.  The returned field carries n, e, f, a
    verified uniformizer, residue representatives and the different.
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
    digits = (max(prec or DEFAULT_DIGITS, n_expected + 32) + _GUARD_DIGITS
              + min(2 * n_expected, 160))
    K = QpField(p, digits)
    gens = []
    for step in steps:
        if step.kind == "cyclotomic":
            K = CycloField(K, step.modulus, digits, f"Q_{p}(zeta_{step.modulus})")
            gens = [K.gen()]
        elif step.kind == "kummer":
            m = step.exponent
            s = _vp(m, p) if m > 1 else 0
            if m < 2 or p ** s != m:
                raise FieldError("kummer exponent must be a power of p")
            if isinstance(step.radicand, str) and step.radicand.startswith("gen:"):
                cur = gens[int(step.radicand[4:])]
            else:
                cur = _coerce_radicand(K, step.radicand)
            gen = None
            for j in range(s):
                K, gen = _extend_kummer_cyclic(
                    K, K.embed(cur),
                    f"{K.name}({step.label}^(1/{p ** (j + 1)}))")
                cur = gen
            gens = [K.embed(g) for g in gens]
            gens.append(gen)
        elif step.kind == "custom":
            coeffs = [_coerce_radicand(K, c) for c in step.coeffs]
            K = _extend_custom(K, [K.embed(c) for c in coeffs], digits,
                               f"{K.name}[x]/(deg {len(coeffs)})")
            gens = [K.embed(g) for g in gens]
            gens.append(K.gen())
        else:
            raise FieldError(f"unknown step kind {step.kind!r}")
    K.user_steps = list(steps)
    K.step_generators = gens
    if K.n != n_expected or K.e * K.f != K.n:
        raise FieldError("degree bookkeeping failed")
    if K.base is not None and K.from_int(p).valuation() != K.e:
        raise FieldError("v_K(p) != e")
    return K


def _coerce_radicand(K, rad):
    if isinstance(rad, FieldElement):
        return rad
    if isinstance(rad, int):
        return K.from_int(rad)
    if isinstance(rad, Fraction):
        return K.from_fraction(rad)
    if isinstance(rad, dict):
        return K.from_zeta_poly(rad)
    raise FieldError(f"cannot interpret radicand {rad!r}")


def norm_to_qp(x, prec=None):
    """N_{K/Q_p}(x) as a PadicScalar; multiplicative, resultant-based."""
    return x.field.norm_to_qp(x, prec)


def valuation(x):
    """Normalized valuation v_K(x); v_K(uniformizer) = 1, v_K(p) = e."""
    return x.valuation()


def residue(x):
    """Residue of an integral element: (coordinates, lift)."""
    i, lift = x.field.residue(x)
    return x.field.residue_coords[i], lift


def find_uniformizer(K):
    """The uniformizer certified at construction, validated by its norm
    when the tower is small enough to materialize the check."""
    # larger towers are certified layer by layer at construction; a direct
    # norm of the materialized element would overflow the working modulus
    if K.n <= _MATERIALIZE_CHECK_LIMIT and K.val_or_bound(K.pi)[0] != 1:
        raise UniformizerSearchError("certified uniformizer failed validation")
    return K.pi


def different_valuation(K):
    """v_K of the different of K/Q_p, accumulated layer by layer."""
    if K.different_val is None:
        raise CertificationError(
            "different not available: tower has an uncertified custom layer")
    return K.different_val


def discriminant_valuation(K):
    """v_p of the discriminant of K/Q_p: f times the different valuation."""
    return K.f * different_valuation(K)


def different_bound(K):
    """Anabelian upper bound e - 1 + n/f for the different valuation."""
    return K.e - 1 + K.n // K.f


def closed_form_disc(p, r, variant):
    """Closed-form v_p(disc) for the two Kummer families over Q_p.

    variant "radicand-p": a = p;  variant "radicand-1+p": a = 1 + p.
    Evaluated with exact rationals for every r >= 1 (at r = 1 the first
    formula passes through a fractional intermediate term but its value
    is integral, equal to 2p(p-1) - 1).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
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


# ----------------------------------------------------------------------
# text formats


def parse_zeta_poly(text):
    """Integer polynomial in z (the cyclotomic generator) -> {exp: coeff}."""
    return _parse_terms(text, "z")


def _parse_terms(text, var):
    """Integer polynomial in ``var`` -> {exponent: coefficient}."""
    s = text.replace(" ", "").replace("*", "")
    if not s:
        raise ValueError("empty polynomial")
    # every sign after the first character starts a new term
    cuts = [0] + [i for i in range(1, len(s)) if s[i] in "+-"] + [len(s)]
    out = {}
    for term in (s[a:b] for a, b in zip(cuts, cuts[1:])):
        if term in "+-":
            raise ValueError(f"bad term {term!r}")
        sign = -1 if term[0] == "-" else 1
        if term[0] in "+-":
            term = term[1:]
        if var in term:
            coef_s, _, rest = term.partition(var)
            coef = int(coef_s) if coef_s else 1
            expo = int(rest[1:]) if rest.startswith("^") else 1
        else:
            coef = int(term)
            expo = 0
        out[expo] = out.get(expo, 0) + sign * coef
    return out


def parse_field_spec(text, p=None, prec=None):
    """Tower from the one-step-per-line format.

    Lines:  ``p=3`` (the prime; required unless passed as ``p``)
    | ``cyclotomic 9`` | ``kummer 9 rad=3`` | ``kummer 9 rad=z^2-1``
    | ``custom x^2-2``.  Blank lines and #-comments are ignored.
    """
    steps = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line.startswith("p="):
            q = int(line[2:])
            if p is not None and q != p:
                raise ValueError(f"header {line!r} contradicts p={p}")
            p = q
            continue
        if not line:
            continue
        kind, *args = line.split()
        if kind not in ("cyclotomic", "kummer", "custom"):
            raise ValueError(f"unknown step {kind!r}")
        if not args:
            raise ValueError(f"{kind} step without an argument: {line!r}")
        if kind == "cyclotomic":
            steps.append(TowerStep.cyclotomic(int(args[0])))
        elif kind == "kummer":
            radtxt = None
            for tok in args[1:]:
                if tok.startswith("rad="):
                    radtxt = tok[4:]
            if radtxt is None:
                raise ValueError(f"kummer step without rad=: {line!r}")
            steps.append(TowerStep.kummer(int(args[0]), _parse_radicand(radtxt)))
        else:
            steps.append(TowerStep.custom(_parse_int_poly(args[0])))
    if p is None:
        raise ValueError("field-spec file must declare p=<prime>")
    return build_field(p, steps, prec=prec)


def _parse_radicand(text):
    if "z" in text:
        return parse_zeta_poly(text)
    if "/" in text:
        return Fraction(text)
    return int(text)


def _parse_int_poly(text):
    """Monic polynomial in x -> coefficient list (low degree first, no lead)."""
    terms = _parse_terms(text, "x")
    deg = max(terms)
    if terms[deg] != 1:
        raise ValueError("custom polynomial must be monic")
    return [terms.get(i, 0) for i in range(deg)]
