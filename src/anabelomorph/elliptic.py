"""Weierstrass models over local field towers and Tate's algorithm.

The algorithm below runs uniformly in every residue characteristic: all
residue-field decisions (singular point location, root counting,
square/cube completion, splitness of the tangent quadratic) are made in
F_q on residues of a_i / pi^k read off the valuation frames, by
enumerating F_q, never by characteristic-specific formulas, except the
root of the linear a3/pi + 2T and the square root of a6/pi^2, which have
closed forms.  A residue is lifted back to the field only to translate
the model, and a zero residue moves no coefficient.  Past the singular
point every divisibility test reads a residue, and b8 and b6 enter only
through their residues.  v(Delta) is computed once per model, in the
lowest layer of the tower that holds the coefficients, and a coordinate
change carries it; translations keep it and each non-minimal restart
lowers it by 12.  The coefficients are cut to the digits the run's
reads need (``_tate_digits``) before the integral scaling.  No
coefficient is divided: stripping a common pi^d from the input makes the
passes read d pi deeper, and each restart one pi deeper.  At depth n, a
pass reads a_w / pi^k of the model rescaled by u = pi^n as the residue
of the kept a_w at pi^(k + w n), and lifts a translation by r, s or t to
a valuation deeper by 2n, n or 3n, as a residue lift times a frame
monomial of that valuation (``LocalField.lift_at``).  The output
quadruple is (v(Delta_min), conductor exponent, Kodaira symbol, Tamagawa
number), with the conductor from v(Delta_min) - m + 1.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .fields import FieldElement, FieldError, _denominator_bound, _read_digits
from .padic import PrecisionError, _vp

POTENTIALLY_GOOD = "POTENTIALLY_GOOD"
POTENTIALLY_MULTIPLICATIVE = "POTENTIALLY_MULTIPLICATIVE"

# the weight w of each a_w, the power of u it scales with
_WEIGHTS = (1, 2, 3, 4, 6)
# the weight of each translation variable: r with u^2, s with u, t with u^3
_VAR_WEIGHTS = {"r": 2, "s": 1, "t": 3}

# irreducible components (without multiplicity) of the special fiber
_COMPONENTS = {"I0": 1, "II": 1, "III": 2, "IV": 3,
               "I0*": 5, "IV*": 7, "III*": 8, "II*": 9}


class SingularModelError(FieldError):
    pass


@dataclass(frozen=True)
class KodairaSymbol:
    kind: str          # I0, In, II, III, IV, I0*, In*, IV*, III*, II*
    n: int = 0

    def __str__(self):
        if self.kind == "In":
            return f"I{self.n}"
        if self.kind == "In*":
            return f"I{self.n}*"
        return self.kind

    @property
    def components(self):
        if self.kind == "In":
            return self.n
        if self.kind == "In*":
            return 5 + self.n
        return _COMPONENTS[self.kind]


@dataclass
class WeierstrassModel:
    """y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6 over a field K, with
    v_K(Delta).  When not given, v_K(Delta) is computed in the lowest
    layer L of K's tower that holds the coefficients (``_lowered``), as
    e(K/L) v_L(Delta): the same value, from products of n_L coordinates
    instead of n_K."""
    a1: FieldElement
    a2: FieldElement
    a3: FieldElement
    a4: FieldElement
    a6: FieldElement
    # v(Delta); computed from the coefficients when not given
    vdisc: int = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        self.field = self.a1.field
        if self.vdisc is not None:
            return
        L, (a1, a2, a3, a4, a6) = _lowered(self.coefficients())
        disc = _disc(_b2(a1, a2), _b4(a1, a3, a4), _b6(a3, a6),
                     _b8(a1, a2, a3, a4, a6))
        v, bound = disc.val_or_bound()
        if v is None:
            if disc.exact:
                raise SingularModelError("discriminant vanishes: singular curve")
            raise PrecisionError(
                "discriminant is zero to working precision; raise precision "
                "or reject the model")
        self.vdisc = self.field.e // L.e * v

    @classmethod
    def from_a_invariants(cls, K, a1=0, a2=0, a3=0, a4=0, a6=0):
        return cls(*(K.coerce(a) for a in (a1, a2, a3, a4, a6)))

    def coefficients(self):
        return (self.a1, self.a2, self.a3, self.a4, self.a6)


@dataclass
class StandardInvariants:
    b2: FieldElement
    b4: FieldElement
    b6: FieldElement
    b8: FieldElement
    c4: FieldElement
    c6: FieldElement
    disc: FieldElement


@dataclass
class ReductionData:
    """Reduction data of the minimal model.  ``trace`` is the branch path
    Tate's algorithm took, as tagged tuples: ("scale", k) when the input
    was rescaled by pi^k to an integral model (for k < 0 it is read -k pi
    deeper, not divided), ("singular", x, y) for the residue singular
    point moved to (0, 0), ("translate", stage, var, c) for each later
    translation var -> var + y of the rescaled model, y of valuation j
    with residue c at pi^j (``LocalField.lift_at``),
    ("restart",) for each non-minimal rescale by u = pi (the next pass
    reads one pi deeper; no coefficient is divided), and
    ("branch", symbol) last.  Residues are F_q coordinate tuples, as
    ``fields.residue`` gives them."""
    v_min_disc: int
    kodaira: KodairaSymbol
    tamagawa: int
    split: bool = None
    trace: tuple = field(default=(), compare=False, repr=False)

    @property
    def components(self):
        return self.kodaira.components

    @property
    def conductor(self):
        """Ogg's formula f = v(Delta_min) - m + 1."""
        return self.v_min_disc - self.components + 1

    def quadruple(self):
        return (self.v_min_disc, self.conductor, str(self.kodaira), self.tamagawa)

    def to_dict(self, field_name=""):
        return {"field": field_name, "v_disc": self.v_min_disc,
                "f": self.conductor, "kodaira": str(self.kodaira),
                "tamagawa": self.tamagawa, "m": self.components}


# one helper per invariant, so that a caller makes only those it reads
def _b2(a1, a2):
    return a1 * a1 + 4 * a2


def _b4(a1, a3, a4):
    return 2 * a4 + a1 * a3


def _b6(a3, a6):
    return a3 * a3 + 4 * a6


def _b8(a1, a2, a3, a4, a6):
    return (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * (a3 * a3)
            - a4 * a4)


def _c4(b2, b4):
    return b2 * b2 - 24 * b4


def _c6(b2, b4, b6):
    return -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6


def _disc(b2, b4, b6, b8):
    return (-(b2 * b2) * b8 - 8 * (b4 * b4 * b4) - 27 * (b6 * b6)
            + 9 * b2 * b4 * b6)


def weierstrass_invariants(model, check=True):
    """b- and c-invariants and the discriminant."""
    a1, a2, a3, a4, a6 = model.coefficients() if isinstance(model, WeierstrassModel) \
        else model
    b2, b4, b6 = _b2(a1, a2), _b4(a1, a3, a4), _b6(a3, a6)
    b8 = _b8(a1, a2, a3, a4, a6)
    c4, c6, disc = _c4(b2, b4), _c6(b2, b4, b6), _disc(b2, b4, b6, b8)
    inv = StandardInvariants(b2, b4, b6, b8, c4, c6, disc)
    if check:
        K = b2.field
        ident1 = 4 * b8 - (b2 * b6 - b4 * b4)
        ident2 = 1728 * disc - (c4 * c4 * c4 - c6 * c6)
        for ident in (ident1, ident2):
            v, bound = ident.val_or_bound()
            if v is not None:
                raise FieldError("b/c-invariant identities violated")
    return inv


def _lowered(xs):
    """(L, ys): the xs, elements of K, as elements ys of L, the lowest
    layer of K's tower that holds them (every flat coordinate past L.n is
    zero), with m capped at K.M.  Ring operations on the ys give the vec,
    s, m and exactness of the same operations in K on n_L coordinates: a
    product of embedded elements of L is theirs in L embedded, mod the
    factors' smaller p^m, and a sum caps m at the field's M, where L.M >=
    K.M and the entrance cap makes the two agree.  A normalization takes
    digits off m only when s > 0, so L is K when an x has a p-power
    denominator (or another field).  K's frame walk reads an element of
    its base in the base, so v_K = e(K/L) v_L on L."""
    K = xs[0].field
    if any(x.s or x.field is not K for x in xs):
        return K, xs
    L = next(L for L in K.layers if not any(any(x.vec[L.n:]) for x in xs))
    if L is K:
        return K, xs
    out = []
    for x in xs:
        m = min(x.m, K.M)
        pm = K.p ** m
        out.append(FieldElement(L, tuple(c % pm for c in x.vec[:L.n]), 0, m,
                                exact=x.exact))
    return L, out


def _v_j(model):
    """v(j) = 3 v(c4) - v(Delta) of a model, with v(c4) read in the layer
    of ``_lowered``; None when c4, and so j, is zero to precision."""
    L, (a1, a2, a3, a4, _) = _lowered(model.coefficients())
    v4 = _c4(_b2(a1, a2), _b4(a1, a3, a4)).val_or_bound()[0]
    return (None if v4 is None
            else 3 * (model.field.e // L.e) * v4 - model.vdisc)


def reduction_class(model):
    """Potential reduction type from the sign of v(j)."""
    v = _v_j(model)
    if v is None or v >= 0:
        return POTENTIALLY_GOOD
    return POTENTIALLY_MULTIPLICATIVE


def change_coords(model, u=1, r=0, s=0, t=0):
    """Standard coordinate change (x, y) -> (u^2 x + r, u^3 y + u^2 s x + t).
    The new model carries v(Delta') = v(Delta) - 12 v(u), as
    Delta' = u^-12 Delta, instead of computing Delta' again.  The
    translation runs in the lowest layer of K's tower that holds the
    coefficients and r, s, t (``_lowered``), and its five results are
    embedded back in K, digit for digit those of the translation in K;
    the scaling by u runs in K."""
    K = model.field
    u, r, s, t = (K.coerce(a) for a in (u, r, s, t))
    _, xs = _lowered([*model.coefficients(), r, s, t])
    na = [K.embed(a) for a in _translate(*xs)]
    if u.s == 0 and u.m == K.M and u.vec == K.one().vec:
        # u = 1 scales nothing; the coefficients come out inexact, as the
        # products with u^-1 would leave them
        return WeierstrassModel(*(FieldElement(K, a.vec, a.s, a.m) for a in na),
                                vdisc=model.vdisc)
    uinv = u.inv()
    vdisc = model.vdisc - 12 * u.valuation()
    u2 = uinv * uinv
    u3 = u2 * uinv
    u4 = u2 * u2
    u6 = u4 * u2
    return WeierstrassModel(*(a * w for a, w in zip(na, (uinv, u2, u3, u4, u6))),
                            vdisc=vdisc)


# ----------------------------------------------------------------------
# residue-field searches (all by enumeration of F_q)


def _ev(F, coeffs, x):
    """sum coeffs[i] x^i in the residue field F."""
    acc = F.zero
    for c in reversed(coeffs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _root_scan(F, coeffs):
    """One scan of F_q for the roots of a quadratic or cubic: (x, None)
    for the first x, in the order of ``F.elements``, that is a root of
    the polynomial and of its derivative, or else (None, the number of
    roots).  Over the perfect field F_q a repeated root of a quadratic or
    a cubic is rational, so None means the roots are distinct."""
    deriv = [F.scale(c, i) for i, c in enumerate(coeffs)][1:]
    count = 0
    for x in F.elements:
        if not any(_ev(F, coeffs, x)):
            if not any(_ev(F, deriv, x)):
                return x, None
            count += 1
    return None, count


def _singular_point(F, a1, a2, a3, a4, a6):
    """Residue singular point of the reduction (unique, hence rational):
    the common zero of W = y^2 + (a1 x + a3) y - (x^3 + a2 x^2 + a4 x + a6),
    W_x = a1 y - (3 x^2 + 2 a2 x + a4) and W_y = 2 y + a1 x + a3.

    For each x, W_y = 2 y + g and W_x = a1 y + h are linear in y: the
    first with a nonzero y-coefficient fixes y.  When both coefficients
    vanish, x is skipped unless g = h = 0, and only then is y enumerated,
    so a pass is O(q) in field operations."""
    # the y-coefficient: 2 of W_y, or a1 of W_x in characteristic 2
    c = F.scale(F.one, 2) if F.p != 2 else a1
    cinv = F.pow(c, -1) if any(c) else None
    fx = [a6, a4, a2, F.one]
    hx = [a4, F.scale(a2, 2), F.scale(F.one, 3)]
    for x in F.elements:
        g = F.add(F.mul(a1, x), a3)
        h = F.scale(_ev(F, hx, x), -1)
        if cinv is not None:
            ys = [F.scale(F.mul(g if F.p != 2 else h, cinv), -1)]
        elif any(g) or any(h):
            continue
        else:
            ys = F.elements
        for y in ys:
            # W = y (y + g) - f(x), read only where W_y = W_x = 0
            if (not any(F.add(F.scale(y, 2), g))
                    and not any(F.add(F.mul(a1, y), h))
                    and F.mul(y, F.add(y, g)) == _ev(F, fx, x)):
                return x, y
    raise FieldError("no singular point found on a curve with v(disc) > 0")


# ----------------------------------------------------------------------
# Tate's algorithm


def tate_algorithm(model):
    """Reduction data of the minimal model, checked against the
    additive-conductor bound and the Tamagawa bounds of its Kodaira
    type."""
    rd = _tate_run(model)
    _validate_reduction(rd, model.field)
    return rd


def _validate_reduction(rd, K):
    """Checks that do not share Tate's derivation.  An additive conductor
    satisfies 2 <= f <= 2 + 3 v_K(3) + 6 v_K(2) (Brumer-Kramer,
    Compositio 92, 1994; Lockhart-Rosen-Silverman, J. Algebraic Geom. 2,
    1993), so f = 2 at p >= 5, and the Tamagawa number is bounded by the
    component group of its Kodaira type."""
    kind = rd.kodaira.kind
    if kind not in ("I0", "In"):
        top = 2 + 3 * K.e * (K.p == 3) + 6 * K.e * (K.p == 2)
        if not 2 <= rd.conductor <= top:
            raise ArithmeticError(
                f"additive conductor {rd.conductor} outside [2, {top}]")
    c = rd.tamagawa
    ok = {"I0": c == 1, "II": c == 1, "III": c == 2,
          "IV": c in (1, 3), "IV*": c in (1, 3),
          "I0*": c in (1, 2, 4), "In*": c in (2, 4),
          "III*": c == 2, "II*": c == 1,
          "In": (c == rd.kodaira.n) or (c in (1, 2))}[kind]
    if kind == "In" and not rd.split:
        ok = c == (2 if rd.kodaira.n % 2 == 0 else 1)
    if not ok:
        raise ArithmeticError(
            f"tamagawa number {c} outside the component bound for {kind}")


def _tate_run(model):
    """Reduction data of ``model`` without the checks of
    ``tate_algorithm``.  The coefficients are cut once to the
    ``_tate_digits`` their reads need, so that every pass multiplies tens
    of digits instead of the working precision; the integral scaling by
    pi^(w shift) multiplies a_w cut to those digits plus the power's
    denominator, which gives the digits of the product cut afterwards."""
    K = model.field
    a = dict(zip(_WEIGHTS, model.coefficients()))
    # scale to an integral model, then strip the obvious common pi-power
    # (keeps the discriminant valuation within the working modulus)
    shift = 0
    drop = None
    for w, aw in a.items():
        v, bound = aw.val_or_bound()
        if v is None:
            continue
        if v < 0:
            shift = max(shift, (-v + w - 1) // w)
        down = (v + w * shift) // w
        drop = down if drop is None else min(drop, down)
    if drop is None:
        raise SingularModelError("all coefficients vanish")
    shift -= max(drop, 0)
    trace = [("scale", shift)] if shift else []
    # a strip divides nothing: the passes read -shift pi deeper
    depth = max(-shift, 0)
    vD = model.vdisc + 12 * shift
    digits = _tate_digits(K, vD, depth)
    if shift > 0:
        # cut before the product, which adds the power's s to a_w's and
        # keeps the smaller m: the digits kept are those of the cut product
        a = {w: aw.capped(digits + K.pi_pow(w * shift).s)
             * K.pi_pow(w * shift) for w, aw in a.items()}
    a = {w: aw.capped(digits) for w, aw in a.items()}
    # a non-minimal pass divides Delta by pi^12, so it needs pi^12 | Delta
    for restarts in range(vD // 12 + 1):
        result = _tate_pass(K, vD - 12 * restarts, depth + restarts, trace, a)
        if isinstance(result, ReductionData):
            result.trace = tuple(trace)
            return result
        a = result          # non-minimal: run again, one pi deeper
        trace.append(("restart",))
    raise FieldError("tate algorithm did not terminate (restart budget)")


def _tate_digits(K, vD, depth):
    """The digits above p^s of each coefficient that a run from
    v(Delta) = vD at ``depth`` needs (Silverman, Advanced Topics IV 9).

    Reads.  A pass at depth D reads a_w / pi^k as the residue of a_w at
    pi^(k + w D).  Its deepest read is a6 at pi^5 (the II* test) or at
    pi^(n + 3) in the I_n* loop, where n <= vD_pass - 6, so every read
    is at most vD_pass + 6 D + 5.  A restart lowers vD_pass by 12 and
    raises D by one, so R = vD + 6 depth + 5 bounds every read of the
    run.  A read at pi^k is certified once the error has v_K >= k + 1,
    kept here with one to spare: ``_read_digits(K, R + 2)``.

    Translations.  A pass translates by y = lift(c') monomial(k), an
    element of valuation k with the recorded leading residue
    (``LocalField.lift_at``), or by lift(c) at k = 0.  A product by y
    keeps its other factor's m, since every product keeps the smaller m
    and y is known far beyond the cut, and adds s(y) to s, so it loses
    s(y) of m - s.  Through _translate a1 loses nothing, a2 and a3 lose
    one s(y) from a1, a4 one from a2 or a3, and a6 one from a4 or two
    from a2: m - s stays at least digits - w' s(y) with w' = 0, 1, 1, 2,
    3 for a1 .. a6, however many translations run.  s(y) is at most the
    s of the lift, (d - 1) s(delta) per unramified layer, plus
    s(monomial(k)).  A monomial is delta^a embed(B.monomial(b)) layer by
    layer down to p^b over Q_p, and b < 0 there whenever the deltas
    above carry more valuation than k (v = a w + d b with a w > v), so
    its denominator is not that of nonnegative powers alone.  In value
    monomial(k + e) = p monomial(k), so its largest s over k >= 0 is
    reached below k = e, where it is at most s(pi) = s(monomial(1)) on
    every tower the tests build, for every k up to R (measured, not
    proven); a monomial that carried more would cost digits, so that a
    read short of them raises PrecisionError rather than misreading.

    The cut adds 3 sigma, sigma that bound on s(y) (``_denominator_bound``):
    15 digits on Q_3(zeta_9, 3^(1/9)) and 18 on Q_3(zeta_9, 4^(1/9)),
    against M = 290."""
    return _read_digits(K, vD + 6 * depth + 7) + 3 * _denominator_bound(K)


def _end(trace, vD, kodaira, c, split=None):
    trace.append(("branch", str(kodaira)))
    return ReductionData(vD, kodaira, c, split=split)


def _tate_pass(K, vD, depth, trace, a):
    """One pass at v(Delta) = vD over the model a = {w: a_w} rescaled
    by u = pi^depth: the reduction data, or the translated a of a
    non-minimal model, to run again one pi deeper.  Translations are
    appended to ``trace``.  The a_w carry only the digits of
    ``_tate_digits``: every read here is at pi^(vD + 6 depth + 5) or
    shallower, and translations cost them at most 3 sigma digits."""
    if vD == 0:
        return _end(trace, 0, KodairaSymbol("I0"), 1)
    F = K.residue_field

    def res(w, k):
        # the residue of a_w / pi^k in the rescaled model
        return K.residue_at(a[w], k + w * depth)

    def translate(stage, var, c, k):
        trace.append(("translate", stage, var, c))
        return _shift(K, a, depth, var, c, k)

    def divisible(w, k):
        # v(a_w) >= k + 1, given v(a_w) >= k
        return not any(res(w, k))

    # move the singular point of the reduction to (0, 0)
    xr, yr = _singular_point(F, *(res(w, 0) for w in _WEIGHTS))
    trace.append(("singular", xr, yr))
    a = _shift(K, a, depth, "r", xr, 0)
    a = _shift(K, a, depth, "t", yr, 0)

    # the tangent quadratic T^2 + a1 T - a2 at the singular point
    tangent = [F.scale(res(2, 0), -1), res(1, 0), F.one]
    sbar, roots = _root_scan(F, tangent)
    if sbar is None:
        # multiplicative: I_n with n = v(disc)
        n = vD
        split = roots > 0
        c = n if split else (2 if n % 2 == 0 else 1)
        return _end(trace, vD, KodairaSymbol("In", n), c, split=split)

    # additive reduction from here on
    if not divisible(6, 1):
        return _end(trace, vD, KodairaSymbol("II"), 1)
    b8bar, b6bar = _b8_b6_residues(F, res(1, 0), res(2, 0), res(3, 1),
                                   res(4, 1), res(6, 2))
    if any(b8bar):
        return _end(trace, vD, KodairaSymbol("III"), 2)
    if any(b6bar):
        _, roots = _root_scan(F, [F.scale(res(6, 2), -1), res(3, 1), F.one])
        return _end(trace, vD, KodairaSymbol("IV"), 3 if roots else 1)

    # normalize so that pi | a1, a2; pi^2 | a3, a4; pi^3 | a6
    a = translate("sbar", "s", sbar, 0)
    # the root of a3/pi + 2 T: -a3/(2 pi) for odd p, and 0 when p = 2
    a3bar = res(3, 1)
    if F.p != 2:
        tbar = F.scale(a3bar, (F.p - 1) // 2)
    elif not any(a3bar):
        tbar = F.zero
    else:
        raise FieldError("no shift clears the a3 coefficient")
    a = translate("tbar", "t", tbar, 1)
    # the square root of a6/pi^2: the inverse Frobenius x^(q/2) when
    # p = 2; for odd p, b6/pi^2 = (a3/pi)^2 + 4 a6/pi^2 and a3/pi vanish
    # mod pi here, so a6/pi^2 does too, and x^(q//2) gives that 0
    a = translate("sigma", "t", F.pow(res(6, 2), F.q // 2), 1)
    try:
        normal = all(divisible(w, k) for w, k in
                     ((1, 0), (2, 0), (3, 1), (4, 1), (6, 2)))
    except FieldError:          # a valuation below the one read
        normal = False
    if not normal:
        raise FieldError("step-six normalization failed")

    # cubic P(T) = T^3 + (a2/pi) T^2 + (a4/pi^2) T + (a6/pi^3)
    pc = [res(6, 3), res(4, 2), res(2, 1), F.one]
    trep, roots = _root_scan(F, pc)
    if trep is None:
        return _end(trace, vD, KodairaSymbol("I0*"), 1 + roots)
    # the double root is triple when the third root -a2/pi - 2 trep is it
    triple = not any(F.add(pc[2], F.scale(trep, 3)))
    a = translate("cubic", "r", trep, 1)

    if not triple:
        # step seven, I_n*: here v(a2) = 1, pi^2 | a3, pi^3 | a4 and
        # pi^4 | a6; Y- and X-quadratics alternate, each one pi deeper,
        # and v(Delta) >= n + 6 on I_n* (Silverman, Advanced Topics, IV 9)
        for n in range(1, vD - 5):
            k = (n + 1) // 2
            if n % 2 == 1:
                quad = [F.scale(res(6, 2 * k + 2), -1), res(3, k + 1), F.one]
            else:
                quad = [res(6, 2 * k + 3), res(4, k + 2), res(2, 1)]
            rep, roots = _root_scan(F, quad)
            if rep is None:
                return _end(trace, vD, KodairaSymbol("In*", n),
                            4 if roots else 2)
            a = translate(f"I{n}*", "t" if n % 2 == 1 else "r", rep, k + 1)
        raise FieldError("In* loop did not terminate")

    # triple root: types IV*, III*, II* or restart
    yrep, roots = _root_scan(F, [F.scale(res(6, 4), -1), res(3, 2), F.one])
    if yrep is None:
        return _end(trace, vD, KodairaSymbol("IV*"), 3 if roots else 1)
    a = translate("IV*", "t", yrep, 2)
    if not divisible(4, 3):
        return _end(trace, vD, KodairaSymbol("III*"), 2)
    if not divisible(6, 5):
        return _end(trace, vD, KodairaSymbol("II*"), 1)
    # non-minimal model: pi^w | a_w, so the next pass reads one pi deeper
    return a


def _b8_b6_residues(F, r1, r2, r3, r4, r6):
    """The residues of b8 / pi^2 and b6 / pi^2 in F_q at the III and IV
    tests, from r1 = res(a1), r2 = res(a2), r3 = res(a3 / pi),
    r4 = res(a4 / pi) and r6 = res(a6 / pi^2).

    There the singular point is (0, 0), so pi divides a3, a4 and a6; the
    tangent T^2 + a1 T - a2 has a double root, so pi divides
    b2 = a1^2 + 4 a2 in every characteristic; and pi^2 divides a6.  In
    b8 = b2 a6 - a1 a3 a4 + a2 a3^2 - a4^2 the term b2 a6 then has v >= 3,
    which leaves r2 r3^2 - r1 r3 r4 - r4^2; and b6 = a3^2 + 4 a6 gives
    r3^2 + 4 r6."""
    b8 = F.add(F.mul(r2, F.mul(r3, r3)),
               F.scale(F.add(F.mul(F.mul(r1, r3), r4), F.mul(r4, r4)), -1))
    b6 = F.add(F.mul(r3, r3), F.scale(r6, 4))
    return b8, b6


def _shift(K, a, depth, var, c, k):
    """The model a = {w: a_w} after var -> var + y in the model rescaled
    by u = pi^depth, with y = ``K.lift_at(c, k + w depth)`` for w the
    weight of var: an element of that valuation whose leading residue is
    c; a itself when the residue c is zero."""
    if not any(c):
        return a
    lift = K.lift_at(c, k + _VAR_WEIGHTS[var] * depth)
    return dict(zip(_WEIGHTS, _translate(*a.values(), **{var: lift})))


def _translate(a1, a2, a3, a4, a6, r=None, s=None, t=None):
    """(x, y) -> (x + r, y + s x + t) with u = 1, as an x-shift by r, then
    y -> y + s x, then y -> y + t; None stands for 0."""
    if r is not None:
        a6 = a6 + r * (a4 + r * (a2 + r))
        a4 = a4 + r * (a2 * 2 + r * 3)
        a3 = a3 + r * a1
        a2 = a2 + r * 3
    if s is not None:
        a4 = a4 - s * a3
        a2 = a2 - s * (a1 + s)
        a1 = a1 + s * 2
    if t is not None:
        a6 = a6 - t * (a3 + t)
        a4 = a4 - t * a1
        a3 = a3 + t * 2
    return a1, a2, a3, a4, a6


# ----------------------------------------------------------------------
# Tate parameter and the log-over-ord invariant


def tate_parameter_valuation(model):
    """v_K(q) = -v_K(j) for multiplicative reduction."""
    v = _v_j(model)
    if v is None or v >= 0:
        raise FieldError("not potentially multiplicative: v(j) >= 0")
    return -v


def iwasawa_log(x, target_digits=24):
    """Branch log(p) = 0 extended to K^*: reduce x to a 1-unit z with
    the same log up to a known integer factor, p-power z until its
    series converges, then sum the series.

    With v = v(x) = a e + b, 0 <= b < e, and g = gcd(e, b), the p^a
    leaves x first through its denominator (``_over_p``), exact and with
    no product: the power basis is integral, so s(x) + a >= 0.  x / p^a,
    of valuation b, is then cut once (``FieldElement.capped``) to the
    ``_log_digits`` the answer reads, so that the reduction and the
    series multiply tens of digits above b instead of the working
    precision; the sum is the one of the uncut x.  y = (x / p^a)^E /
    p^(b/g), E = e/g, is a unit (E b = (b/g) e), the p^(b/g) again taken
    out through the denominator; at b = 0, E = 1 and y is x / p^a, with
    no product.  log p = 0 gives log y = E log x.

    A root of unity has log 0 (Washington, GTM 83, 5.1).  On f = 1, y
    times the inverse of the Teichmuller lift of its residue is a 1-unit
    z: one product by an integer, which scales the coordinates and
    makes no layer product, skipped when the residue is 1.  On f > 1,
    z = y^(q - 1).  The valuation chain v -> min(p v, v + e) (``_chain``)
    takes v(z - 1) past e/(p - 1), so one walk of z - 1 gives the count
    k of p-th powers, and one walk of the final t = z^(p^k) - 1 gives
    v(t) for the series; v(t) (p - 1) > e is checked, and PrecisionError
    raised when it fails.  Once v(z - 1) is known, z is cut before each
    p-th power to what the rest of the chain and the series need
    (``_chain_digits``), where the first cut charged the same chain from
    v(z - 1) = 1.

    The series log(1 + t) = sum (-1)^(j+1) t^j / j stops at the first n
    whose next term's bound (n + 1) v(t) - e (log_p(n + 1) + 1) reaches
    target = e * target_digits; that bound keeps an extra e below
    j v(t) - e v_p(j), so it bounds the whole tail.  Once v(t) and n are
    known, t is cut a second time, to ``_series_digits``: target_digits
    and the series' loss at that one (v(t), n), where the first cut
    charged the worst case over every v(t) the reduction can leave.  The
    sum is therefore claimed to v_K >= target only: its numerator is cut
    to target_digits digits above p^s before the division by the
    reduction exponent E (q - 1 on f > 1) p^k, which costs that
    exponent's p-adic digits."""
    K = x.field
    p, e, f = K.p, K.e, K.f
    a, b = divmod(x.valuation(), e)
    g = math.gcd(e, b)
    x = _over_p(x, a)
    x = x.capped(_log_digits(K, b, x.s, target_digits))
    z = _over_p(x ** (e // g), b // g)
    divisor = e // g
    if f > 1:
        z = z ** (p ** f - 1)
        divisor *= p ** f - 1
    minus_one = K.from_int(-1)              # one constant for each z - 1
    t = z + minus_one
    vt, bound = t.val_or_bound()
    if vt == 0:         # res(y) = 1 + res(t) != 1, so f = 1 and z = y
        z = z * _teichmuller_inverse(p, 1 + K.residue_at(t, 0)[0], z.m)
        t = z + minus_one
        vt, bound = t.val_or_bound()
    cuts = [] if vt is None else _chain_digits(K, vt, target_digits)
    if cuts:
        for digits in cuts:
            z = z.capped(digits) ** p
        divisor *= p ** len(cuts)
        t = z + minus_one
        vt, bound = t.val_or_bound()
    target = e * target_digits
    if vt is None:
        zero = K.zero().capped(min(bound, target) // e)
        return zero * Fraction(1, divisor)
    if vt * (p - 1) <= e:
        raise PrecisionError(f"logarithm reduction did not converge: "
                             f"v(t) = {vt} <= e/(p - 1) = {e}/{p - 1}")
    n = _log_terms(vt, e, p, target)
    t = t.capped(_series_digits(K, vt, n, target_digits))
    return _log_series(t, n).capped(target_digits) * Fraction(1, divisor)


def _chain(v, e, p):
    """v(z - 1) for a 1-unit z with v(z - 1) = v >= 1, then after each
    p-th power up to the first past e/(p - 1): v -> min(p v, v + e).
    Below e/(p - 1) a p-th power multiplies v by exactly p, since
    v(p t) = e + v(t) > p v(t) = v(t^p); at the tie v (p - 1) = e it
    leaves at least p v = v + e, past it.  So every entry but the last
    is exact, the last a lower bound, and the chain makes len - 1
    p-th powers."""
    chain = [v]
    while chain[-1] * (p - 1) <= e:
        chain.append(min(p * chain[-1], chain[-1] + e))
    return chain


def _chain_digits(K, v, target_digits):
    """The digits above p^s to which ``iwasawa_log`` cuts z before each
    p-th power of its ``_chain`` from v(z - 1) = v, none when v is past
    e/(p - 1): what the rest of the chain and the series need.  The
    series needs ``_series_loss`` over every t of valuation at least the
    chain's last v, and each p-th power before it adds its ``_pow_loss``
    at the v it starts from, as in ``_log_digits``.  A short cut claims
    fewer digits or raises PrecisionError; it never changes a claimed
    digit."""
    p, e = K.p, K.e
    chain = _chain(v, e, p)
    if len(chain) == 1:
        return []
    sigma = _denominator_bound(K)
    need = target_digits + _series_loss(p, e, sigma, target_digits,
                                        chain.pop())
    out = []
    for w in reversed(chain):
        need += _pow_loss(p, lambda i: max(0, sigma - w // e))
        out.append(need)
    return out[::-1]


@functools.lru_cache(maxsize=256)
def _teichmuller_inverse(p, c, m):
    """The inverse of the Teichmuller lift of c in F_p^*, mod p^m: the
    lift of 1/c, (1/c)^(p^(m - 1))."""
    return pow(pow(c, -1, p), p ** (m - 1), p ** m)


def _over_p(w, k):
    """w / p^k through the denominator, s -> s + k (s + k >= 0): exact,
    with no product, and it keeps m, so it costs k digits above p^s."""
    return FieldElement(w.field, w.vec, w.s + k, w.m)._normalized()


def _log_digits(K, b, s, target_digits):
    """The digits above p^s to which ``iwasawa_log`` cuts x = vec / p^s,
    x = x0 / p^a of valuation b, 0 <= b < e, so that its sum keeps
    target_digits digits and is the sum of the uncut x (Caruso-Roe-
    Vaccon precision tracking over the steps of the log).

    Write A = m - s for the digits an element carries above its
    denominator, and D = digits - A for what a step has lost since the
    cut.  A product keeps the smaller m, so its A is min(A1 - s2,
    A2 - s1): D = max(D1 + s2, D2 + s1), each path from x loses the s
    of the other factor.  A sum loses nothing (D is the max), a
    normalization and a scaling by an integer unit keep A, the constants
    1 and 0 carry M digits, and a shift of the denominator by k
    (``_over_p``) costs k.  Each step computes the uncut step's
    numerator mod the smaller p^m, with the same s, so a sum that keeps
    target_digits is the uncut one.

    The s of a step's element w is bounded by its valuation.  The uncut
    numerator is p^s W mod p^m for the exact value W of the step; if
    v(W) >= k e, W / p^k is integral, so p^(sigma - k) W has integral
    coordinates (sigma = ``_denominator_bound``, the s of any integral
    element), and the common p-power that normalization strips (every
    step normalizes, and m > s) leaves

        s(w) <= den(v(W)) = max(0, sigma - floor(v(W) / e)),

    and s(w) <= s1 + s2 for a product.  So, with g = gcd(e, b):

      * x^E, E = e/g, of factors x^i with v = i b: s(x^i) <= min(i s,
        den(i b)), and the power's D is that of its product tree
        (``_pow_loss``); at b = 0, E = 1 and there is no product;
      * the division by p^(b/g): b/g;
      * on f = 1 the Teichmuller scaling: nothing; on f > 1 the
        (q - 1)-th power of the unit y, each factor of s <= sigma;
      * the p-th powers of z = 1 + t, each of whose factors z^i has
        z^i - 1 of valuation >= v(t), so s(z^i) <= den(v(t)), with v(t)
        at least 1 before the first and the next entry of ``_chain``
        after each; the worst case reads the chain from v(t) = 1, which
        makes the most powers (``_series_loss`` for the series).

    The chain's and the series' shares are the worst case, since v(t) is
    not known before the reduction; ``iwasawa_log`` cuts z again before
    each p-th power (``_chain_digits``) and t after the last, at the
    v(t) and n the series uses (``_series_digits``).  A cut that comes
    out short loses digits the sum then does not claim, or raises
    PrecisionError; it never changes a digit that is claimed.  With
    sigma = 1 on Q_3(zeta_9, 3^(1/9)) this keeps 42 digits of
    3 (1 + pi) / 3 (v = 54, so a = 1 and b = 0) and of the square's
    9 (1 + pi)^2 / 9, of the 283 and 282 they carry at M = 290; with
    sigma = 2 on Q_3(zeta_9, 4^(1/9)), 57 of each."""
    p, e = K.p, K.e
    sigma = _denominator_bound(K)
    g = math.gcd(e, b)

    def den(v):
        return max(0, sigma - v // e)

    loss = b // g + _pow_loss(e // g, lambda i: min(i * s, den(i * b)))
    if K.f > 1:
        loss += _pow_loss(p ** K.f - 1, lambda i: sigma)
    for vt in _chain(1, e, p)[:-1]:
        loss += _pow_loss(p, lambda i: den(vt))
    return target_digits + loss + _series_loss(p, e, sigma, target_digits)


def _pow_loss(k, den):
    """D of ``FieldElement.__pow__(w, k)``, k >= 1, against w's, when
    den(i) bounds s(w^i): the base squares, the result multiplies in a
    base of a set bit, and each product loses the s of its other
    factor."""
    i, loss = 1, 0                  # base = w^i and its D
    while not k & 1:
        loss, i, k = loss + den(i), 2 * i, k >> 1
    j, out = i, loss                # out = w^j and its D
    while k > 1:
        k >>= 1
        loss, i = loss + den(i), 2 * i
        if k & 1:
            out, j = max(out + den(i), loss + den(j)), j + i
    return out


@functools.lru_cache(maxsize=256)
def _series_loss(p, e, sigma, target_digits, least=None):
    """The most digits ``_log_series`` loses on t (D against t's), over
    every t of valuation at least ``least``, by default every t the
    reduction can give, v(t) >= e // (p - 1) + 1.

    At v(t) >= vt, s(t^i) <= c_i = max(0, sigma - floor(i vt / e)).
    For n terms in chunks of k, h = ceil(n/k) - 1 Horner steps and
    lam = floor(log_p n):

      * the baby step t^(i+1) = t^i t has D <= max(D(t^i) + c_1, c_i),
        so D(t^i) <= (i - 1) c_1 for i <= k;
      * a term t^i (-1)^(j+1) / j (``_chunk_sum``) costs v_p(j) <= lam,
        and a chunk, a sum, has D <= B = (k - 1) c_1 + lam;
      * an accumulator acc is a tail sum of t^i / j with i >= 1, so
        s(acc) <= c_1 + lam, and acc t^k + chunk has D at most
        max(D(acc) + c_k, (k - 1) c_1 + c_1 + lam, B): D <= B + c_1
        after the first Horner step and B + c_1 + (h - 1) c_k after h.

    The series takes at most n terms exactly when v(t) reaches the least
    vt(n) at which the tail bound of some count up to n reaches the
    target (``_log_terms``), so every t is covered by the largest bound
    over n, each n taken at vt(n); a larger v(t) lowers every c_i, but
    fewer terms need not mean a shorter chunk k."""
    target = e * target_digits
    vt = e // (p - 1) + 1 if least is None else least
    reach = (-(-(target + e * (_intlog(j + 1, p) + 1)) // (j + 1))
             for j in range(1, _log_terms(vt, e, p, target) + 1))
    return max(_terms_loss(p, e, sigma, n, max(vt, need))
               for n, need in enumerate(itertools.accumulate(reach, min), 1))


def _terms_loss(p, e, sigma, n, vt):
    """The digits ``_log_series`` loses on t of valuation >= vt with n
    terms (D against t's; the bound derived in ``_series_loss``)."""
    k = _ps_step(n)
    h = -(-n // k) - 1
    c1, ck = (max(0, sigma - i * vt // e) for i in (1, k))
    loss = _intlog(n, p) + (k - 1) * c1
    return loss + c1 + (h - 1) * ck if h else loss


def _series_digits(K, vt, n, target_digits):
    """The digits above p^s to which ``iwasawa_log`` cuts t, of valuation
    vt, before its n-term series: target_digits and the series' loss at
    that one (vt, n), not the worst case that ``_log_digits`` charges."""
    return target_digits + _terms_loss(K.p, K.e, _denominator_bound(K), n,
                                       vt)


def _log_terms(vt, e, p, target):
    """The terms n of the series whose tail, at v(t) = vt, is below
    v_K = target."""
    n = 1
    while (n + 1) * vt - e * (_intlog(n + 1, p) + 1) < target:
        n += 1
    return n


def _ps_step(n):
    """The Paterson-Stockmeyer chunk length k for n terms, the first k
    that makes (k - 1) + (ceil(n/k) - 1) products fewest.  It is at most
    r + 1, r = isqrt(n): past r, k (k + 1) > n, so ceil(n/k) falls by at
    most 1 as k grows by 1."""
    return min(range(1, math.isqrt(n) + 2),
               key=lambda k: k + (n + k - 1) // k)


def _log_series(t, n):
    """sum_(j <= n) (-1)^(j+1) t^j / j by Paterson-Stockmeyer: the baby
    steps t, ..., t^k, chunks of k terms summed in integers
    (``_chunk_sum``, no product and one normalization per chunk), and
    Horner in t^k over the chunks, (k - 1) + (ceil(n/k) - 1) products
    with k chosen to minimise that count (``_ps_step``)."""
    k = _ps_step(n)
    powers = [t]
    while len(powers) < k:
        powers.append(powers[-1] * t)
    acc = None
    for lo in range((n - 1) // k * k, -1, -k):
        chunk = _chunk_sum(zip(powers, range(lo + 1, min(lo + k, n) + 1)))
        acc = chunk if acc is None else acc * powers[-1] + chunk
    return acc


def _chunk_sum(terms):
    """sum w (-1)^(j+1) / j over the (w, j) of a chunk, in integers: with
    lam = v_p(j), the term w (-1)^(j+1) / j is the numerator of w times
    the inverse of j's unit part over p^(s_i), s_i = s(w) + lam, known
    to A_i = m(w) - s_i digits above it.  Each numerator is scaled by
    p^(s - s_i) to the chunk's largest denominator p^s, the numerators
    are added and reduced once mod p^m, m = s + min(A_i), and the sum is
    normalized once.  A = m - s is the minimum over the terms, and
    m <= m(w) <= M for the term with s_i = s, so this is the
    (vec, s, m) of the sum term by term in ``FieldElement``, whose A is
    that minimum and whose normalization is canonical."""
    terms = list(terms)
    K = terms[0][0].field
    p = K.p
    terms = [(w, j, _vp(j, p)) for w, j in terms]
    s = max(w.s + lam for w, _, lam in terms)
    m = s + min(w.m - w.s - lam for w, _, lam in terms)
    pm = p ** m
    coeffs = [(1 if j % 2 else -1) * pow(j // p ** lam, -1, pm)
              * p ** (s - w.s - lam) for w, j, lam in terms]
    vec = tuple(sum(map(operator.mul, coeffs, col)) % pm
                for col in zip(*(w.vec for w, _, _ in terms)))
    return FieldElement(K, vec, s, m)._normalized()


def _intlog(n, p):
    k = 0
    while n >= p:
        n //= p
        k += 1
    return k


def l_invariant(q, target_digits=24):
    """log(q) / ord(q) for a Tate parameter q (v_K(q) > 0)."""
    v = q.valuation()
    if v <= 0:
        raise FieldError("Tate parameter must have positive valuation")
    return iwasawa_log(q, target_digits=target_digits) * Fraction(1, v)


# ----------------------------------------------------------------------
# base-change comparison across an anabelomorphic pair


def weak_amphoricity_report(coeffs, K, L):
    """Reduction data of the same curve over both fields plus equality flags."""
    mK = WeierstrassModel.from_a_invariants(K, *coeffs)
    mL = WeierstrassModel.from_a_invariants(L, *coeffs)
    rK = tate_algorithm(mK)
    rL = tate_algorithm(mL)
    flags = {
        "v_disc_equal": rK.v_min_disc == rL.v_min_disc,
        "conductor_equal": rK.conductor == rL.conductor,
        "kodaira_equal": str(rK.kodaira) == str(rL.kodaira),
        "tamagawa_equal": rK.tamagawa == rL.tamagawa,
    }
    return {"first": rK, "second": rL, "flags": flags,
            "all_equal": all(flags.values())}
