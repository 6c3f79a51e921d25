"""Weierstrass models over local field towers and Tate's algorithm.

The algorithm below runs uniformly in every residue characteristic: all
residue-field decisions (singular point location, root counting,
square/cube completion, splitness of the tangent quadratic) are made by
enumerating the finite set of residue representatives and testing
valuations, never by characteristic-specific formulas.  The output
quadruple is (v(Delta_min), conductor exponent, Kodaira symbol,
Tamagawa number), with the conductor from v(Delta_min) - m + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import FieldElement, FieldError, parse_zeta_poly
from .padic import PrecisionError

POTENTIALLY_GOOD = "POTENTIALLY_GOOD"
POTENTIALLY_MULTIPLICATIVE = "POTENTIALLY_MULTIPLICATIVE"

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
    a1: FieldElement
    a2: FieldElement
    a3: FieldElement
    a4: FieldElement
    a6: FieldElement

    def __post_init__(self):
        self.field = self.a1.field
        inv = weierstrass_invariants(self, check=False)
        v, bound = inv.disc.val_or_bound()
        if v is None:
            if inv.disc.exact:
                raise SingularModelError("discriminant vanishes: singular curve")
            raise PrecisionError(
                "discriminant is zero to working precision; raise precision "
                "or reject the model")

    @classmethod
    def from_a_invariants(cls, K, a1=0, a2=0, a3=0, a4=0, a6=0):
        def conv(a):
            if isinstance(a, FieldElement):
                return a
            if isinstance(a, dict):
                return K.from_zeta_poly(a)
            if isinstance(a, Fraction):
                return K.from_fraction(a)
            return K.from_int(a)
        return cls(conv(a1), conv(a2), conv(a3), conv(a4), conv(a6))

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
    j: FieldElement = None


@dataclass
class ReductionData:
    v_min_disc: int
    conductor: int
    kodaira: KodairaSymbol
    tamagawa: int
    components: int
    split: bool = None

    def quadruple(self):
        return (self.v_min_disc, self.conductor, str(self.kodaira), self.tamagawa)

    def to_dict(self, field_name=""):
        return {"field": field_name, "v_disc": self.v_min_disc,
                "f": self.conductor, "kodaira": str(self.kodaira),
                "tamagawa": self.tamagawa, "m": self.components}


def weierstrass_invariants(model, check=True, with_j=False):
    """b- and c-invariants, discriminant and (optionally) j."""
    a1, a2, a3, a4, a6 = model.coefficients() if isinstance(model, WeierstrassModel) \
        else model
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * (a3 * a3)
          - a4 * a4)
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 * b2 * b2) + 36 * b2 * b4 - 216 * b6
    disc = (-(b2 * b2) * b8 - 8 * (b4 * b4 * b4) - 27 * (b6 * b6)
            + 9 * b2 * b4 * b6)
    inv = StandardInvariants(b2, b4, b6, b8, c4, c6, disc)
    if check:
        K = b2.field
        ident1 = 4 * b8 - (b2 * b6 - b4 * b4)
        ident2 = 1728 * disc - (c4 * c4 * c4 - c6 * c6)
        for ident in (ident1, ident2):
            v, bound = ident.val_or_bound()
            if v is not None:
                raise FieldError("b/c-invariant identities violated")
    if with_j:
        vdisc = inv.disc.valuation()
        vc4, _ = inv.c4.val_or_bound()
        if vc4 is None:
            inv.j = inv.c4.field.zero()
        else:
            inv.j = (inv.c4 ** 3) * inv.disc.inv()
    return inv


def reduction_class(model_or_j, K=None):
    """Potential reduction type from the sign of v(j)."""
    if isinstance(model_or_j, WeierstrassModel):
        inv = weierstrass_invariants(model_or_j, check=False, with_j=True)
        j = inv.j
    else:
        j = model_or_j
    v, bound = j.val_or_bound()
    if v is None or v >= 0:
        return POTENTIALLY_GOOD
    return POTENTIALLY_MULTIPLICATIVE


def change_coords(model, u=1, r=0, s=0, t=0):
    """Standard coordinate change (x, y) -> (u^2 x + r, u^3 y + u^2 s x + t)."""
    K = model.field
    conv = (lambda a: a if isinstance(a, FieldElement)
            else (K.from_fraction(a) if isinstance(a, Fraction) else K.from_int(a)))
    u, r, s, t = conv(u), conv(r), conv(s), conv(t)
    a1, a2, a3, a4, a6 = model.coefficients()
    uinv = u.inv()
    u2, u3 = uinv * uinv, None
    u3 = u2 * uinv
    u4 = u2 * u2
    u6 = u4 * u2
    na1 = (a1 + 2 * s) * uinv
    na2 = (a2 - s * a1 + 3 * r - s * s) * u2
    na3 = (a3 + r * a1 + 2 * t) * u3
    na4 = (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * (r * r)
           - 2 * s * t) * u4
    na6 = (a6 + r * a4 + (r * r) * a2 + (r * r) * r - t * a3 - t * t
           - r * t * a1) * u6
    return WeierstrassModel(na1, na2, na3, na4, na6)


# ----------------------------------------------------------------------
# residue-field searches (all by enumeration of residue representatives)


def _k_roots(K, coeffs):
    """Residue roots of a polynomial with integral coefficients: lifts c
    with v(sum coeffs[i] c^i) >= 1."""
    out = []
    for c in K.residue_lifts:
        acc = K.zero()
        cp = K.one()
        for co in coeffs:
            acc = acc + co * cp
            cp = cp * c
        if K.val_at_least(acc, 1):
            out.append(c)
    return out


def _k_double_root(K, coeffs):
    """A lift that is a root of the polynomial and of its derivative."""
    for c in K.residue_lifts:
        acc = K.zero()
        dacc = K.zero()
        cp = K.one()
        for i, co in enumerate(coeffs):
            acc = acc + co * cp
            if i + 1 < len(coeffs):
                dacc = dacc + coeffs[i + 1] * cp * (i + 1)
            cp = cp * c
        if K.val_at_least(acc, 1) and K.val_at_least(dacc, 1):
            return c
    return None


def _quad_has_distinct_roots(K, a, b, c):
    """a x^2 + b x + c has distinct roots in the residue closure:
    v(b^2 - 4ac) == 0 (the formula is characteristic-safe)."""
    disc = b * b - 4 * a * c
    return not K.val_at_least(disc, 1)


def _find_singular_point(K, a1, a2, a3, a4, a6):
    """Residue singular point of the reduction (unique, hence rational)."""
    for xr in K.residue_lifts:
        for yr in K.residue_lifts:
            # F = y^2 + a1 x y + a3 y - x^3 - a2 x^2 - a4 x - a6
            f = (yr * yr + a1 * xr * yr + a3 * yr - xr ** 3 - a2 * (xr * xr)
                 - a4 * xr - a6)
            if not K.val_at_least(f, 1):
                continue
            fx = a1 * yr - 3 * (xr * xr) - 2 * a2 * xr - a4
            fy = 2 * yr + a1 * xr + a3
            if K.val_at_least(fx, 1) and K.val_at_least(fy, 1):
                return xr, yr
    raise FieldError("no singular point found on a curve with v(disc) > 0")


# ----------------------------------------------------------------------
# Tate's algorithm


def tate_algorithm(model):
    """Reduction data of the minimal model, checked against the
    conductor ledger and the Tamagawa bounds of its Kodaira type."""
    rd = _tate_run(model)
    _validate_reduction(rd)
    return rd


def _validate_reduction(rd):
    if rd.conductor != rd.v_min_disc - rd.components + 1:
        raise ArithmeticError("conductor / component-count ledger violated")
    kind = rd.kodaira.kind
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
    K = model.field
    a1, a2, a3, a4, a6 = model.coefficients()
    # scale to an integral model, then strip the obvious common pi-power
    # (keeps the discriminant valuation within the working modulus)
    shift = 0
    drop = None
    for ai, w in ((a1, 1), (a2, 2), (a3, 3), (a4, 4), (a6, 6)):
        v, bound = ai.val_or_bound()
        if v is None:
            continue
        if v < 0:
            shift = max(shift, (-v + w - 1) // w)
        down = (v + w * shift) // w
        drop = down if drop is None else min(drop, down)
    if drop is None:
        raise SingularModelError("all coefficients vanish")
    shift -= max(drop, 0)
    if shift:
        a1, a2, a3, a4, a6 = (a1 * K.pi_pow(shift), a2 * K.pi_pow(2 * shift),
                              a3 * K.pi_pow(3 * shift), a4 * K.pi_pow(4 * shift),
                              a6 * K.pi_pow(6 * shift))
    for _restart in range(200):
        result = _tate_pass(K, a1, a2, a3, a4, a6)
        if result is not None and not isinstance(result, tuple):
            return result
        if result is None:
            raise FieldError("tate pass returned nothing")
        a1, a2, a3, a4, a6 = result    # non-minimal: rescaled, run again
    raise FieldError("tate algorithm did not terminate (restart budget)")


def _tate_pass(K, a1, a2, a3, a4, a6):
    inv = weierstrass_invariants((a1, a2, a3, a4, a6), check=False)
    vD = inv.disc.valuation()
    if vD == 0:
        return ReductionData(0, 0, KodairaSymbol("I0"), 1, 1)

    # move the singular point of the reduction to (0, 0)
    xr, yr = _find_singular_point(K, a1, a2, a3, a4, a6)
    a1, a2, a3, a4, a6 = _translate(a1, a2, a3, a4, a6, r=xr, t=yr)

    b2 = a1 * a1 + 4 * a2
    if not K.val_at_least(b2, 1):
        # multiplicative: I_n with n = v(disc)
        n = vD
        split = bool(_k_roots(K, [(-1) * a2, a1, K.one()]))
        if split:
            c = n
        else:
            c = 2 if n % 2 == 0 else 1
        return ReductionData(vD, vD - n + 1, KodairaSymbol("In", n), c, n,
                             split=split)

    # additive reduction from here on
    if not K.val_at_least(a6, 2):
        return ReductionData(vD, vD, KodairaSymbol("II"), 1, 1)
    b8 = (a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * (a3 * a3)
          - a4 * a4)
    if not K.val_at_least(b8, 3):
        return ReductionData(vD, vD - 1, KodairaSymbol("III"), 2, 2)
    b6 = a3 * a3 + 4 * a6
    if not K.val_at_least(b6, 3):
        quad = [(-1) * K.div_pi(a6, 2), K.div_pi(a3, 1), K.one()]
        c = 3 if _k_roots(K, quad) else 1
        return ReductionData(vD, vD - 2, KodairaSymbol("IV"), c, 3)

    # normalize so that pi | a1, a2; pi^2 | a3, a4; pi^3 | a6
    sbar = _k_double_root(K, [(-1) * a2, a1, K.one()])
    if sbar is None:
        raise FieldError("tangent quadratic has no double residue root")
    a1, a2, a3, a4, a6 = _translate(a1, a2, a3, a4, a6, s=sbar)
    tbar = None
    for cand in K.residue_lifts:
        if K.val_at_least(K.div_pi(a3, 1) + 2 * cand, 1):
            tbar = cand
            break
    if tbar is None:
        raise FieldError("no shift clears the a3 coefficient")
    a1, a2, a3, a4, a6 = _translate(a1, a2, a3, a4, a6, t=tbar * K.pi_pow(1))
    sig = None
    for cand in K.residue_lifts:
        if K.val_at_least(K.div_pi(a6, 2) - cand * cand, 1):
            sig = cand
            break
    if sig is None:
        raise FieldError("a6/pi^2 is not a residue square after clearing a3")
    a1, a2, a3, a4, a6 = _translate(a1, a2, a3, a4, a6, t=sig * K.pi_pow(1))
    for ai, want in ((a1, 1), (a2, 1), (a3, 2), (a4, 2), (a6, 3)):
        if not K.val_at_least(ai, want):
            raise FieldError("step-six normalization failed")

    # cubic P(T) = T^3 + (a2/pi) T^2 + (a4/pi^2) T + (a6/pi^3)
    pc = [K.div_pi(a6, 3), K.div_pi(a4, 2), K.div_pi(a2, 1), K.one()]
    if _cubic_distinct(K, pc):
        c = 1 + len(_k_roots(K, pc))
        return ReductionData(vD, vD - 4, KodairaSymbol("I0*"), c, 5)
    trep = _k_double_root(K, pc)
    if trep is None:
        raise FieldError("cubic with repeated root has no residue double root")
    triple = (K.val_at_least(pc[2] + 3 * trep, 1)
              and K.val_at_least(pc[1] - 3 * (trep * trep), 1)
              and K.val_at_least(pc[0] + trep ** 3, 1))
    a1, a2, a3, a4, a6 = _translate(a1, a2, a3, a4, a6, r=trep * K.pi_pow(1))

    if not triple:
        return _tate_in_star(K, vD, a1, a2, a3, a4, a6)

    # triple root: types IV*, III*, II* or restart
    quad = [(-1) * K.div_pi(a6, 4), K.div_pi(a3, 2), K.one()]
    if _quad_has_distinct_roots(K, K.one(), quad[1], quad[0]):
        c = 3 if _k_roots(K, quad) else 1
        return ReductionData(vD, vD - 6, KodairaSymbol("IV*"), c, 7)
    yrep = _k_double_root(K, quad)
    if yrep is None:
        raise FieldError("quartic-stage quadratic has no residue double root")
    a1, a2, a3, a4, a6 = _translate(a1, a2, a3, a4, a6,
                                    t=yrep * K.pi_pow(2))
    if not K.val_at_least(a4, 4):
        return ReductionData(vD, vD - 7, KodairaSymbol("III*"), 2, 8)
    if not K.val_at_least(a6, 6):
        return ReductionData(vD, vD - 8, KodairaSymbol("II*"), 1, 9)
    # non-minimal model: rescale and restart
    return (K.div_pi(a1, 1), K.div_pi(a2, 2), K.div_pi(a3, 3),
            K.div_pi(a4, 4), K.div_pi(a6, 6))


def _tate_in_star(K, vD, a1, a2, a3, a4, a6):
    """Step-seven loop: I_n* for n >= 1.

    State on entry: v(a2) = 1 exactly, v(a3) >= 2, v(a4) >= 3, v(a6) >= 4.
    Alternates between Y- and X-quadratics of increasing depth.
    """
    n = 1
    for _guard in range(vD + 8):
        k = (n + 1) // 2
        if n % 2 == 1:
            qa, qb, qc = K.one(), K.div_pi(a3, k + 1), (-1) * K.div_pi(a6, 2 * k + 2)
        else:
            qa, qb, qc = K.div_pi(a2, 1), K.div_pi(a4, k + 2), K.div_pi(a6, 2 * k + 3)
        if _quad_has_distinct_roots(K, qa, qb, qc):
            c = 4 if _k_roots(K, [qc, qb, qa]) else 2
            return ReductionData(vD, vD - 4 - n, KodairaSymbol("In*", n),
                                 c, 5 + n)
        rep = _k_double_root(K, [qc, qb, qa])
        if rep is None:
            raise FieldError("In* stage quadratic has no residue double root")
        if n % 2 == 1:
            a1, a2, a3, a4, a6 = _translate(a1, a2, a3, a4, a6,
                                            t=rep * K.pi_pow(k + 1))
        else:
            a1, a2, a3, a4, a6 = _translate(a1, a2, a3, a4, a6,
                                            r=rep * K.pi_pow(k + 1))
        n += 1
    raise FieldError("In* loop did not terminate")


def _cubic_distinct(K, pc):
    """Distinct roots in the residue closure via the cubic discriminant."""
    c0, c1, c2, _ = pc
    disc = (18 * c2 * c1 * c0 - 4 * (c2 ** 3) * c0 + (c2 * c1) * (c2 * c1)
            - 4 * (c1 ** 3) - 27 * (c0 * c0))
    return not K.val_at_least(disc, 1)


def _translate(a1, a2, a3, a4, a6, r=None, s=None, t=None):
    """(x, y) -> (x + r, y + s x + t) with u = 1."""
    K = a1.field
    zero = K.zero()
    r = zero if r is None else r
    s = zero if s is None else s
    t = zero if t is None else t
    na1 = a1 + 2 * s
    na2 = a2 - s * a1 + 3 * r - s * s
    na3 = a3 + r * a1 + 2 * t
    na4 = a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * (r * r) - 2 * s * t
    na6 = (a6 + r * a4 + (r * r) * a2 + (r * r) * r - t * a3 - t * t
           - r * t * a1)
    return na1, na2, na3, na4, na6


# ----------------------------------------------------------------------
# Tate parameter and the log-over-ord invariant


def tate_parameter_valuation(model_or_j, K=None):
    """v_K(q) = -v_K(j) for multiplicative reduction."""
    if isinstance(model_or_j, WeierstrassModel):
        inv = weierstrass_invariants(model_or_j, check=False, with_j=True)
        j = inv.j
    else:
        j = model_or_j
    v, bound = j.val_or_bound()
    if v is None or v >= 0:
        raise FieldError("not potentially multiplicative: v(j) >= 0")
    return -v


def iwasawa_log(x, target_digits=24):
    """Branch log(p) = 0 extended to K^*: strip the p-part through
    x^e / p^(v(x)), kill residue torsion, then sum the 1-unit series."""
    K = x.field
    p = K.p
    v = x.valuation()
    e, f = K.e, K.f
    y = x ** e
    if v:
        y = y * K.from_fraction(Fraction(1, p ** v))
    q = p ** f
    z = y ** (q - 1)
    divisor = e * (q - 1)
    # p-power until the series for log(1+t) converges: v(t) > e/(p-1)
    kpow = 0
    while True:
        t = z - K.one()
        vt, bound = t.val_or_bound()
        if vt is None:
            return K.zero()
        if vt * (p - 1) > e:
            break
        z = z ** p
        divisor *= p
        kpow += 1
        if kpow > 8 * e:
            raise PrecisionError("logarithm reduction did not converge")
    target = e * target_digits
    acc = K.zero()
    term = t
    j = 1
    tj = t
    while True:
        term = tj * Fraction((-1) ** (j + 1), j)
        acc = acc + term
        # next term valuation lower bound
        j += 1
        low = j * vt - e * (_intlog(j, p) + 1)
        if low >= target:
            break
        tj = tj * t
    return acc * Fraction(1, divisor)


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


def parse_curve(text):
    """``[a1,a2,a3,a4,a6]`` with integer-polynomial-in-z entries."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError("curve must be given as [a1,a2,a3,a4,a6]")
    parts = s[1:-1].split(",")
    if len(parts) != 5:
        raise ValueError("curve needs exactly five coefficients")
    return [parse_zeta_poly(t if t.strip() else "0") for t in parts]


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
