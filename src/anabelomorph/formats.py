"""The home of every text grammar of the package and of its printer: the
compact spec (``p=3 r=2 rad=3``), field-spec files, Weierstrass curves,
radicands, and integer polynomials in the cyclotomic generator z
(radicands and curve coefficients) and in x (custom steps).  Every parse
error is a ValueError that quotes the text and names its grammar; no
other module reads or writes these texts.
"""

from __future__ import annotations

from fractions import Fraction

from . import fields
from .anabelomorphy import KummerFieldSpec


def parse_zeta_poly(text):
    """Integer polynomial in z (the cyclotomic generator) -> {exp: coeff}."""
    try:
        return _parse_terms(text, "z")
    except ValueError as exc:
        raise ValueError(f"bad z-polynomial {text!r} ({exc}): "
                         f"{_ZETA_GRAMMAR}") from exc


def format_zeta_poly(d):
    """{exp: coeff} -> the text that ``parse_zeta_poly`` reads back, each
    nonzero term with its sign, highest exponent first; "0" if none."""
    terms = []
    for expo in sorted(d, reverse=True):
        c = d[expo]
        if c == 0:
            continue
        if expo == 0:
            terms.append(f"{c:+d}")
        elif expo == 1:
            terms.append(f"{c:+d}z")
        else:
            terms.append(f"{c:+d}z^{expo}")
    return "".join(terms) or "0"


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
            if rest and not (rest[0] == "^" and rest[1:].isdecimal()):
                raise ValueError(f"bad exponent {rest!r} after {var}")
            coef = int(coef_s) if coef_s else 1
            expo = int(rest[1:]) if rest else 1
        else:
            coef = int(term)
            expo = 0
        out[expo] = out.get(expo, 0) + sign * coef
    return out


def field_from_spec(text, prec=None):
    """(tower, KummerFieldSpec or None) from a compact spec, or from the
    field-spec file at the path ``text`` when it holds no ``=``."""
    if "=" in text:
        spec = parse_kummer_spec(text)
        return spec.build(prec=prec), spec
    with open(text) as fh:
        return parse_field_spec(fh.read(), prec=prec), None


def parse_kummer_spec(text):
    """Compact format: ``p=3 r=2 rad=3`` (rad optional, may be z-polynomial)."""
    p = r = rad = None
    seen = set()
    for tok in text.split():
        key, _, val = tok.partition("=")
        if key in seen:
            raise ValueError(f"key {key}= repeated in spec {text!r}: "
                             f"{_SPEC_GRAMMAR}")
        seen.add(key)
        if key == "p":
            p = _parsed(int, val, "p= value", _SPEC_GRAMMAR)
        elif key == "r":
            r = _parsed(int, val, "r= value", _SPEC_GRAMMAR)
        elif key == "rad":
            rad = parse_radicand(val)
        else:
            raise ValueError(f"unknown key {key!r} in spec {text!r}: "
                             f"{_SPEC_GRAMMAR}")
    if p is None or r is None:
        raise ValueError(f"spec {text!r} needs p= and r=: {_SPEC_GRAMMAR}")
    try:
        return KummerFieldSpec(p, r, rad)
    except ValueError as exc:
        raise ValueError(f"{exc}, in spec {text!r}: {_SPEC_GRAMMAR}") from exc


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
            q = _parsed(int, line[2:], "prime", _PRIME_GRAMMAR)
            if p is not None and q != p:
                raise ValueError(f"header {line!r} contradicts p={p}: "
                                 f"{_PRIME_GRAMMAR}")
            p = q
            continue
        if not line:
            continue
        kind, *args = line.split()
        if kind not in _STEP_ARGS:
            raise ValueError(f"unknown step {kind!r}: {_STEP_GRAMMAR}")
        if not args:
            raise ValueError(f"{kind} step without an argument: {line!r}: "
                             f"{_STEP_GRAMMAR}")
        if len(args) > _STEP_ARGS[kind]:
            raise ValueError(f"{kind} step with extra text: {line!r}: "
                             f"{_STEP_GRAMMAR}")
        if kind == "cyclotomic":
            steps.append(fields.TowerStep.cyclotomic(
                _parsed(int, args[0], "cyclotomic modulus", _STEP_GRAMMAR)))
        elif kind == "kummer":
            if len(args) < 2 or not args[1].startswith("rad="):
                raise ValueError(f"kummer step without rad=: {line!r}: "
                                 f"{_STEP_GRAMMAR}")
            steps.append(fields.TowerStep.kummer(
                _parsed(int, args[0], "kummer exponent", _STEP_GRAMMAR),
                parse_radicand(args[1][4:])))
        else:
            steps.append(fields.TowerStep.custom(_parse_int_poly(args[0])))
    if p is None:
        raise ValueError(f"field-spec file {text!r} must declare p=<prime>: "
                         f"{_PRIME_GRAMMAR}")
    # through the module, where a tracer replaces build_field
    return fields.build_field(p, steps, prec=prec)


def parse_curve(text):
    """``[a1,a2,a3,a4,a6]`` with integer-polynomial-in-z entries."""
    s = text.strip()
    if not (s.startswith("[") and s.endswith("]")):
        raise ValueError(f"bad curve {text!r}: {_CURVE_GRAMMAR}")
    parts = s[1:-1].split(",")
    if len(parts) != 5:
        raise ValueError(f"bad curve {text!r}: it has {len(parts)} "
                         f"coefficients; {_CURVE_GRAMMAR}")
    return [_parsed(parse_zeta_poly, t if t.strip() else "0",
                    "curve coefficient", _CURVE_GRAMMAR) for t in parts]


# the grammars of the user inputs, named by every parse error
_SPEC_GRAMMAR = ("a spec is p=<prime> r=<integer> with an optional "
                 "rad=<radicand>, such as p=3 r=2 rad=3")
_PRIME_GRAMMAR = "p= takes an integer prime, such as p=3"
_STEP_GRAMMAR = ("a field-spec step is cyclotomic <p^r>, kummer <p^s> "
                 "rad=<radicand> or custom <monic polynomial in x>, with "
                 "integers p^r and p^s, such as kummer 9 rad=3")
_RADICAND_GRAMMAR = ("rad= takes an integer, a fraction a/b, or an integer "
                     "polynomial in z with exponents >= 0, such as 3z^2-z+5")
_PAIR_GRAMMAR = "a radicand pair is a,b, such as 3,4; " + _RADICAND_GRAMMAR
_ZETA_GRAMMAR = ("a z-polynomial is an integer polynomial in z with "
                 "exponents >= 0, such as 3z^2-z+5")
_CUSTOM_GRAMMAR = ("custom takes a monic integer polynomial in x with "
                   "exponents >= 0, such as x^3-9")
_CURVE_GRAMMAR = ("a curve is [a1,a2,a3,a4,a6], each entry an integer "
                  "polynomial in z with exponents >= 0, such as 3z^2-z+5")

# the arguments of each field-spec step
_STEP_ARGS = {"cyclotomic": 1, "kummer": 2, "custom": 1}


def _parsed(parse, text, what, grammar):
    """parse(text), with a malformed text reported as a ValueError that
    quotes it and names its grammar."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad {what} {text!r}: {grammar}") from exc


def parse_radicand(text):
    """An integer, a fraction a/b or a z-polynomial, as ``rad=`` takes it."""
    def parse(text):
        if "z" in text:
            return parse_zeta_poly(text)
        if "/" in text:
            return Fraction(text)
        return int(text)
    return _parsed(parse, text, "radicand", _RADICAND_GRAMMAR)


def parse_radicand_pair(text):
    """``a,b`` -> the radicands a and b."""
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad radicand pair {text!r}: {_PAIR_GRAMMAR}")
    return [parse_radicand(t) for t in parts]


def _parse_int_poly(text):
    """Monic polynomial in x -> coefficient list (low degree first, no lead)."""
    def parse(text):
        terms = _parse_terms(text, "x")
        deg = max(terms)
        if terms[deg] != 1:
            raise ValueError("custom polynomial must be monic")
        return [terms.get(i, 0) for i in range(deg)]
    return _parsed(parse, text, "custom polynomial", _CUSTOM_GRAMMAR)
