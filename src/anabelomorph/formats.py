"""The text formats of towers: field-spec files, integer polynomials in
the cyclotomic generator z (radicands and curve coefficients) and in x
(custom steps), and the grammar each parse error names.

Kept apart from ``fields`` so that the compile of that largest module,
which a fresh import makes at every benchmark set-up, stays as small as
the arithmetic needs.
"""

from __future__ import annotations

from fractions import Fraction

from . import fields


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
            if rest and not (rest[0] == "^" and rest[1:].isdecimal()):
                raise ValueError(f"bad exponent {rest!r} after {var}")
            coef = int(coef_s) if coef_s else 1
            expo = int(rest[1:]) if rest else 1
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
            q = _parsed(int, line[2:], "prime", _PRIME_GRAMMAR)
            if p is not None and q != p:
                raise ValueError(f"header {line!r} contradicts p={p}")
            p = q
            continue
        if not line:
            continue
        kind, *args = line.split()
        if kind not in ("cyclotomic", "kummer", "custom"):
            raise ValueError(f"unknown step {kind!r}: {_STEP_GRAMMAR}")
        if not args:
            raise ValueError(f"{kind} step without an argument: {line!r}: "
                             f"{_STEP_GRAMMAR}")
        if kind == "cyclotomic":
            steps.append(fields.TowerStep.cyclotomic(
                _parsed(int, args[0], "cyclotomic modulus", _STEP_GRAMMAR)))
        elif kind == "kummer":
            radtxt = None
            for tok in args[1:]:
                if tok.startswith("rad="):
                    radtxt = tok[4:]
            if radtxt is None:
                raise ValueError(f"kummer step without rad=: {line!r}: "
                                 f"{_STEP_GRAMMAR}")
            steps.append(fields.TowerStep.kummer(
                _parsed(int, args[0], "kummer exponent", _STEP_GRAMMAR),
                _parse_radicand(radtxt)))
        else:
            steps.append(fields.TowerStep.custom(_parse_int_poly(args[0])))
    if p is None:
        raise ValueError(f"field-spec file {text!r} must declare p=<prime>: "
                         f"{_PRIME_GRAMMAR}")
    # through the module, where a tracer replaces build_field
    return fields.build_field(p, steps, prec=prec)


# the grammars of the user inputs, named by every parse error
_PRIME_GRAMMAR = "p= takes an integer prime, such as p=3"
_STEP_GRAMMAR = ("a field-spec step is cyclotomic <p^r>, kummer <p^s> "
                 "rad=<radicand> or custom <monic polynomial in x>, with "
                 "integers p^r and p^s, such as kummer 9 rad=3")
_RADICAND_GRAMMAR = ("rad= takes an integer, a fraction a/b, or an integer "
                     "polynomial in z with exponents >= 0, such as 3z^2-z+5")
_CUSTOM_GRAMMAR = ("custom takes a monic integer polynomial in x with "
                   "exponents >= 0, such as x^3-9")


def _parsed(parse, text, what, grammar):
    """parse(text), with a malformed text reported as a ValueError that
    quotes it and names its grammar."""
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad {what} {text!r}: {grammar}") from exc


def _parse_radicand(text):
    def parse(text):
        if "z" in text:
            return parse_zeta_poly(text)
        if "/" in text:
            return Fraction(text)
        return int(text)
    return _parsed(parse, text, "radicand", _RADICAND_GRAMMAR)


def _parse_int_poly(text):
    """Monic polynomial in x -> coefficient list (low degree first, no lead)."""
    def parse(text):
        terms = _parse_terms(text, "x")
        deg = max(terms)
        if terms[deg] != 1:
            raise ValueError("custom polynomial must be monic")
        return [terms.get(i, 0) for i in range(deg)]
    return _parsed(parse, text, "custom polynomial", _CUSTOM_GRAMMAR)
