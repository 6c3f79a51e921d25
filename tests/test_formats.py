"""The text grammars of ``anabelomorph.formats``: refusals pinned one raise
site at a time, and one round-trip and one mutation property per grammar
(radicand and z-polynomial, compact spec, curve, field-spec file, custom
polynomial), in the manner of Claessen and Hughes, QuickCheck (ICFP 2000).

Every text here is printed by a helper of this file, not by the package.
"""

import contextlib
import io
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from anabelomorph import fields
from anabelomorph.anabelomorphy import KummerFieldSpec
from anabelomorph.cli import main
from anabelomorph.fields import TowerStep as T
from anabelomorph.formats import (_CURVE_GRAMMAR, _PRIME_GRAMMAR,
                                  _SPEC_GRAMMAR, _STEP_GRAMMAR, _ZETA_GRAMMAR,
                                  _parse_int_poly, format_zeta_poly,
                                  parse_curve, parse_field_spec,
                                  parse_kummer_spec, parse_radicand,
                                  parse_zeta_poly)

# the head of each grammar, as the parse errors name it
ZETA = "a z-polynomial is an integer polynomial in z"
RADICAND = "rad= takes an integer, a fraction a/b, or an integer polynomial"
SPEC = "a spec is p=<prime> r=<integer> with an optional rad=<radicand>"
CURVE = "a curve is [a1,a2,a3,a4,a6], each entry an integer polynomial in z"
STEP = "a field-spec step is cyclotomic <p^r>, kummer <p^s> rad=<radicand>"
PRIME = "p= takes an integer prime"
CUSTOM = "custom takes a monic integer polynomial in x"


# ----------------------------------------------------------------------
# raise sites


@pytest.mark.parametrize("line", [
    "cyclotomic 9 junk", "kummer 9 junk rad=3", "kummer 9 rad=3 extra",
    "kummer 9 rad=3 rad=4", "custom x^3-3 junk"])
def test_step_with_extra_text_is_refused(line):
    # these lines were read in part (extra tokens ignored, the last rad=
    # taken); now each is refused before any layer is built
    with mock.patch.object(fields, "build_field") as build:
        with pytest.raises(ValueError) as info:
            parse_field_spec(f"p=3\ncyclotomic 9\n{line}\n")
    assert str(info.value) == (f"{line.split()[0]} step with extra text: "
                               f"{line!r}: " + _STEP_GRAMMAR)
    build.assert_not_called()


def test_bad_term_quotes_the_text_and_names_the_grammar():
    with pytest.raises(ValueError) as info:
        parse_zeta_poly("3+-z")
    assert str(info.value) == ("bad z-polynomial '3+-z' (bad term '+'): "
                               + _ZETA_GRAMMAR)


def test_header_that_contradicts_p_names_the_grammar():
    with pytest.raises(ValueError) as info:
        parse_field_spec("p=5\ncyclotomic 9\n", p=3)
    assert str(info.value) == "header 'p=5' contradicts p=3: " + _PRIME_GRAMMAR


def test_curve_without_brackets_names_the_grammar():
    with pytest.raises(ValueError) as info:
        parse_curve("0,3,0,0,9")
    assert str(info.value) == "bad curve '0,3,0,0,9': " + _CURVE_GRAMMAR


@pytest.mark.parametrize("r, rad, message", [
    (0, None, "r must be >= 1"), (-1, 3, "r must be >= 1"),
    (1, 0, "radicand must be nonzero"),
    (1, Fraction(0), "radicand must be nonzero")])
def test_spec_scope_errors(r, rad, message):
    # the library refuses the values; the parser adds the text and the
    # grammar of the spec that held them
    with pytest.raises(ValueError) as info:
        KummerFieldSpec(3, r, rad)
    assert str(info.value) == message
    text = f"p=3 r={r}" + ("" if rad is None else f" rad={rad}")
    with pytest.raises(ValueError) as info:
        parse_kummer_spec(text)
    assert str(info.value) == (f"{message}, in spec {text!r}: "
                               + _SPEC_GRAMMAR)


def test_format_zeta_poly_prints_signed_terms():
    assert format_zeta_poly({0: -7, 1: 8, 3: 0, 2: 1}) == "+1z^2+8z-7"
    assert format_zeta_poly({}) == format_zeta_poly({4: 0}) == "0"


# ----------------------------------------------------------------------
# printers of drawn values


def zeta_text(d, var="z"):
    """{exp: coeff} -> c*z^e terms of increasing exponent, no spaces."""
    out = ""
    for e, c in sorted(d.items()):
        term = f"{abs(c)}*{var}^{e}"
        out += ("-" if c < 0 else "+" if out else "") + term
    return out


def radicand_text(a):
    return zeta_text(a) if isinstance(a, dict) else str(a)


def custom_text(coeffs):
    """[c_0, ..., c_(d-1)] -> x^d + ... + c_0."""
    lead = {len(coeffs): 1}
    return zeta_text({**{i: c for i, c in enumerate(coeffs) if c}, **lead},
                     "x")


def spec_text(p, r, rad, order):
    toks = [f"p={p}", f"r={r}"] + ([] if rad is None
                                   else [f"rad={radicand_text(rad)}"])
    return " ".join(toks[i] for i in order if i < len(toks))


def curve_text(coeffs):
    return "[" + ",".join(zeta_text(d) for d in coeffs) + "]"


def field_text(p, steps, comment):
    lines = [f"p={p}"]
    for st_ in steps:
        if st_.kind == "cyclotomic":
            lines.append(f"cyclotomic {st_.modulus}")
        elif st_.kind == "kummer":
            lines.append(f"kummer {st_.exponent} "
                         f"rad={radicand_text(st_.radicand)}")
        else:
            lines.append(f"custom {custom_text(list(st_.coeffs))}")
    if comment:
        lines = ["# a tower", ""] + [ln + "  # step" for ln in lines]
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# strategies: towers of degree <= 54 over p in {2, 3, 5, 7}

# (p, r) with phi(p^r) p^r <= 54; p = 2 takes r >= 2
SHAPES = [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]

coefficient = st.integers(-9, 9).filter(bool)
zeta_polys = st.dictionaries(st.integers(0, 5), coefficient, min_size=1,
                             max_size=4)
radicands = st.one_of(
    st.integers(-60, 60).filter(bool),
    st.builds(Fraction, st.integers(-60, 60).filter(bool),
              st.integers(2, 9)),
    zeta_polys)
specs = st.tuples(st.sampled_from(SHAPES), st.none() | radicands,
                  st.permutations(range(3)))
curves = st.lists(st.dictionaries(st.integers(0, 5), coefficient,
                                  max_size=3), min_size=5, max_size=5)
customs = st.integers(2, 4).flatmap(
    lambda d: st.lists(st.integers(-9, 9), min_size=d, max_size=d))


@st.composite
def towers(draw):
    """(p, steps): a cyclotomic layer with an optional Kummer layer over
    it, or one custom layer over Q_p."""
    p, r = draw(st.sampled_from(SHAPES))
    if draw(st.booleans()):
        return p, [T.custom(draw(customs))]
    steps = [T.cyclotomic(p ** r)]
    if draw(st.booleans()):
        s = draw(st.integers(1, r))
        steps.append(T.kummer(p ** s, draw(radicands)))
    return p, steps


@st.composite
def mutations(draw, text):
    """text with one character inserted, deleted or replaced."""
    i = draw(st.integers(0, len(text) - 1))
    ch = draw(st.sampled_from("0123456789pqrxz=^+-*/,[]# \n")
              | st.characters(codec="utf-8"))
    op = draw(st.sampled_from(["insert", "delete", "replace"]))
    if op == "insert":
        return text[:i] + ch + text[i:]
    return text[:i] + ("" if op == "delete" else ch) + text[i + 1:]


def refused_or_parsed(parse, text, *grammars):
    """parse(text) returns, or raises a ValueError that quotes part of
    the text and names one of ``grammars``; any other exception fails."""
    try:
        parse(text)
    except ValueError as exc:
        msg = str(exc)
        assert any(g in msg for g in grammars), msg
        assert any(repr(text[i:j]) in msg for i in range(len(text) + 1)
                   for j in range(i, len(text) + 1)), msg


def cli_exit(argv):
    """cli.main(argv): 0 or 3, with no traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    return code


def steps_of(text):
    """The (p, steps) parse_field_spec hands to build_field."""
    with mock.patch.object(fields, "build_field",
                           lambda p, steps, prec=None: (p, steps)):
        return parse_field_spec(text)


FAST = settings(deadline=None, max_examples=60)
# each CLI example builds a tower, so these take fewer examples
CLI = settings(deadline=None, max_examples=25)


# ----------------------------------------------------------------------
# round trips


@FAST
@given(zeta_polys, radicands)
def test_zeta_poly_and_radicand_round_trip(d, a):
    assert parse_zeta_poly(zeta_text(d)) == d
    assert parse_zeta_poly(format_zeta_poly(d)) == d
    assert parse_radicand(radicand_text(a)) == a


@FAST
@given(specs)
def test_spec_round_trip(drawn):
    (p, r), rad, order = drawn
    assert parse_kummer_spec(spec_text(p, r, rad, order)) == \
        KummerFieldSpec(p, r, rad)


@FAST
@given(curves)
def test_curve_round_trip(coeffs):
    parsed = parse_curve(curve_text(coeffs))
    assert [{e: c for e, c in d.items() if c} for d in parsed] == coeffs


@FAST
@given(towers(), st.booleans())
def test_field_spec_round_trip(tower, comment):
    p, steps = tower
    assert steps_of(field_text(p, steps, comment)) == (p, steps)


@FAST
@given(customs)
def test_custom_round_trip(coeffs):
    assert _parse_int_poly(custom_text(coeffs)) == coeffs


# ----------------------------------------------------------------------
# one character off: parsed, or refused with the text and its grammar


@FAST
@given(st.data(), radicands)
def test_radicand_mutation(data, a):
    text = data.draw(mutations(radicand_text(a)))
    refused_or_parsed(parse_radicand, text, RADICAND)
    if "z" in text:
        refused_or_parsed(parse_zeta_poly, text, ZETA)


@FAST
@given(st.data(), specs)
def test_spec_mutation(data, drawn):
    (p, r), rad, order = drawn
    text = data.draw(mutations(spec_text(p, r, rad, order)))
    refused_or_parsed(parse_kummer_spec, text, SPEC, RADICAND)


@FAST
@given(st.data(), curves)
def test_curve_mutation(data, coeffs):
    text = data.draw(mutations(curve_text(coeffs)))
    refused_or_parsed(parse_curve, text, CURVE)


@FAST
@given(st.data(), towers(), st.booleans())
def test_field_spec_mutation(data, tower, comment):
    text = data.draw(mutations(field_text(*tower, comment)))
    refused_or_parsed(steps_of, text, STEP, PRIME, RADICAND, CUSTOM)


@FAST
@given(st.data(), customs)
def test_custom_mutation(data, coeffs):
    text = data.draw(mutations(custom_text(coeffs)))
    refused_or_parsed(_parse_int_poly, text, CUSTOM)


# ----------------------------------------------------------------------
# the same texts through the command line: exit 0 or 3, no traceback;
# "--" ends the options, so that a text led by "-" stays an argument


@CLI
@given(st.data(), st.sampled_from(SHAPES), radicands)
def test_cli_radicand_mutation(data, shape, a):
    text = data.draw(mutations(radicand_text(a)))
    cli_exit(["disc", "--", f"p={shape[0]} r={shape[1]} rad={text}"])


@CLI
@given(st.data(), specs)
def test_cli_spec_mutation(data, drawn):
    (p, r), rad, order = drawn
    cli_exit(["disc", "--", data.draw(mutations(spec_text(p, r, rad,
                                                          order)))])


@CLI
@given(st.data(), st.sampled_from(SHAPES), curves)
def test_cli_curve_mutation(data, shape, coeffs):
    text = data.draw(mutations(curve_text(coeffs)))
    cli_exit(["tate", "--", text, f"p={shape[0]} r={shape[1]}"])


@CLI
@given(st.data(), towers(), st.booleans())
def test_cli_field_spec_mutation(tmp_path_factory, data, tower, comment):
    path = tmp_path_factory.mktemp("spec") / "k.field"
    path.write_text(data.draw(mutations(field_text(*tower, comment))),
                    encoding="utf-8")
    cli_exit(["disc", str(path)])


@CLI
@given(st.data(), st.sampled_from([2, 3, 5, 7]), customs)
def test_cli_custom_mutation(tmp_path_factory, data, p, coeffs):
    path = tmp_path_factory.mktemp("custom") / "k.field"
    text = data.draw(mutations(custom_text(coeffs)))
    path.write_text(f"p={p}\ncustom {text}\n", encoding="utf-8")
    cli_exit(["disc", str(path)])

