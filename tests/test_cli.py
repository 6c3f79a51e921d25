import json
import subprocess
import sys

import pytest

from anabelomorph.cli import main


def run_cli(*argv):
    """Invoke the CLI in-process, capturing stdout via --out."""
    return main(list(argv))


def run_capture(tmp_path, *argv):
    out = tmp_path / "out.txt"
    code = main(list(argv) + ["--out", str(out)])
    return code, (out.read_text() if out.exists() else "")


def test_check_anab_affirmative(tmp_path):
    code, text = run_capture(tmp_path, "check-anab",
                             "p=3 r=1 rad=3", "p=3 r=1 rad=4")
    assert code == 0
    assert "ANABELOMORPHIC" in text


def test_check_anab_same_spec(tmp_path):
    code, _ = run_capture(tmp_path, "check-anab",
                          "p=3 r=2 rad=3", "p=3 r=2 rad=3")
    assert code == 0


def test_check_anab_negative(tmp_path):
    code, text = run_capture(tmp_path, "check-anab",
                             "p=3 r=1 rad=3", "p=3 r=2 rad=3")
    assert code == 1
    assert "NOT_ANABELOMORPHIC" in text


def test_check_anab_undecided(tmp_path):
    code, _ = run_capture(tmp_path, "check-anab",
                          "p=3 r=2 rad=-6z^2-2", "p=3 r=2 rad=3")
    assert code == 2


def test_check_anab_json_abelian_subfields_differ(tmp_path):
    # equal degree phi(9) = 6 = phi(3) 3, but the cyclotomic field is its
    # own maximal abelian subfield and the Kummer field's is Q_3(zeta_3)
    code, text = run_capture(tmp_path, "--format", "json", "check-anab",
                             "p=3 r=2", "p=3 r=1 rad=3")
    assert code == 1
    assert json.loads(text) == {
        "status": "NOT_ANABELOMORPHIC", "degrees": [6, 6],
        "maximal_abelian_subfields": ["Q_3(zeta_9)", "Q_3(zeta_3)"],
        "reason": "maximal abelian subfields differ"}


@pytest.mark.parametrize("argv", [
    ["disc", "p=2 r=1 rad=3"], ["disc", "p=2 r=1"],
    ["check-anab", "p=2 r=1 rad=3", "p=2 r=1 rad=5"]])
def test_p2_r1_spec_names_its_scope(argv, capsys):
    # zeta_2 = -1 lies in Q_2: the spec is refused with its scope, not
    # with the message of the cyclotomic layer it would build
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 3
    assert "spec p=2 r=1 is out of scope" in err and "r >= 2 at p = 2" in err
    assert "cyclotomic modulus" not in err


def test_disc_bracket_rows(tmp_path):
    code, text = run_capture(tmp_path, "disc", "p=3 r=2 rad=3")
    assert code == 0 and text.strip() == "[3, 165]"
    code, text = run_capture(tmp_path, "disc", "p=3 r=2 rad=4")
    assert code == 0 and text.strip() == "[4, 121]"


def test_disc_json_p2_r4(tmp_path):
    code, text = run_capture(tmp_path, "disc", "p=2 r=4 rad=3",
                             "--format", "json")
    assert code == 0
    assert json.loads(text)["v_disc"] == 532


def test_disc_bare_cyclotomic(tmp_path):
    code, text = run_capture(tmp_path, "disc", "p=5 r=1")
    assert code == 0 and text.strip() == "3"


def test_conductor_report(tmp_path):
    code, text = run_capture(tmp_path, "--format", "json",
                             "conductor", "p=3 r=1 rad=3")
    assert code == 0
    rep = json.loads(text)
    assert rep["match"] is True
    assert rep["conductors"]["induced"] == 5
    assert rep["swan"]["psi^0"] == 0


def test_conductor_pretty_report(tmp_path):
    # the values of test_conductor_report, and v_3(disc) = 11 of
    # Q_3(zeta_3, 3^(1/3)), one a line
    code, text = run_capture(tmp_path, "conductor", "p=3 r=1 rad=3")
    assert code == 0
    assert text.splitlines() == [
        "field: Q_3(zeta_3)(t^(1/3))",
        "filtration breaks: [0, 3]",
        "conductors: {'psi^0': 0, 'psi^1': 1, 'induced': 5}",
        "swan: {'psi^0': 0, 'psi^1': 0, 'induced': 3}",
        "ledger: sum dim*f = 11 = v_p(disc) = 11"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_tate_machine_formats(fmt, tmp_path):
    # the golden row [6, 4, IV, 1] of test_tate_quadruples, with the
    # component count m = 3 of type IV
    code, text = run_capture(tmp_path, "--format", fmt, "tate",
                             "[0,3,0,0,9]", "p=3 r=2 rad=3")
    assert code == 0
    if fmt == "csv":
        assert text == "6,4,IV,1,3\n"
    else:
        assert json.loads(text) == {
            "field": "Q_3(zeta_9)(t^(1/3))(t^(1/9))", "v_disc": 6, "f": 4,
            "kodaira": "IV", "tamagawa": 1, "m": 3}


def test_tate_quadruples(tmp_path):
    code, text = run_capture(tmp_path, "tate", "[0,3,0,0,9]", "p=3 r=2 rad=3")
    assert code == 0 and text.strip() == "[6, 4, IV, 1]"
    code, text = run_capture(tmp_path, "tate", "[0,3,0,0,9]", "p=3 r=2 rad=2")
    assert code == 0 and text.strip() == "[6, 2, I0*, 4]"


def test_tate_good_reduction(tmp_path):
    code, text = run_capture(tmp_path, "tate", "[0,0,0,1,1]", "p=5 r=1")
    assert code == 0 and text.strip() == "[0, 0, I0, 1]"


def test_table_1_golden(tmp_path):
    code, text = run_capture(tmp_path, "table", "1")
    assert code == 0
    assert text.splitlines() == ["[3, 165]", "[4, 121]", "[-7, 121]"]


def test_table_1_json(tmp_path):
    code, text = run_capture(tmp_path, "--format", "json", "table", "1")
    assert code == 0
    assert json.loads(text) == ["[3, 165]", "[4, 121]", "[-7, 121]"]


def test_table_semistable_golden(tmp_path):
    code, text = run_capture(tmp_path, "table", "elliptic-semistable")
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 6
    for line in lines:
        first, second = line.split("] [")
        assert first.lstrip("[") == second.rstrip("]")
    assert lines[0] == "[9, 1, I9, 9] [9, 1, I9, 9]"
    assert lines[-1] == "[27, 1, I27, 27] [27, 1, I27, 27]"


def test_table_additive_golden(tmp_path):
    code, text = run_capture(tmp_path, "table", "elliptic-additive")
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "[6, 4, IV, 1] [6, 2, I0*, 4]"
    assert lines[1] == "[12, 6, IV*, 3] [12, 10, IV, 1]"
    assert lines[2] == "[15, 15, II, 1] [39, 37, IV, 3]"
    assert lines[3] == "[15, 9, IV*, 3] [27, 19, II*, 1]"


def test_table_empty_row_source(tmp_path):
    rows = tmp_path / "rows.txt"
    rows.write_text("")
    code, text = run_capture(tmp_path, "table", "1", "--rows", str(rows))
    assert code == 0 and text == ""


def test_table_row_source_file(tmp_path):
    rows = tmp_path / "rows.txt"
    rows.write_text("2\n")
    code, text = run_capture(tmp_path, "table", "1", "--rows", str(rows))
    assert code == 0 and text.strip() == "[2, 121]"


def test_search_reproducible(tmp_path):
    out = []
    for _ in range(2):
        code, text = run_capture(tmp_path, "search", "--count", "3",
                                 "--seed", "7")
        assert code == 0
        out.append(text)
    assert out[0] == out[1]
    assert len([l for l in out[0].splitlines() if not l.startswith("#")]) == 3


def test_search_different_seed_differs(tmp_path):
    _, t1 = run_capture(tmp_path, "search", "--count", "3", "--seed", "7")
    _, t2 = run_capture(tmp_path, "search", "--count", "3", "--seed", "8")
    assert t1 != t2


def test_search_semistable_filter(tmp_path):
    code, text = run_capture(tmp_path, "search", "--count", "2", "--seed", "3",
                             "--semistable-only")
    assert code == 0
    for line in text.splitlines():
        if line.startswith("#"):
            continue
        assert "I" in line.split("|")[3]
        assert "equal=True" in line


def test_error_exit_code(tmp_path):
    code = run_cli("disc", "p=4 r=1 rad=3")
    assert code == 3


def test_tate_singular_curve(capsys):
    # the curve's entries are zeta-polynomials; all zero is singular
    code = run_cli("tate", "[0,0,0,0,0]", "p=3 r=1 rad=3")
    assert code == 3
    assert "singular curve" in capsys.readouterr().err


@pytest.mark.parametrize("spec, v_disc", [
    pytest.param(spec, v, id=spec) for spec, v in (
        ("p=3 r=2 rad=3", 165), ("p=2 r=2 rad=3", 16),
        ("p=3 r=1 rad=1+z", None))])
def test_conductor_out_of_scope_names_scope(spec, v_disc, tmp_path, capsys):
    # r = 2 and p = 2 are in scope: the report holds the identity; the
    # scope is the Galois shape, and a zeta-polynomial radicand is refused
    # with the NonGaloisTowerError that names it
    code, text = run_capture(tmp_path, "--format", "json", "conductor", spec)
    if v_disc is None:
        assert code == 3
        assert "not certified Galois over Q_p" in capsys.readouterr().err
    else:
        rep = json.loads(text)
        assert code == 0 and rep["match"] is True
        assert (rep["sum_dim_times_conductor"] == rep["disc_valuation"]
                == v_disc)


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "anabelomorph.cli", "disc", "p=3 r=1 rad=4"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[4, 7]"


def test_search_additive_rows_differ_somewhere(tmp_path):
    # over enough seeded attempts the additive filter shows at least one
    # row whose quadruples differ across the pair
    code, text = run_capture(tmp_path, "search", "--count", "4", "--seed",
                             "11", "--additive-only")
    assert code == 0
    rows = [l for l in text.splitlines() if not l.startswith("#")]
    assert rows
    assert any("equal=False" in l for l in rows)


def test_disc_bare_qp_via_file(tmp_path):
    spec = tmp_path / "qp.field"
    spec.write_text("p=5\n")
    code, text = run_capture(tmp_path, "disc", str(spec))
    assert code == 0 and text.strip() == "0"


def test_tate_via_field_spec_file(tmp_path):
    spec = tmp_path / "k.field"
    spec.write_text("p=3\ncyclotomic 9\nkummer 9 rad=2\n")
    code, text = run_capture(tmp_path, "tate", "[0,3,0,0,9]", str(spec))
    assert code == 0 and text.strip() == "[6, 2, I0*, 4]"


@pytest.mark.parametrize("step", ["custom", "cyclotomic", "kummer"])
def test_field_spec_step_without_argument(tmp_path, capsys, step):
    # a step line with no argument is a usage error that quotes the line,
    # not a traceback
    spec = tmp_path / "bad.field"
    spec.write_text(f"p=3\ncyclotomic 3\n{step}\n")
    code, text = run_capture(tmp_path, "disc", str(spec))
    assert code == 3 and text == ""
    assert repr(step) in capsys.readouterr().err


def test_tate_retries_once_at_doubled_precision(tmp_path, monkeypatch):
    import anabelomorph.cli as cli
    from anabelomorph.padic import PrecisionError
    real = cli.tate_algorithm
    seen = []

    def flaky(model, fail_times):
        seen.append(model.field.M)
        if len(seen) <= fail_times:
            raise PrecisionError("forced")
        return real(model)

    args = ("tate", "[0,3,0,0,9]", "p=3 r=2 rad=3")
    monkeypatch.setattr(cli, "tate_algorithm", lambda m: flaky(m, 1))
    code, text = run_capture(tmp_path, *args)
    assert code == 0 and text.strip() == "[6, 4, IV, 1]"
    assert len(seen) == 2 and seen[1] > seen[0]
    # the retry is the only one: a second PrecisionError is an error exit
    seen.clear()
    monkeypatch.setattr(cli, "tate_algorithm", lambda m: flaky(m, 2))
    code, _ = run_capture(tmp_path, *args)
    assert code == 3 and len(seen) == 2


def test_tate_retry_raises_m_on_a_tower_of_degree_128(tmp_path, monkeypatch):
    # build_field takes max(prec, n + 32) digits, so on Q_2(zeta_16,
    # 3^(1/16)) (n = 128) a retry at 2 * 64 digits would build M = 416
    # again; the retry must run at a larger M
    import anabelomorph.cli as cli
    from anabelomorph.padic import PrecisionError
    seen = []

    def failing(model):
        seen.append(model.field.M)
        raise PrecisionError("forced")

    monkeypatch.setattr(cli, "tate_algorithm", failing)
    code, _ = run_capture(tmp_path, "tate", "[0,3,0,0,9]", "p=2 r=4 rad=3")
    assert code == 3 and len(seen) == 2
    assert seen[0] == 416 and seen[1] > seen[0]


def test_parser_built_once_per_process(tmp_path, monkeypatch):
    # two calls in one process give the same output from one parser
    import anabelomorph.cli as cli
    real, built = cli.build_parser, []

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    try:
        first = run_capture(tmp_path, "disc", "p=3 r=1 rad=4")
        second = run_capture(tmp_path, "disc", "p=3 r=1 rad=4")
    finally:
        cli._parser.cache_clear()
    assert first == second == (0, "[4, 7]\n")
    assert len(built) == 1


@pytest.mark.parametrize("rad", ["z^-1", "z^", "3/", "3/0", "", "3z2", "zz"])
def test_malformed_radicand_names_the_grammar(rad, capsys):
    code = run_cli("disc", f"p=3 r=2 rad={rad}")
    assert code == 3
    err = capsys.readouterr().err
    assert f"bad radicand {rad!r}" in err
    assert "rad= takes an integer, a fraction a/b, or an integer polynomial" \
        in err


_CURVE = "a curve is [a1,a2,a3,a4,a6], each entry an integer polynomial in z"
_STEP = "a field-spec step is cyclotomic <p^r>, kummer <p^s> rad=<radicand>"
_CUSTOM = "custom takes a monic integer polynomial in x"
_SPEC = "a spec is p=<prime> r=<integer> with an optional rad=<radicand>"


@pytest.mark.parametrize("argv,spec_file,bad,grammar", [
    (["tate", "[0,3,0,0,q]", "p=3 r=1 rad=3"], None, "q", _CURVE),
    (["tate", "[0,3,0,0,z^]", "p=3 r=1 rad=3"], None, "z^", _CURVE),
    (["tate", "[0,3,0,0,3z^-1]", "p=3 r=1 rad=3"], None, "3z^-1", _CURVE),
    (["tate", "[0,3,0,0]", "p=3 r=1 rad=3"], None, "[0,3,0,0]", _CURVE),
    (["disc"], "p=3\ncustom x^\n", "x^", _CUSTOM),
    (["disc"], "p=3\ncustom x^3-9x^-1\n", "x^3-9x^-1", _CUSTOM),
    (["disc"], "p=3\ncustom 2x^2-3\n", "2x^2-3", _CUSTOM),
    (["disc"], "p=3\ncyclotomic nine\n", "nine", _STEP),
    (["disc"], "p=3\ncyclotomic 9\nkummer 9x rad=3\n", "9x", _STEP),
    (["disc"], "p=three\ncyclotomic 9\n", "three", "p= takes an integer prime"),
    (["disc", "p=3 r=x rad=3"], None, "x", _SPEC),
    (["disc", "p=y r=1 rad=3"], None, "y", _SPEC),
    (["check-anab", "p=3 r=1.5", "p=3 r=1"], None, "1.5", _SPEC),
    # r= twice: refused, not the degree-500 tower of the last r=
    (["disc", "p=5 r=1 rad=3 r=2"], None, "p=5 r=1 rad=3 r=2", _SPEC),
    (["disc", "p=3 r=1 q=2"], None, "q", _SPEC),
    (["disc", "p=3"], None, "p=3", _SPEC),
    (["disc"], "p=3\ncyclo 9\n", "cyclo", _STEP),
    (["disc"], "p=3\ncyclotomic\n", "cyclotomic", _STEP),
    (["disc"], "p=3\ncyclotomic 9\nkummer 9\n", "kummer 9", _STEP),
    (["disc"], "cyclotomic 9\n", "cyclotomic 9\n",
     "p= takes an integer prime"),
    # text after the variable other than ^<digits>
    (["disc"], "p=3\ncustom x2-3\n", "x2-3", _CUSTOM),
    (["tate", "[0,3,0,0,9zz]", "p=3 r=1 rad=3"], None, "9zz", _CURVE),
])
def test_malformed_input_names_its_grammar(argv, spec_file, bad, grammar,
                                           tmp_path, capsys):
    # curves, custom polynomials, field-spec steps, a field-spec file
    # without its p= header, and the p= and r= keys, one of them repeated,
    # unknown or missing:
    # exit 3 with the bad text and its grammar, and no traceback
    if spec_file is not None:
        path = tmp_path / "bad.field"
        path.write_text(spec_file)
        argv = argv + [str(path)]
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 3
    assert repr(bad) in err and grammar in err
    assert "Traceback" not in err and "invalid literal" not in err


@pytest.mark.parametrize("argv", [
    ["disc", "p=3 r=1 rad=1+z+z^2"],
    ["disc", "p=3 r=1 rad=z^2-z^2"],
    ["disc", "p=2 r=2 rad=1+z^2"],
    ["check-anab", "p=3 r=1 rad=1+z+z^2", "p=3 r=1 rad=3"],
    ["check-anab", "p=3 r=1 rad=3", "p=3 r=1 rad=z^2-z^2"],
])
def test_zero_zeta_radicand_is_named(argv, capsys):
    # a zeta-polynomial that vanishes in Q_p(zeta) is exactly zero: both
    # the tower build and the verdict's p-th power test say so
    code = run_cli(*argv)
    err = capsys.readouterr().err
    assert code == 3
    assert "kummer radicand is zero" in err
    assert "zero to precision" not in err


def test_tower_over_the_degree_budget_is_refused(capsys):
    # degree 2 * 3^79: refused from the spec before any layer is built
    code = run_cli("disc", "p=3 r=40 rad=3")
    assert code == 3
    assert "exceeds the degree budget of 2500" in capsys.readouterr().err
