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


def test_disc_bracket_rows(tmp_path):
    code, text = run_capture(tmp_path, "disc", "p=3 r=2 rad=3")
    assert code == 0 and text.strip() == "[3, 165]"
    code, text = run_capture(tmp_path, "disc", "p=3 r=2 rad=4")
    assert code == 0 and text.strip() == "[4, 121]"


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
