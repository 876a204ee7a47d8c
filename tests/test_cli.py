"""End-to-end CLI tests: byte-exact outputs and the exit-code contract.

Exit codes: 0 for yes/success, 1 for a no verdict or a dynamics
failure, 2 for parse or usage errors.
"""

import multiprocessing
import subprocess
import sys
from pathlib import Path

import pytest

import pressgraph
from conftest import run_cli
from pressgraph import cup_count, generate, total_count
from pressgraph.cli import CENSUS_MAX_N, COUNT_MAX_N

DATA = Path(__file__).parent / "data"
CUP2 = str(DATA / "cup2.graph")
EXAMPLE5 = str(DATA / "example5.matrix")
TIE4 = str(DATA / "tie4.graph")
PENDANT = str(DATA / "pendant_loop.graph")
LOOP_PATH4 = str(DATA / "loop_path4.graph")
REVERSED = str(DATA / "reversed_pair.graph")


# -------------------------------------------------------------- recognize


def test_recognize_yes():
    code, out, err = run_cli(["recognize", CUP2])
    assert (code, out, err) == (0, "verdict: yes\nsequence: 1 2\n", "")


def test_recognize_accepts_loop_path():
    code, out, _ = run_cli(["recognize", LOOP_PATH4])
    assert code == 0
    assert out == "verdict: yes\nsequence: 1 2 3 4\n"


def test_recognize_no_tie():
    code, out, _ = run_cli(["recognize", TIE4])
    assert (code, out) == (1, "verdict: no\nreason: TIE\n")


def test_recognize_multi_component_matrix_input():
    code, out, _ = run_cli(["recognize", EXAMPLE5])
    assert code == 1
    assert out == "verdict: no\nreason: MULTI_COMPONENT\nstripped: 3\n"


def test_recognize_oracle_bound_appends_count():
    code, out, _ = run_cli(["recognize", "--oracle-bound", "6", TIE4])
    assert (code, out) == (1, "verdict: no\nreason: TIE\nsequences: 2\n")
    code, out, _ = run_cli(["recognize", "--oracle-bound", "4", CUP2])
    assert (code, out) == (0, "verdict: yes\nsequence: 1 2\nsequences: 1\n")


def test_recognize_reads_stdin():
    code, out, _ = run_cli(["recognize", "-"], stdin="2\n1 2\n1 1\n1 2\n")
    assert (code, out) == (0, "verdict: yes\nsequence: 1 2\n")


def test_recognize_empty_file(tmp_path):
    empty = tmp_path / "empty.graph"
    empty.write_text("")
    code, out, err = run_cli(["recognize", str(empty)])
    assert code == 2
    assert out == ""
    assert "line 1" in err


def test_recognize_missing_file():
    code, _, err = run_cli(["recognize", "/no/such/file.graph"])
    assert code == 2
    assert err.startswith("error:")


def test_format_override_on_ambiguous_input(tmp_path):
    # "1\n1\n" parses as a one-vertex graph by default and as a 1x1
    # loop matrix under --format matrix
    amb = tmp_path / "amb.txt"
    amb.write_text("1\n1\n")
    code, out, _ = run_cli(["recognize", str(amb)])
    assert (code, out) == (0, "verdict: yes\nsequence:\nstripped: 1\n")
    code, out, _ = run_cli(["recognize", "--format", "matrix", str(amb)])
    assert (code, out) == (0, "verdict: yes\nsequence: 1\n")


# ------------------------------------------------------------------ press


def test_press_final_state():
    code, out, _ = run_cli(["press", "--sequence", "1", PENDANT])
    assert (code, out) == (0, "3\n1 2 3\n3 3\n")


def test_press_trace_lists_every_state():
    code, out, _ = run_cli(["press", "--sequence", "1", "--trace", PENDANT])
    assert code == 0
    assert out == "3\n1 2 3\n1 1\n1 3\n\n3\n1 2 3\n3 3\n"


def test_press_comma_separated_sequence():
    code, out, _ = run_cli(["press", "--sequence", "1,2", CUP2])
    assert (code, out) == (0, "2\n1 2\n")


def test_press_empty_sequence_echoes_canonically():
    code, out, _ = run_cli(["press", PENDANT])
    assert (code, out) == (0, "3\n1 2 3\n1 1\n1 3\n")


def test_press_invalid_press_exits_1_with_position():
    code, out, err = run_cli(["press", "--sequence", "2", PENDANT])
    assert (code, out) == (1, "")
    assert "press 1 invalid: vertex 2 is not looped" in err
    code, _, err = run_cli(["press", "--sequence", "1,1", CUP2])
    assert code == 1
    assert "press 2 invalid" in err


def test_press_unknown_vertex_is_a_dynamics_failure():
    code, _, err = run_cli(["press", "--sequence", "9", PENDANT])
    assert code == 1
    assert "vertex 9" in err


def test_press_malformed_sequence_is_usage_error():
    code, _, err = run_cli(["press", "--sequence", "1,x", PENDANT])
    assert code == 2
    assert "sequence must be integer labels" in err


def test_press_writes_dot(tmp_path):
    dot = tmp_path / "out.dot"
    code, out, _ = run_cli(
        ["press", "--sequence", "1", "--dot", str(dot), PENDANT]
    )
    assert code == 0
    assert dot.read_text() == (
        "graph G {\n"
        "  1;\n"
        "  2;\n"
        "  3 [style=filled, fillcolor=black, fontcolor=white];\n"
        "}\n"
    )


def test_dot_includes_plain_edges(tmp_path):
    dot = tmp_path / "out.dot"
    code, _, _ = run_cli(["press", "--dot", str(dot), CUP2])
    assert code == 0
    text = dot.read_text()
    assert "  1 [style=filled, fillcolor=black, fontcolor=white];\n" in text
    assert "  1 -- 2;\n" in text


# ------------------------------------------------------------------- root


def test_root_outputs_matrix_format():
    code, out, _ = run_cli(["root", CUP2])
    assert (code, out) == (0, "2\n11\n01\n")
    code, out, _ = run_cli(["root", EXAMPLE5])
    assert (code, out) == (0, "5\n10001\n01010\n00000\n00000\n00000\n")


def test_root_unpressable_order_exits_1():
    # loop sits on vertex 2, so pressing in label order stalls at 1
    code, out, err = run_cli(["root", REVERSED])
    assert (code, out) == (1, "")
    assert "stuck at index 1" in err


# ------------------------------------------- generate / count / census


def test_generate_streams_records():
    code, out, _ = run_cli(["generate", "3"])
    assert code == 0
    assert out == (
        "3\n1 2 3\n1 1\n1 2\n2 3\n"
        "\n"
        "3\n1 2 3\n1 1\n1 2\n1 3\n3 3\n"
    )


def test_count_golden():
    code, out, _ = run_cli(["count", "6"])
    assert (code, out) == (0, "cup=9 total=23\n")


def _assert_digits(text, value):
    """text spells value in decimal, checked without str(int) or int(str),
    which refuse numbers this long."""
    assert text.isdigit() and text[0] != "0"
    width = len(text)
    assert 10 ** (width - 1) <= value < 10**width
    assert int(text[-18:]) == value % 10**18
    assert int(text[:18]) == value // 10 ** (width - 18)


@pytest.mark.parametrize("n", (18020, 18040, COUNT_MAX_N))
def test_count_prints_every_digit(n):
    # Interpreters before 3.10.7 have no limit to read.
    limit_of = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = limit_of()
    code, out, err = run_cli(["count", str(n)])
    assert (code, err) == (0, "")
    cup, total = out.rstrip("\n").split(" ")
    assert cup.startswith("cup=") and total.startswith("total=")
    _assert_digits(cup[len("cup="):], cup_count(n))
    _assert_digits(total[len("total="):], total_count(n))
    assert limit_of() == limit


def test_count_over_bound_is_usage_error():
    code, out, err = run_cli(["count", str(COUNT_MAX_N + 1)])
    assert (code, out) == (2, "")
    assert "bound" in err


def test_census_golden():
    code, out, _ = run_cli(["census", "2"])
    assert (code, out) == (
        0,
        "n=2 labeled_total=5 up_iso_classes=3 cup_iso_classes=1\n",
    )


def test_census_jobs_flag_changes_nothing():
    solo = run_cli(["census", "3"])
    duo = run_cli(["census", "3", "--jobs", "2"])
    assert solo == duo


def test_census_over_bound_is_usage_error():
    code, _, err = run_cli(["census", "6"])
    assert code == 2
    assert "bound" in err
    code, _, _ = run_cli(["census", "3", "--oracle-bound", "3"])
    assert code == 0


def test_census_cap_overrides_the_oracle_bound(monkeypatch):
    """No --oracle-bound lifts census above CENSUS_MAX_N; the refusal
    comes before any sweep runs or any worker process starts."""

    def refuse(*args, **kwargs):
        raise AssertionError("census started work above its cap")

    monkeypatch.setattr(generate, "_census_range", refuse)
    monkeypatch.setattr(multiprocessing, "Pool", refuse)
    assert CENSUS_MAX_N == 7
    code, out, err = run_cli(["census", "8", "--oracle-bound", "8"])
    assert (code, out) == (2, "")
    assert "exceeds bound" in err
    code, out, err = run_cli(
        ["census", "40", "--oracle-bound", "40", "--jobs", "2"]
    )
    assert (code, out) == (2, "")
    assert "exceeds bound" in err


def test_cli_import_leaves_multiprocessing_out():
    src = Path(pressgraph.__file__).resolve().parents[1]
    code = "import pressgraph.cli, sys; print('multiprocessing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src)},
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


# ---------------------------------------------------------------- convert


def test_convert_flips_format_by_default():
    code, out, _ = run_cli(["convert", CUP2])
    assert (code, out) == (0, "2\n11\n10\n")
    code, out, _ = run_cli(["convert", EXAMPLE5])
    assert code == 0
    assert out == "5\n1 2 3 4 5\n1 1\n1 5\n2 2\n2 4\n4 4\n5 5\n"


def test_convert_round_trip_is_identity(tmp_path):
    first = run_cli(["convert", CUP2])
    back = tmp_path / "back.matrix"
    back.write_text(first[1])
    second = run_cli(["convert", str(back)])
    assert second[1] == Path(CUP2).read_text()


def test_convert_explicit_target():
    code, out, _ = run_cli(["convert", "--format", "graph", CUP2])
    assert (code, out) == (0, "2\n1 2\n1 1\n1 2\n")


def test_convert_writes_dot(tmp_path):
    dot = tmp_path / "g.dot"
    code, _, _ = run_cli(["convert", "--dot", str(dot), CUP2])
    assert code == 0
    assert dot.read_text().startswith("graph G {\n")


# ------------------------------------------------------------ cli plumbing


def test_usage_errors():
    assert run_cli([])[0] == 2
    assert run_cli(["frobnicate"])[0] == 2
    assert run_cli(["count"])[0] == 2
    assert run_cli(["count", "x"])[0] == 2


def test_outputs_are_stable_across_runs():
    corpus = [
        ["recognize", CUP2],
        ["recognize", TIE4],
        ["recognize", EXAMPLE5],
        ["press", "--sequence", "1", "--trace", PENDANT],
        ["root", EXAMPLE5],
        ["generate", "4"],
        ["count", "7"],
        ["census", "2"],
        ["convert", CUP2],
    ]
    first = [run_cli(args) for args in corpus]
    second = [run_cli(args) for args in corpus]
    assert first == second
