"""End-to-end CLI tests: byte-exact outputs and the exit-code contract.

Exit codes: 0 for yes/success, 1 for a no verdict or a dynamics
failure, 2 for parse or usage errors.
"""

import argparse
import ast
import hashlib
import inspect
import multiprocessing
import os
import random
import subprocess
import sys
import typing
import weakref
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pressgraph
from conftest import (
    exactly,
    naive_press,
    quoted,
    reference_generate_cup,
    run_cli,
)
from pressgraph import (
    BitMatrix,
    InvalidPressError,
    NotOrderPressableError,
    PseudoGraph,
    cholesky,
    cli,
    cup_count,
    cup_from_choices,
    generate,
    instructional_root,
    iter_support,
    parse_auto,
    recognition,
    total_count,
    transpose_mul,
)
from pressgraph.cli import (
    CENSUS_MAX_N,
    COUNT_MAX_N,
    GENERATE_MAX_N,
    ORACLE_MAX_N,
)
from pressgraph.graphs import GRAPH_MAX_N

DATA = Path(__file__).parent / "data"
CUP2 = str(DATA / "cup2.graph")
EXAMPLE5 = str(DATA / "example5.matrix")
TIE4 = str(DATA / "tie4.graph")
TIE_THEN_STALL = str(DATA / "tie_then_stall.graph")
PENDANT = str(DATA / "pendant_loop.graph")
LOOP_PATH4 = str(DATA / "loop_path4.graph")
REVERSED = str(DATA / "reversed_pair.graph")
CUP12 = str(DATA / "cup12.graph")
MIRROR16 = str(DATA / "mirror16.graph")


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
    code, out, _ = run_cli(["recognize", MIRROR16])
    assert (code, out) == (1, "verdict: no\nreason: TIE\n")


def test_recognize_reports_the_tie_before_the_stall():
    # The greedy ties at step 1 (vertices 1 and 2); run on, it would
    # press 1 and stall on {2, 3, 4}.  The tie comes first.
    code, out, _ = run_cli(["recognize", TIE_THEN_STALL])
    assert (code, out) == (1, "verdict: no\nreason: TIE\n")
    argv = ["recognize", "--oracle-bound", "4", TIE_THEN_STALL]
    code, out, _ = run_cli(argv)
    assert (code, out) == (1, "verdict: no\nreason: TIE\nsequences: 6\n")


@pytest.mark.parametrize(
    "name, reason, sequences",
    [
        ("stall2", "UNPRESSABLE", 0),
        ("prop1", "PROP1 col 4", 6),
        ("prop2", "PROP2 col 5", 7),
        ("prop3", "PROP3 col 6", 2),
        ("prop4", "PROP4 col 4", 4),
    ],
)
def test_recognize_reaches_every_no_reason(name, reason, sequences):
    """The smallest graphs found that reach UNPRESSABLE and each PROPk,
    with and without the brute-force count."""
    path = str(DATA / f"{name}.graph")
    want = f"verdict: no\nreason: {reason}\n"
    code, out, _ = run_cli(["recognize", path])
    assert (code, out) == (1, want)
    code, out, _ = run_cli(["recognize", "--oracle-bound", "6", path])
    assert (code, out) == (1, want + f"sequences: {sequences}\n")


def test_recognize_multi_component_matrix_input():
    code, out, _ = run_cli(["recognize", EXAMPLE5])
    assert code == 1
    assert out == "verdict: no\nreason: MULTI_COMPONENT\nstripped: 3\n"


def test_recognize_oracle_bound_appends_count():
    code, out, _ = run_cli(["recognize", "--oracle-bound", "6", TIE4])
    assert (code, out) == (1, "verdict: no\nreason: TIE\nsequences: 2\n")
    code, out, _ = run_cli(["recognize", "--oracle-bound", "4", CUP2])
    assert (code, out) == (0, "verdict: yes\nsequence: 1 2\nsequences: 1\n")
    # The greedy defers its presses through gf2's table of pivot sums;
    # brute force presses each state through gf2._press.
    code, out, _ = run_cli(["recognize", "--oracle-bound", "12", CUP12])
    seq = " ".join(map(str, range(1, 13)))
    assert (code, out) == (0, f"verdict: yes\nsequence: {seq}\nsequences: 1\n")


def test_recognize_oracle_cap_overrides_the_flag(monkeypatch):
    """--oracle-bound counts up to ORACLE_MAX_N vertices whatever it
    says; a larger graph, or one above the flag, is refused before
    recognize or the brute force runs."""
    bounds = []

    def stand_in(g, bound):
        bounds.append(bound)
        return 7

    def looped_isolated(n):
        labels = " ".join(map(str, range(1, n + 1)))
        loops = "".join(f"{v} {v}\n" for v in range(1, n + 1))
        return f"{n}\n{labels}\n{loops}"

    monkeypatch.setattr(recognition, "count_sequences_bruteforce", stand_in)
    assert ORACLE_MAX_N == 16
    text = looped_isolated(ORACLE_MAX_N)
    code, out, _ = run_cli(["recognize", "--oracle-bound", "40", "-"], text)
    assert (code, out) == (
        1, "verdict: no\nreason: MULTI_COMPONENT\nsequences: 7\n"
    )
    assert bounds == [ORACLE_MAX_N]

    def refuse(*args, **kwargs):
        raise AssertionError("refused input reached the pipeline")

    monkeypatch.setattr(recognition, "count_sequences_bruteforce", refuse)
    monkeypatch.setattr(recognition, "recognize", refuse)
    n = ORACLE_MAX_N + 1
    text = looped_isolated(n)
    for flag in ("40", str(n)):
        argv = ["recognize", "--oracle-bound", flag, "-"]
        code, out, err = run_cli(argv, text)
        assert (code, out) == (2, "")
        assert f"oracle count of n={n} exceeds bound {ORACLE_MAX_N}" in err
    code, out, err = run_cli(["recognize", "--oracle-bound", "3", TIE4])
    assert (code, out) == (2, "")
    assert "oracle count of n=4 exceeds bound 3" in err


def test_recognize_reads_stdin():
    code, out, _ = run_cli(["recognize", "-"], stdin="2\n1 2\n1 1\n1 2\n")
    assert (code, out) == (0, "verdict: yes\nsequence: 1 2\n")


def test_recognize_names_the_first_edge_that_leaves_the_graph():
    code, out, err = run_cli(["recognize", "-"], stdin="2\n1 2\n1 2\n1 9\n")
    assert (code, out, err) == (
        2, "", "error: line 4: edge (1, 9) leaves the graph\n"
    )


@pytest.mark.parametrize("command", ["recognize", "convert"])
@pytest.mark.parametrize("name", ["cup2", "mirror16"])
def test_crlf_copy_prints_what_the_lf_file_prints(tmp_path, name, command):
    """A CRLF copy of a fixture prints what the LF file prints, with the
    same exit code: opened by path it loses its CRs to universal
    newlines, and read from stdin it keeps them, so the parser's line
    loop reads it.  mirror16 is dense, so by path its edges go through
    the parser's byte lanes."""
    lf = DATA / f"{name}.graph"
    crlf = tmp_path / lf.name
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    want = run_cli([command, str(lf)])
    assert want[0] in (0, 1) and want[1] and not want[2]
    assert run_cli([command, str(crlf)]) == want
    stdin = crlf.read_bytes().decode()
    assert run_cli([command, "-"], stdin=stdin) == want


def test_recognize_empty_file(tmp_path):
    empty = tmp_path / "empty.graph"
    empty.write_text("")
    code, out, err = run_cli(["recognize", str(empty)])
    assert code == 2
    assert out == ""
    assert "line 1" in err


def test_graph_text_vertex_bound():
    """Graph text may declare GRAPH_MAX_N vertices but not one more; the
    refusal reads only line 1."""
    n = GRAPH_MAX_N
    labels = " ".join(map(str, range(1, n + 1)))
    code, out, _ = run_cli(["recognize", "-"], stdin=f"{n}\n{labels}\n")
    assert (code, out) == (0, f"verdict: yes\nsequence:\nstripped: {labels}\n")
    code, out, err = run_cli(["recognize", "-"], stdin=f"{n + 1}\n")
    assert (code, out) == (2, "")
    assert f"line 1: vertex count {n + 1} exceeds bound {n}" in err


@pytest.mark.parametrize("digits", [80, 81, 4000])
@pytest.mark.parametrize("fmt", ["graph", "matrix"])
def test_oversized_counts_cap_the_echoed_count(fmt, digits):
    """A declared count too large for the graph bound, or for the
    matrix row after it, is echoed whole up to 80 characters, as it
    always was, and cut after them like any other quoted input: the
    message names its line, stays short and exits 2."""
    count = "9" * digits
    shown = quoted(int(count))
    assert (shown == count) == (digits <= 80)
    if fmt == "graph":
        want = f"line 1: vertex count {shown} exceeds bound {GRAPH_MAX_N}"
    else:
        want = f"line 2: expected {shown} characters from {{0,1}}"
    code, out, err = run_cli(
        ["recognize", "--format", fmt, "-"], stdin=f"{count}\n1\n"
    )
    assert (code, out, err) == (2, "", f"error: {want}\n")
    assert len(err.encode()) < 200
    code, out, err = run_cli(
        ["recognize", "--format", fmt, "-"], stdin=f"-{count}\n"
    )
    assert (code, out) == (2, "") and err.startswith("error: line 1: negative")
    assert len(err.encode()) < 200


@pytest.mark.parametrize(
    "fmt, body", [("graph", "1 2\n1 1\n1 2\n"), ("matrix", "11\n10\n")]
)
def test_a_long_count_that_fits_still_parses(fmt, body):
    """A count spelled with 100 leading zeros is read as its value."""
    code, out, err = run_cli(
        ["recognize", "--format", fmt, "-"], stdin="0" * 100 + "2\n" + body
    )
    assert (code, out, err) == (0, "verdict: yes\nsequence: 1 2\n", "")


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
    for spelled in ("1, 2", "1 2", " 1 ,2 "):
        assert run_cli(["press", "--sequence", spelled, CUP2])[:2] == (
            0, "2\n1 2\n"
        )
    assert run_cli(["press", "--sequence", "", CUP2])[:2] == (
        0, "2\n1 2\n1 1\n1 2\n"
    )


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
    code, out, err = run_cli(["press", "--sequence", "9", PENDANT])
    assert (code, out) == (1, "")
    assert err == "error: press 1 invalid: vertex 9 is not in the graph\n"


def test_press_cup12_crosses_a_block():
    """The 12-vertex fixture is cup_from_choices("RRLRLRRLRLR"), whose
    unique sequence 1..12 presses it empty across the edge between two
    blocks of 8; a press of loopless vertex 10 at position 9 exits 1
    with nothing on standard output."""
    g = cup_from_choices("RRLRLRRLRLR")
    assert Path(CUP12).read_text() == g.to_text()
    assert pressgraph.recognize(g).sequence == tuple(range(1, 13))
    edgeless = "12\n1 2 3 4 5 6 7 8 9 10 11 12\n"
    good = ",".join(map(str, range(1, 13)))
    assert run_cli(["press", "--sequence", good, CUP12]) == (0, edgeless, "")
    bad = "1,2,3,4,5,6,7,8,10"
    assert run_cli(["press", "--sequence", bad, CUP12]) == (
        1, "", "error: press 9 invalid: vertex 10 is not looped\n"
    )


@pytest.mark.parametrize("length", [2, 80, 81, 100_000])
@pytest.mark.parametrize("site", ["sequence", "count", "edge", "size"])
def test_error_messages_cap_the_echoed_input(site, length):
    """The four messages that quote the input (a bad --sequence, a bad
    graph count on line 1, a bad edge line, a bad matrix size on line
    1) quote at most 80 characters of it, then an ellipsis and its
    length; input up to 80 characters is quoted whole, as it always
    was.  The exit code stays 2."""
    bad = ("x1" * length)[:length]
    argv, stdin = ["recognize", "-"], None
    if site == "sequence":
        argv, head = ["press", "--sequence", bad, CUP2], "integer labels"
    elif site == "count":
        stdin, head = bad + "\n1 2\n", "line 1: expected an integer count"
    elif site == "edge":
        stdin, head = f"2\n1 2\n{bad}\n", "line 3: expected an edge as 'u v'"
    else:
        argv += ["--format", "matrix"]
        stdin, head = bad + "\n11\n11\n", "line 1: expected an integer size"
    code, out, err = run_cli(argv, stdin=stdin)
    assert (code, out) == (2, "")
    assert err.endswith(f"{head}, got {quoted(bad)}\n")
    assert len(err) < 500


@pytest.mark.parametrize(
    "token",
    ["9" * 81, "9" * 5000, "x" * 5000],
    ids=["81 digits", "5000 digits", "5000 letters"],
)
@pytest.mark.parametrize(
    "argv",
    [
        ["count", "{}"],
        ["generate", "{}"],
        ["census", "{}"],
        ["census", "3", "--jobs", "{}"],
        ["recognize", "--oracle-bound", "{}", CUP2],
    ],
    ids=[
        "count",
        "generate",
        "census",
        "census --jobs",
        "recognize --oracle-bound",
    ],
)
def test_integer_arguments_cap_the_echoed_token(argv, token):
    """Each integer argument quotes at most 80 characters of a bad
    token, then an ellipsis and its length, and refuses a token longer
    than 80 characters even when it spells an integer."""
    code, out, err = run_cli([a.format(token) for a in argv])
    assert (code, out) == (2, "")
    want = f"expected an integer of at most 80 characters, got {quoted(token)}"
    assert err.endswith(want + "\n")
    assert len(err) < 500


# Each way argparse itself quotes a token: an unrecognized argument, a
# bad command or --format choice, an ignored explicit argument, an
# ambiguous option; and a path that cannot be opened.
_ARGPARSE_QUOTES = {
    "unrecognized": ["census", "3", "{}"],
    "command": ["{}"],
    "choice": ["convert", "--format", "{}", "-"],
    "explicit": ["press", "--trace={}", "-"],
    "ambiguous": ["recognize", "--={}", "-"],
    "path": ["recognize", "{}"],
}


@pytest.mark.parametrize(
    "argv", _ARGPARSE_QUOTES.values(), ids=_ARGPARSE_QUOTES.keys()
)
@pytest.mark.parametrize(
    "token", ["x" * 5000, "x y" * 2000], ids=["5000 letters", "with spaces"]
)
def test_argparse_errors_cut_a_long_token(argv, token):
    """argparse's own errors, and an OSError's path, quote at most 80
    characters of a token, then an ellipsis and a length."""
    code, out, err = run_cli([a.format(token) for a in argv], stdin="")
    assert (code, out) == (2, "")
    assert len(err) < 500
    assert token[:81] not in err and " characters)" in err


@pytest.mark.parametrize(
    "argv", _ARGPARSE_QUOTES.values(), ids=_ARGPARSE_QUOTES.keys()
)
def test_argparse_errors_quote_a_short_token_whole(
    argv, monkeypatch, tmp_path
):
    """Tokens of 80 characters give the stderr of a plain parser, and a
    path of 80 characters that of str(OSError), byte for byte."""
    monkeypatch.chdir(tmp_path)
    argv = [a.replace("{}", "x" * (82 - len(a))) for a in argv]
    assert max(map(len, argv)) == 80
    cut = run_cli(argv, stdin="")
    monkeypatch.setattr(cli, "_Parser", argparse.ArgumentParser)
    cli._build_parser.cache_clear()
    try:
        plain = run_cli(argv, stdin="")
    finally:
        cli._build_parser.cache_clear()
    assert cut == plain
    assert cut[0] == 2 and " characters)" not in cut[2]
    if argv == ["recognize", "x" * 80]:
        with pytest.raises(OSError) as info:
            open("x" * 80)
        assert cut[2] == f"error: {info.value}\n"


def test_press_malformed_sequence_is_usage_error():
    code, _, err = run_cli(["press", "--sequence", "1,x", PENDANT])
    assert code == 2
    assert "sequence must be integer labels" in err
    # An empty field is a missing label, not one to skip.
    for raw in ("1,,3", ",1", "1,2,", ",", "1, ,3"):
        code, out, err = run_cli(["press", "--sequence", raw, PENDANT])
        assert (code, out) == (2, "")
        assert "sequence must be integer labels" in err


@pytest.mark.parametrize("trace", [False, True])
def test_press_holds_earlier_states_only_under_trace(
    monkeypatch, tmp_path, trace
):
    """Without --trace no graph but the input and the final state is
    ever built; with it, every state is alive when the output is made."""
    g = pressgraph.cup_from_choices("RRLRLRRLRLR")
    seq = pressgraph.recognize(g).sequence
    path = tmp_path / "cup.graph"
    path.write_text(g.to_text())
    built = []  # weak references to every graph made, in order
    alive = []  # how many of those are alive at each to_text

    from_rows = PseudoGraph._from_rows.__func__
    init, to_text = PseudoGraph.__init__, PseudoGraph.to_text

    def recording_from_rows(cls, labels, rows):
        h = from_rows(cls, labels, rows)
        built.append(weakref.ref(h))
        return h

    def recording_init(self, labels, edges):
        init(self, labels, edges)
        built.append(weakref.ref(self))

    def recording_to_text(self):
        alive.append(sum(r() is not None for r in built))
        return to_text(self)

    monkeypatch.setattr(
        PseudoGraph, "_from_rows", classmethod(recording_from_rows)
    )
    monkeypatch.setattr(PseudoGraph, "__init__", recording_init)
    monkeypatch.setattr(PseudoGraph, "to_text", recording_to_text)
    argv = ["press", "--sequence", ",".join(map(str, seq)), str(path)]
    code, out, _ = run_cli(argv + ["--trace"] * trace)
    assert code == 0
    assert out.endswith(f"12\n{' '.join(map(str, g.labels))}\n")
    states = len(seq) + 1 if trace else 2
    assert len(built) == states
    assert alive == [states] * (states if trace else 1)


def naive_replay(g, seq):
    """Press ``seq`` on ``g`` one naive_press at a time.

    Returns every state from ``g`` through the last valid press, and
    the (position, vertex) of the first invalid press or None.
    """
    states = [g]
    for pos, v in enumerate(seq, start=1):
        try:
            states.append(naive_press(states[-1], v))
        except InvalidPressError:
            return states, (pos, v)
    return states, None


@st.composite
def _replays(draw):
    """A graph on labels from 1..40 and a sequence to press on it.

    The sequence is a run of valid presses, drawn against the edge-set
    state each meets, then up to two presses of any kind: a looped
    vertex, a loopless one, a label outside the graph or a repeat.  It
    may be empty and may go on past its first invalid press.
    """
    labels = sorted(draw(st.sets(st.integers(1, 40), max_size=7)))
    pairs = [(u, v) for u in labels for v in labels if u <= v]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if draw(st.booleans()):
        edges |= {(v, v) for v in labels}
    g = h = PseudoGraph(labels, edges)
    outside = [0, -3] + [v for v in range(1, 42) if v not in labels][-2:]
    seq = []
    for _ in range(draw(st.integers(0, 8))):
        looped = sorted(h.looped_vertices())
        if not looped:
            break
        seq.append(draw(st.sampled_from(looped)))
        h = naive_press(h, seq[-1])
    for _ in range(draw(st.integers(0, 2))):
        looped = sorted(h.looped_vertices()) if h else []
        pools = (
            looped,
            [v for v in labels if v not in looped],
            outside,
            seq,
        )
        pool = draw(st.sampled_from(pools)) or labels or outside
        v = draw(st.sampled_from(pool))
        seq.append(v)
        if h is not None:
            h = naive_press(h, v) if v in looped else None
    return g, tuple(seq)


@st.composite
def _long_replays(draw):
    """A graph on 9 to 24 labels from 1..40 and a sequence on it that
    makes a run of at least 9 valid presses, so its replay fills a
    block of 8 and goes on into the next, then up to two presses of any
    kind, as _replays draws them.

    The graph is U^T U, for a random unit upper-triangular U, on the
    labels in a random order; pressing in that order empties it, and
    the run is a prefix of it.
    """
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(9, 24))
    order = rng.sample(range(1, 41), n)
    u = [rng.getrandbits(n - i) << i | 1 << i for i in range(n)]
    gram = transpose_mul(BitMatrix(n, u)).row_bits
    edges = {
        tuple(sorted((order[i], order[j - 1])))
        for i in range(n)
        for j in iter_support(gram[i])
    }
    g = h = PseudoGraph(sorted(order), edges)
    seq = order[: draw(st.integers(9, n))]
    for v in seq:
        h = naive_press(h, v)
    outside = [0, -3, 41]
    for _ in range(draw(st.integers(0, 2))):
        looped = sorted(h.looped_vertices()) if h else []
        loopless = [v for v in g.labels if v not in looped]
        pool = draw(st.sampled_from((looped, loopless, outside, seq)))
        v = draw(st.sampled_from(pool or outside))
        seq.append(v)
        if h is not None:
            h = naive_press(h, v) if v in looped else None
    return g, tuple(seq)


def _assert_replay_matches_naive_presses(g, seq):
    states, error = naive_replay(g, seq)
    argv = ["press", "--sequence=" + ",".join(map(str, seq)), "-"]
    if error is None:
        final = g.apply_sequence(seq)
        assert final == states[-1]
        assert final.edges == states[-1].edges
        assert g.is_successful(seq) == (not states[-1].edges)
        for trace, shown in ((False, states[-1:]), (True, states)):
            got = run_cli(argv + ["--trace"] * trace, stdin=g.to_text())
            assert got == (0, "\n".join(s.to_text() for s in shown), "")
        return
    pos, v = error
    what = "looped" if v in g.labels else "in the graph"
    message = f"press {pos} invalid: vertex {v} is not {what}"
    with pytest.raises(InvalidPressError) as exc:
        g.apply_sequence(seq)
    assert (exc.value.vertex, exc.value.position) == (v, pos)
    assert str(exc.value) == message
    assert not g.is_successful(seq)
    for trace in (False, True):
        got = run_cli(argv + ["--trace"] * trace, stdin=g.to_text())
        assert got == (1, "", f"error: {message}\n")


@settings(max_examples=300, deadline=None)
@given(case=_replays())
def test_replay_matches_naive_presses(case):
    """apply_sequence, is_successful and press, with and without
    --trace, agree with a replay on edge sets: every state, and the
    position and message of the first invalid press."""
    _assert_replay_matches_naive_presses(*case)


@settings(max_examples=100, deadline=None)
@given(case=_long_replays())
def test_long_replay_matches_naive_presses(case):
    """As test_replay_matches_naive_presses, on graphs of 9 to 24
    vertices with at least 9 valid presses before any invalid one, so
    replay presses across the edge between blocks of 8."""
    _assert_replay_matches_naive_presses(*case)


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


@pytest.mark.parametrize("command", ["press", "convert"])
def test_unwritable_dot_exits_2_with_empty_stdout(tmp_path, command):
    """The DOT file is opened before stdout is written, so a path that
    cannot be written keeps the rule: exit 2, nothing on stdout."""
    bad = tmp_path / "missing" / "x.dot"
    with pytest.raises(OSError) as want:
        open(bad, "w")
    code, out, err = run_cli([command, "--dot", str(bad), CUP2])
    assert (code, out) == (2, "")
    assert err == f"error: {want.value}\n"


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


def _library_root(g):
    """root's (exit code, stdout, stderr) by the public instructional_root."""
    try:
        u = instructional_root(g.adjacency_matrix()).matrix
    except NotOrderPressableError as exc:
        return 1, "", f"error: {exc}\n"
    return 0, u.to_text(), ""


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.iterdir()))
def test_root_matches_the_library_with_one_symmetry_check(monkeypatch, name):
    """The rows are symmetric once parsed, so root checks no symmetry:
    only the matrix parser calls is_symmetric, once."""
    path = DATA / name
    want = _library_root(parse_auto(path.read_text()))
    calls = []
    is_symmetric = BitMatrix.is_symmetric

    def counting(self):
        calls.append(self)
        return is_symmetric(self)

    monkeypatch.setattr(BitMatrix, "is_symmetric", counting)
    assert run_cli(["root", str(path)]) == want
    assert len(calls) == (name.endswith(".matrix"))


def _refuse_symmetry_check(self):
    raise AssertionError("root checked symmetry again")


@st.composite
def _root_inputs(draw):
    """Graphs on labels from 1..40: random, or cups in label order."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        return cup_from_choices("".join(draw(st.lists(
            st.sampled_from("LR"), min_size=n, max_size=n
        ))))
    labels = sorted(draw(st.sets(st.integers(1, 40), max_size=8)))
    pairs = [(u, v) for u in labels for v in labels if u <= v]
    loops = [(v, v) for v in labels]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    if loops and draw(st.booleans()):
        edges |= set(loops)
    return PseudoGraph(labels, edges)


@settings(max_examples=200, deadline=None)
@given(g=_root_inputs(), matrix=st.booleans())
def test_root_matches_the_library_on_random_graphs(g, matrix):
    """root prints the public instructional_root's bytes on graph and
    matrix text; on graph text it never calls is_symmetric."""
    want = _library_root(g)
    if matrix:
        text = g.adjacency_matrix().to_text()
        got = run_cli(["root", "--format", "matrix", "-"], stdin=text)
    else:
        with mock.patch.object(
            BitMatrix, "is_symmetric", _refuse_symmetry_check
        ):
            got = run_cli(["root", "-"], stdin=g.to_text())
    assert got == want


# ------------------------------------------- generate / count / census


def test_generate_streams_records():
    code, out, _ = run_cli(["generate", "3"])
    assert code == 0
    assert out == (
        "3\n1 2 3\n1 1\n1 2\n2 3\n"
        "\n"
        "3\n1 2 3\n1 1\n1 2\n1 3\n3 3\n"
    )


@pytest.mark.parametrize("n", range(13))
def test_generate_bytes_match_the_reference(n):
    code, out, err = run_cli(["generate", str(n)])
    expected = "\n".join(g.to_text() for g in reference_generate_cup(n))
    assert (code, out, err) == (0, expected, "")


def test_generate_16_bytes_are_pinned():
    """All 2,187 cups on 16 vertices, built from their root column
    weights, byte for byte."""
    code, out, err = run_cli(["generate", "16"])
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == (
        "4ffabaafdd6d42bc8c0e1405d81f9d4b8350ee46b6fad1c92d275ab0d9cf5de8"
    )


@pytest.mark.slow
def test_generate_22_bytes_are_pinned():
    """generate at the bound prints the same 3^10 graphs, byte for byte,
    as the edge-set closure did: about 11.7 MB of text."""
    code, out, err = run_cli(["generate", "22"])
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == (
        "f8daea9b0e6a63096def801599511fe964aa39250a0391230bfbe1cbe9e9cbf7"
    )


def test_generate_writes_each_graph_as_it_is_built(monkeypatch):
    """A stdout that breaks on its second write stops generate 10 long
    before it has built all cup_count(10) graphs."""
    built = []
    build = generate.cup_from_choices

    def counting(choices):
        g = build(choices)
        built.append(g)
        return g

    class BrokenPipe:
        writes = 0

        def write(self, text):
            self.writes += 1
            if self.writes == 2:
                raise BrokenPipeError("stand-in pipe closed")

    monkeypatch.setattr(generate, "cup_from_choices", counting)
    monkeypatch.setattr(sys, "stdout", BrokenPipe())
    assert cli.main(["generate", "10"]) == 2
    assert 0 < len(built) < cup_count(10)


def test_generate_bound(monkeypatch):
    """generate N builds nothing above GENERATE_MAX_N and runs at it."""
    calls = []
    # Built before the patch, as generate_cup reads the patched _cups.
    one = generate.generate_cup(1)

    def stand_in(n):
        calls.append(n)
        return one

    monkeypatch.setattr(generate, "_cups", stand_in)
    code, out, err = run_cli(["generate", str(GENERATE_MAX_N)])
    assert (code, out, err) == (0, "1\n1\n1 1\n", "")
    assert calls == [GENERATE_MAX_N]

    def refuse(n):
        raise AssertionError("generate built graphs above its bound")

    monkeypatch.setattr(generate, "_cups", refuse)
    for n in (GENERATE_MAX_N + 1, 40):
        code, out, err = run_cli(["generate", str(n)])
        assert (code, out) == (2, "")
        assert f"exceeds bound {GENERATE_MAX_N}" in err


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
    assert solo == duo == (
        0, "n=3 labeled_total=22 up_iso_classes=5 cup_iso_classes=2\n", ""
    )
    assert run_cli(["census", "4", "--jobs", "2"]) == (
        0, "n=4 labeled_total=137 up_iso_classes=8 cup_iso_classes=3\n", ""
    )


def test_census_five_alone_and_on_two_and_three_workers(monkeypatch):
    """census 5 prints the same line in this process and on two and on
    three worker processes.  With the CPU count patched to 3, on any
    host, the three workers' ranges start at masks 0, 10,923 and
    21,846, the last two inside blocks of 512 masks of the count
    table."""
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    sizes = []
    pool = multiprocessing.Pool

    def counted_pool(processes):
        sizes.append(processes)
        return pool(processes)

    monkeypatch.setattr(multiprocessing, "Pool", counted_pool)
    starts = [lo for _, lo, _ in generate._census_chunks(5, 3)]
    assert starts == [0, 10923, 21846]
    want = (
        0, "n=5 labeled_total=1226 up_iso_classes=14 cup_iso_classes=6\n", ""
    )
    for jobs in ("1", "2", "3"):
        assert run_cli(["census", "5", "--jobs", jobs]) == want
    assert sizes == [2, 3]


def test_census_over_bound_is_usage_error(refuse_census_work):
    """census refuses n above CENSUS_MAX_N, and no longer takes
    --oracle-bound."""
    code, out, err = run_cli(["census", str(CENSUS_MAX_N + 1)])
    assert (code, out) == (2, "")
    assert err == "error: census of 8-vertex graphs exceeds bound 7\n"
    code, out, err = run_cli(["census", "3", "--oracle-bound", "3"])
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --oracle-bound 3" in err


def test_census_refuses_out_of_range_n_before_any_work(refuse_census_work):
    """n above CENSUS_MAX_N or below 0 is refused before any sweep runs
    or any worker process starts, whatever --jobs says."""
    assert CENSUS_MAX_N == generate.CENSUS_MAX_N == 7
    over = "error: census of {}-vertex graphs exceeds bound 7\n"
    under = "error: n must be nonnegative\n"
    for n, jobs, want in [
        ("8", "1", over.format(8)),
        ("40", "2", over.format(40)),
        ("-1", "1", under),
        ("-1", "2", under),
    ]:
        assert run_cli(["census", n, "--jobs", jobs]) == (2, "", want)


def test_census_needs_no_flag_from_zero_to_six():
    """census 0 counts the one empty graph, as count 0 does, and census
    6 runs with no flag; the CI slow job runs census 7."""
    assert run_cli(["census", "0"]) == (
        0, "n=0 labeled_total=1 up_iso_classes=1 cup_iso_classes=1\n", ""
    )
    assert run_cli(["count", "0"]) == (0, "cup=1 total=1\n", "")
    assert run_cli(["census", "6"]) == (
        0, "n=6 labeled_total=12157 up_iso_classes=23 cup_iso_classes=9\n", ""
    )


def _fresh(flags, code):
    """Run code in a fresh interpreter with only this pressgraph on its
    path and no bytecode written; returns (exit code, stdout)."""
    src = Path(pressgraph.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"},
        timeout=60,
    )
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=("site", "no-site"))
def test_fresh_interpreters_import_this_pressgraph(flags):
    """_fresh's children, with and without site, import the copy of the
    package that this suite imports, from src/ or installed alike."""
    code, out = _fresh(flags, "import pressgraph.cli as c; print(c.__file__)")
    assert code == 0
    assert Path(out.rstrip("\n")).resolve() == Path(cli.__file__).resolve()


@pytest.mark.parametrize(
    "flags, modules",
    [
        ((), ("multiprocessing",)),
        ((), ("dataclasses",)),
        ((), ("inspect",)),
        # Without site, which may preload typing and random, they stay out.
        (
            ("-S",),
            ("multiprocessing", "dataclasses", "inspect", "typing", "random"),
        ),
    ],
    ids=("multiprocessing", "dataclasses", "inspect", "no-site"),
)
def test_cli_import_leaves_out(flags, modules):
    code = (
        "import pressgraph.cli, sys; "
        f"print(sorted(set({modules!r}) & set(sys.modules)))"
    )
    assert _fresh(flags, code) == (0, "[]\n")


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=("site", "no-site"))
@pytest.mark.parametrize(
    "statement, argv, out, ran",
    [
        ("import pressgraph.cli as cli", [], "", []),
        ("from pressgraph import cli", [], "", []),
        (
            "from pressgraph import cli",
            ["press", "--sequence", "1,2", CUP2],
            "2\n1 2\n",
            [],
        ),
        ("from pressgraph import cli", ["convert", CUP2], "2\n11\n10\n", []),
        (
            "from pressgraph import cli",
            ["recognize", CUP2],
            "verdict: yes\nsequence: 1 2\n",
            ["recognition"],
        ),
        (
            "from pressgraph import cli",
            ["root", CUP2],
            "2\n11\n01\n",
            ["cholesky"],
        ),
        (
            "from pressgraph import cli",
            ["count", "3"],
            "cup=2 total=5\n",
            ["generate", "recognition"],
        ),
    ],
    ids=(
        "import-cli", "from-cli", "press", "convert", "recognize", "root",
        "count",
    ),
)
def test_each_command_runs_only_its_modules(flags, statement, argv, out, ran):
    """Importing the CLI, by either form, and building its parser, whose
    help quotes the census and oracle caps, runs no code of cholesky,
    recognition or generate (an audit hook sees each code object the
    importer executes); each command then runs those it uses alone,
    generate importing recognition."""
    code = (
        "import os, sys\n"
        "ran = set()\n"
        "def hook(event, args):\n"
        "    if event == 'exec':\n"
        "        ran.add(getattr(args[0], 'co_filename', ''))\n"
        "sys.addaudithook(hook)\n"
        f"{statement}\n"
        "cli._build_parser()\n"
        f"code = cli.main({argv!r}) if {argv!r} else 0\n"
        "home = os.path.dirname(cli.__file__)\n"
        "lazy = ('cholesky', 'generate', 'recognition')\n"
        "print(code, [m for m in lazy if f'{home}/{m}.py' in ran])\n"
    )
    assert _fresh(flags, code) == (0, f"{out}0 {ran!r}\n")


def test_star_import_binds_every_public_name():
    """from pressgraph import * in a fresh process binds each name of
    pressgraph.__all__, generate's among them, to the package's own."""
    code = (
        "from pressgraph import *\n"
        "import pressgraph\n"
        "print([n for n in pressgraph.__all__\n"
        "       if globals().get(n) is not getattr(pressgraph, n)])\n"
    )
    assert _fresh((), code) == (0, "[]\n")


@pytest.mark.parametrize("method", ["fork", "spawn"])
def test_census_on_workers_from_a_fresh_package(method):
    """census(4, jobs=2), read off a freshly imported package, runs its
    workers, which import generate by themselves under spawn."""
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"no {method} start method here")
    code = (
        "import multiprocessing, pressgraph\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "print(pressgraph.census(4, jobs=2).to_text(), end='')\n"
    )
    want = "n=4 labeled_total=137 up_iso_classes=8 cup_iso_classes=3\n"
    assert _fresh((), code) == (0, want)


def test_package_hook_knows_generate_names_alone(monkeypatch):
    """The package resolves each public name of its lazy modules,
    generate, cholesky and recognition, as their own __all__ lists it,
    through its __getattr__; cli, a private name and a name no module
    has are missing, with the plain message, and leave a patched name
    patched; dir lists them all."""
    for m in (cholesky, recognition, generate):
        for name in m.__all__:
            assert pressgraph.__getattr__(name) is getattr(m, name)
    assert pressgraph.__getattr__("__all__") == pressgraph.__all__
    monkeypatch.setattr(pressgraph, "recognize", None)
    for name in ("cli", "_cups", "__wrapped__", "no_such_name"):
        with pytest.raises(AttributeError, match=exactly(
            f"module 'pressgraph' has no attribute {name!r}"
        )):
            pressgraph.__getattr__(name)
    assert pressgraph.recognize is None
    assert set(pressgraph.__all__) <= set(dir(pressgraph))
    assert dir(pressgraph) == sorted(vars(pressgraph))


def test_package_hook_refuses_cli_and_private_names_unloaded():
    """In a fresh interpreter, asking the package for cli or a private
    name runs no code of a lazy module (an audit hook sees each code
    object the importer executes); a name then added to a lazy module's
    __all__ resolves through the package with no other edit."""
    code = (
        "import os, sys\n"
        "ran = set()\n"
        "def hook(event, args):\n"
        "    if event == 'exec':\n"
        "        ran.add(getattr(args[0], 'co_filename', ''))\n"
        "sys.addaudithook(hook)\n"
        "import pressgraph\n"
        "print(hasattr(pressgraph, 'cli'), hasattr(pressgraph, '_x'))\n"
        "home = os.path.dirname(pressgraph.__file__)\n"
        "lazy = ('cholesky', 'generate', 'recognition')\n"
        "print([m for m in lazy if f'{home}/{m}.py' in ran])\n"
        "pressgraph.generate.extra = 'new'\n"
        "pressgraph.generate.__all__.append('extra')\n"
        "print(pressgraph.extra, pressgraph.__all__[-1])\n"
    )
    assert _fresh((), code) == (0, "False False\n[]\nnew extra\n")


def test_package_reload_keeps_lazy_modules_and_bound_names():
    """importlib.reload of the package, after a first lookup has bound
    the lazy modules' names, keeps each lazy module object in sys.modules
    and in the package, and every public name bound to its value."""
    code = (
        "import importlib, sys, pressgraph\n"
        "names = {n: getattr(pressgraph, n) for n in pressgraph.__all__}\n"
        "lazy = {m: sys.modules[f'pressgraph.{m}']\n"
        "        for m in ('cholesky', 'generate', 'recognition')}\n"
        "importlib.reload(pressgraph)\n"
        "print([m for m, module in lazy.items()\n"
        "       if sys.modules[f'pressgraph.{m}'] is not module\n"
        "       or getattr(pressgraph, m) is not module])\n"
        "print([n for n, value in names.items()\n"
        "       if getattr(pressgraph, n) != value])\n"
    )
    assert _fresh((), code) == (0, "[]\n[]\n")


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
    assert run_cli(["convert", "-"], stdin=first[1]) == second


def test_convert_explicit_target():
    code, out, _ = run_cli(["convert", "--format", "graph", CUP2])
    assert (code, out) == (0, "2\n1 2\n1 1\n1 2\n")


def test_convert_reads_a_zero_label_line_as_a_matrix():
    """A label is positive, so the lines 1 and 0 are the 1x1 zero
    matrix, whose graph has one loopless vertex; a line after the matrix
    is named."""
    assert run_cli(["convert", "-"], stdin="1\n0\n") == (0, "1\n1\n", "")
    assert run_cli(["convert", "-"], stdin="1\n0\n0\n") == (
        2, "", "error: line 3: unexpected content after the matrix\n"
    )


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


def test_package_exports_the_modules_public_names():
    """pressgraph.__all__ is built from each module's own __all__, in
    module order; every name in it is bound in the package to the
    module's own object, none is listed twice, and the package binds
    no other name apart from dunders and its submodules."""
    modules = [
        pressgraph.gf2,
        pressgraph.graphs,
        pressgraph.cholesky,
        pressgraph.recognition,
        pressgraph.generate,
    ]
    names = pressgraph.__all__
    assert names == ["__version__", *(n for m in modules for n in m.__all__)]
    assert len(set(names)) == len(names)
    assert {"recognize", "census", "BitMatrix", "Edge"} <= set(names)
    for m in modules:
        for name in m.__all__:
            assert getattr(pressgraph, name) is getattr(m, name)
    others = {
        key
        for key, value in vars(pressgraph).items()
        if not key.startswith("__")
        and getattr(value, "__name__", None) != f"pressgraph.{key}"
    }
    assert others == set(names) - {"__version__"}


def test_runtime_imports_the_standard_library_alone():
    """Every import in the package's source, at module level or in a
    function body, names a module of the standard library or of
    pressgraph itself, as each relative import does."""
    outside = []
    for path in sorted(Path(pressgraph.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            outside += [
                (path.name, top) for top in tops
                if top not in sys.stdlib_module_names and top != "pressgraph"
            ]
    assert outside == []


def test_type_hints_resolve_on_every_public_callable():
    """typing.get_type_hints resolves on every function and class in
    pressgraph.__all__, and on the functions and property getters each
    class defines: no annotation names a module that only a function
    body imports (random_cup's rng once named random.Random)."""
    checked = []
    for name in pressgraph.__all__:
        obj = getattr(pressgraph, name)
        if isinstance(obj, type):
            members = [
                getattr(m, "fget", getattr(m, "__func__", m))
                for m in vars(obj).values()
            ]
            checked += [obj, *filter(inspect.isfunction, members)]
        elif inspect.isfunction(obj):
            checked.append(obj)
    assert pressgraph.random_cup in checked
    assert pressgraph.PseudoGraph.press in checked
    for obj in checked:
        typing.get_type_hints(obj)


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


def test_main_builds_the_parser_once(monkeypatch):
    """The argparse tree is built by the first main call and reused."""
    run_cli(["count", "7"])
    made = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        made.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run_cli(["count", "7"]) == (0, "cup=18 total=41\n", "")
    assert run_cli(["census", "2"])[0] == 0
    assert made == []


def test_reused_parser_matches_fresh_parsers():
    """A mixed run through the one reused parser gives the outputs and
    exit codes of a fresh parser per call: no flag, default or error
    leaks from one call into the next."""
    runs = [
        ["recognize", CUP2],
        ["press", "--sequence", "1", "--trace", PENDANT],
        ["press", "--sequence", "1", PENDANT],
        ["census", "3"],
        ["census", "3", "--jobs"],
    ]
    reused = [run_cli(argv) for argv in runs]
    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(run_cli(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2]
    assert reused[1][1] != reused[2][1]
    assert "usage:" in reused[4][2]


# ------------------------------------------------------------------ fuzz

# Arbitrary text mostly stops at the first parse error; graph-shaped
# lines of small tokens, and nearly valid records in both formats, get
# past it to the dynamics.
_TOKEN = st.sampled_from(
    ("0", "1", "2", "3", "4", "-1", "01", "10", "11", "110", "x", "", " ")
)
_GRAPHISH = st.lists(
    st.lists(_TOKEN, max_size=6).map(" ".join), max_size=10
).map("\n".join)


@st.composite
def _records(draw):
    labels = sorted(draw(st.sets(st.integers(1, 9), max_size=7)))
    n = len(labels) + draw(st.sampled_from((0, 0, 0, 1, -1)))
    if draw(st.booleans()):
        ends = st.sampled_from(labels + [0]) if labels else st.just(1)
        pairs = st.tuples(ends, ends)
        lines = [" ".join(map(str, labels))]
        lines += [f"{u} {v}" for u, v in draw(st.lists(pairs, max_size=12))]
    else:
        k = len(labels)
        bits = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                bits[i][j] = bits[j][i] = draw(st.integers(0, 1))
        lines = ["".join(map(str, row)) for row in bits]
    return "\n".join([str(n)] + lines) + "\n"


_SEQUENCE = st.one_of(
    st.lists(st.integers(-1, 5), max_size=6).map(
        lambda seq: ",".join(map(str, seq))
    ),
    st.text(max_size=20),
)


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(("recognize", "press", "root", "convert")),
    text=st.one_of(st.text(max_size=300), _GRAPHISH, _records()),
    sequence=_SEQUENCE,
    via_stdin=st.booleans(),
)
def test_fuzzed_input_keeps_the_exit_contract(
    tmp_path_factory, command, text, sequence, via_stdin
):
    """Any text read by recognize, press, root or convert, from a file
    or from standard input, ends in exit 0, 1 or 2 and never in an
    exception; exit 2 prints nothing on stdout."""
    if via_stdin:
        argv = [command, "-"]
    else:
        path = tmp_path_factory.getbasetemp() / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        argv = [command, str(path)]
    if command == "press":
        argv.insert(1, f"--sequence={sequence}")
    code, out, _ = run_cli(argv, stdin=text if via_stdin else None)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(("recognize", "press", "root", "convert")),
    data=st.one_of(
        st.binary(max_size=300),
        st.tuples(_records(), st.binary(max_size=4)).map(
            lambda p: p[0].encode() + p[1]
        ),
        _records().map(lambda t: t.encode("utf-16")),
    ),
    sequence=_SEQUENCE,
)
def test_fuzzed_bytes_keep_the_exit_contract(
    tmp_path_factory, command, data, sequence
):
    """Files of raw bytes, UTF-8 or not, end in exit 0, 1 or 2 and never
    in an exception; exit 2 prints nothing on stdout."""
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(data)
    argv = [command, str(path)]
    if command == "press":
        argv.insert(1, f"--sequence={sequence}")
    code, out, _ = run_cli(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""


def _neither_int_nor_flag(token):
    try:
        int(token)
    except ValueError:
        return not token.startswith("-")
    return False


# Just above each command's cap: every one is refused before any work.
_OVER_CAP = {
    "count": (COUNT_MAX_N + 1,),
    "census": (CENSUS_MAX_N + 1,),
    "generate": (GENERATE_MAX_N + 1,),
}


# Integer tokens of 80 characters and more: the longest accepted one
# (3), then a number and a word too long to echo whole, the second
# past the interpreter's limit on int() of a decimal string.
_OVERSIZED = ("0" * 79 + "3", "9" * 81, "9" * 5000, "x" * 5000)


@st.composite
def _size_commands(draw):
    command = draw(st.sampled_from(sorted(_OVER_CAP)))
    fixed = ["-1", "-7", "1.5", "1e3", "0x3", "٣", "", " 4 "]
    fixed += [str(n) for n in range(6)]
    fixed += [str(n) for n in _OVER_CAP[command]]
    fixed += _OVERSIZED
    free = st.text(max_size=8).filter(_neither_int_nor_flag)
    token = draw(st.one_of(st.sampled_from(fixed), free))
    argv = [command, token]
    if command == "census" and draw(st.booleans()):
        # census no longer takes this flag: an unknown one, at any size.
        bounds = ("x", "-1", "1", "5") + _OVERSIZED
        argv += ["--oracle-bound", draw(st.sampled_from(bounds))]
    if command == "census" and draw(st.booleans()):
        jobs = ("x", "1.5", "", "0", "-1", "-3", "1", "2", "3", "4")
        argv += ["--jobs", draw(st.sampled_from(jobs + _OVERSIZED))]
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=_size_commands())
def test_fuzzed_sizes_keep_the_exit_contract(argv):
    """count, census and generate on any n token, and census on any
    --jobs token and an --oracle-bound it refuses, end in exit 0, 1 or 2
    and never in an exception; exit 2 prints nothing on stdout, and no
    token of any length makes stderr long.  A stand-in Pool maps in this
    process, so no worker starts, and records its size: never above
    --jobs.  A sweep above the cap fails at once."""
    sizes = []
    census_range = generate._census_range

    def capped_census_range(args):
        assert args[0] <= CENSUS_MAX_N, "census swept above its cap"
        return census_range(args)

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

    with (
        mock.patch.object(multiprocessing, "Pool", InlinePool),
        mock.patch.object(generate, "_census_range", capped_census_range),
    ):
        code, out, err = run_cli(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
    assert len(err) < 500
    if sizes:
        (size,) = sizes
        assert code == 0 and 2 <= size <= min(int(argv[-1]), os.cpu_count())
