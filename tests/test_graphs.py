"""Unit tests for pseudo-graphs and the pressing dynamic."""

import itertools
import random
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pressgraph import (
    BitMatrix,
    GraphFormatError,
    InvalidPressError,
    PseudoGraph,
    UnknownVertexError,
    all_pseudographs,
    detect_format,
    from_adjacency,
    parse_auto,
    graphs,
    parse_graph,
)
from conftest import (
    naive_press,
    naive_successful_sequences,
    reference_parse_graph,
)


def small_graphs(max_n=6):
    def build(n, rng):
        labels = tuple(range(1, n + 1))
        pairs = [(i, j) for i in labels for j in labels if i <= j]
        edges = frozenset(p for p in pairs if rng.random() < 0.4)
        return PseudoGraph(labels, edges)

    return st.builds(
        build, st.integers(1, max_n), st.randoms(use_true_random=False)
    )


# ------------------------------------------------------------ structure


def test_constructor_normalizes_edges():
    g = PseudoGraph((1, 2, 3), frozenset({(3, 1), (2, 2)}))
    assert g.edges == frozenset({(1, 3), (2, 2)})
    assert g.n == 3
    assert g.has_edge(3, 1) and g.has_edge(1, 3)
    assert g.is_looped(2) and not g.is_looped(1)
    assert g.looped_vertices() == frozenset({2})


def test_constructor_validation():
    with pytest.raises(ValueError):
        PseudoGraph((2, 1), frozenset())
    with pytest.raises(ValueError):
        PseudoGraph((0, 1), frozenset())
    with pytest.raises(ValueError):
        PseudoGraph((1, 1), frozenset())
    with pytest.raises(UnknownVertexError):
        PseudoGraph((1, 2), frozenset({(1, 3)}))
    with pytest.raises(UnknownVertexError):
        PseudoGraph((1,), frozenset()).press(2)


def test_neighborhood_contains_self_only_when_looped():
    g = PseudoGraph((1, 2, 3), frozenset({(1, 1), (1, 3)}))
    assert g.neighborhood(1) == frozenset({1, 3})
    assert g.neighborhood(3) == frozenset({1})
    assert g.neighborhood(2) == frozenset()


# ------------------------------------------------------------ pressing


def test_press_single_loop_with_pendant():
    # looped vertex with one neighbor: toggles loop, edge, and the
    # neighbor's loop
    g = PseudoGraph((1, 2, 3), frozenset({(1, 1), (1, 3)}))
    assert g.press(1).edges == frozenset({(3, 3)})


def test_press_isolated_loop_just_removes_it():
    g = PseudoGraph((1, 2), frozenset({(2, 2)}))
    assert g.press(2).edges == frozenset()


def test_press_clique_of_two_empties():
    g = PseudoGraph((1, 2), frozenset({(1, 1), (2, 2), (1, 2)}))
    assert g.press(1).edges == frozenset()
    assert g.press(2).edges == frozenset()


def test_press_requires_loop():
    g = PseudoGraph((1, 2), frozenset({(1, 2), (2, 2)}))
    with pytest.raises(InvalidPressError) as exc:
        g.press(1)
    assert exc.value.vertex == 1
    assert exc.value.position is None


@given(small_graphs(), st.randoms(use_true_random=False))
@settings(max_examples=150)
def test_press_is_its_own_inverse_on_the_neighborhood(g, rng):
    looped = sorted(g.looped_vertices())
    if not looped:
        return
    v = rng.choice(looped)
    nb = sorted(g.neighborhood(v))
    toggle = {
        (nb[i], nb[j]) for i in range(len(nb)) for j in range(i, len(nb))
    }
    h = g.press(v)
    # pressed vertex ends isolated and loopless
    assert all(v not in e for e in h.edges)
    # replaying the same toggle restores the original graph
    assert PseudoGraph(h.labels, h.edges ^ toggle) == g
    # edges fully outside the old neighborhood are untouched
    outside = {e for e in g.edges if e[0] not in nb and e[1] not in nb}
    assert outside == {e for e in h.edges if e[0] not in nb and e[1] not in nb}


def sparse_label_graphs(max_n=7):
    """Random graphs whose labels are a random subset of 1..60."""

    def build(labels, rng):
        labels = tuple(sorted(labels))
        pairs = [(u, v) for u in labels for v in labels if u <= v]
        return PseudoGraph(labels, {p for p in pairs if rng.random() < 0.4})

    return st.builds(
        build,
        st.sets(st.integers(1, 60), min_size=1, max_size=max_n),
        st.randoms(use_true_random=False),
    )


@given(sparse_label_graphs())
@settings(max_examples=200)
def test_press_matches_the_edge_set_definition(g):
    for v in g.labels:
        if (v, v) in g.edges:
            h, want = g.press(v), naive_press(g, v)
            assert h == want
            assert h.edges == want.edges
            assert h.to_text() == want.to_text()
        else:
            with pytest.raises(InvalidPressError):
                g.press(v)


def test_apply_sequence_and_position_reporting(cup2):
    assert cup2.apply_sequence((1, 2)).edges == frozenset()
    assert cup2.apply_sequence(()) == cup2
    with pytest.raises(InvalidPressError) as exc:
        cup2.apply_sequence((1, 1))
    assert (exc.value.vertex, exc.value.position) == (1, 2)
    with pytest.raises(InvalidPressError) as exc:
        cup2.apply_sequence((9, 1))
    assert (exc.value.vertex, exc.value.position) == (9, 1)
    assert "press 1 invalid" in str(exc.value)
    # Any iterable of labels is a sequence, a one-shot iterator too.
    assert cup2.apply_sequence(iter([1, 2])).edges == frozenset()
    assert cup2.is_successful(v for v in (1, 2))
    with pytest.raises(InvalidPressError) as exc:
        cup2.apply_sequence(iter([1, 9]))
    assert (exc.value.vertex, exc.value.position) == (9, 2)


def test_replay_names_a_label_outside_the_graph():
    """An unknown label is reported as not in the graph, with and
    without a trace; a loopless label before it is reported first."""
    g = PseudoGraph((1, 2, 3), frozenset({(1, 1), (1, 3)}))
    missing = "invalid: vertex 9 is not in the graph"
    for trace in (False, True):
        with pytest.raises(InvalidPressError) as exc:
            g._replay((9,), trace)
        assert str(exc.value) == f"press 1 {missing}"
        assert exc.value.missing
        with pytest.raises(InvalidPressError) as exc:
            g._replay((1, 3, 9), trace)
        assert str(exc.value) == f"press 3 {missing}"
        with pytest.raises(InvalidPressError) as exc:
            g._replay((2, 9), trace)
        assert str(exc.value) == "press 1 invalid: vertex 2 is not looped"
        assert not exc.value.missing
    assert g.is_successful((9,)) is False
    with pytest.raises(UnknownVertexError):
        g.press(9)


def test_is_successful(cup2):
    assert cup2.is_successful((1, 2))
    assert not cup2.is_successful((1,))  # loop remains on 2
    assert not cup2.is_successful((2, 1))  # 2 starts loopless
    assert not cup2.is_successful((7,))
    assert PseudoGraph((1,), frozenset()).is_successful(())


def test_all_successful_sequences_share_length():
    """Exhaustive over every pseudo-graph on up to 4 vertices."""
    for n in range(0, 5):
        for g in all_pseudographs(n):
            lengths = {len(s) for s in naive_successful_sequences(g)}
            assert len(lengths) <= 1


def test_pressable_iff_nontrivial_components_looped():
    for n in range(0, 5):
        for g in all_pseudographs(n):
            ok = bool(naive_successful_sequences(g))
            loops = g.looped_vertices()
            expect = all(
                c.trivial or any(v in loops for v in c.labels)
                for c in g.components()
            )
            assert ok == expect


# ---------------------------------------------------------- components


def test_components_and_trivial_flag():
    g = PseudoGraph(
        (1, 2, 3, 4, 5), frozenset({(1, 2), (4, 4)})
    )
    comps = g.components()
    assert [c.labels for c in comps] == [(1, 2), (3,), (4,), (5,)]
    # a looped singleton is not trivial; a bare one is
    assert [c.trivial for c in comps] == [False, True, False, True]


def test_induced_delete_relabel():
    g = PseudoGraph((1, 2, 3), frozenset({(1, 1), (1, 2), (2, 3)}))
    assert g.induced({1, 2}) == PseudoGraph(
        (1, 2), frozenset({(1, 1), (1, 2)})
    )
    assert g.delete_vertex(2) == PseudoGraph((1, 3), frozenset({(1, 1)}))
    swapped = g.relabel({1: 3, 2: 2, 3: 1})
    assert swapped == PseudoGraph((1, 2, 3), frozenset({(3, 3), (2, 3), (1, 2)}))
    with pytest.raises(UnknownVertexError):
        g.induced({1, 9})
    with pytest.raises(UnknownVertexError):
        g.delete_vertex(9)
    with pytest.raises(UnknownVertexError):
        g.relabel({1: 3})
    with pytest.raises(ValueError):
        g.relabel({1: 5, 2: 5, 3: 6})


def test_adjacency_matrix_compresses_labels():
    g = PseudoGraph((2, 5, 9), frozenset({(2, 2), (2, 9), (5, 9)}))
    assert g.adjacency_matrix() == BitMatrix.from_rows(
        [[1, 0, 1], [0, 0, 1], [1, 1, 0]]
    )


def test_from_adjacency_round_trip(example5):
    g = from_adjacency(example5)
    assert g.labels == (1, 2, 3, 4, 5)
    assert g.edges == frozenset(
        {(1, 1), (1, 5), (2, 2), (2, 4), (4, 4), (5, 5)}
    )
    assert g.adjacency_matrix() == example5
    with pytest.raises(ValueError):
        from_adjacency(BitMatrix.from_rows([[0, 1], [0, 0]]))


# ------------------------------------------------------------- formats


def test_graph_text_round_trip():
    g = PseudoGraph((1, 4, 7), frozenset({(1, 1), (1, 7), (4, 7)}))
    text = g.to_text()
    assert text == "3\n1 4 7\n1 1\n1 7\n4 7\n"
    assert parse_graph(text) == g
    assert parse_graph("0\n") == PseudoGraph((), frozenset())
    # trailing blank lines after the record are fine
    assert parse_graph(text + "\n\n") == g


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "line 1"),
        ("x\n", "line 1"),
        ("-1\n", "line 1"),
        ("2\n1\n", "line 2"),
        ("2\n1 two\n", "line 2"),
        ("1\n1\n2 3 4\n", "line 3"),
        ("1\n1\n1 z\n", "line 3"),
        ("2\n1 2\n1 2\n\nmore\n", "line 5"),
        ("2\n2 1\n", "increasing"),
        ("2\n1 2\n1 3\n", "leaves the graph"),
        ("2\n2 1\n1 1\n", "^line 2: labels must be strictly increasing "),
        ("2\n1 2\n1 1\n2 5\n", r"^line 4: edge \(2, 5\) leaves the graph$"),
        ("2\n1 2\n1 7\n+2 02\n5 1\n", r"^line 3: edge \(1, 7\) leaves"),
    ],
)
def test_graph_parse_errors_name_the_line(text, fragment):
    with pytest.raises(GraphFormatError, match=fragment):
        parse_graph(text)


def test_detect_format():
    assert detect_format("2\n1 2\n1 1\n") == "graph"
    assert detect_format("2\n10\n01\n") == "matrix"
    assert detect_format("garbage") == "graph"
    assert detect_format("3\n") == "graph"
    assert detect_format("0\n") == "graph"
    # the one-vertex file that parses under both formats reads as graph
    assert detect_format("1\n1\n") == "graph"
    # a label is positive, so this can only be the 1x1 zero matrix
    assert detect_format("1\n0\n") == "matrix"


def test_parse_auto_accepts_both(example5):
    assert parse_auto(example5.to_text()) == from_adjacency(example5)
    assert parse_auto("2\n1 2\n1 2\n") == PseudoGraph(
        (1, 2), frozenset({(1, 2)})
    )
    assert parse_auto("1\n1\n") == PseudoGraph((1,), frozenset())
    # matrix branch failures surface as graph format errors
    with pytest.raises(GraphFormatError):
        parse_auto("2\n01\n00\n")  # asymmetric
    with pytest.raises(GraphFormatError):
        parse_auto("2\n10\n")  # missing row


@pytest.mark.parametrize("n", range(5))
def test_both_text_formats_read_back_in_their_format(n):
    """Every graph on up to 4 vertices reads back from its graph text
    and from its matrix text, and _read names the format it was written
    in.  The one-looped-vertex matrix "1\\n1" is the documented
    exception: it reads as graph text, one loopless vertex.  The empty
    graph's matrix text "0" is graph text for the same graph."""
    for g in all_pseudographs(n):
        text = g.to_text()
        assert parse_auto(text) == g
        assert graphs._read(text) == (g, "graph")
        text = g.adjacency_matrix().to_text()
        if text == "1\n1\n":
            assert graphs._read(text) == (PseudoGraph((1,), ()), "graph")
            continue
        assert parse_auto(text) == g
        assert graphs._read(text) == (g, "matrix" if n else "graph")


@given(small_graphs())
@settings(max_examples=100)
def test_text_round_trip_property(g):
    assert parse_graph(g.to_text()) == g


# ---------------------------------------------- parser against the oracle

# splitlines() breaks lines at each of these, not only at "\n".
_BREAK = st.sampled_from(
    ("\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c")
)
# Tokens int() reads in surprising ways, or refuses.
_ODD_TOKEN = st.sampled_from(
    ("+3", "1_0", "007", "²", "٣", "-1", "0", "3.0", "x", "")
)


def _join(draw, lines):
    """The lines, each ended by a drawn line break, the last maybe not."""
    text = "".join(line + draw(_BREAK) for line in lines)
    if text and draw(st.booleans()):
        text = text[:-1]
    return text


@st.composite
def _graphish_texts(draw):
    """Lines of small and odd tokens under every kind of line break."""
    token = st.one_of(st.sampled_from(("1", "2", "3", "4")), _ODD_TOKEN)
    sep = st.sampled_from((" ", " ", "  ", "\t", "\xa0"))
    lines = draw(
        st.lists(
            st.lists(st.tuples(token, sep), max_size=4).map(
                lambda ts: "".join(t + s for t, s in ts)
            ),
            max_size=8,
        )
    )
    return _join(draw, lines)


@st.composite
def _near_records(draw):
    """Graph records with none, one or several of the faults a parser
    must rank."""

    def fault():
        return draw(st.integers(0, 3)) == 0

    labels = sorted(draw(st.sets(st.integers(1, 12), max_size=6)))
    label_line = list(labels)
    if len(labels) > 1 and fault():
        label_line = draw(st.permutations(labels))  # maybe out of order
    n = len(labels) + (draw(st.sampled_from((1, -1))) if fault() else 0)
    outside = [0, 13, 20] if fault() else []
    ends = st.sampled_from(labels + outside) if labels else st.just(1)
    pairs = draw(st.lists(st.tuples(ends, ends), max_size=12))
    if pairs:  # duplicates, and the same edge written reversed
        again = draw(st.lists(st.sampled_from(pairs), max_size=3))
        pairs += [(v, u) if draw(st.booleans()) else (u, v) for u, v in again]

    def spell(k):
        return draw(st.sampled_from((str(k),) * 4 + (f"+{k}", f"0{k}")))

    lines = [str(n), " ".join(spell(lab) for lab in label_line)]
    lines += [f"{spell(u)} {spell(v)}" for u, v in pairs]
    if fault():
        bad = draw(
            st.one_of(
                st.sampled_from(("1", "1 2 3", "1 z", "² 1", "1_0 1")),
                _ODD_TOKEN.map(lambda t: "1 " + t),
            )
        )
        pad = st.sampled_from(("", "", " ", "\t"))
        bad = draw(pad) + bad + draw(pad)
        lines.insert(draw(st.integers(2, len(lines))), bad)
    if fault():  # a blank line, then maybe more content
        blank = draw(st.sampled_from(("", "  ", "\t")))
        lines.insert(draw(st.integers(2, len(lines))), blank)
        lines.append(draw(st.sampled_from(("", "1 1", "junk"))))
    return _join(draw, lines)


def _random_graph(n, rng, density=0.5):
    """A graph on n labels drawn with gaps, each pair and loop an edge
    with the given probability."""
    labels = tuple(sorted(rng.sample(range(1, 3 * n + 2), n)))
    pairs = [(u, v) for u in labels for v in labels if u <= v]
    return PseudoGraph(labels, [p for p in pairs if rng.random() < density])


_CORRUPTIONS = (
    "none", "crlf", "tab", "double space", "trailing space", "007", "+3",
    "unknown label", "blank then content", "no final newline",
    "missing endpoint", "\r for the space", "\x0b for the space",
)


def _corrupt(text, kind, k, labels):
    """text with one corruption at line k, or at its end."""
    lines = text.split("\n")[:-1]
    first, sep, rest = lines[k].partition(" ")
    if kind == "crlf":
        lines[k] += "\r"
    elif kind.endswith("for the space") and sep:
        lines[k] = first + kind[0] + rest
    elif kind in ("tab", "double space") and sep:
        lines[k] = first + ("\t" if kind == "tab" else "  ") + rest
    elif kind == "missing endpoint":
        lines[k] = first + sep
    elif kind == "trailing space":
        lines[k] += " "
    elif kind in ("007", "+3"):
        lines[k] = ("00" if kind == "007" else "+") + lines[k]
    elif kind == "unknown label":
        lines[k] = f"{max(labels, default=0) + 1}{sep}{rest}"
    elif kind == "blank then content":
        lines[k + 1 : k + 1] = ["", "1 1"]
    text = "\n".join(lines) + "\n"
    return text[:-1] if kind == "no final newline" else text


@st.composite
def _corrupted_records(draw):
    """The to_text() of a random graph, n = 0 up and labels with gaps,
    with at most one corruption on any line.  One in 14 has an edge
    section of two chunks, and about half of its corruptions fall past
    the first."""
    n = draw(st.sampled_from(tuple(range(13)) + (256,)))
    g = _random_graph(n, random.Random(draw(st.integers(0, 2**32))))
    text = g.to_text()
    k = draw(st.integers(0, text.count("\n") - 1))
    return _corrupt(text, draw(st.sampled_from(_CORRUPTIONS)), k, g.labels)


_TWO_CHUNKS = _random_graph(256, random.Random(256))


def _late_corruption(kind):
    """A corruption on the last line of a text of two chunks."""
    text = _TWO_CHUNKS.to_text()
    assert len(text) > graphs._CHUNK
    return _corrupt(text, kind, text.count("\n") - 1, _TWO_CHUNKS.labels)


def _outcome(parse, text):
    try:
        return parse(text)
    except GraphFormatError as exc:
        return f"GraphFormatError: {exc}"


@example("3\r\n1 2 3\r\n1 2\r\n2 3\r\n")
@example("2\n1 2\x0b1 2\x0c2 2\x1c1 1\n")
@example("2\n1 10\n1_0 1\n+1 001\n")
@example("2\n1 2\n² 1\n")
@example("2\n1 2\n1 \ud800\n")
@example("2\n1 2\n1 2\n2 1\n1 2\n2 2\n")
@example("2\n1 2\n1 5\n7 1\n9 9\n3 4\n2 8\n")
@example("2\n2 1\n1 5\n1 z\n")
@example("2\n2 1\n1 5\n\nmore\n")
@example("2\n1 2\n1 1\n\n2 2\n")
@example("99999\n1 2\n1 2\n")
@example("x1" * 60 + "\n1 2\n")
@example("2\n1 2\n" + "7" * 81 + "\n")
@example(_late_corruption("none"))
@example(_late_corruption("crlf"))
@example(_late_corruption("unknown label"))
@example(_late_corruption("missing endpoint"))
@example(_late_corruption("\r for the space"))
@settings(max_examples=600, deadline=None)
@given(
    st.one_of(
        st.text(max_size=200),
        _graphish_texts(),
        _near_records(),
        _corrupted_records(),
    )
)
def test_parser_matches_the_set_based_reference(text):
    """Equal graphs, or GraphFormatErrors with equal text, from the
    chunk reader with its line loop and the set-based reference;
    parse_auto agrees on every text it reads as a graph."""
    want = _outcome(reference_parse_graph, text)
    assert _outcome(parse_graph, text) == want
    if detect_format(text) == "graph":
        assert _outcome(parse_auto, text) == want


def test_text_round_trip_at_n_512():
    rng = random.Random(512)
    n = 512
    labels = tuple(sorted(rng.sample(range(1, 10 * n), n)))
    rows = [0] * n
    for i in range(n):
        upper = rng.getrandbits(n - i) << i
        rows[i] |= upper
        for k in range(i + 1, n):
            if upper >> k & 1:
                rows[k] |= 1 << i
    g = PseudoGraph._from_rows(labels, rows)
    text = g.to_text()
    edge_lines = [f"{u} {v}" for u, v in sorted(g.edges)]
    assert text.splitlines()[2:] == edge_lines
    assert parse_graph(text) == g == reference_parse_graph(text)


def test_the_to_text_layout_never_reaches_the_line_loop():
    """Random graphs, n = 0 up and one of several chunks, read back
    from their to_text() with the line loop made to raise: the layout
    the library and the benchmark write takes the chunk path whole."""
    rng = random.Random(21)
    cases = [_random_graph(n, rng) for n in (0, 1, 1, 2, 5, 17, 64, 512)]
    assert len(cases[-1].to_text()) > 4 * graphs._CHUNK
    cases += [_random_graph(rng.randrange(40), rng, rng.random())
              for _ in range(100)]
    line_loop = mock.Mock(side_effect=AssertionError("line loop reached"))
    with mock.patch.object(graphs, "_edge_lines", line_loop):
        for g in cases:
            assert parse_graph(g.to_text()) == g
            assert parse_auto(g.to_text()) == g


def _dense(text):
    """True when parse_graph reads text's chunks into byte lanes."""
    n = int(text.split("\n", 1)[0])
    return n * n <= graphs._DENSE * len(text)


def _at_the_gate(n, rng):
    """to_text() of two graphs on n labels with gaps, the first just
    inside the dense gate and the second, one edge fewer, just outside."""
    labels = tuple(sorted(rng.sample(range(1, 3 * n + 2), n)))
    pairs = [(u, v) for u in labels for v in labels if u <= v]
    rng.shuffle(pairs)

    def text(k):
        return PseudoGraph(labels, pairs[:k]).to_text()

    lo, hi = 0, len(pairs)
    assert _dense(text(hi)) and not _dense(text(lo))
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _dense(text(mid)) else (mid + 1, hi)
    return text(lo), text(lo - 1)


@pytest.mark.parametrize("n", (8, 64, 300))
def test_the_gate_builds_lanes_for_dense_text_only(n):
    """Texts just inside and just outside n * n <= _DENSE * len(text)
    parse equal to the set-based reference.  Only the one inside builds
    byte lanes; its CRLF copy, dense too, goes to the line loop at its
    first chunk and builds none."""
    inside, outside = _at_the_gate(n, random.Random(n))
    crlf = inside.replace("\n", "\r\n")
    assert _dense(crlf)
    for text, lanes in ((inside, True), (outside, False), (crlf, False)):
        with mock.patch.object(
            graphs, "bytearray", wraps=bytearray, create=True
        ) as made:
            g = parse_graph(text)
        assert g == reference_parse_graph(text)
        assert made.called == lanes


@pytest.mark.parametrize(
    "n, edges", [(graphs.GRAPH_MAX_N, ""), (8192, "1 1\n")]
)
def test_sparse_text_at_large_n_builds_no_lanes(n, edges):
    """An edgeless text at the vertex bound, and one with a single loop,
    parse with a traced peak far below the n * n bytes of byte lanes:
    a gate that is dropped or inverted would build them for the loop."""
    text = f"{n}\n{' '.join(map(str, range(1, n + 1)))}\n{edges}"
    assert not _dense(text)
    tracemalloc.start()
    try:
        g = parse_graph(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g == reference_parse_graph(text)
    assert peak < n * n // 16


def test_the_dense_fixture_reads_alike_through_lanes_and_the_line_loop():
    """tests/data/mirror16.graph, which CI reads by path (LF) and from
    standard input with CRLF line ends, is dense: its LF text is read
    whole through byte lanes, and its CRLF copy through the line loop,
    to the same graph."""
    text = (Path(__file__).parent / "data" / "mirror16.graph").read_text()
    assert _dense(text)
    line_loop = mock.Mock(side_effect=AssertionError("line loop reached"))
    with mock.patch.object(graphs, "_edge_lines", line_loop):
        g = parse_graph(text)
    assert g.to_text() == text
    assert parse_graph(text.replace("\n", "\r\n")) == g
