"""Shared fixtures: golden matrices, golden graphs, and naive oracles.

The naive helpers here deliberately avoid the library's own fast paths
(bit tricks, memoized search) so they can serve as independent
cross-checks.
"""

import io
import itertools
import os
import re
import sys
import contextlib
from collections import Counter

import pytest

from pressgraph import (
    BitMatrix,
    GraphFormatError,
    InvalidPressError,
    MatrixFormatError,
    PseudoGraph,
    UnpressableError,
    iter_support,
)
from pressgraph.cli import main as cli_main
from pressgraph.graphs import GRAPH_MAX_N, _reach


def pytest_collection_modifyitems(config, items):
    """Skip tests marked slow unless PRESSGRAPH_SLOW=1 opts them in."""
    if os.environ.get("PRESSGRAPH_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="slow: set PRESSGRAPH_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


# 5x5 worked example: adjacency matrix and its upper-triangular root.
EXAMPLE5_TEXT = "5\n10001\n01010\n00000\n01010\n10001\n"
EXAMPLE5_ROOT_TEXT = "5\n10001\n01010\n00000\n00000\n00000\n"

# Two 4x4 upper-triangular candidates: the first satisfies all four
# root-column properties, the second breaks the weight monotonicity.
GOOD4_ROWS = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
BAD4_ROWS = [[1, 1, 1, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]


@pytest.fixture
def example5():
    return BitMatrix.from_text(EXAMPLE5_TEXT)


@pytest.fixture
def example5_root():
    return BitMatrix.from_text(EXAMPLE5_ROOT_TEXT)


@pytest.fixture
def good4():
    return BitMatrix.from_rows(GOOD4_ROWS)


@pytest.fixture
def bad4():
    return BitMatrix.from_rows(BAD4_ROWS)


@pytest.fixture
def cup2():
    return PseudoGraph((1, 2), frozenset({(1, 1), (1, 2)}))


@pytest.fixture
def loop_path3():
    # vertex 1 looped, edge 1-3, vertex 2 isolated
    return PseudoGraph((1, 2, 3), frozenset({(1, 1), (1, 3)}))


def naive_press(g, v):
    """Press v by the definition, on edge sets: toggle every pair of
    vertices in the closed neighborhood of v, loops included.

    Kept apart from PseudoGraph.press, which runs on packed rows, so
    the two can check each other.
    """
    edges = g.edges
    if (v, v) not in edges:
        raise InvalidPressError(v)
    nb = sorted({b if a == v else a for a, b in edges if v in (a, b)})
    toggle = {
        (nb[i], nb[j]) for i in range(len(nb)) for j in range(i, len(nb))
    }
    return PseudoGraph(g.labels, edges ^ toggle)


def shifted(g):
    """g with every label raised by one, on edge sets."""
    return PseudoGraph(
        [v + 1 for v in g.labels], {(u + 1, v + 1) for u, v in g.edges}
    )


def reference_extend_right(g):
    """The append map R by its definition, on edge sets.

    A copy of extend_right's body from before the two maps moved onto
    adjacency rows, kept as an oracle: on labels 1..n, a new vertex
    n+1 joined to every looped vertex, looped when n is even.  It
    checks nothing, so it applies to any graph.
    """
    new = g.n + 1
    extra = {(v, new) for v in g.looped_vertices()}
    if g.n % 2 == 0:
        extra.add((new, new))
    return PseudoGraph(g.labels + (new,), g.edges | extra)


def reference_extend_left(g):
    """The prepend map L by its definition, on edge sets.

    A copy of extend_left's body from before the two maps moved onto
    adjacency rows, kept as an oracle: on labels 2..n+1 (``shifted``
    lifts a graph on 1..n there), every pair inside the looped set is
    toggled, loops included, then a new looped vertex 1 is joined to the
    vertices that were looped.
    """
    looped = sorted(g.looped_vertices())
    toggle = set(itertools.combinations_with_replacement(looped, 2))
    new_edges = {(1, 1)} | {(1, v) for v in looped}
    return PseudoGraph((1,) + g.labels, (g.edges ^ toggle) | new_edges)


def naive_greedy(g):
    """The max-degree greedy by the definition, on edge sets.

    Presses, through naive_press, a looped vertex of maximum degree
    (the loop counts once), the earliest label on ties, until no looped
    vertex is left.  Returns (order, first_tie, stalled): the pressed
    labels, the 1-based step of the first tie or None, and whether
    edges remain.  Kept apart from find_pressing_order, which runs on
    packed rows, so the two can check each other.
    """
    order, first_tie = [], None
    while True:
        edges = g.edges
        degree = dict.fromkeys(g.labels, 0)
        for u, v in edges:
            degree[u] += 1
            if u != v:
                degree[v] += 1
        looped = [v for v in g.labels if (v, v) in edges]
        if not looped:
            return tuple(order), first_tie, bool(edges)
        top = max(degree[v] for v in looped)
        best = [v for v in looped if degree[v] == top]
        if len(best) > 1 and first_tie is None:
            first_tie = len(order) + 1
        order.append(best[0])
        g = naive_press(g, best[0])


def naive_successful_sequences(g, bound=8):
    """Every successful pressing sequence of g, by plain recursion.

    Uses only naive_press, no memoization, no bit tricks; meant as an
    oracle for the fast counter.  Exponential, so keep n small.
    """
    if g.n > bound:
        raise ValueError(f"naive enumeration capped at {bound} vertices")
    out = []

    def walk(h, prefix):
        edges = h.edges
        if not edges:
            out.append(tuple(prefix))
            return
        for v in sorted(u for u, w in edges if u == w):
            walk(naive_press(h, v), prefix + [v])

    walk(g, [])
    return out


def dense_det2(rows):
    """GF(2) determinant of a dense 0/1 list-of-lists, by elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, n):
            if m[r][col]:
                m[r] = [a ^ b for a, b in zip(m[r], m[col])]
    return 1


def exactly(message):
    """A pytest.raises pattern that matches the message and nothing else."""
    return f"^{re.escape(message)}$"


def quoted(value):
    """An input as error messages quote it, a text by repr and a number
    in decimal: whole up to 80 characters, else its first 80 characters,
    an ellipsis and its length."""
    text = str(value)
    show = repr if isinstance(value, str) else str
    if len(text) <= 80:
        return show(text)
    return f"{show(text[:80])}... ({len(text)} characters)"


def reference_parse_graph(text):
    """The graph text format, parsed through a set of edge tuples.

    A copy of the set-based parser that the one-pass packed-row parser
    replaced, kept as an oracle: every text must give an equal graph or
    the same GraphFormatError message under both.  Label order is
    checked on line 2, and an edge that leaves the graph is named on
    its own line, before any later line is read.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphFormatError("line 1: expected the vertex count")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise GraphFormatError(
            f"line 1: expected an integer count, got {quoted(lines[0])}"
        ) from None
    if n < 0:
        raise GraphFormatError(f"line 1: negative vertex count {quoted(n)}")
    if n > GRAPH_MAX_N:
        raise GraphFormatError(
            f"line 1: vertex count {quoted(n)} exceeds bound {GRAPH_MAX_N}"
        )
    if n > 0 and len(lines) < 2:
        raise GraphFormatError("line 2: expected the label line")
    label_tokens = lines[1].split() if len(lines) > 1 else []
    if len(label_tokens) != n:
        raise GraphFormatError(
            f"line 2: expected {n} labels, got {len(label_tokens)}"
        )
    try:
        labels = tuple(int(t) for t in label_tokens)
    except ValueError:
        raise GraphFormatError("line 2: labels must be integers") from None
    try:
        PseudoGraph(labels, ())
    except ValueError as exc:
        raise GraphFormatError(f"line 2: {exc}") from None
    known = set(labels)
    edges = set()
    stop = None
    for idx in range(2, len(lines)):
        raw = lines[idx].strip()
        if not raw:
            stop = idx
            break
        parts = raw.split()
        if len(parts) != 2:
            raise GraphFormatError(
                f"line {idx + 1}: expected an edge as 'u v', "
                f"got {quoted(raw)}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(
                f"line {idx + 1}: edge endpoints must be integers"
            ) from None
        if u not in known or v not in known:
            raise GraphFormatError(
                f"line {idx + 1}: edge ({u}, {v}) leaves the graph"
            )
        edges.add((u, v))
    if stop is not None:
        for idx in range(stop, len(lines)):
            if lines[idx].strip():
                raise GraphFormatError(
                    f"line {idx + 1}: unexpected content after the record"
                )
    return PseudoGraph(labels, frozenset(edges))


def random_symmetric_rows(n, density, rng):
    """Packed rows of a random graph on n vertices: each pair, loops
    included, is an edge with probability ``density``."""
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if rng.random() < density:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def reference_press(rows, p, live):
    """XOR row p into every listed row holding bit p, in place; returns
    the listed rows still nonzero.

    A copy of gf2._press from before it read the rows to change off the
    pivot's own bits, kept as an oracle: it tests every listed row's
    column p, so it needs no symmetry.
    """
    piv = rows[p]
    bit = 1 << p
    still = []
    for i in live:
        r = rows[i]
        if r & bit:
            r ^= piv
            rows[i] = r
        if r:
            still.append(i)
    return still


def reference_greedy(rows, stop_at_tie):
    """The greedy core on bare rows, scanning a list of live rows.

    A copy of the greedy core from before it kept a mask of looped
    rows and pressed through the pivot's bits, kept as an oracle for
    both modes of gf2._greedy: the same ``(order, pivots, first_tie,
    rows)``, pressed by reference_press, then ``alive``, the indices of
    the rows still nonzero.
    """
    n = len(rows)
    rows = list(rows)
    bits = [1 << i for i in range(n)]
    order = []
    pivots = []
    first_tie = None
    alive = [i for i in range(n) if rows[i]]
    while alive:
        best = -1
        best_deg = 0
        tied = False
        for i in alive:
            r = rows[i]
            if r & bits[i]:
                d = r.bit_count()
                if d > best_deg:
                    best, best_deg, tied = i, d, False
                elif d == best_deg:
                    tied = True
        if best < 0:
            break
        if tied and first_tie is None:
            first_tie = len(order) + 1
            if stop_at_tie:
                break
        order.append(best)
        pivots.append(rows[best])
        alive = reference_press(rows, best, alive)
    return order, pivots, first_tie, rows, alive


def reference_find_pressing_order(g, stop_at_tie=False):
    """The greedy order on a graph, through reference_greedy.

    Kept as an oracle for both of gf2._greedy's modes and for its
    wrapper find_pressing_order.  Returns ``(permutation, complete,
    first_tie, pivot_rows)``: the pressed labels, False only when
    ``stop_at_tie`` stopped it at its first tie, the 1-based step of
    that tie or None, and each pressed row just before its press.  A
    stall met before any stop raises UnpressableError with one
    leftover component.
    """
    labels = g.labels
    order, pivots, first_tie, rows, alive = reference_greedy(
        g.rows, stop_at_tie
    )
    seq = tuple(labels[i] for i in order)
    if stop_at_tie and first_tie is not None:
        return seq, False, first_tie, tuple(pivots)
    if alive:
        comp = iter_support(_reach(rows, rows[alive[0]]))
        raise UnpressableError(tuple(labels[j - 1] for j in comp))
    return seq, True, first_tie, tuple(pivots)


def reference_check_columns(rows, order):
    """The four column checks, as recognition._check_columns made them
    with one generator pass per property over the weights, kept as an
    oracle: the same ``(failures, weights)``."""
    n = len(order)
    # One top-down row scan: note the first row holding each column, and
    # track the columns whose run of ones has started but not yet
    # reached the diagonal.  A started column missing from the current
    # row breaks property 1.
    top: dict[int, int] = {}
    seen = active = broken = 0
    for t, r in enumerate(rows):
        for b in iter_support(r & ~seen):
            top[b - 1] = t
        seen |= r
        broken |= active & ~r
        active = (active | r) & ~(1 << order[t])
    if broken:
        fail1 = next(j for j, p in enumerate(order, 1) if broken >> p & 1)
        ones = Counter(b - 1 for r in rows for b in iter_support(r))
        w = [ones[p] for p in order]
    else:
        fail1 = None
        # Property 1 holds, so the ones of column j run from its top row
        # down to the diagonal.
        w = [j - top[p] + 1 if p in top else 0 for j, p in enumerate(order)]

    fail2 = 1 if n and w[0] != 1 else next(
        (j + 1 for j in range(1, n) if w[j] < w[j - 1]), None
    )
    fail3 = next(
        (i + 3 for i in range(n - 2) if w[i] > 2 and w[i + 2] <= w[i]), None
    )
    # From the first odd non-initial column on, every column is full.
    odd = next((j for j in range(1, n) if w[j] & 1), n)
    fail4 = next((t + 1 for t in range(odd, n) if w[t] != t + 1), None)

    return (fail1, fail2, fail3, fail4), tuple(w)


def reference_matrix_from_text(text):
    """The matrix text format, validated and packed one bit at a time.

    A copy of BitMatrix.from_text from before it checked each row with
    str.strip and packed it with int(), kept as an oracle: every text
    must give an equal matrix or the same MatrixFormatError message.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise MatrixFormatError("line 1: expected the matrix size")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise MatrixFormatError(
            f"line 1: expected an integer size, got {quoted(lines[0])}"
        ) from None
    if n < 0:
        raise MatrixFormatError(f"line 1: negative size {quoted(n)}")
    rows = []
    for i in range(n):
        ln = i + 2
        if i + 1 >= len(lines):
            raise MatrixFormatError(f"line {ln}: missing row {i + 1}")
        raw = lines[i + 1].strip()
        if len(raw) != n or any(c not in "01" for c in raw):
            raise MatrixFormatError(
                f"line {ln}: expected {quoted(n)} characters from {{0,1}}"
            )
        bits = 0
        for j, c in enumerate(raw):
            if c == "1":
                bits |= 1 << j
        rows.append(bits)
    for idx in range(n + 1, len(lines)):
        if lines[idx].strip():
            raise MatrixFormatError(
                f"line {idx + 1}: unexpected content after the matrix"
            )
    return BitMatrix(n, tuple(rows))


def reference_transpose_rows(m):
    """Rows of the transpose of m, one set bit at a time.

    A copy of BitMatrix.transpose from before it zipped the rows' binary
    texts, kept as an oracle.
    """
    cols = [0] * m.n
    for i, r in enumerate(m.row_bits):
        for j in iter_support(r):
            cols[j - 1] |= 1 << i
    return tuple(cols)


def reference_generate_cup(n: int) -> tuple[PseudoGraph, ...]:
    """All cup graphs on n vertices, sorted by packed adjacency rows.

    Breadth-first closure of the two extension maps starting from the
    single loop; duplicates (the maps can collide) are merged.  For
    n = 0 the empty graph stands alone.

    A copy of the edge-set enumeration that the ternary code replaced,
    kept as an oracle for generate_cup's graphs and their order.  It
    runs the edge-set maps above, not the library's row maps.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (PseudoGraph((), frozenset()),)
    current: list[PseudoGraph] = [PseudoGraph((1,), frozenset({(1, 1)}))]
    for _ in range(n - 1):
        seen: dict[tuple[int, ...], PseudoGraph] = {}
        for g in current:
            for h in (
                reference_extend_right(g),
                reference_extend_left(shifted(g)),
            ):
                seen[h.rows] = h
        current = list(seen.values())
    current.sort(key=lambda g: g.rows)
    return tuple(current)


def reference_peel(rows):
    """Decide unique pressability by undoing the extension maps.

    A second decider, kept as an oracle for the recognizer: every cup
    on k + 1 vertices is L or R of a cup on k, so the core (the nonzero
    rows) is peeled one vertex at a time down to a single loop.  With
    exactly one looped vertex u it undoes L: press u (every pair inside
    N(u) toggles, loops included) and drop it; u is pressed before the
    rest.  With more it undoes R: drop a vertex v whose row is the
    looped set exactly and which is looped iff k - 1 is even, k the
    vertices left; v is pressed after the rest.  Any such v will do:
    two of them are twins.  A peel that leaves a zero row, or no
    looped vertex, or no such v, rejects.

    Each step is the exact inverse of its map, so a yes rebuilds the
    core from a single loop by the word, and a cup is connected: no
    reach is needed.  A cup with one looped vertex presses it first,
    and one with more was last extended by R, so the peel misses no cup.

    Returns ``(order, word)``, the press-order row indices and the word
    that cup_from_choices builds the core from in that order, or None;
    the edgeless graph gives ``([], "")``.
    """
    rows = list(rows)
    live = sum(1 << i for i, r in enumerate(rows) if r)
    if not live:
        return [], ""
    front, back, letters = [], [], []
    while live & live - 1:
        looped = sum(r & 1 << i for i, r in enumerate(rows))
        if not looped:
            return None
        if not looped & looped - 1:
            u = looped.bit_length() - 1
            pivot = rows[u]
            for j in iter_support(pivot):
                rows[j - 1] ^= pivot
            front.append(u)
            letters.append("L")
        else:
            # R looped the new vertex iff k - 1 was even.
            loop = live.bit_count() % 2 == 1
            u = next((
                j - 1 for j in iter_support(live)
                if rows[j - 1] == looped and bool(looped >> j - 1 & 1) == loop
            ), None)
            if u is None:
                return None
            for j in iter_support(rows[u]):
                rows[j - 1] &= ~(1 << u)
            rows[u] = 0
            back.append(u)
            letters.append("R")
        live ^= 1 << u
        if not all(rows[j - 1] for j in iter_support(live)):
            return None
    last = live.bit_length() - 1
    if not rows[last] >> last & 1:
        return None
    return [*front, last, *reversed(back)], "".join(reversed(letters))


def run_cli(argv, stdin=None):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()
