"""Unit tests for root construction and the greedy order finder."""

import copy
import itertools
import pickle
import random
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from pressgraph import generate, gf2
from pressgraph import (
    BitMatrix,
    InvalidPressError,
    NotOrderPressableError,
    PressingOrder,
    PseudoGraph,
    UnpressableError,
    all_pseudographs,
    cup_from_choices,
    find_pressing_order,
    from_adjacency,
    generate_cup,
    gf2_dot,
    instructional_root,
    principal_submatrix,
    random_cup,
    transpose_mul,
)
from conftest import (
    naive_greedy,
    naive_successful_sequences,
    random_symmetric_rows,
    reference_find_pressing_order,
    reference_greedy,
    run_cli,
)


# ----------------------------------------------------- instructional_root


def test_root_of_worked_example(example5, example5_root):
    root = instructional_root(example5)
    assert root.matrix == example5_root
    assert root.matrix.to_text() == example5_root.to_text()
    assert root.order == (1, 2, 3, 4, 5)
    assert transpose_mul(root.matrix) == example5


def test_root_small_cases(cup2):
    assert instructional_root(cup2.adjacency_matrix()).matrix == (
        BitMatrix.from_rows([[1, 1], [0, 1]])
    )
    assert instructional_root(BitMatrix.zero(4)).matrix == BitMatrix.zero(4)
    assert instructional_root(BitMatrix.zero(0)).matrix == BitMatrix.zero(0)


def test_root_rows_are_pressed_adjacency_rows():
    """Row j of the root is row j of the graph pressed through j-1."""
    g = PseudoGraph(
        (1, 2, 3, 4), frozenset({(1, 1), (1, 2), (1, 4), (2, 3)})
    )
    u = instructional_root(g.adjacency_matrix()).matrix
    state = g
    for j in (1, 2, 3, 4):
        assert u.row(j).bits == state.adjacency_matrix().row(j).bits
        if state.is_looped(j):
            state = state.press(j)
    assert u.row_bits == (0b1011, 0b1110, 0b1100, 0b1000)


def test_root_requires_symmetric_input():
    with pytest.raises(ValueError):
        instructional_root(BitMatrix.from_rows([[0, 1], [0, 0]]))


def test_root_order_validation(example5):
    with pytest.raises(ValueError):
        instructional_root(example5, order=(1, 2, 3))
    with pytest.raises(ValueError):
        instructional_root(example5, order=(1, 1, 2, 3, 4))
    labeled = instructional_root(example5, order=(10, 20, 30, 40, 50))
    assert labeled.order == (10, 20, 30, 40, 50)


@pytest.mark.parametrize("stuck", [8, 9, 17])
def test_root_stuck_across_block_edges(stuck):
    """A root U with one zero diagonal, at ``stuck``: U^T U presses in
    index order through ``stuck - 1``, then row ``stuck`` is zero while
    later rows are not.  With that diagonal set, the root is U again;
    with the rows from ``stuck`` on cleared, it is U cut there and
    padded with zero rows."""
    rng = random.Random(stuck)
    n = stuck + 4
    u = [rng.getrandbits(n - i) << i | 1 << i for i in range(n)]
    u[stuck - 1] &= ~(1 << (stuck - 1))
    with pytest.raises(NotOrderPressableError) as exc:
        instructional_root(transpose_mul(BitMatrix(n, u)))
    assert exc.value.stuck_index == stuck
    u[stuck - 1] |= 1 << (stuck - 1)
    full = BitMatrix(n, u)
    assert instructional_root(transpose_mul(full)).matrix == full
    cut = BitMatrix(n, u[: stuck - 1] + [0] * (n - stuck + 1))
    assert instructional_root(transpose_mul(cut)).matrix == cut


def test_root_detects_unpressable_order():
    # loop only on vertex 2: order (1, 2) starts on a zero diagonal
    a = PseudoGraph((1, 2), frozenset({(2, 2), (1, 2)})).adjacency_matrix()
    with pytest.raises(NotOrderPressableError) as exc:
        instructional_root(a)
    assert exc.value.stuck_index == 1

    # first press succeeds, then vertex 2 is loopless but still has edges
    b = BitMatrix.from_rows(
        [[1, 1, 0], [1, 1, 1], [0, 1, 0]]
    )
    with pytest.raises(NotOrderPressableError) as exc:
        instructional_root(b)
    assert exc.value.stuck_index == 2


def test_root_product_identity_on_generated_graphs():
    """transpose_mul(U) recovers the adjacency matrix wherever the
    natural order presses the graph to empty."""
    for n in range(1, 9):
        for g in generate_cup(n):
            a = g.adjacency_matrix()
            assert transpose_mul(instructional_root(a).matrix) == a
    for n in (16, 33, 64):
        a = random_cup(n).adjacency_matrix()
        assert transpose_mul(instructional_root(a).matrix) == a


def test_root_is_deterministic(example5):
    assert instructional_root(example5) == instructional_root(example5)


# ----------------------------------------------------- find_pressing_order


def test_greedy_order_known_cases(cup2):
    assert find_pressing_order(cup2) == PressingOrder((1, 2), None)

    # loop only on 2: greedy must start there
    g = PseudoGraph((1, 2), frozenset({(2, 2), (1, 2)}))
    assert find_pressing_order(g).permutation == (2, 1)

    empty = find_pressing_order(PseudoGraph((1, 2), frozenset()))
    assert empty == PressingOrder((), None)


def test_greedy_records_first_tie():
    # both vertices looped with degree 2: tie at step 1
    g = PseudoGraph((1, 2), frozenset({(1, 1), (2, 2), (1, 2)}))
    po = find_pressing_order(g)
    assert po.first_tie == 1
    assert po.permutation == (1,)  # smallest label wins, one press empties

    # degree gap at step 1, tie appears at step 2: pressing the star
    # center loops both leaves with equal degree
    h = PseudoGraph((1, 2, 3), frozenset({(1, 1), (1, 2), (1, 3)}))
    po = find_pressing_order(h)
    assert po.permutation == (1, 2)
    assert po.first_tie == 2


def test_greedy_degree_counts_the_loop():
    # vertex 3 has two plain edges, vertex 1 a loop and one edge: equal
    # row sums, so the smaller label is pressed first
    g = PseudoGraph(
        (1, 2, 3), frozenset({(1, 1), (1, 2), (2, 3), (3, 3)})
    )
    assert find_pressing_order(g).permutation[0] == 1


def test_greedy_unpressable_reports_component():
    with pytest.raises(UnpressableError) as exc:
        find_pressing_order(PseudoGraph((1, 2, 3), frozenset({(1, 2), (2, 3)})))
    assert exc.value.component == (1, 2, 3)

    # pressable part is consumed before the stuck component is reported
    g = PseudoGraph((1, 2, 3, 4), frozenset({(1, 1), (3, 4)}))
    with pytest.raises(UnpressableError) as exc:
        find_pressing_order(g)
    assert exc.value.component == (3, 4)


def test_unpressable_error_survives_a_pickle_round_trip():
    err = UnpressableError((3, 4))
    back = pickle.loads(pickle.dumps(err))
    assert (back.component, str(back)) == ((3, 4), str(err))
    assert str(err) == "pressing stalled: loopless component (3, 4) remains"


@pytest.mark.parametrize(
    "err, fields",
    [
        (NotOrderPressableError(3), {"stuck_index": 3}),
        (
            InvalidPressError(4, 2),
            {"vertex": 4, "position": 2, "missing": False},
        ),
        (
            InvalidPressError(4),
            {"vertex": 4, "position": None, "missing": False},
        ),
        (UnpressableError((3, 4)), {"component": (3, 4)}),
        (
            InvalidPressError(9, 1, missing=True),
            {"vertex": 9, "position": 1, "missing": True},
        ),
    ],
)
def test_errors_survive_pickle_and_copy(err, fields):
    """A round trip rebuilds each error from its fields, so the message
    is not doubled and no field is lost."""
    for back in (pickle.loads(pickle.dumps(err)), copy.copy(err)):
        assert type(back) is type(err)
        assert vars(back) == fields
        assert str(back) == str(err)


def test_greedy_outcome_exhaustive():
    """What greedy guarantees, over every pseudo-graph with up to 4
    vertices: a returned order presses the graph to empty, a failure
    certifies the graph is not uniquely pressable, and a graph with no
    successful sequence at all always fails.

    Greedy failure does NOT imply no successful sequence exists: a
    max-degree press may strand part of a pressable graph, e.g.
    {11, 12, 13, 22, 33} dies after pressing 1 but (2, 3, 1) succeeds.
    """
    stranded = PseudoGraph(
        (1, 2, 3), frozenset({(1, 1), (1, 2), (1, 3), (2, 2), (3, 3)})
    )
    assert stranded.is_successful((2, 3, 1))
    with pytest.raises(UnpressableError):
        find_pressing_order(stranded)

    for n in range(0, 5):
        for g in all_pseudographs(n):
            succ = naive_successful_sequences(g)
            try:
                po = find_pressing_order(g)
            except UnpressableError:
                assert len(succ) != 1
                continue
            assert g.apply_sequence(po.permutation).edges == frozenset()
            assert succ


def test_greedy_pivot_rows_are_the_root_in_graph_columns():
    """Reordered to the press order, the pivot rows of the greedy run to
    the end are the instructional root's rows; the unpressed vertices'
    rows are zero.  recognize checks the columns on exactly these rows."""
    graphs = [g for n in range(1, 7) for g in generate_cup(n)]
    graphs += list(all_pseudographs(3))
    graphs += [random_cup(n) for n in (16, 40)]
    for g in graphs:
        order, pivots, _, rows = gf2._greedy(g.rows, False)
        if any(rows):
            continue
        assert len(pivots) == len(order)
        full = order + sorted(set(range(g.n)) - set(order))
        got = [
            sum(1 << t for t, i in enumerate(full) if r >> i & 1)
            for r in pivots
        ]
        reordered = g.relabel({g.labels[i]: t for t, i in enumerate(full, 1)})
        root = instructional_root(reordered.adjacency_matrix()).matrix
        k = len(got)
        assert tuple(got) == root.row_bits[:k]
        assert not any(root.row_bits[k:])


def _stop_at_tie_graphs():
    """Every graph with n <= 4, then seeded random graphs up to n = 40:
    dense ones, which mostly tie or stall, and cups with a few toggled
    pairs, which tie late or not at all."""
    yield from itertools.chain(*(all_pseudographs(n) for n in range(5)))
    rng = random.Random(40)
    for trial in range(400):
        n = rng.randint(1, 40)
        labels = range(1, n + 1)
        if trial % 2:
            p = rng.choice((0.05, 0.1, 0.3, 0.5))
            pairs = itertools.combinations_with_replacement(labels, 2)
            yield PseudoGraph(labels, {e for e in pairs if rng.random() < p})
        else:
            g = random_cup(n, rng)
            toggled = {
                tuple(sorted(rng.choices(labels, k=2)))
                for _ in range(rng.randint(0, 2))
            }
            yield PseudoGraph(labels, g.edges ^ toggled)


def test_stop_at_tie_is_the_full_greedy_cut_at_its_first_tie():
    """_greedy(rows, True) is _greedy(rows, False) when nothing ties;
    else it stops at the first tie, before pressing, with the
    first_tie - 1 presses made before it and rows still nonzero."""
    # A star pressed at its looped center loops both leaves with equal
    # degree: a tie at step 2, after one press of pivot row 0b111.
    star = PseudoGraph((1, 2, 3), frozenset({(1, 1), (1, 2), (1, 3)}))
    order, pivots, tie, rows = gf2._greedy(star.rows, True)
    assert (order, pivots, tie, rows) == ([0], [0b111], 2, [0, 0b110, 0b110])
    kinds = set()
    for g in _stop_at_tie_graphs():
        full = gf2._greedy(g.rows, False)
        early = gf2._greedy(g.rows, True)
        order, pivots, tie, rows = full
        assert tie == naive_greedy(g)[1]
        if tie is None:
            kinds.add("stall" if any(rows) else "no tie")
            assert early == full
            continue
        kinds.add("tie, then stall" if any(rows) else "tie")
        e_order, e_pivots, e_tie, e_rows = early
        assert e_tie == tie
        assert (e_order, e_pivots) == (order[: tie - 1], pivots[: tie - 1])
        assert any(e_rows)
        # Each pivot row against the state it was read off.
        state = g
        for i, row in zip(e_order, e_pivots):
            assert row == state.rows[i]
            state = state.press(g.labels[i])
        assert tuple(e_rows) == state.rows
    assert kinds == {"no tie", "stall", "tie", "tie, then stall"}


def test_greedy_matches_the_inline_reference():
    """_greedy in both modes gives the old inline greedy's presses,
    pivot rows and first tie, and stalls where it raised; its wrapper
    find_pressing_order gives the same order, or the same component and
    message on a stall.  On every graph with n <= 4, every 8th with
    n = 5, and 400 random ones up to 40."""
    graphs = itertools.chain(
        _stop_at_tie_graphs(),
        itertools.islice(all_pseudographs(5), 0, None, 8),
    )
    kinds = set()
    for g in graphs:
        for stop in (False, True):
            order, pivots, tie, rows = gf2._greedy(g.rows, stop)
            alive = any(rows)
            try:
                want = reference_find_pressing_order(g, stop)
            except UnpressableError:
                assert alive and not (stop and tie is not None), (g, stop)
                kinds.add("stall")
                continue
            seq = tuple(g.labels[i] for i in order)
            assert (seq, not alive, tie, tuple(pivots)) == want, (g, stop)
            kinds.add(want[1])
        try:
            want = reference_find_pressing_order(g)
        except UnpressableError as stall:
            with pytest.raises(UnpressableError) as exc:
                find_pressing_order(g)
            assert exc.value.component == stall.component
            assert str(exc.value) == str(stall)
            continue
        assert find_pressing_order(g) == PressingOrder(want[0], want[2])
    assert kinds == {True, False, "stall"}


def test_greedy_equals_the_live_list_greedy_on_every_graph_up_to_five():
    """_greedy, scanning a loop mask and pressing through the pivot's
    bits, returns the first four fields of reference_greedy in both
    modes on every graph with n <= 5."""
    for n in range(6):
        for rows in generate._mask_rows(n, range(1 << n * (n + 1) // 2)):
            for stop in (False, True):
                got = gf2._greedy(rows, stop)
                assert got == reference_greedy(rows, stop)[:4], (rows, stop)


@st.composite
def _greedy_rows(draw):
    """Symmetric rows on n <= 64: random at a drawn density, or two
    mirrored copies of a random graph joined by rungs, which tie at
    the first step, or a random cup with a few pairs toggled, which
    ties late or not at all."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(("random", "mirror", "cup")))
    if kind == "cup":
        n = draw(st.integers(1, 64))
        rows = list(random_cup(n, rng).rows)
        for _ in range(draw(st.integers(0, 2))):
            u, v = rng.randrange(n), rng.randrange(n)
            rows[u] ^= 1 << v
            if u != v:
                rows[v] ^= 1 << u
        return rows
    m = draw(st.integers(1, 32 if kind == "mirror" else 64))
    density = draw(st.sampled_from((0.05, 0.3, 0.5, 0.9)))
    half = random_symmetric_rows(m, density, rng)
    if kind == "random":
        return half
    rows = half + [r << m for r in half]
    for i in range(m):
        rows[i] |= 1 << i + m
        rows[i + m] |= 1 << i
    perm = rng.sample(range(2 * m), 2 * m)
    moved = [0] * (2 * m)
    for i, r in enumerate(rows):
        moved[perm[i]] = sum(1 << perm[j] for j in range(2 * m) if r >> j & 1)
    return moved


@settings(max_examples=300, deadline=None)
@given(rows=_greedy_rows())
def test_greedy_equals_the_live_list_greedy_on_random_rows(rows):
    """The same on random symmetric rows up to n = 64, mirrored graphs
    that tie at the first step and nearly cup graphs among them."""
    for stop in (False, True):
        assert gf2._greedy(rows, stop) == reference_greedy(rows, stop)[:4]


def _watched_greedy(monkeypatch, rows, stop):
    """_greedy(rows, stop) with its table of pending presses watched.

    Returns the 4-tuple and ``(flushes, pending, mixed, fresh)``: how
    often a full table flushed, how many pivots still waited at the
    return, whether a pivot pressed straight into its rows came while
    others waited, and whether the scan read the rows straight after a
    full flush, over more than one looped row with none waiting.  The
    pivots of one run are distinct (each holds its own bit, which no
    later row holds), so those that joined the table mark the rest as
    pressed straight.  The looped rows before each step are the
    diagonal bits XORed with the pivots so far.
    """
    joined, flushes, pending = set(), [], []
    real_defer, real_flush = gf2._defer, gf2._flush

    def defer(rows, table, keys, piv):
        joined.add(piv)
        table, keys = real_defer(rows, table, keys, piv)
        flushes.append(keys == 0)
        return table, keys

    def flush(rows, table, keys):
        pending.append(len(table).bit_length() - 1)
        real_flush(rows, table, keys)

    with monkeypatch.context() as m:
        m.setattr(gf2, "_defer", defer)
        m.setattr(gf2, "_flush", flush)
        got = gf2._greedy(rows, stop)
    waiting, mixed, flushed, fresh = 0, False, False, False
    looped = sum(r & 1 << i for i, r in enumerate(rows))
    for piv in got[1]:
        if flushed and not waiting and looped & looped - 1:
            fresh = True
        if piv in joined:
            waiting = (waiting + 1) % 8
            flushed = flushed or not waiting
        else:
            mixed = mixed or waiting > 0
        looped ^= piv
    return got, (sum(flushes), pending[-1], mixed, fresh)


def test_greedy_equals_the_live_list_greedy_at_n_128_to_300(monkeypatch):
    """Past the sizes the hypothesis rows reach, _greedy returns the
    first four fields of reference_greedy in both modes, and
    find_pressing_order names reference_find_pressing_order's component
    on a stall.  The seeded cases cross full-table flushes, scan the
    rows straight right after one, press light pivots straight while
    heavy ones wait, and tie in stop mode and stall with pivots still
    waiting: cups with up to two pairs toggled, and sparse random
    graphs, which tie early and mostly stall."""
    seen = set()
    for seed in range(12):
        rng = random.Random(seed)
        n = rng.randint(128, 300)
        if seed % 3:
            rows = list(random_cup(n, rng).rows)
            for _ in range(seed % 3 - 1):
                u, v = rng.randrange(n), rng.randrange(n)
                rows[u] ^= 1 << v
                if u != v:
                    rows[v] ^= 1 << u
        else:
            rows = random_symmetric_rows(n, rng.choice((0.01, 0.02)), rng)
        for stop in (False, True):
            got, (flushes, pending, mixed, fresh) = _watched_greedy(
                monkeypatch, rows, stop
            )
            assert got == reference_greedy(rows, stop)[:4], (seed, stop)
            _, _, tie, pressed = got
            if flushes:
                seen.add("flush")
            if mixed:
                seen.add("mixed")
            if fresh:
                seen.add("scan right after a full flush")
            if stop and tie is not None and pending:
                seen.add("tie, pending")
            if any(pressed) and not stop and pending:
                seen.add("stall, pending")
        g = from_adjacency(BitMatrix(n, rows))
        try:
            want = reference_find_pressing_order(g)
        except UnpressableError as stall:
            with pytest.raises(UnpressableError) as exc:
                find_pressing_order(g)
            assert exc.value.component == stall.component
            continue
        assert find_pressing_order(g) == PressingOrder(want[0], want[2])
    assert seen == {
        "flush", "mixed", "scan right after a full flush", "tie, pending",
        "stall, pending",
    }


# A word drawn 3:1 toward R; the relabeled cup it builds is the
# committed fixture that the installed-package CI job recognizes.
CUP56_WORD = "RRRRRRRRRRRRRLRRLRRRRLRRLLRRLRRLRRLRLRRRLLRRRRRRRLRRRRL"
CUP56_SEQUENCE = (
    "18 27 32 17 6 20 22 2 5 31 1 8 19 45 51 3 40 48 9 56 10 14 28 39 "
    "55 33 23 49 29 52 11 38 12 26 4 35 41 46 30 37 13 24 15 25 53 16 "
    "36 47 44 50 42 34 54 43 7 21"
)


def test_cup56_fixture_flushes_the_table_and_keeps_its_sequence(
    monkeypatch,
):
    """tests/data/cup56.graph is the cup of CUP56_WORD relabeled by a
    seeded permutation; its greedy fills and flushes the table of
    pending presses and ends with pivots still waiting, and recognize
    prints its pinned unique sequence."""
    path = Path(__file__).parent / "data" / "cup56.graph"
    g = cup_from_choices(CUP56_WORD)
    g = g.relabel(dict(zip(g.labels, random.Random(45).sample(g.labels, 56))))
    assert path.read_text() == g.to_text()
    got, (flushes, pending, _, _) = _watched_greedy(
        monkeypatch, g.rows, True
    )
    assert got == reference_greedy(g.rows, True)[:4]
    assert flushes >= 1 and pending > 0
    code, out, err = run_cli(["recognize", str(path)])
    assert (code, out, err) == (
        0, f"verdict: yes\nsequence: {CUP56_SEQUENCE}\n", ""
    )
