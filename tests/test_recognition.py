"""Unit tests for the property check, the pipeline, and the oracles."""

import itertools
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pressgraph import generate, gf2, recognition
from pressgraph.graphs import _reach
from pressgraph import (
    BitMatrix,
    OracleBoundError,
    PropertyReport,
    PseudoGraph,
    REASON_MULTI_COMPONENT,
    REASON_TIE,
    REASON_UNPRESSABLE,
    RecognitionReport,
    UnpressableError,
    all_pseudographs,
    check_properties,
    count_sequences_bruteforce,
    find_pressing_order,
    from_adjacency,
    generate_cup,
    instructional_root,
    iter_support,
    parse_graph,
    pressing_length,
    principal_submatrix,
    random_cup,
    recognize,
    transpose_mul,
)
from conftest import (
    naive_greedy,
    naive_successful_sequences,
    random_symmetric_rows,
    reference_check_columns,
    reference_peel,
    reference_press,
)


# The smallest graph found whose greedy reaches PROP3 (column 6).
PROP3_GRAPH = parse_graph(
    (Path(__file__).parent / "data" / "prop3.graph").read_text()
)


def tie4_graph():
    """Graph of the square of the 4x4 candidate that breaks property 2.

    Greedy sees looped vertices 1 and 3 sharing the maximum degree, so
    recognition rejects before reaching the property check.
    """
    return PseudoGraph(
        (1, 2, 3, 4), frozenset({(1, 1), (1, 2), (1, 3), (3, 3), (3, 4)})
    )


def prop4_witness():
    return PseudoGraph(
        (1, 2, 3, 4),
        frozenset({(1, 1), (1, 2), (1, 3), (2, 4), (3, 3), (4, 4)}),
    )


# ------------------------------------------------------- check_properties


def test_properties_all_pass(good4):
    rep = check_properties(good4)
    assert rep.all_pass
    assert (rep.prop1, rep.prop2, rep.prop3, rep.prop4) == (
        True,
        True,
        True,
        True,
    )
    assert rep.first_failure() is None
    assert rep.column_weights == (1, 2, 2, 2)


def test_properties_weight_decrease(bad4):
    rep = check_properties(bad4)
    assert (rep.prop1, rep.prop2, rep.prop3, rep.prop4) == (
        True,
        False,
        True,
        False,
    )
    assert rep.column_weights == (1, 2, 3, 2)
    assert rep.fail2 == 4
    assert rep.fail4 == 4
    assert rep.first_failure() == (2, 4)
    assert not rep.all_pass


def test_properties_on_worked_example_root(example5_root):
    # columns of weight 0 in the middle break consecutiveness,
    # monotonicity, and the full-weight tail all at once
    rep = check_properties(example5_root)
    assert rep.column_weights == (1, 1, 0, 1, 1)
    assert (rep.fail1, rep.fail2, rep.fail3, rep.fail4) == (4, 3, None, 2)
    assert rep.first_failure() == (1, 4)


def test_properties_gap_rule():
    # weights (1, 2, 3, 3): column 5 would need weight > w_3 = 3
    u = BitMatrix.from_rows(
        [
            [1, 1, 1, 0, 0],
            [0, 1, 1, 1, 0],
            [0, 0, 1, 1, 1],
            [0, 0, 0, 1, 1],
            [0, 0, 0, 0, 1],
        ]
    )
    rep = check_properties(u)
    assert rep.column_weights == (1, 2, 3, 3, 3)
    assert rep.fail3 == 5
    assert rep.prop3 is False


def test_properties_odd_weight_tail():
    g = prop4_witness()
    u = instructional_root(g.adjacency_matrix()).matrix
    rep = check_properties(u)
    assert rep.prop4 is False and rep.fail4 == 4
    assert rep.first_failure() == (4, 4)


def test_properties_ones_must_end_at_diagonal():
    # column 2 has its one above the diagonal gap: {u_12=1, u_22=0}
    u = BitMatrix.from_rows([[1, 1], [0, 0]])
    rep = check_properties(u)
    assert rep.fail1 == 2
    # a one strictly below nothing: column fine, weights still counted
    assert rep.column_weights == (1, 1)


def test_properties_empty_matrix():
    rep = check_properties(BitMatrix.zero(0))
    assert rep.all_pass
    assert rep.column_weights == ()


def test_property_report_reads_each_verdict_off_its_failure():
    """On all 16 patterns of failed properties, each with its own
    witness column: propN holds exactly when failN is None, all_pass
    when none fails, first_failure names the lowest failure, and the
    reports are distinct records that survive pickle."""
    reports = set()
    for pattern in range(16):
        fails = [n + 2 if pattern >> n & 1 else None for n in range(4)]
        rep = PropertyReport(*fails, (1, 2))
        props = (rep.prop1, rep.prop2, rep.prop3, rep.prop4)
        assert props == tuple(f is None for f in fails)
        assert (rep.fail1, rep.fail2, rep.fail3, rep.fail4) == tuple(fails)
        assert rep.all_pass is (pattern == 0)
        low = (pattern & -pattern).bit_length()
        assert rep.first_failure() == (
            (low, low + 1) if pattern else None
        )
        twin = PropertyReport(*fails, (1, 2))
        assert rep == twin and hash(rep) == hash((*fails, (1, 2)))
        back = pickle.loads(pickle.dumps(rep))
        assert back == rep and hash(back) == hash(rep)
        assert (back.prop1, back.prop2, back.prop3, back.prop4) == props
        reports.add(rep)
    assert len(reports) == 16


def test_properties_hereditary_on_generated_roots():
    """Every leading principal block of a passing root passes too."""
    for n in range(1, 13):
        g = generate_cup(n)[0]
        u = instructional_root(g.adjacency_matrix()).matrix
        assert check_properties(u).all_pass
        for k in range(1, n + 1):
            assert check_properties(principal_submatrix(u, 1, k)).all_pass


def test_roots_of_generated_graphs_have_unit_diagonal_band():
    """Roots of connected uniquely pressable graphs carry ones on the
    whole diagonal and superdiagonal."""
    for n in range(1, 11):
        for g in generate_cup(n):
            u = instructional_root(g.adjacency_matrix()).matrix
            for i in range(1, n + 1):
                assert u.bit(i, i) == 1
            for i in range(1, n):
                assert u.bit(i, i + 1) == 1


# --------------------------------------------------------------- recognize


def test_recognize_yes_golden(cup2):
    rep = recognize(cup2)
    assert rep.verdict is True
    assert rep.sequence == (1, 2)
    assert rep.stripped == ()
    assert rep.to_text() == "verdict: yes\nsequence: 1 2\n"


def test_recognize_strips_trivial_vertices():
    g = PseudoGraph((1, 2, 3), frozenset({(2, 2), (2, 3)}))
    rep = recognize(g)
    assert rep.verdict and rep.sequence == (2, 3)
    assert rep.stripped == (1,)
    assert rep.to_text() == "verdict: yes\nsequence: 2 3\nstripped: 1\n"


def test_recognize_empty_graph():
    rep = recognize(PseudoGraph((), frozenset()))
    assert rep.verdict and rep.sequence == ()
    assert rep.to_text() == "verdict: yes\nsequence:\n"
    only_trivial = recognize(PseudoGraph((1, 2), frozenset()))
    assert only_trivial.verdict and only_trivial.stripped == (1, 2)


def test_recognize_multi_component(example5):
    rep = recognize(from_adjacency(example5))
    assert not rep.verdict
    assert rep.reason == REASON_MULTI_COMPONENT
    assert rep.stripped == (3,)
    # an isolated looped vertex counts as a non-trivial component
    g = PseudoGraph((1, 2, 3), frozenset({(1, 1), (2, 2), (2, 3)}))
    assert recognize(g).reason == REASON_MULTI_COMPONENT


def test_recognize_unpressable():
    rep = recognize(PseudoGraph((1, 2), frozenset({(1, 2)})))
    assert not rep.verdict
    assert rep.reason == REASON_UNPRESSABLE
    assert rep.to_text() == "verdict: no\nreason: UNPRESSABLE\n"


def test_recognize_tie():
    rep = recognize(tie4_graph())
    assert not rep.verdict
    assert rep.reason == REASON_TIE
    assert rep.column is None
    assert rep.to_text() == "verdict: no\nreason: TIE\n"
    # the tie is honest: two distinct successful sequences exist
    assert count_sequences_bruteforce(tie4_graph()) == 2
    assert tie4_graph().is_successful((1, 2, 3, 4))
    assert tie4_graph().is_successful((3, 4, 1, 2))


def test_recognize_tie_means_two_sequences():
    """TIE claims two successful sequences: every graph with n <= 4,
    and every eighth one with n = 5, that recognize rejects with TIE
    has at least two."""
    graphs = itertools.chain(
        *(all_pseudographs(n) for n in range(0, 5)),
        itertools.islice(all_pseudographs(5), 0, None, 8),
    )
    ties = 0
    for g in graphs:
        if recognize(g).reason == REASON_TIE:
            ties += 1
            assert count_sequences_bruteforce(g) >= 2
    assert ties > 0


def _mirror(m, rng):
    """Two copies of a random loopy graph on m vertices, joined by the
    rungs i -- i + m and relabeled at random.  Swapping the copies is
    an automorphism, so a looped vertex of maximum degree always has a
    twin: the greedy ties at its first step."""
    half = {
        (u, v)
        for u in range(1, m + 1)
        for v in range(u, m + 1)
        if rng.random() < 0.5
    }
    edges = half | {(u + m, v + m) for u, v in half}
    edges |= {(i, i + m) for i in range(1, m + 1)}
    perm = list(range(1, 2 * m + 1))
    rng.shuffle(perm)
    edges = {tuple(sorted((perm[u - 1], perm[v - 1]))) for u, v in edges}
    return PseudoGraph(range(1, 2 * m + 1), edges)


def test_recognize_presses_nothing_past_the_first_tie():
    """recognize's greedy, _greedy(rows, True), makes first_tie - 1
    presses on a TIE reject, where the full greedy runs on, and returns
    the rows reference_press leaves along those presses: a seeded
    mirrored graph on 64 vertices, and every graph with n <= 4."""
    mirror = _mirror(32, random.Random(64))
    full = find_pressing_order(mirror)
    assert full.first_tie == 1 and len(full.permutation) > 1
    later_ties = 0
    for g in [mirror, *(g for n in range(5) for g in all_pseudographs(n))]:
        if recognize(g).reason != REASON_TIE:
            assert g is not mirror
            continue
        tie = naive_greedy(g)[1]
        order, _, first_tie, rows = gf2._greedy(g.rows, True)
        assert first_tie == tie and len(order) == tie - 1
        want = list(g.rows)
        for p in order:
            reference_press(want, p, range(g.n))
        assert rows == want
        later_ties += tie > 1
    assert later_ties > 0


def test_recognize_property_failure():
    rep = recognize(prop4_witness())
    assert not rep.verdict
    assert (rep.reason, rep.column) == ("PROP4", 4)
    assert rep.to_text() == "verdict: no\nreason: PROP4 col 4\n"
    assert count_sequences_bruteforce(prop4_witness()) == 4


def test_recognize_accepts_path_with_one_loop(good4):
    g = from_adjacency(transpose_mul(good4))
    rep = recognize(g)
    assert rep.verdict and rep.sequence == (1, 2, 3, 4)


def test_recognize_handles_arbitrary_labels():
    g = PseudoGraph((5, 9), frozenset({(5, 5), (5, 9)}))
    rep = recognize(g)
    assert rep.verdict and rep.sequence == (5, 9)


def test_recognize_matches_bruteforce_exhaustively():
    """recognize says yes exactly when the successful-sequence count is
    1, over every pseudo-graph on up to 4 vertices."""
    for n in range(0, 5):
        for g in all_pseudographs(n):
            want = len(naive_successful_sequences(g)) == 1
            assert recognize(g).verdict == want


# ----------------------------------------------------------------- oracles


def test_bruteforce_counts():
    assert count_sequences_bruteforce(PseudoGraph((), frozenset())) == 1
    assert count_sequences_bruteforce(PseudoGraph((1, 2), frozenset())) == 1
    assert (
        count_sequences_bruteforce(
            PseudoGraph((1, 2), frozenset({(1, 1), (2, 2), (1, 2)}))
        )
        == 2
    )
    assert count_sequences_bruteforce(PseudoGraph((1,), frozenset({(1, 1)}))) == 1
    # unpressable graphs have no successful sequence at all
    assert count_sequences_bruteforce(PseudoGraph((1, 2), frozenset({(1, 2)}))) == 0


def test_bruteforce_agrees_with_naive_enumeration():
    for n in range(0, 5):
        for g in all_pseudographs(n):
            assert count_sequences_bruteforce(g) == len(
                naive_successful_sequences(g)
            )


def test_bruteforce_bound():
    g = PseudoGraph(tuple(range(1, 12)), frozenset())
    with pytest.raises(OracleBoundError):
        count_sequences_bruteforce(g)
    assert count_sequences_bruteforce(g, bound=11) == 1


def test_bruteforce_caps_any_bound_before_the_memo(monkeypatch):
    """bound=30 on 17 looped isolated vertices is refused at once, by
    the cap ORACLE_MAX_N = 16, before any state is pressed; 16 such
    vertices get through to the memo."""

    class Pressed(Exception):
        pass

    def refuse(rows, p):
        raise Pressed

    def looped_isolated(n):
        return PseudoGraph(
            tuple(range(1, n + 1)), frozenset((v, v) for v in range(1, n + 1))
        )

    monkeypatch.setattr(recognition, "_press", refuse)
    assert recognition.ORACLE_MAX_N == 16
    with pytest.raises(OracleBoundError, match="oracle bound is 16"):
        count_sequences_bruteforce(looped_isolated(17), bound=30)
    with pytest.raises(Pressed):
        count_sequences_bruteforce(looped_isolated(16), bound=30)


def test_pressing_length(cup2, example5):
    assert pressing_length(cup2) == 2
    assert pressing_length(PseudoGraph((1, 2), frozenset())) == 0
    # two 2-cliques press in one step each
    assert pressing_length(from_adjacency(example5)) == 2
    for n in (3, 5, 8):
        assert pressing_length(generate_cup(n)[0]) == n


def test_pressing_length_is_the_length_of_every_successful_sequence():
    """On all 1,099 graphs with n <= 4: the length of every successful
    sequence, or UnpressableError with a loopless component exactly
    when there is no successful sequence."""
    for n in range(5):
        for g in all_pseudographs(n):
            seqs = naive_successful_sequences(g)
            if seqs:
                assert {len(s) for s in seqs} == {pressing_length(g)}
                continue
            with pytest.raises(UnpressableError) as info:
                pressing_length(g)
            comp = info.value.component
            assert comp in [c.labels for c in g.components()]
            assert len(comp) > 1
            assert not g.looped_vertices() & set(comp)


# ------------------------------------------- recognize vs a second elimination


def reference_recognize(g):
    """recognize rebuilt from public calls with a second elimination.

    The greedy order is found first, by naive_greedy on edge sets; then
    the adjacency is reordered to that order, factored again by
    instructional_root, and the root is checked by check_properties.

    The reason is the first certificate met.  A stall shows only after
    the greedy's last press, and a tie needs two looped vertices, so a
    tie at any step comes before a stall: TIE wins over UNPRESSABLE.
    """
    comps = g.components()
    stripped = tuple(
        sorted(lab for c in comps if c.trivial for lab in c.labels)
    )
    nontrivial = [c for c in comps if not c.trivial]
    if len(nontrivial) > 1:
        return RecognitionReport(
            False, reason=REASON_MULTI_COMPONENT, stripped=stripped
        )
    if not nontrivial:
        return RecognitionReport(True, sequence=(), stripped=stripped)
    core = g.induced(nontrivial[0].labels)
    seq, first_tie, stalled = naive_greedy(core)
    if first_tie is not None:
        return RecognitionReport(False, reason=REASON_TIE, stripped=stripped)
    if stalled:
        return RecognitionReport(
            False, reason=REASON_UNPRESSABLE, stripped=stripped
        )
    full = seq + tuple(sorted(set(core.labels) - set(seq)))
    reordered = core.relabel({lab: t for t, lab in enumerate(full, 1)})
    root = instructional_root(reordered.adjacency_matrix())
    failure = check_properties(root.matrix).first_failure()
    if failure is None:
        return RecognitionReport(True, sequence=seq, stripped=stripped)
    return RecognitionReport(
        False, reason=f"PROP{failure[0]}", column=failure[1], stripped=stripped
    )


def _scatter(g, rng, spare=3):
    """g with labels spread over a wider range, plus isolated padding."""
    n = g.n + spare
    labels = sorted(rng.sample(range(1, 4 * n + 1), n))
    rng.shuffle(labels)
    mapping = dict(zip(g.labels, labels))
    edges = {(mapping[u], mapping[v]) for u, v in g.edges}
    return PseudoGraph(sorted(labels), edges)


def test_recognize_equals_second_elimination_exhaustively():
    """Every graph with n <= 4, every eighth one with n = 5, and a
    PROP3 graph on 6 vertices: between them, every reason code."""
    graphs = itertools.chain(
        *(all_pseudographs(n) for n in range(0, 5)),
        itertools.islice(all_pseudographs(5), 0, None, 8),
        [PROP3_GRAPH],
    )
    reasons = set()
    for g in graphs:
        got = recognize(g)
        assert got == reference_recognize(g)
        reasons.add(got.reason)
    assert reasons == {
        None,
        REASON_MULTI_COMPONENT,
        REASON_UNPRESSABLE,
        REASON_TIE,
        "PROP1",
        "PROP2",
        "PROP3",
        "PROP4",
    }


def test_decide_equals_second_elimination():
    """The census core on bare rows, its order mapped to labels, against
    the second elimination: every graph with n <= 4, every fifth one
    with n = 5, and a PROP3 graph on 6 vertices.  Column weights come
    back on yes only."""
    graphs = itertools.chain(
        *(all_pseudographs(n) for n in range(0, 5)),
        itertools.islice(all_pseudographs(5), 0, None, 5),
        [PROP3_GRAPH],
    )
    reasons = set()
    for g in graphs:
        reason, column, order, weights = recognition._decide(g.rows)
        seq = tuple(g.labels[i] for i in order) if reason is None else None
        want = reference_recognize(g)
        got = (reason is None, seq, reason, column)
        assert got == (want.verdict, want.sequence, want.reason, want.column)
        # Weights only on yes, one per nonzero row.
        assert len(weights) == (reason is None) * (g.n - g.rows.count(0))
        reasons.add(reason)
    assert reasons == {
        None,
        REASON_MULTI_COMPONENT,
        REASON_UNPRESSABLE,
        REASON_TIE,
        "PROP1",
        "PROP2",
        "PROP3",
        "PROP4",
    }


def test_recognize_equals_second_elimination_on_random_graphs():
    rng = random.Random(2024)
    reasons = set()
    for trial in range(600):
        n = rng.randint(1, 40)
        if trial % 2:
            # Dense random graphs mostly stop at a tie or a stall.
            p = rng.choice((0.05, 0.1, 0.3, 0.5))
            labels = range(1, n + 1)
            pairs = [(u, v) for u in labels for v in labels if u <= v]
            g = PseudoGraph(labels, {e for e in pairs if rng.random() < p})
        else:
            # Cups with a few toggled pairs: some reach the property checks.
            g = random_cup(n, rng)
            toggled = {
                tuple(sorted(rng.choices(g.labels, k=2)))
                for _ in range(rng.randint(1, 3))
            }
            g = PseudoGraph(g.labels, g.edges ^ toggled)
        g = _scatter(g, rng, spare=rng.randint(0, 3))
        got = recognize(g)
        assert got == reference_recognize(g)
        reasons.add(got.reason)
    assert {None, REASON_TIE, REASON_UNPRESSABLE, "PROP1"} <= reasons


def test_recognize_equals_second_elimination_on_permuted_cups():
    rng = random.Random(256)
    for _ in range(3):
        g = _scatter(random_cup(256, rng), rng, spare=0)
        got = recognize(g)
        assert got.verdict
        assert got == reference_recognize(g)
        assert g.is_successful(got.sequence)


def _permuted_rows(rows, perm, spare):
    """rows with row i moved to perm[i], and spare zero rows at the
    positions perm leaves free."""
    out = [0] * (len(rows) + spare)
    for i, r in enumerate(rows):
        out[perm[i]] = sum(1 << perm[j - 1] for j in iter_support(r))
    return out


def test_recognize_at_n_1024_past_the_small_int_cache():
    """A permuted, padded cup at n = 1024 from a 3:1-R word, so that
    most row indices lie above 256, past CPython's small-int cache: the
    greedy finds the planted sequence, its pivots are _eliminate's
    along it, and the same cup with one pair flipped is refused."""
    rng = random.Random(1024)
    word = "".join(rng.choices("LR", weights=(1, 3), k=1023))
    cup = generate.cup_from_choices(word)
    spare = 8
    perm = rng.sample(range(cup.n + spare), cup.n)
    rows = _permuted_rows(cup.rows, perm, spare)
    labels = tuple(range(1, len(rows) + 1))
    got = recognize(PseudoGraph._from_rows(labels, rows))
    assert got.verdict
    assert got.sequence == tuple(p + 1 for p in perm)
    order, pivots, first_tie, pressed = gf2._greedy(rows, True)
    assert (order, first_tie, any(pressed)) == (perm, None, False)
    assert pivots == gf2._eliminate(list(rows), order)
    u, v = perm[300], perm[700]
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    assert not recognize(PseudoGraph._from_rows(labels, rows)).verdict


def test_column_weights_match_a_per_column_count():
    """Whether or not property 1 holds, the reported weights are the
    column sums."""
    rng = random.Random(7)
    mats = [
        instructional_root(g.adjacency_matrix()).matrix
        for n in range(1, 9)
        for g in generate_cup(n)
    ]
    for _ in range(300):
        n = rng.randint(0, 12)
        mats.append(
            BitMatrix(n, [rng.getrandbits(n) >> i << i for i in range(n)])
        )
    for u in mats:
        rep = check_properties(u)
        want = tuple(u.column(j).weight() for j in range(1, u.n + 1))
        assert rep.column_weights == want


def _banded(weights, order):
    """Rows whose column j (in ``order``) holds ones in rows
    j - w_j + 1 .. j, so property 1 holds: column weights w."""
    rows = [0] * len(order)
    for j, w in enumerate(weights):
        for t in range(j - w + 1, j + 1):
            rows[t] |= 1 << order[j]
    return rows


# (rows, order, first failure) reaching each outcome of _check_columns:
# every property passing, a column whose run of ones breaks before its diagonal
# (the Counter path), w_1 != 1, a drop in weight, a weight above 2 not
# growing within two columns, and an odd column followed by one that
# is not full.
CHECK_COLUMNS_CASES = [
    (_banded((1, 2, 2, 2), range(4)), range(4), None),
    ([0b1011, 0b0110, 0b1100, 0b1000], [0, 1, 2, 3], (1, 4)),
    # Columns 1-4 are bits 3, 1, 0, 2; row 2 misses column 3's bit 0.
    ([0b1011, 0b0110, 0b0101, 0b0100], [3, 1, 0, 2], (1, 3)),
    (_banded((0, 1), range(2)), range(2), (2, 1)),
    (_banded((1, 2, 3, 2), range(4)), range(4), (2, 4)),
    (_banded((1, 2, 3, 3, 3), [4, 2, 0, 1, 3]), [4, 2, 0, 1, 3], (3, 5)),
    (_banded((1, 2, 3, 3), [2, 0, 3, 1]), [2, 0, 3, 1], (4, 4)),
]


@pytest.mark.parametrize("rows, order, first", CHECK_COLUMNS_CASES)
def test_check_columns_cases_reach_their_outcome(rows, order, first):
    """Each case fails first at its named property and column, or
    passes, under the reference and under _check_columns alike."""
    got = recognition._check_columns(rows, order)
    assert got == reference_check_columns(rows, order)
    failed = [(k, col) for k, col in enumerate(got[0], 1) if col]
    assert (failed[0] if failed else None) == first


@st.composite
def _triangular_cases(draw):
    """Rows upper-triangular in a drawn column order: banded columns of
    drawn weights, then up to two entries on or above the diagonal
    toggled, which may break property 1."""
    n = draw(st.integers(0, 9))
    order = draw(st.permutations(range(n)))
    weights = [draw(st.integers(0, j + 1)) for j in range(n)]
    rows = _banded(weights, order)
    if n:
        spots = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        for t, j in draw(st.lists(spots, max_size=2)):
            rows[min(t, j)] ^= 1 << order[max(t, j)]
    return rows, order


@settings(max_examples=400, deadline=None)
@given(case=_triangular_cases())
@example(case=CHECK_COLUMNS_CASES[2][:2])
@example(case=CHECK_COLUMNS_CASES[5][:2])
@example(case=CHECK_COLUMNS_CASES[6][:2])
def test_check_columns_matches_the_reference_on_any_triangular_rows(case):
    rows, order = case
    assert recognition._check_columns(rows, order) == (
        reference_check_columns(rows, order)
    )


def test_check_columns_matches_the_reference_on_every_greedy_root():
    """On every graph of level 5 (every graph with n <= 5, padded)
    whose greedy ends with no tie and no stall, the pivots and order
    that _decide checks give the reference's failures and weights."""
    checked = 0
    for rows in generate._mask_rows(5, range(1 << 15)):
        order, pivots, first_tie, pressed = gf2._greedy(rows, True)
        if first_tie is None and not any(pressed):
            assert recognition._check_columns(pivots, order) == (
                reference_check_columns(pivots, order)
            ), rows
            checked += 1
    assert checked == 3026


def test_greedy_with_no_tie_and_no_stall_presses_every_nonzero_row():
    """A stop-at-tie greedy that ends with no tie and no stall has
    pressed every vertex with a nonzero row, so _decide checks the
    columns of the whole core.  The proof is in _greedy's docstring: a
    row zeroed without its own press equalled its pivot, so it was
    looped with the maximum degree and the scan tied.  Checked on every
    graph with n <= 5, then on seeded random graphs and on permuted
    cups with a few flipped pairs, up to n = 60."""

    def check(rows):
        order, _, first_tie, pressed = gf2._greedy(rows, True)
        if first_tie is not None or any(pressed):
            return 0
        assert set(order) == {i for i, r in enumerate(rows) if r}, rows
        return 1

    completions = sum(
        check(g.rows) for n in range(6) for g in all_pseudographs(n)
    )
    assert completions == 3241

    rng = random.Random(60)
    swept = 0
    for trial in range(4000):
        n = rng.randint(1, 60)
        labels = range(1, n + 1)
        if trial % 2:
            p = rng.uniform(0.03, 0.5)
            pairs = itertools.combinations_with_replacement(labels, 2)
            g = PseudoGraph(labels, {e for e in pairs if rng.random() < p})
        else:
            flipped = {
                tuple(sorted(rng.choices(labels, k=2)))
                for _ in range(rng.randint(0, 3))
            }
            g = random_cup(n, rng)
            g = _scatter(PseudoGraph(labels, g.edges ^ flipped), rng)
        swept += check(g.rows)
    assert swept > 500


def test_a_yes_needs_no_component_check():
    """The connectivity half of a yes, proved in _decide's docstring,
    on every graph with n <= 5 and a nonzero row.  Where the greedy
    presses every nonzero row with no tie, the reach covers every
    nonzero row, also where the columns then pass.  Run past its ties
    on a disconnected graph that does not stall, the greedy ties; where
    it still presses every nonzero row, its columns fail property 4,
    since the second component's first pivot starts a column of weight
    1."""
    completed = certified = disconnected = pressed_all = 0
    for n in range(1, 6):
        for g in all_pseudographs(n):
            rows = g.rows
            first = next(filter(None, rows), 0)
            if not first:
                continue
            nonzero = {i for i, r in enumerate(rows) if r}
            connected = _reach(rows, first).bit_count() == len(nonzero)
            order, pivots, first_tie, pressed = gf2._greedy(rows, False)
            if any(pressed):
                continue
            every_row = set(order) == nonzero
            if not connected:
                assert first_tie is not None, rows
                disconnected += 1
                if every_row:
                    fails, _ = recognition._check_columns(pivots, order)
                    assert fails[3] is not None, rows
                    pressed_all += 1
            elif first_tie is None:
                assert every_row, rows
                fails, _ = recognition._check_columns(pivots, order)
                completed += 1
                certified += fails == (None, None, None, None)
    assert (completed, certified) == (3235, 1387)
    assert (disconnected, pressed_all) == (4582, 2401)


def test_recognize_names_multi_component_where_the_greedy_presses_all():
    """Two disjoint cups of 40 and 60 vertices, permuted: each alone is
    uniquely pressable, and the greedy run past its ties presses all 100
    vertices, with its first tie at step 57.  The reach runs first, so
    the verdict is MULTI_COMPONENT and nothing is pressed."""
    rng = random.Random(1)
    a, b = random_cup(40, rng), random_cup(60, rng)
    perm = rng.sample(range(100), 100)
    rows = _permuted_rows([*a.rows, *(r << 40 for r in b.rows)], perm, 0)
    order, _, first_tie, pressed = gf2._greedy(rows, False)
    assert (len(order), first_tie, any(pressed)) == (100, 57, False)
    rep = recognize(PseudoGraph._from_rows(tuple(range(1, 101)), rows))
    assert rep.to_text() == "verdict: no\nreason: MULTI_COMPONENT\n"
    assert recognition._decide(rows) == (REASON_MULTI_COMPONENT, None, [], ())


def test_recognize_stays_on_the_rows(monkeypatch):
    """recognize builds no Component list and no induced copy, on any
    path, and UNPRESSABLE rejects never build the stalled component;
    find_pressing_order's UnpressableError finds it without either."""
    graphs = list(all_pseudographs(4))
    graphs.append(PseudoGraph((1, 2, 3, 4, 5), {(2, 3), (3, 5)}))
    want = [reference_recognize(g) for g in graphs]

    def refuse(*args, **kwargs):
        raise AssertionError("recognize left the graph's rows")

    monkeypatch.setattr(PseudoGraph, "components", refuse)
    monkeypatch.setattr(PseudoGraph, "induced", refuse)
    got = [recognize(g) for g in graphs]
    assert got == want
    assert got[-1] == RecognitionReport(
        False, reason=REASON_UNPRESSABLE, stripped=(1, 4)
    )

    for g, component in (
        (PseudoGraph((1, 2, 3), frozenset({(1, 2), (2, 3)})), (1, 2, 3)),
        (PseudoGraph((1, 2, 3, 4), frozenset({(1, 1), (3, 4)})), (3, 4)),
        # Of two stalled components, the one with the smallest label.
        (PseudoGraph((1, 2, 3, 4), frozenset({(2, 4), (1, 3)})), (1, 3)),
    ):
        with pytest.raises(UnpressableError) as exc:
            find_pressing_order(g)
        text = f"pressing stalled: loopless component {component} remains"
        assert exc.value.component == component
        assert str(exc.value) == text
        public = UnpressableError(component)
        assert (public.component, str(public)) == (component, text)


def test_recognize_reads_weights_by_column_past_the_core_size():
    """Loopless isolated vertices below and between the core's labels
    put pivot-row columns past the core size; weights are still read by
    column, on the yes path and on the property failures: every graph
    with n = 4, and the n = 5 graphs that reach the property check."""
    graphs = itertools.chain(
        all_pseudographs(4),
        (g for g in all_pseudographs(5) if recognize(g).column is not None),
    )
    reasons = set()
    for g in graphs:
        # Core label v becomes 2v + 1; 1 and the even labels pad it.
        spread = {(2 * u + 1, 2 * v + 1) for u, v in g.edges}
        h = PseudoGraph(range(1, 2 * g.n + 2), spread)
        got = recognize(h)
        assert got == reference_recognize(h)
        reasons.add(got.reason)
    assert {None, "PROP1", "PROP2", "PROP4"} <= reasons


# ------------------------------------------------------- recognize vs peel


@st.composite
def _peel_cases(draw):
    """A permuted cup with n <= 120 and up to 3 padding vertices, the
    same with one pair flipped (a loop or an edge), or a random graph
    with n <= 30 at a drawn density."""
    kind = draw(st.sampled_from(("cup", "flipped", "random")))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "random":
        n = draw(st.integers(0, 30))
        density = draw(st.sampled_from((0.05, 0.15, 0.3, 0.6)))
        rows = random_symmetric_rows(n, density, rng)
        return PseudoGraph._from_rows(tuple(range(1, n + 1)), rows)
    cup = random_cup(draw(st.integers(1, 120)), rng)
    g = _scatter(cup, rng, spare=draw(st.integers(0, 3)))
    if kind == "cup":
        return g
    u, v = sorted(draw(st.lists(
        st.sampled_from(g.labels), min_size=2, max_size=2
    )))
    return PseudoGraph(g.labels, g.edges ^ {(u, v)})


@settings(max_examples=300, deadline=None)
@given(g=_peel_cases())
def test_peel_and_recognize_agree(g):
    """Peel, which undoes the extension maps, and the recognizer give
    the same verdict and, on yes, the same sequence; the word peel
    reads off rebuilds the core in that order."""
    got = recognize(g)
    peeled = reference_peel(g.rows)
    assert got.verdict == (peeled is not None), g
    if peeled is None:
        return
    order, word = peeled
    assert got.sequence == tuple(g.labels[i] for i in order)
    at = {i: t for t, i in enumerate(order)}
    core = tuple(
        sum(1 << at[j - 1] for j in iter_support(g.rows[i])) for i in order
    )
    assert core == (generate.cup_from_choices(word).rows if order else ())
