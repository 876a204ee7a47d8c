"""Unit tests for extension builders, enumeration, counting, and census."""

import itertools
import math
import multiprocessing
import random

import pytest

from conftest import (
    exactly,
    reference_extend_left,
    reference_extend_right,
    reference_generate_cup,
    reference_grow,
    reference_peel,
    reference_press,
    shifted,
)
from pressgraph import generate, recognition
from pressgraph import (
    BitMatrix,
    CensusResult,
    InvalidPressError,
    NotUniquelyPressableError,
    PseudoGraph,
    RecognitionReport,
    all_pseudographs,
    canonical_form,
    census,
    count_sequences_bruteforce,
    cup_count,
    cup_from_choices,
    extend_left,
    extend_right,
    generate_cup,
    pressing_length,
    random_cup,
    recognize,
    total_count,
    transpose_mul,
    UnpressableError,
)

K1_LOOP = PseudoGraph((1,), frozenset({(1, 1)}))


# ------------------------------------------------------------- extensions


def test_extend_right_goldens(cup2):
    assert extend_right(K1_LOOP) == cup2
    # even input size: the new last vertex gains a loop
    assert extend_right(cup2) == PseudoGraph(
        (1, 2, 3), frozenset({(1, 1), (1, 2), (1, 3), (3, 3)})
    )


def test_extend_left_goldens(cup2):
    assert extend_left(K1_LOOP) == cup2
    assert extend_left(cup2) == PseudoGraph(
        (1, 2, 3), frozenset({(1, 1), (1, 2), (2, 3)})
    )


def test_extend_left_matches_the_edge_set_map_on_every_small_cup():
    """extend_left takes a cup on 1..n, as extend_right does: it is the
    edge-set L map on that cup shifted up by one."""
    for n in range(1, 11):
        for g in generate_cup(n):
            assert extend_left(g) == reference_extend_left(shifted(g))


def test_extensions_preserve_unique_pressability():
    for n in range(1, 7):
        for g in generate_cup(n):
            r = extend_right(g)
            l = extend_left(g)
            assert recognize(r).sequence == tuple(range(1, n + 2))
            assert recognize(l).sequence == tuple(range(1, n + 2))


def test_extensions_commute_on_even_sizes():
    for n in (2, 4, 6, 8):
        for g in generate_cup(n):
            right_then_left = extend_left(extend_right(g))
            left_then_right = extend_right(extend_left(g))
            assert right_then_left == left_then_right


def test_extend_label_validation():
    for extend in (extend_right, extend_left):
        with pytest.raises(ValueError, match=exactly("labels must be 1..n")):
            extend(PseudoGraph((2, 3), frozenset({(2, 2), (2, 3)})))


def test_extend_rejects_non_unique_inputs():
    message = "input is not a canonically labeled uniquely pressable graph"
    for extend in (extend_right, extend_left):
        for g in (
            PseudoGraph((1, 2), frozenset({(1, 2)})),
            PseudoGraph((), frozenset()),
            # A cup pressed uniquely, but not in label order.
            PseudoGraph((1, 2), frozenset({(2, 2), (1, 2)})),
        ):
            with pytest.raises(
                NotUniquelyPressableError, match=exactly(message)
            ):
                extend(g)


def test_cup_from_choices_runs_the_edge_set_maps_on_every_word():
    """The weight rule behind cup_from_choices reaches, word by word, the
    graph that the edge-set maps build from the single loop, for every
    word with n <= 12."""
    level = {"": K1_LOOP}
    for _ in range(11):
        level = {
            word + c: reference_extend_right(g) if c == "R"
            else reference_extend_left(shifted(g))
            for word, g in level.items() for c in "LR"
        }
        for word, g in level.items():
            assert cup_from_choices(word) == g, word


def test_grow_matches_the_per_letter_rule_on_random_words():
    """Each weight made once, rounded once if an L follows it, is what
    rewriting every weight at each letter gives, from any cup's weights
    and for words of either bias."""
    rng = random.Random(11)
    for trial in range(1500):
        start = reference_grow([1], rng.choices("LR", k=rng.randrange(20)))
        word = "".join(rng.choices("LR" if trial % 2 else "LRRR", k=40))
        assert generate._grow(start, word) == reference_grow(start, word)


@pytest.mark.parametrize("word", [
    "L" * 2047, "R" * 2047, "RRRL" * 511 + "RRR"
], ids=("all-L", "all-R", "three-R-to-one-L"))
def test_grow_matches_the_per_letter_rule_at_2048(word):
    assert generate._grow([1], word) == reference_grow([1], word)


@pytest.mark.parametrize("word", ["X", "LRx", "RRL?", ["R", "LR"]])
def test_grow_names_the_first_bad_letter(word):
    bad = next(c for c in word if c not in ("L", "R"))
    message = f"choice must be 'L' or 'R', got {bad!r}"
    for grow in (generate._grow, reference_grow):
        with pytest.raises(ValueError, match=exactly(message)):
            grow([1], iter(word))


# ------------------------------------------------------------ enumeration


def test_generate_cup_small_values(cup2):
    assert generate_cup(0) == (PseudoGraph((), frozenset()),)
    assert generate_cup(1) == (K1_LOOP,)
    assert generate_cup(2) == (cup2,)
    assert generate_cup(3) == (
        PseudoGraph((1, 2, 3), frozenset({(1, 1), (1, 2), (2, 3)})),
        PseudoGraph((1, 2, 3), frozenset({(1, 1), (1, 2), (1, 3), (3, 3)})),
    )
    with pytest.raises(ValueError):
        generate_cup(-1)


def test_generate_cup_sizes_match_closed_form():
    for n in range(2, 13):
        assert len(generate_cup(n)) == cup_count(n)


def test_generate_cup_matches_the_bfs_reference():
    """The ternary code gives the extension-map closure, in its order."""
    for n in range(15):
        assert generate_cup(n) == reference_generate_cup(n)


def test_generated_graphs_are_distinct_and_canonical():
    for n in (5, 8):
        graphs = generate_cup(n)
        assert len(set(graphs)) == len(graphs)
        for g in graphs:
            assert g.labels == tuple(range(1, n + 1))


def test_generate_matches_choice_strings():
    """Every L/R word builds a generated graph and every generated graph
    comes from at least one word."""
    for n in range(1, 9):
        from_words = {
            cup_from_choices(w)
            for w in map("".join, itertools.product("LR", repeat=n - 1))
        }
        assert from_words == set(generate_cup(n))


def test_cup_from_choices_goldens(cup2):
    assert cup_from_choices("") == K1_LOOP
    assert cup_from_choices("R") == cup2
    assert cup_from_choices("L") == cup2
    assert cup_from_choices(["R", "R"]) == extend_right(cup2)
    with pytest.raises(ValueError):
        cup_from_choices("RX")


def test_random_cup_reproducible_and_valid():
    rng = random.Random(7)
    g = random_cup(20, rng)
    assert random_cup(20, random.Random(7)) == g
    rep = recognize(g)
    assert rep.verdict and rep.sequence == tuple(range(1, 21))
    assert random_cup(1) == K1_LOOP
    with pytest.raises(ValueError):
        random_cup(0)


# --------------------------------------------------------------- counting


def test_cup_count_sequence():
    got = [cup_count(n) for n in range(0, 11)]
    assert got == [1, 1, 1, 2, 3, 6, 9, 18, 27, 54, 81]


def test_total_count_closed_form():
    got = [total_count(n) for n in range(0, 9)]
    assert got == [1, 2, 3, 5, 8, 14, 23, 41, 68]
    # running-sum identity against the per-size counts
    for n in range(0, 16):
        assert total_count(n) == sum(cup_count(k) for k in range(0, n + 1))


# ----------------------------------------------------------------- census


def test_all_pseudographs_count():
    # n choose 2 + n possible edges, all subsets
    for n in range(0, 4):
        assert len(list(all_pseudographs(n))) == 2 ** (n * (n + 1) // 2)


def _edge_built(n, mask):
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    edges = frozenset(p for k, p in enumerate(pairs) if mask >> k & 1)
    return PseudoGraph(tuple(range(1, n + 1)), edges)


@pytest.mark.parametrize(
    "n, step", [(0, 1), (1, 1), (2, 1), (3, 1), (4, 1), (5, 7)]
)
def test_all_pseudographs_match_the_edge_built_graphs(n, step):
    """The row-built sweep yields, in mask order, the graph built from
    each mask's edge set: equal, with an equal hash and equal rows."""
    for mask, g in enumerate(all_pseudographs(n)):
        if mask % step:
            continue
        want = _edge_built(n, mask)
        assert g == want and hash(g) == hash(want) and g.rows == want.rows
    assert mask == 2 ** (n * (n + 1) // 2) - 1


def test_all_pseudographs_tables_are_bounded():
    # Entry b of table c is the graph of mask b << 8c, on every entry up
    # to n = 7, whose last tables hold 5 pairs at n = 6 and 4 at n = 7.
    for n in range(8):
        tables = generate._pair_tables(n)
        pairs = n * (n + 1) // 2
        sizes = [256] * (pairs // 8) + [1 << pairs % 8] * (pairs % 8 > 0)
        assert [len(t) for t in tables] == (sizes or [1])
        for c, table in enumerate(tables):
            want = [_edge_built(n, b << 8 * c).rows for b in range(len(table))]
            assert table == want, (n, c)
    # 78 pairs at n = 12: ten byte tables, never 2^39-entry halves.
    tables = generate._pair_tables(12)
    assert [len(t) for t in tables] == [256] * 9 + [64]
    assert next(all_pseudographs(12)) == PseudoGraph(range(1, 13), ())
    chunk = list(generate._mask_rows(12, range(2**70 - 3, 2**70 + 3)))
    want = [_edge_built(12, m).rows for m in range(2**70 - 3, 2**70 + 3)]
    assert chunk == want


def _band(weights):
    """The root U of column weights w, bit by bit: column j has ones in
    rows j - w_j + 1 .. j."""
    u = [0] * len(weights)
    for j, w in enumerate(weights):
        for i in range(j - w + 1, j + 1):
            u[i] |= 1 << j
    return u


def _weight_class(n, weights):
    """A graph of the class keyed by root column weights: the core is
    U^T U in press order, for U their band, and n - len(weights) zero
    rows pad it."""
    k = len(weights)
    core = transpose_mul(BitMatrix(k, _band(weights))).row_bits
    return PseudoGraph._from_rows(
        tuple(range(1, n + 1)), core + (0,) * (n - k)
    )


def test_weight_key_agrees_with_canonical_form():
    """Over every yes graph at n <= 5, the root's column weights and
    canonical_form induce the same classes: total_count(n) of them, of
    which the weight tuples of length n number cup_count(n).  The
    census's keys are those classes, and exactly the valid w of every
    length up to n."""
    for n in range(0, 6):
        key_to_form = {}
        form_to_key = {}
        for g in all_pseudographs(n):
            reason, _, _, key = recognition._decide(g.rows)
            if reason is not None:
                continue
            form = canonical_form(g)
            assert key_to_form.setdefault(key, form) == form
            assert form_to_key.setdefault(form, key) == key
        assert len(key_to_form) == total_count(n)
        assert sum(len(key) == n for key in key_to_form) == cup_count(n)
        masks = 2 ** (n * (n + 1) // 2)
        _, classes = generate._census_range((n, 0, masks))
        assert classes == set(key_to_form) == _valid_weights_up_to(n)


def test_weight_key_rebuilds_the_core_past_n_5():
    """The weight key is complete on cups up to n = 128, permuted and
    padded with isolated vertices: _decide says yes, and the U built
    from its weights gives U^T U equal to the core rows renamed to
    press order."""
    rng = random.Random(128)
    for trial in range(60):
        n = rng.randint(1, 128)
        if trial % 2:
            g = random_cup(n, rng)
        else:
            word = ("R" if rng.random() < 0.75 else "L" for _ in range(n - 1))
            g = cup_from_choices(word)
        spare = rng.randint(0, 4)
        perm = rng.sample(range(n + spare), n + spare)
        rows = [0] * (n + spare)
        for i, r in enumerate(g.rows):
            rows[perm[i]] = sum(1 << perm[j] for j in range(n) if r >> j & 1)
        reason, _, order, weights = recognition._decide(rows)
        assert reason is None and len(weights) == n
        pos = {i: t for t, i in enumerate(order)}
        renamed = tuple(
            sum(1 << pos[j] for j in pos if rows[i] >> j & 1) for i in order
        )
        assert _weight_class(n, weights).rows == renamed


def _cup_weights(n):
    """Every weight sequence of length n >= 1 that passes properties
    2-4, by a search that checks each on the prefix: w_1 = 1 and
    w_j <= j, nondecreasing; a weight above 2 grows within two columns;
    and every column from the first odd non-initial one on is full.
    Property 1 holds by construction: _weight_class puts the ones of
    column j in rows j - w_j + 1 .. j."""
    def extend(w, full):
        j = len(w)
        if j == n:
            yield tuple(w)
            return
        for x in (j + 1,) if full else range(w[-1], j + 2):
            if j >= 2 and w[j - 2] > 2 and x <= w[j - 2]:
                continue
            odd = full or x & 1
            if odd and x != j + 1:
                continue
            yield from extend([*w, x], odd)

    yield from extend([1], False)


def _weights_agree_with_generate(n):
    weights = list(_cup_weights(n))
    graphs = [_weight_class(n, w) for w in weights]
    assert len(set(graphs)) == len(graphs) == cup_count(n)
    assert set(graphs) == set(generate_cup(n))
    for w, g in zip(weights, graphs):
        assert recognition._decide(g.rows)[3] == w
        assert generate._gram(w) == g


@pytest.mark.parametrize("n", range(1, 15))
def test_weight_sequences_generate_the_cups(n):
    """A third generator, from the root's column weights alone: the
    valid weight sequences build, as U^T U, exactly generate_cup(n),
    and the recognizer reads each one's weights back off its graph.
    The library's prefix-XOR builder gives that U^T U on each w."""
    _weights_agree_with_generate(n)


@pytest.mark.slow
@pytest.mark.parametrize("n", range(16, 21))
def test_weight_sequences_generate_the_cups_past_fourteen(n):
    _weights_agree_with_generate(n)


def _valid_weights(n):
    """Every nondecreasing w of length n with w_1 = 1 and w_j <= j whose
    band passes the recognizer's column check: the paper's
    characterization tried on each such w in turn, with no extension
    map and no ternary code.  n = 0 has the empty w."""
    def nondecreasing(w):
        if len(w) == n:
            yield w
            return
        for x in range(w[-1], len(w) + 2):
            yield from nondecreasing((*w, x))

    for w in nondecreasing((1,)) if n else [()]:
        fails, weights = recognition._check_columns(_band(w), range(n))
        if fails == (None,) * 4:
            assert weights == w
            yield w


def _valid_weights_are_the_cups(n):
    valid = list(_valid_weights(n))
    assert len(valid) == cup_count(n)
    cups = [generate._gram(w) for w in valid]
    assert sorted(g.rows for g in cups) == [g.rows for g in generate_cup(n)]
    for w, g in zip(valid, cups):
        assert recognition._decide(g.rows) == (None, None, [*range(n)], w)


@pytest.mark.parametrize("n", range(11))
def test_valid_weights_are_the_generated_cups(n):
    """The valid w number cup_count(n); the cups built from them are
    generate_cup(n), each once; and _decide says yes on each, in label
    order, with its w."""
    _valid_weights_are_the_cups(n)


@pytest.mark.slow
@pytest.mark.parametrize("n", [11, 12])
def test_valid_weights_are_the_generated_cups_past_ten(n):
    _valid_weights_are_the_cups(n)


def _valid_weights_up_to(n):
    return {w for k in range(n + 1) for w in _valid_weights(k)}


@pytest.mark.slow
def test_census_keys_are_the_valid_weights_at_six():
    """As at n <= 5: the census's class keys over all masks are exactly
    the valid w of every length up to n."""
    _, keys = generate._census_range((6, 0, _masks(6)))
    assert keys == _valid_weights_up_to(6)


def test_census_range_matches_a_public_recognize_sweep():
    """At n <= 4 the census range counts the yes graphs of public
    recognize, and each of its weight keys rebuilds one of their
    classes, named by canonical_form."""
    for n in range(0, 5):
        count, forms = 0, set()
        for g in all_pseudographs(n):
            if recognize(g).verdict:
                count += 1
                forms.add(canonical_form(g))
        masks = 2 ** (n * (n + 1) // 2)
        got_count, classes = generate._census_range((n, 0, masks))
        got = {canonical_form(_weight_class(n, w)) for w in classes}
        assert (got_count, len(got)) == (count, len(classes))
        assert got == forms


def test_census_builds_at_most_one_graph_per_yes_graph(monkeypatch):
    """census counts and keys every mask on bare rows: no mask, yes or
    no, costs a PseudoGraph of its own."""
    built = []
    from_rows = PseudoGraph._from_rows.__func__
    init = PseudoGraph.__init__

    def counted_from_rows(cls, labels, rows):
        built.append(labels)
        return from_rows(cls, labels, rows)

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(
        PseudoGraph, "_from_rows", classmethod(counted_from_rows)
    )
    monkeypatch.setattr(PseudoGraph, "__init__", counted_init)
    result = census(4)
    assert result.labeled_total == 137
    assert len(built) <= result.labeled_total


def test_census_builds_no_report(monkeypatch):
    """census keys the yes masks on the bare-row core: no mask, yes or
    no, builds a RecognitionReport."""
    built = []
    init = RecognitionReport.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RecognitionReport, "__init__", counted_init)
    assert census(4).labeled_total == 137
    assert built == []


def test_canonical_form_is_isomorphism_invariant():
    rng = random.Random(3)
    for g in (
        PseudoGraph((1, 2, 3), frozenset({(1, 1), (1, 2), (2, 3)})),
        PseudoGraph((1, 2, 3, 4), frozenset({(1, 1), (2, 3), (3, 4), (4, 4)})),
    ):
        base = canonical_form(g)
        labels = list(g.labels)
        for _ in range(6):
            perm = labels[:]
            rng.shuffle(perm)
            h = g.relabel(dict(zip(labels, perm)))
            assert canonical_form(h) == base
    assert canonical_form(
        PseudoGraph((1, 2), frozenset({(1, 1)}))
    ) != canonical_form(PseudoGraph((1, 2), frozenset({(1, 2)})))


def test_census_small_sizes():
    assert census(1) == CensusResult(1, 2, 2, 1)
    assert census(2) == CensusResult(2, 5, 3, 1)
    assert census(3) == CensusResult(3, 22, 5, 2)
    assert census(4) == CensusResult(4, 137, 8, 3)


def test_census_matches_closed_forms():
    for n in range(1, 6):
        result = census(n)
        assert result.up_iso_classes == total_count(n)
        assert result.cup_iso_classes == cup_count(n)
        # labeled classes: CUP graphs have no symmetries, so each class
        # of size k contributes k! labelings on each k-subset
        expect = sum(
            math.comb(n, k) * math.factorial(k) * cup_count(k)
            for k in range(0, n + 1)
        )
        assert result.labeled_total == expect


def test_census_parallel_agrees():
    assert census(3, jobs=2) == census(3)


def test_census_parallel_agrees_at_four():
    assert census(4, jobs=2) == census(4)


def test_census_parallel_agrees_at_five():
    assert census(5, jobs=2) == census(5)


def test_census_six_matches_closed_forms():
    assert (total_count(6), cup_count(6)) == (23, 9)
    labeled = sum(math.perm(6, k) * cup_count(k) for k in range(7))
    assert labeled == 12157
    assert census(6) == CensusResult(6, labeled, 23, 9)


@pytest.mark.parametrize(
    "n, jobs, cpus", [(1, 1000, 64), (2, 1000, 64), (5, 1000, 4), (5, 3, None)]
)
def test_census_chunks_clamp_the_worker_count(monkeypatch, n, jobs, cpus):
    monkeypatch.setattr(generate.os, "cpu_count", lambda: cpus)
    chunks = generate._census_chunks(n, jobs)
    total = 1 << (n * (n + 1) // 2)
    assert len(chunks) <= min(jobs, total, cpus or 1)
    # contiguous, non-empty, and together every mask exactly once
    assert chunks[0][1] == 0 and chunks[-1][2] == total
    for (_, _, hi), (_, lo, _) in zip(chunks, chunks[1:]):
        assert hi == lo
    assert all(c[0] == n and c[1] < c[2] for c in chunks)


@pytest.fixture
def inline_pool(monkeypatch):
    """multiprocessing.Pool replaced by a stand-in that maps in this
    process, so no worker starts; returns the pool sizes asked for."""
    sizes = []

    class InlinePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return [fn(item) for item in items]

    monkeypatch.setattr(multiprocessing, "Pool", InlinePool)
    return sizes


def test_census_pool_never_exceeds_the_masks(monkeypatch, inline_pool):
    """census 1 --jobs 1000 has two masks, so at most two workers."""
    monkeypatch.setattr(generate.os, "cpu_count", lambda: 64)
    assert census(1, jobs=1000) == census(1)
    assert census(2, jobs=1000) == census(2)
    assert inline_pool == [2, 8]


def test_census_three_jobs_agree_at_five(monkeypatch, inline_pool):
    """Three workers on four CPUs cut the masks at 10923 and 21846, off
    every block boundary of the count table."""
    monkeypatch.setattr(generate.os, "cpu_count", lambda: 4)
    assert census(5, jobs=3) == census(5)
    assert inline_pool == [3]


@pytest.mark.parametrize("cuts", [(1,), (1000,), (1025,), (16383,),
                                  (1, 1000, 1025, 16383)])
def test_census_range_adds_up_over_any_cut(cuts):
    """Ranges cut at offsets off the block boundaries of the count table
    add up to the whole range's count and key set at n = 5."""
    bounds = [0, *cuts, _masks(5)]
    parts = [
        generate._census_range((5, lo, hi))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    whole = generate._census_range((5, 0, _masks(5)))
    assert sum(count for count, _ in parts) == whole[0] == 1226
    assert set().union(*(keys for _, keys in parts)) == whole[1]


def test_census_runs_the_recognizer_on_the_yes_masks_only(monkeypatch):
    calls = []

    def counted(rows):
        calls.append(rows)
        return recognition._decide(rows)

    monkeypatch.setattr(generate, "_decide", counted)
    assert census(4).labeled_total == 137 == len(calls)


def test_census_raises_when_the_recognizer_says_no_on_a_yes_mask(
    monkeypatch,
):
    no = ("TIE", None, [], ())
    monkeypatch.setattr(generate, "_decide", lambda rows: no)
    with pytest.raises(RuntimeError, match="TIE on rows"):
        census(2)


def test_census_bounds():
    """n = 0 is the one empty graph, as count and generate have it."""
    assert generate._census_range((0, 0, 1)) == (1, {()})
    assert census(0) == CensusResult(0, 1, 1, 1)
    assert (total_count(0), cup_count(0), len(generate_cup(0))) == (1, 1, 1)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        census(-1)


def test_census_refuses_out_of_range_n_before_any_work(
    monkeypatch, refuse_census_work
):
    """census itself refuses n above CENSUS_MAX_N or below 0, with a
    plain ValueError, before any sweep runs or worker process starts;
    n = CENSUS_MAX_N is let through to the sweep."""
    assert generate.CENSUS_MAX_N == 7
    for n, jobs in [(8, 1), (8, 2), (40, 2), (-1, 1), (-1, 2)]:
        with pytest.raises(ValueError) as info:
            census(n, jobs=jobs)
        assert type(info.value) is ValueError
        assert str(info.value) == (
            "n must be nonnegative" if n < 0
            else f"census of {n}-vertex graphs exceeds bound 7"
        )
    monkeypatch.setattr(generate, "_census_range", lambda args: (0, set()))
    assert census(7) == CensusResult(7, 0, 0, 0)


def test_census_to_text():
    assert (
        census(2).to_text()
        == "n=2 labeled_total=5 up_iso_classes=3 cup_iso_classes=1\n"
    )


# ------------------------------------------------- cross-checking oracles


def _masks(n):
    return 2 ** (n * (n + 1) // 2)


def _counted(n, lo=0, hi=None):
    """(c, rows) for each mask in [lo, hi): the count table's byte
    beside the rows that _mask_rows builds for the same mask."""
    hi = _masks(n) if hi is None else hi
    table = b"".join(generate._counts(n, lo, hi))
    assert len(table) == hi - lo
    return zip(table, generate._mask_rows(n, range(lo, hi)))


def _uncapped_counts(n):
    """Successful sequences of every n-vertex graph, keyed by its rows:
    1 for the edgeless graph, else the sum over looped v of the count
    of G pressed at v with v deleted, looked up by its rows, with bit v
    squeezed out of each, not by a pair-mask."""
    if n == 0:
        return {(): 1}
    below = _uncapped_counts(n - 1)
    counts = {}
    for rows in generate._mask_rows(n, range(_masks(n))):
        total = 0 if any(rows) else 1
        for v in range(n):
            if rows[v] >> v & 1:
                pressed = list(rows)
                reference_press(pressed, v, range(n))
                low = (1 << v) - 1
                total += below[tuple(
                    r & low | r >> 1 & ~low
                    for i, r in enumerate(pressed) if i != v
                )]
        counts[rows] = total
    return counts


@pytest.mark.parametrize("n", range(5))
def test_counts_are_the_capped_bruteforce_counts(n):
    """Uncapped, the recursion counts what brute force counts on every
    mask with n <= 4; _counts is that count capped at 2."""
    uncapped = _uncapped_counts(n)
    labels = tuple(range(1, n + 1))
    for c, rows in _counted(n):
        g = PseudoGraph._from_rows(labels, rows)
        assert uncapped[rows] == count_sequences_bruteforce(g)
        assert c == min(uncapped[rows], 2)


def _counts_agree_with_decide(n, lo=0, hi=None):
    for c, rows in _counted(n, lo, hi):
        assert (c == 1) == (recognition._decide(rows)[0] is None), rows


def _counts_agree_with_pressing_length(n, lo=0, hi=None):
    labels = tuple(range(1, n + 1))
    for c, rows in _counted(n, lo, hi):
        try:
            pressing_length(PseudoGraph._from_rows(labels, rows))
        except UnpressableError:
            assert c == 0, rows
        else:
            assert c >= 1, rows


@pytest.mark.parametrize("n", range(6))
def test_counts_agree_with_decide(n):
    """The definition's count and the recognizer give the same verdict
    on every graph with n <= 5: the only check on _decide's no
    verdicts, which census no longer reaches."""
    _counts_agree_with_decide(n)


@pytest.mark.slow
def test_counts_agree_with_decide_at_six():
    _counts_agree_with_decide(6)


def _counts_agree_with_peel(n):
    for c, rows in _counted(n):
        assert (c == 1) == (reference_peel(rows) is not None), rows


@pytest.mark.parametrize("n", range(6))
def test_counts_agree_with_peel(n):
    """Peel, which undoes the extension maps, says yes on exactly the
    masks with one successful sequence, every graph with n <= 5."""
    _counts_agree_with_peel(n)


@pytest.mark.slow
def test_counts_agree_with_peel_at_six():
    _counts_agree_with_peel(6)


def test_counts_agree_with_decide_and_pressing_length_on_a_slice_of_six():
    """On a 4096-mask slice of level 6, off its 1024-mask block
    boundaries, c = 1 exactly when the recognizer says yes and c >= 1
    exactly when pressing_length finds the graph pressable.  Level 6 is
    the first whose rows read more than one 256-byte window of the
    joined pages below; levels up to 5 read one.  A mask below 2^15
    sets only pairs that meet vertex 1, 2 or 3, so c = 0 and c = 1 are
    common there."""
    lo = 5000
    assert lo % 1024 and lo + 4096 < 1 << 15
    _counts_agree_with_decide(6, lo, lo + 4096)
    _counts_agree_with_pressing_length(6, lo, lo + 4096)


@pytest.mark.slow
def test_counts_agree_with_decide_and_pressing_length_on_slices_of_seven():
    """On three seeded 4096-mask slices of level 7, one of them off the
    block boundaries, c = 1 exactly when the recognizer says yes and
    c >= 1 exactly when pressing_length finds the graph pressable: the
    only check on _decide's no verdicts past n = 6."""
    rng = random.Random(7)
    starts = [rng.randrange(_masks(7) >> 12) << 12 for _ in range(2)]
    # A mask below 2^16 sets only pairs that meet vertex 1, 2 or 3, so
    # c = 0 and c = 1 are common there; almost all others have c = 2.
    starts.append(rng.randrange(1 << 16) | 1)
    for lo in starts:
        _counts_agree_with_decide(7, lo, lo + 4096)
        _counts_agree_with_pressing_length(7, lo, lo + 4096)


@pytest.mark.parametrize("lo, hi", [
    (0, 1), (1, 1000), (1000, 1025), (1023, 1025), (1025, 16383),
    (16383, 32768), (5, 5), (0, 32768),
])
def test_counts_stream_any_range_in_bounded_blocks(lo, hi):
    """Any range of level 5, cut off the block boundaries or not, is
    that slice of the whole table, in blocks of at most 1024 masks."""
    whole = b"".join(generate._counts(5, 0, _masks(5)))
    blocks = list(generate._counts(5, lo, hi))
    assert b"".join(blocks) == whole[lo:hi]
    assert all(len(block) <= 1 << generate._BLOCK_BITS for block in blocks)


def _block_bits(n):
    """The block bits the rule gives level n: every pair at vertices 1
    and 2, up to the cap."""
    return min(generate._BLOCK_BITS, 2 * n - 1, n * (n + 1) // 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_counts_block_sizes_follow_the_pairs_at_vertices_one_and_two(n):
    """The first 2n - 1 pairs in lexicographic order are those at
    vertices 1 and 2, and every block of a whole level n <= 6 holds
    2^min(_BLOCK_BITS, 2n - 1, P) masks: 2, 8, 32, 128, 512, then the
    cap's 1024."""
    pairs = generate._pairs(n)
    assert {p for p in pairs if p[0] <= 2} == set(pairs[:2 * n - 1])
    sizes = {len(b) for b in generate._counts(n, 0, _masks(n))}
    assert sizes == {1 << _block_bits(n)}
    assert [1 << _block_bits(m) for m in range(1, 7)] == [
        2, 8, 32, 128, 512, 1024
    ]


def test_counts_block_sizes_on_an_aligned_slice_of_seven():
    """Level 7 keeps the cap's blocks of 1024 on a slice aligned to them."""
    lo = 5 << 12
    blocks = list(generate._counts(7, lo, lo + 4096))
    assert [len(b) for b in blocks] == [1 << _block_bits(7)] * 4 == [1024] * 4


_SMALLER_BITS = [3, 5, 7]


def test_smaller_block_sizes_cut_levels_three_to_five():
    """test_counts_match_at_smaller_blocks reaches, at one of its sizes
    at least, a block smaller than the default on each of levels 3-5."""
    for n in (3, 4, 5):
        assert min(_SMALLER_BITS) < _block_bits(n), n


@pytest.mark.parametrize("bits", _SMALLER_BITS)
def test_counts_match_at_smaller_blocks(monkeypatch, bits):
    """At the default block size levels 3, 4 and 5 have pairs above the
    block, those that avoid vertices 1 and 2, so all three reach the
    gather over pages of the level below; smaller blocks, down to 2^3
    masks, cut each of them at other boundaries and move more of its
    pairs above the block.  Levels 3-5, whole and on ranges cut off the
    block boundaries, give the default table, and levels up to 4 give
    the capped uncapped counts."""
    default = {
        n: b"".join(generate._counts(n, 0, _masks(n))) for n in (3, 4, 5)
    }
    monkeypatch.setattr(generate, "_BLOCK_BITS", bits)
    for n, whole in default.items():
        m = _masks(n)
        for lo, hi in [(0, m), (1, m - 1), (m // 3, m // 2 + 5), (7, 8)]:
            blocks = list(generate._counts(n, lo, hi))
            assert b"".join(blocks) == whole[lo:hi], (n, lo, hi)
            assert all(len(block) <= 1 << bits for block in blocks)
    for n in range(5):
        uncapped = _uncapped_counts(n)
        for c, rows in _counted(n):
            assert c == min(uncapped[rows], 2), rows


@pytest.mark.parametrize("n", range(6))
def test_counts_are_nonzero_exactly_on_the_pressable_graphs(n):
    """c >= 1 iff every nontrivial component has a looped vertex
    (Cooper and Davis), the test pressing_length makes."""
    _counts_agree_with_pressing_length(n)


def _pressable_count(n):
    """Graphs on n labeled vertices with a successful sequence, by the
    exponential formula over their components (Cooper and Davis: every
    nontrivial component has a loop), with no pressing code: a single
    vertex, looped or not, in 2 ways, and a component on k >= 2
    vertices in conn(k) (2^k - 1) ways."""
    conn = [0]
    for k in range(1, n + 1):
        conn.append(2 ** math.comb(k, 2) - sum(
            math.comb(k - 1, j - 1) * conn[j] * 2 ** math.comb(k - j, 2)
            for j in range(1, k)
        ))
    ways = [0, 2] + [conn[k] * (2**k - 1) for k in range(2, n + 1)]
    total = [1]
    for m in range(1, n + 1):
        total.append(sum(
            math.comb(m - 1, k - 1) * ways[k] * total[m - k]
            for k in range(1, m + 1)
        ))
    return total[n]


def _unpressable_count(n):
    return b"".join(generate._counts(n, 0, _masks(n))).count(0)


@pytest.mark.parametrize(
    "n, want", [(0, 0), (1, 0), (2, 1), (3, 10), (4, 115), (5, 1998)]
)
def test_counts_are_zero_on_the_closed_form_number_of_graphs(n, want):
    """The table's c = 0 masks number 2^(n(n+1)/2) minus the pressable
    graphs of the exponential formula."""
    assert _masks(n) - _pressable_count(n) == want
    assert _unpressable_count(n) == want


@pytest.mark.slow
def test_counts_are_zero_on_the_closed_form_number_of_graphs_at_six():
    assert _masks(6) - _pressable_count(6) == 58_925
    assert _unpressable_count(6) == 58_925


def _cups_by_definition(n):
    """Rows of the masks with one successful sequence that the order
    1..n presses empty, checked by replay."""
    labels = tuple(range(1, n + 1))
    cups = []
    for c, rows in _counted(n):
        if c != 1:
            continue
        try:
            final = PseudoGraph._from_rows(labels, rows)._replay(labels)[-1]
        except InvalidPressError:
            continue
        if not any(final.rows):
            cups.append(rows)
    return sorted(cups)


@pytest.mark.parametrize("n", range(6))
def test_generate_misses_no_cup(n):
    """generate_cup(n) lists every graph whose one successful sequence
    is 1..n, against the definition, not the extension maps."""
    assert _cups_by_definition(n) == sorted(g.rows for g in generate_cup(n))


@pytest.mark.slow
def test_generate_misses_no_cup_at_six():
    assert _cups_by_definition(6) == sorted(g.rows for g in generate_cup(6))


def test_generated_graphs_are_uniquely_pressable_bruteforce():
    for n in range(1, 8):
        for g in generate_cup(n):
            assert count_sequences_bruteforce(g) == 1
