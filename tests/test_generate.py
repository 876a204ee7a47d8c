"""Unit tests for extension builders, enumeration, counting, and census."""

import itertools
import math
import random

import pytest

from pressgraph import generate
from pressgraph import (
    CensusResult,
    NotUniquelyPressableError,
    OracleBoundError,
    PseudoGraph,
    all_pseudographs,
    canonical_form,
    census,
    count_sequences_bruteforce,
    cup_count,
    cup_from_choices,
    extend_left,
    extend_right,
    generate_cup,
    random_cup,
    recognize,
    shift_labels,
    total_count,
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
    assert extend_left(shift_labels(K1_LOOP)) == cup2
    assert extend_left(shift_labels(cup2)) == PseudoGraph(
        (1, 2, 3), frozenset({(1, 1), (1, 2), (2, 3)})
    )


def test_extensions_preserve_unique_pressability():
    for n in range(1, 7):
        for g in generate_cup(n):
            r = extend_right(g)
            l = extend_left(shift_labels(g))
            assert recognize(r).sequence == tuple(range(1, n + 2))
            assert recognize(l).sequence == tuple(range(1, n + 2))


def test_extensions_commute_on_even_sizes():
    for n in (2, 4, 6, 8):
        for g in generate_cup(n):
            right_then_left = extend_left(shift_labels(extend_right(g)))
            left_then_right = extend_right(extend_left(shift_labels(g)))
            assert right_then_left == left_then_right


def test_extend_label_validation():
    with pytest.raises(ValueError, match="1..n"):
        extend_right(PseudoGraph((2, 3), frozenset({(2, 2), (2, 3)})))
    with pytest.raises(ValueError, match="2..n"):
        extend_left(K1_LOOP)


def test_extend_rejects_non_unique_inputs(cup2):
    with pytest.raises(NotUniquelyPressableError):
        extend_right(PseudoGraph((1, 2), frozenset({(1, 2)})))
    with pytest.raises(NotUniquelyPressableError):
        extend_left(PseudoGraph((2, 3), frozenset({(2, 3)})))
    # check=False skips the guard entirely
    out = extend_right(PseudoGraph((1, 2), frozenset({(1, 2)})), check=False)
    assert out.labels == (1, 2, 3)


def test_shift_labels(cup2):
    assert shift_labels(cup2).edges == frozenset({(2, 2), (2, 3)})
    assert shift_labels(cup2, offset=10).labels == (11, 12)
    assert shift_labels(shift_labels(cup2), offset=-1) == cup2


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
    # 78 pairs at n = 12: ten byte tables, never 2^39-entry halves.
    tables = generate._pair_tables(12)
    assert [len(t) for t in tables] == [256] * 9 + [64]
    assert next(all_pseudographs(12)) == PseudoGraph(range(1, 13), ())
    chunk = list(generate._pseudographs(12, 2**70 - 3, 2**70 + 3))
    assert chunk == [_edge_built(12, m) for m in range(2**70 - 3, 2**70 + 3)]


def test_press_order_key_agrees_with_canonical_form():
    """Over every yes graph at n <= 5, the census key and canonical_form
    induce the same classes, and the census flags exactly the classes
    that are connected with an edge."""
    for n in range(0, 6):
        key_to_form = {}
        form_to_key = {}
        connected = {}
        for g in all_pseudographs(n):
            report = recognize(g)
            if not report.verdict:
                continue
            key = generate._press_order_key(g, report)
            form = canonical_form(g)
            assert key_to_form.setdefault(key, form) == form
            assert form_to_key.setdefault(form, key) == key
            connected[key] = len(g.components()) == 1 and any(g.rows)
        assert len(key_to_form) == total_count(n)
        masks = 2 ** (n * (n + 1) // 2)
        _, classes = generate._census_range((n, 0, masks))
        assert classes == connected


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
    for n in range(1, 5):
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


@pytest.mark.slow
def test_census_six_matches_closed_forms():
    assert (total_count(6), cup_count(6)) == (23, 9)
    assert census(6, bound=6, jobs=2) == CensusResult(6, 12157, 23, 9)


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


def test_census_pool_never_exceeds_the_masks(monkeypatch):
    """census 1 --jobs 1000 has two masks, so at most two workers; a
    stand-in pool records the size asked for and starts no process."""
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

    monkeypatch.setattr(generate.multiprocessing, "Pool", InlinePool)
    monkeypatch.setattr(generate.os, "cpu_count", lambda: 64)
    assert census(1, jobs=1000) == census(1)
    assert census(2, jobs=1000) == census(2)
    assert sizes == [2, 8]


def test_census_bounds():
    with pytest.raises(ValueError):
        census(0)
    with pytest.raises(OracleBoundError):
        census(6)
    assert census(3, bound=3) == census(3)


def test_census_to_text():
    assert (
        census(2).to_text()
        == "n=2 labeled_total=5 up_iso_classes=3 cup_iso_classes=1\n"
    )


# ------------------------------------------------- cross-checking oracles


def test_generated_graphs_are_uniquely_pressable_bruteforce():
    for n in range(1, 8):
        for g in generate_cup(n):
            assert count_sequences_bruteforce(g) == 1
