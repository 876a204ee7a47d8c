"""Construction, enumeration, and counting of uniquely pressable graphs.

A "cup" graph here is a Connected Uniquely Pressable graph carrying its
canonical labels: vertex set 1..n, at least one edge, and its single
successful pressing sequence is 1, 2, ..., n in order.  Cup graphs are
closed under two extension maps:

* append a vertex n+1 adjacent to every looped vertex, looped exactly
  when n is even;
* prepend a looped vertex 1 adjacent to every looped vertex, after
  toggling all pairs inside the old looped set (for a cup graph that
  set is a clique with loops, so the toggle erases it).

Every cup graph on n+1 vertices arises from one on n vertices this way,
so breadth-first application of both maps enumerates the class exactly,
and closed-form counts are available.  Root-level versions of the same
maps build a pseudo-random instance in O(n^2) without touching edge
sets.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass
from operator import or_
from typing import Iterable, Iterator

from .gf2 import BitMatrix, iter_support, transpose_mul
from .graphs import PseudoGraph, from_adjacency
from .recognition import OracleBoundError, RecognitionReport, recognize

__all__ = [
    "NotUniquelyPressableError",
    "extend_right",
    "extend_left",
    "shift_labels",
    "generate_cup",
    "cup_from_choices",
    "random_cup",
    "cup_count",
    "total_count",
    "all_pseudographs",
    "canonical_form",
    "CensusResult",
    "census",
]


class NotUniquelyPressableError(ValueError):
    """The input graph is not a canonically labeled cup graph."""


def _is_cup_form(g: PseudoGraph) -> bool:
    """True when g is a cup graph under its canonical labels."""
    if g.n == 0 or g.labels != tuple(range(1, g.n + 1)):
        return False
    report = recognize(g)
    return report.verdict and report.sequence == g.labels


def shift_labels(g: PseudoGraph, offset: int = 1) -> PseudoGraph:
    """Relabel every vertex by adding offset (labels must stay positive)."""
    return g.relabel({lab: lab + offset for lab in g.labels})


def extend_right(g: PseudoGraph, check: bool = True) -> PseudoGraph:
    """Grow a cup graph on 1..n into one on 1..n+1, pressed last.

    The new vertex n+1 is joined to every looped vertex of g and gets a
    loop exactly when n is even.  With check=True the input must be a
    cup graph, which guarantees the output is one too.
    """
    n = g.n
    if g.labels != tuple(range(1, n + 1)):
        raise ValueError("labels must be 1..n")
    if check and not _is_cup_form(g):
        raise NotUniquelyPressableError(
            "input is not a canonically labeled uniquely pressable graph"
        )
    new = n + 1
    extra = {(v, new) for v in g.looped_vertices()}
    if n % 2 == 0:
        extra.add((new, new))
    return PseudoGraph(g.labels + (new,), g.edges | extra)


def extend_left(g: PseudoGraph, check: bool = True) -> PseudoGraph:
    """Grow a shifted cup graph on 2..n+1 into one on 1..n+1.

    The input must already carry labels 2..n+1 (see shift_labels).  All
    pairs inside its looped set are toggled, then a new looped vertex 1
    is joined to exactly the vertices that were looped.  Pressing 1 in
    the result restores g, so the new vertex is pressed first.  With
    check=True the input, shifted back down, must be a cup graph.
    """
    n = g.n
    if g.labels != tuple(range(2, n + 2)):
        raise ValueError("labels must be 2..n+1")
    if check and not _is_cup_form(shift_labels(g, -1)):
        raise NotUniquelyPressableError(
            "input is not a shifted canonically labeled uniquely "
            "pressable graph"
        )
    looped = sorted(g.looped_vertices())
    toggle = set(itertools.combinations_with_replacement(looped, 2))
    new_edges = {(1, 1)} | {(1, v) for v in looped}
    return PseudoGraph(
        (1,) + g.labels, (g.edges ^ toggle) | new_edges
    )


def generate_cup(n: int) -> tuple[PseudoGraph, ...]:
    """All cup graphs on n vertices, sorted by packed adjacency rows.

    Breadth-first closure of the two extension maps starting from the
    single loop; duplicates (the maps can collide) are merged.  For
    n = 0 the empty graph stands alone.
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
                extend_right(g, check=False),
                extend_left(shift_labels(g), check=False),
            ):
                seen[h.rows] = h
        current = list(seen.values())
    current.sort(key=lambda g: g.rows)
    return tuple(current)


def cup_from_choices(choices: Iterable[str]) -> PseudoGraph:
    """Cup graph reached from the single loop by a word of extensions.

    Each element of choices is "R" (append a last-pressed vertex) or
    "L" (prepend a first-pressed vertex); len(choices)+1 vertices
    result.  The walk runs on packed upper-triangular root rows with
    incrementally maintained column weights, so it costs O(n^2) total.
    Distinct words may reach the same graph.
    """
    rows = [1]
    weights = [1]
    for step, c in enumerate(choices, start=2):
        if c == "R":
            m = 1 << (step - 1)
            rows = [r | m for r in rows] + [m]
            weights.append(step)
        elif c == "L":
            newrow = 1
            for j, w in enumerate(weights):
                if w & 1:
                    newrow |= 1 << (j + 1)
            rows = [newrow] + [r << 1 for r in rows]
            weights = [1] + [w + (w & 1) for w in weights]
        else:
            raise ValueError(f"choice must be 'L' or 'R', got {c!r}")
    root = BitMatrix(len(rows), tuple(rows))
    return from_adjacency(transpose_mul(root))


def random_cup(n: int, rng: random.Random | None = None) -> PseudoGraph:
    """A pseudo-random cup graph on n vertices (not uniform over them)."""
    if n < 1:
        raise ValueError("n must be positive")
    pick = rng.choice if rng is not None else random.choice
    return cup_from_choices(pick("LR") for _ in range(n - 1))


def cup_count(n: int) -> int:
    """Number of cup graphs on n vertices.

    1 for n <= 2, then 3^((n-2)/2) for even n and 2*3^((n-3)/2) for odd
    n; n = 0 counts the empty graph.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n <= 2:
        return 1
    if n % 2 == 0:
        return 3 ** ((n - 2) // 2)
    return 2 * 3 ** ((n - 3) // 2)


def total_count(n: int) -> int:
    """Isomorphism classes of uniquely pressable graphs on n vertices.

    Such a graph is one cup core plus loopless isolated padding, and a
    cup graph has no nontrivial automorphisms, so this is the running
    sum of cup_count(0..n); it collapses to (5*3^((n-2)/2)+1)/2 for
    even n >= 2 and (3^((n+1)/2)+1)/2 for odd n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1
    if n % 2 == 0:
        return (5 * 3 ** ((n - 2) // 2) + 1) // 2
    return (3 ** ((n + 1) // 2) + 1) // 2


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def all_pseudographs(n: int):
    """Yield every graph on labels 1..n, one per subset of vertex pairs."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    yield from _pseudographs(n, 0, 1 << len(_pairs(n)))


def _pair_tables(n: int) -> list[list[tuple[int, ...]]]:
    """Rows contributed by each byte of a pair-mask, one table per byte.

    Entry b of table c holds the rows of the graph whose edges are the
    pairs at mask bits 8c..8c+7 selected by b, so the rows of any mask
    are the OR of one entry per table: about P/8 tables of 256 entries
    for P = n(n+1)/2 pairs.  There is always one table, so that n = 0
    has its single empty graph.
    """
    pairs = _pairs(n)
    tables = []
    for start in range(0, max(len(pairs), 1), 8):
        chunk = pairs[start:start + 8]
        table = []
        for b in range(1 << len(chunk)):
            rows = [0] * n
            for k, (u, v) in enumerate(chunk):
                if b >> k & 1:
                    rows[u - 1] |= 1 << (v - 1)
                    rows[v - 1] |= 1 << (u - 1)
            table.append(tuple(rows))
        tables.append(table)
    return tables


def _pseudographs(n: int, lo: int, hi: int) -> Iterator[PseudoGraph]:
    """The graphs on labels 1..n with pair-mask in [lo, hi), in order."""
    labels = tuple(range(1, n + 1))
    low, *high = _pair_tables(n)
    wrap = PseudoGraph._from_rows
    base_of = None
    for mask in range(lo, hi):
        # The bytes above the lowest change once per 256 masks.
        if mask >> 8 != base_of:
            base_of = m = mask >> 8
            base = (0,) * n
            for table in high:
                base = tuple(map(or_, base, table[m & 255]))
                m >>= 8
        yield wrap(labels, map(or_, base, low[mask & 255]))


def canonical_form(g: PseudoGraph) -> tuple[int, ...]:
    """Isomorphism invariant: minimal packed adjacency over relabelings."""
    n = g.n
    supports = [[j - 1 for j in iter_support(r)] for r in g.rows]
    best: tuple[int, ...] | None = None
    for perm in itertools.permutations(range(n)):
        inv = [0] * n
        for t, s in enumerate(perm):
            inv[s] = t
        cand = []
        for s in perm:
            bits = 0
            for j in supports[s]:
                bits |= 1 << inv[j]
            cand.append(bits)
        tup = tuple(cand)
        if best is None or tup < best:
            best = tup
    assert best is not None or n == 0
    return best if best is not None else ()


@dataclass(frozen=True)
class CensusResult:
    """Tallies from an exhaustive sweep of all graphs on n vertices."""

    n: int
    labeled_total: int
    up_iso_classes: int
    cup_iso_classes: int

    def to_text(self) -> str:
        return (
            f"n={self.n} labeled_total={self.labeled_total} "
            f"up_iso_classes={self.up_iso_classes} "
            f"cup_iso_classes={self.cup_iso_classes}\n"
        )


def _press_order_key(
    g: PseudoGraph, report: RecognitionReport
) -> tuple[int, tuple[int, ...]]:
    """Isomorphism class key of a yes graph, without relabeling search.

    The key is the padding count and the core's rows with every vertex
    renamed to its position in the unique press order.  An isomorphism
    carries the one press order onto the other, and a cup graph has no
    nontrivial automorphism, so two yes graphs share the key exactly
    when they are isomorphic.
    """
    seq = report.sequence
    assert seq is not None
    pos = {lab: t for t, lab in enumerate(seq)}
    row = dict(zip(g.labels, g.rows))
    core = tuple(
        sum(1 << pos[g.labels[j - 1]] for j in iter_support(row[lab]))
        for lab in seq
    )
    return len(report.stripped), core


def _census_range(args: tuple[int, int, int]) -> tuple[int, dict]:
    """Recognize every pair-mask in [lo, hi); tally the yes graphs."""
    count = 0
    classes: dict[tuple, bool] = {}
    for g in _pseudographs(*args):
        report = recognize(g)
        if not report.verdict:
            continue
        count += 1
        key = _press_order_key(g, report)
        if key not in classes:
            # Connected with an edge: no padding and a nonempty core.
            classes[key] = not report.stripped and bool(report.sequence)
    return count, classes


def _census_chunks(n: int, jobs: int) -> list[tuple[int, int, int]]:
    """Mask ranges for at most min(jobs, masks, CPU count) workers."""
    total = 1 << len(_pairs(n))
    workers = min(jobs, total, os.cpu_count() or 1)
    step = -(-total // workers)
    return [(n, lo, min(lo + step, total)) for lo in range(0, total, step)]


def census(n: int, bound: int = 5, jobs: int = 1) -> CensusResult:
    """Exhaustive recognition sweep over all 2^(n(n+1)/2) graphs.

    Counts labeled uniquely pressable graphs, their isomorphism
    classes, and the connected classes with an edge (the cup cores).
    Refuses n above the size bound; jobs > 1 splits the mask range
    across at most min(jobs, CPU count) processes.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > bound:
        raise OracleBoundError(
            f"census of {n}-vertex graphs exceeds bound {bound}"
        )
    if jobs < 1:
        raise ValueError("jobs must be positive")
    chunks = _census_chunks(n, jobs)
    if len(chunks) == 1:
        count, classes = _census_range(chunks[0])
    else:
        # Imported here: it costs every command's start-up otherwise.
        import multiprocessing

        count = 0
        classes = {}
        with multiprocessing.Pool(len(chunks)) as pool:
            for part_count, part_classes in pool.map(_census_range, chunks):
                count += part_count
                for key, conn in part_classes.items():
                    classes.setdefault(key, conn)
    cup_classes = sum(1 for conn in classes.values() if conn)
    return CensusResult(n, count, len(classes), cup_classes)


def __getattr__(name: str):
    # The module-level name multiprocessing stays reachable, imported on
    # first use instead of with the package.
    if name == "multiprocessing":
        import multiprocessing

        return multiprocessing
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
