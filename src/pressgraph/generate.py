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
so an L (prepend) / R (append) word names each one; cup_from_choices
builds it by running the two maps on adjacency rows.  Past its first
letter, with LR and RL taken as one in each pair (2, 3), (4, 5), ...,
the word is a ternary code: one word per graph, listed by
generate_cup, counted by cup_count.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Iterable, Iterator, Sequence
from operator import getitem, or_

from .gf2 import _Record, _press, iter_support
from .graphs import PseudoGraph, _increasing
from .recognition import OracleBoundError, _decide

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


def _is_cup_form(rows: Sequence[int]) -> bool:
    """True when rows on labels 1..n are pressed uniquely in that order."""
    reason, _, order, _ = _decide(rows)
    return bool(rows) and reason is None and order == list(range(len(rows)))


def _extend(rows: list[int], looped: int, c: str) -> tuple[list[int], int]:
    """Extension map c ("R" or "L") on 0-based rows and their looped mask.

    Returns the new rows and their looped mask; ``rows`` may be reused.
    "L" XORs the new vertex 0's row into each old looped row: that
    toggles every pair inside the old looped set, loops included.
    """
    n = len(rows)
    if c == "R":
        bit = 1 << n
        for j in iter_support(looped):
            rows[j - 1] |= bit
        if n % 2 == 0:
            looped |= bit
        rows.append(looped)
        return rows, looped
    if c == "L":
        new = 1 | looped << 1
        rows = [new, *[r << 1 for r in rows]]
        # Old vertex j - 1 is now vertex j.
        for j in iter_support(looped):
            rows[j] ^= new
        return rows, 1
    raise ValueError(f"choice must be 'L' or 'R', got {c!r}")


def shift_labels(g: PseudoGraph, offset: int = 1) -> PseudoGraph:
    """Relabel every vertex by adding offset (labels must stay positive)."""
    labels = tuple(lab + offset for lab in g.labels)
    if not _increasing(labels):
        raise ValueError(
            "labels must be strictly increasing positive integers"
        )
    return PseudoGraph._from_rows(labels, g.rows)


def extend_right(g: PseudoGraph, check: bool = True) -> PseudoGraph:
    """Grow a cup graph on 1..n into one on 1..n+1, pressed last.

    The new vertex n+1 is joined to every looped vertex of g and gets a
    loop exactly when n is even.  With check=True the input must be a
    cup graph, which guarantees the output is one too.
    """
    return _extend_checked(
        g, check, "R", 1, "labels must be 1..n",
        "input is not a canonically labeled uniquely pressable graph",
    )


def extend_left(g: PseudoGraph, check: bool = True) -> PseudoGraph:
    """Grow a shifted cup graph on 2..n+1 into one on 1..n+1.

    The input must already carry labels 2..n+1 (see shift_labels).  All
    pairs inside its looped set are toggled, then a new looped vertex 1
    is joined to exactly the vertices that were looped.  Pressing 1 in
    the result restores g, so the new vertex is pressed first.  With
    check=True the input, shifted back down, must be a cup graph.
    """
    return _extend_checked(
        g, check, "L", 2, "labels must be 2..n+1",
        "input is not a shifted canonically labeled uniquely pressable graph",
    )


def _extend_checked(
    g: PseudoGraph, check: bool, c: str, first: int, label_error: str,
    cup_error: str,
) -> PseudoGraph:
    """Map c on g, whose labels must start at first, onto labels 1..n+1."""
    n = g.n
    if g.labels != tuple(range(first, first + n)):
        raise ValueError(label_error)
    if check and not _is_cup_form(g.rows):
        raise NotUniquelyPressableError(cup_error)
    looped = sum(1 << i for i, r in enumerate(g.rows) if r >> i & 1)
    rows, _ = _extend(list(g.rows), looped, c)
    return PseudoGraph._from_rows(tuple(range(1, n + 2)), rows)


def generate_cup(n: int) -> tuple[PseudoGraph, ...]:
    """All cup graphs on n vertices, one per code word, in code order.

    The code word of a cup graph on n >= 2 vertices is "L", then one of
    LL, LR, RR for each of the (n-2)//2 letter pairs, then for odd n a
    trailing L or R; n = 1 has the empty word, n = 0 the empty graph.
    Code order puts the trailing letter first (L < R), then the pairs
    from last to first (LL < LR < RR): it sorts the graphs by rows.
    """
    return tuple(_cups(n))


def _cups(n: int) -> Iterator[PseudoGraph]:
    """generate_cup(n), built one graph at a time."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < 2:
        yield cup_from_choices("") if n else PseudoGraph((), frozenset())
        return
    tails = ("L", "R") if n % 2 else ("",)
    spellings = [("LL", "LR", "RR")] * ((n - 2) // 2)
    for tail, *pairs in itertools.product(tails, *spellings):
        yield cup_from_choices("L" + "".join(reversed(pairs)) + tail)


def cup_from_choices(choices: Iterable[str]) -> PseudoGraph:
    """Cup graph reached from the single loop by a word of extensions.

    Each element of choices is "R" (append a last-pressed vertex) or
    "L" (prepend a first-pressed vertex); len(choices)+1 vertices
    result.  The maps run on adjacency rows, with the looped mask
    carried along.  Distinct words may reach the same graph.
    """
    rows, looped = [1], 1
    for c in choices:
        rows, looped = _extend(rows, looped, c)
    return PseudoGraph._from_rows(tuple(range(1, len(rows) + 1)), rows)


def random_cup(n: int, rng: random.Random | None = None) -> PseudoGraph:
    """A pseudo-random cup graph on n vertices (not uniform over them)."""
    if n < 1:
        raise ValueError("n must be positive")
    if rng is None:
        # Imported here: it costs every command's start-up otherwise.
        import random as rng
    return cup_from_choices(rng.choice("LR") for _ in range(n - 1))


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
    labels = tuple(range(1, n + 1))
    wrap = PseudoGraph._from_rows
    for rows in _mask_rows(n, 0, 1 << len(_pairs(n))):
        yield wrap(labels, rows)


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


def _mask_rows(n: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """The rows of the graphs with pair-mask in [lo, hi), in order."""
    low, *high = _pair_tables(n)
    base_of = None
    for mask in range(lo, hi):
        # The bytes above the lowest change once per 256 masks.
        if mask >> 8 != base_of:
            base_of = m = mask >> 8
            base = (0,) * n
            for table in high:
                base = tuple(map(or_, base, table[m & 255]))
                m >>= 8
        yield tuple(map(or_, base, low[mask & 255]))


def canonical_form(g: PseudoGraph) -> tuple[int, ...]:
    """Isomorphism invariant: minimal packed adjacency over relabelings."""
    n = g.n
    supports = [[j - 1 for j in iter_support(r)] for r in g.rows]

    def relabeled(perm: tuple[int, ...]) -> tuple[int, ...]:
        inv = [0] * n
        for t, s in enumerate(perm):
            inv[s] = t
        cand = []
        for s in perm:
            bits = 0
            for j in supports[s]:
                bits |= 1 << inv[j]
            cand.append(bits)
        return tuple(cand)

    # permutations(range(0)) yields one empty tuple, so n = 0 gives ().
    return min(map(relabeled, itertools.permutations(range(n))))


def _drops(n: int) -> list[list[list[int]]]:
    """Squeeze tables from n-vertex rows to (n - 1)-vertex pair-masks.

    drop[v][u][r] is the part of the pair-mask of G - v that row u adds
    when it holds r: bit j >= u of r, j != v, is the pair of indices u
    and j, each moved down by one when above v.  Row v adds nothing.
    """
    index = {pair: 1 << t for t, pair in enumerate(_pairs(n - 1))}
    drop = []
    for v in range(n):
        per_row = []
        for u in range(n):
            bits = [
                index[u - (u > v) + 1, j - (j > v) + 1]
                if u != v and j != v and j >= u else 0
                for j in range(n)
            ]
            per_row.append([
                sum(b for j, b in enumerate(bits) if r >> j & 1)
                for r in range(1 << n)
            ])
        drop.append(per_row)
    return drop


def _counts(n: int, lo: int, hi: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """c(G) capped at 2, and G's rows, for each pair-mask in [lo, hi).

    c(G) is the number of successful pressing sequences of G, from the
    definition: 1 for the edgeless graph, else the sum over looped v of
    c(G_v), where G_v is G pressed at v with v deleted.  A press leaves
    v isolated, so c(G_v) is one lookup in the capped table of every
    (n - 1)-vertex pair-mask, which is built first, the same way.
    """
    below = b""
    if n:
        masks = 1 << len(_pairs(n - 1))
        below = bytearray(c for c, _ in _counts(n - 1, 0, masks))
    drop = _drops(n)
    verts = range(n)
    for rows in _mask_rows(n, lo, hi):
        total = 0 if any(rows) else 1
        for v in verts:
            if rows[v] >> v & 1:
                pressed = list(rows)
                _press(pressed, v, verts)
                total += below[sum(map(getitem, drop[v], pressed))]
                if total >= 2:
                    # A sum of 1 + 2 would otherwise store 3.
                    total = 2
                    break
        yield total, rows


class CensusResult(_Record):
    """Tallies of the uniquely pressable graphs among all on n vertices.

    labeled_total counts pair-masks with exactly one successful
    sequence; the classes are counted by the recognizer's weight keys.
    """

    __match_args__ = (
        "n", "labeled_total", "up_iso_classes", "cup_iso_classes"
    )

    def __init__(
        self, n: int, labeled_total: int, up_iso_classes: int,
        cup_iso_classes: int,
    ) -> None:
        self.__dict__.update(
            n=n, labeled_total=labeled_total, up_iso_classes=up_iso_classes,
            cup_iso_classes=cup_iso_classes,
        )

    def to_text(self) -> str:
        return (
            f"n={self.n} labeled_total={self.labeled_total} "
            f"up_iso_classes={self.up_iso_classes} "
            f"cup_iso_classes={self.cup_iso_classes}\n"
        )


def _census_range(args: tuple[int, int, int]) -> tuple[int, set]:
    """Count the pair-masks in [lo, hi) with one successful sequence.

    The count comes from the definition (_counts); only those graphs
    reach the recognizer core, which must say yes on each, for its
    class key: the root column weights w, the padding being n - len(w).
    By property 1 the ones of column j are rows j - w_j + 1 .. j, so w
    fixes the root U and with it A = U^T U in press order; and an
    isomorphism between yes graphs carries one unique sequence onto the
    other, so two share a key exactly when they are isomorphic.
    """
    keys = []
    for c, rows in _counts(*args):
        if c == 1:
            reason, _, _, weights = _decide(rows)
            if reason is not None:
                raise RuntimeError(
                    f"recognizer says {reason} on rows {rows}, which have "
                    "exactly one successful pressing sequence"
                )
            keys.append(weights)
    return len(keys), set(keys)


def _census_chunks(n: int, jobs: int) -> list[tuple[int, int, int]]:
    """Mask ranges for at most min(jobs, masks, CPU count) workers."""
    total = 1 << len(_pairs(n))
    workers = min(jobs, total, os.cpu_count() or 1)
    step = -(-total // workers)
    return [(n, lo, min(lo + step, total)) for lo in range(0, total, step)]


def census(n: int, bound: int = 5, jobs: int = 1) -> CensusResult:
    """Census of the uniquely pressable graphs among all 2^(n(n+1)/2).

    Counts the labeled graphs with exactly one successful pressing
    sequence, by that definition (_counts), then their isomorphism
    classes and the connected classes with an edge (the cup cores), by
    the recognizer's keys on those graphs alone.
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
        parts = [_census_range(chunks[0])]
    else:
        # Imported here: it costs every command's start-up otherwise.
        import multiprocessing

        with multiprocessing.Pool(len(chunks)) as pool:
            parts = pool.map(_census_range, chunks)
    classes = set().union(*(keys for _, keys in parts))
    # A key of length n has no padding: a connected class with an edge.
    cup_classes = sum(len(w) == n for w in classes)
    return CensusResult(
        n, sum(count for count, _ in parts), len(classes), cup_classes
    )
