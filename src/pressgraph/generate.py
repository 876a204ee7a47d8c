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

import _random
import itertools
import os
from collections.abc import Iterable, Iterator
from operator import itemgetter, or_, xor

from .gf2 import _Record, iter_support
from .graphs import PseudoGraph
from .recognition import OracleBoundError, _decide

__all__ = [
    "NotUniquelyPressableError",
    "extend_right",
    "extend_left",
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


def extend_right(g: PseudoGraph) -> PseudoGraph:
    """Grow a cup graph on 1..n into one on 1..n+1, pressed last.

    The new vertex n+1 is joined to every looped vertex of g and gets a
    loop exactly when n is even.
    """
    return _extend_checked(g, "R")


def extend_left(g: PseudoGraph) -> PseudoGraph:
    """Grow a cup graph on 1..n into one on 1..n+1, pressed first.

    Old vertex i becomes i+1.  All pairs inside the looped set are
    toggled, then a new looped vertex 1 is joined to exactly the
    vertices that were looped.  Pressing 1 in the result restores g,
    shifted up by one.
    """
    return _extend_checked(g, "L")


def _extend_checked(g: PseudoGraph, c: str) -> PseudoGraph:
    """Map c on g, a cup graph on 1..n (checked), onto a cup on 1..n+1."""
    n = g.n
    if g.labels != tuple(range(1, n + 1)):
        raise ValueError("labels must be 1..n")
    reason, _, order, _ = _decide(g.rows)
    if not n or reason is not None or order != list(range(n)):
        raise NotUniquelyPressableError(
            "input is not a canonically labeled uniquely pressable graph"
        )
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


def random_cup(n: int, rng: _random.Random | None = None) -> PseudoGraph:
    """A pseudo-random cup graph on n vertices (not uniform over them).

    ``rng`` is a ``random.Random``, by default the random module's own.
    Its annotation names the C base class of ``random.Random``, so that
    ``typing.get_type_hints`` resolves it while the random module stays
    out of every command's start-up.
    """
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


def _rows_of(
    tables: list[list[tuple[int, ...]]], mask: int
) -> tuple[int, ...]:
    """The rows of one pair-mask, from its byte tables (_pair_tables)."""
    first, *rest = tables
    rows = first[mask & 255]
    for table in rest:
        mask >>= 8
        rows = tuple(map(or_, rows, table[mask & 255]))
    return rows


def _mask_rows(n: int, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
    """The rows of the graphs with pair-mask in [lo, hi), in order."""
    tables = _pair_tables(n)
    low = tables[0]
    base_of = None
    for mask in range(lo, hi):
        # The bytes above the lowest change once per 256 masks.
        if mask >> 8 != base_of:
            base_of = mask >> 8
            base = _rows_of(tables, base_of << 8)
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


# Caps the bits of a block of _counts, k = min(_BLOCK_BITS, 2n - 1); no
# level has fewer pairs.  The first 2n - 1 pairs are those at vertices 1
# and 2, so a block fixes the graph on 3..n: vertices 1 and 2 need one
# cached gather each per level, and each v >= 3 one per subset of the
# other vertices in 3..n.  A larger k builds bigger gathers that fewer
# blocks read, a smaller one more blocks and gathers: levels 3-5 ran
# fastest at 2n - 1.  The cap leaves n >= 6 at 1,024 masks: a cap of 12
# made census 7 --jobs 2 about a tenth faster (CPython 3.11.7, 2 vCPUs)
# but raised each worker's peak RSS from 21.6 to 32.4 MiB, 13 to 43.9.
_BLOCK_BITS = 10
# Caps a byte of summed counts at 2.
_CAP = bytes(min(c, 2) for c in range(256))


def _counts(n: int, lo: int, hi: int) -> Iterator[bytes]:
    """c(G) capped at 2 for each pair-mask in [lo, hi), in blocks.

    c(G) is the number of successful pressing sequences of G, from the
    definition: 1 for the edgeless graph, else the sum over looped v of
    c(G_v), where G_v is G pressed at v with v deleted.  The blocks hold
    one byte per mask, in mask order, each 2^k masks, aligned to that
    size except where lo or hi cuts one; k = min(_BLOCK_BITS, 2n - 1).

    The press at v toggles every pair inside N(v), loops included, and
    leaves v isolated, so the (n - 1)-vertex pair-mask of G_v is the
    mask of G - v XOR the mask of all pairs inside N(v) - v.  This is a
    second form of the press, on pair-masks, beside gf2._press on rows;
    the tests check the one against the other.  For each v, every bit
    of G's mask is a pair of G - v, a vertex of N(v) - v or v's loop;
    packed into one int, with a flag that v's loop clears, the parts of
    G's bits XOR to the mask of G - v, the flag and N(v) - v.  So over
    a block of masks that share their high bits, the index of G_v in
    the table of the level below is one row, fixed by the high part of
    N(v) - v, XOR one number d; the flag of an unlooped v indexes a
    zero half appended to that table.  d sets only the flag and the
    bits of the high pairs that avoid v, which under lexicographic pair
    order are the top bits of the index, none below page.  So a row,
    cached per v and high part of N(v) - v, reads a few pages of the
    table below, the same ones moved by d in every block: each block
    joins them into one short table and gathers from it through a
    getter cached with the row, XORing no index per mask.  The table
    of the level below is built the same way, upward from n = 0; the
    level-n masks are streamed.
    """
    if n == 0:
        yield b"\x01"[lo:hi]
        return
    pairs = _pairs(n)
    index = {pair: 1 << t for t, pair in enumerate(_pairs(n - 1))}
    # A packed part: a mask below flag, the flag, then N(v) - v from
    # bit shift up; the bits below shift index the table below.
    flag = 1 << len(index)
    shift = len(index) + 1
    in_below = (1 << shift) - 1
    below = b"".join(_counts(n - 1, 0, flag)) + bytes(flag)
    # clique[S]: the mask of all pairs inside S, loops included.
    clique = [
        sum(index[i, j] for i in iter_support(s) for j in iter_support(s)
            if i <= j)
        for s in range(1 << (n - 1))
    ]
    # A block varies every pair at vertices 1 and 2 (_BLOCK_BITS).
    k = min(_BLOCK_BITS, 2 * n - 1)
    size = 1 << k
    vertices = []
    for v in range(1, n + 1):
        parts = []
        for i, j in pairs:
            if i == j == v:
                parts.append(flag)
            elif v in (i, j):
                u = i + j - v
                parts.append(1 << shift + u - 1 - (u > v))
            else:
                parts.append(index[i - (i > v), j - (j > v)])
        # low[L]: the XOR of the parts of the bits set in L, and flag.
        low = [flag]
        for part in parts[:k]:
            low += [x ^ part for x in low]
        # The low pairs that avoid v are the first positions of the level
        # below, so d, the high pairs' part, sets no bit under page.
        page = 1 << sum(v not in pair for pair in pairs[:k])
        vertices.append((
            [x & in_below for x in low], [x >> shift for x in low],
            parts[k:], pairs.index((v, v)), page, {},
        ))
    for base in range(lo - lo % size, hi, size):
        total = int(base == 0)
        for low_index, low_set, high, loop, page, by_set in vertices:
            if loop >= k and not base >> loop & 1:
                continue  # v is unlooped on the whole block
            d = 0
            for t in iter_support(base >> k):
                d ^= high[t - 1]
            s = d >> shift
            entry = by_set.get(s)
            if entry is None:
                sets = map(or_, low_set, itertools.repeat(s))
                row = list(map(xor, low_index, map(clique.__getitem__, sets)))
                # The pages that row touches, and row in the table that
                # lays them out in that order.
                starts = sorted({x & -page for x in row})
                at = {t: i * page for i, t in enumerate(starts)}
                entry = by_set[s] = starts, itemgetter(
                    *[at[x & -page] | x & page - 1 for x in row]
                )
            starts, gather = entry
            moved = map(xor, starts, itertools.repeat(d & in_below))
            counts = gather(b"".join([below[t:t + page] for t in moved]))
            # Each count is at most 2, so n of them never carry for n <= 127.
            total += int.from_bytes(bytes(counts), "little")
        # A block that lo or hi cuts is counted whole, then cut.
        yield total.to_bytes(size, "little").translate(_CAP)[
            max(lo - base, 0):hi - base
        ]


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

    The count comes from the definition (_counts), streamed in blocks,
    and only the masks with c = 1 have their rows built: they reach the
    recognizer core, which must say yes on each, for its class key: the
    root column weights w, the padding being n - len(w).
    By property 1 the ones of column j are rows j - w_j + 1 .. j, so w
    fixes the root U and with it A = U^T U in press order; and an
    isomorphism between yes graphs carries one unique sequence onto the
    other, so two share a key exactly when they are isomorphic.
    """
    n, lo, hi = args
    tables = _pair_tables(n)
    count, keys = 0, set()
    for block in _counts(n, lo, hi):
        at = block.find(1)
        while at >= 0:
            rows = _rows_of(tables, lo + at)
            reason, _, _, weights = _decide(rows)
            if reason is not None:
                raise RuntimeError(
                    f"recognizer says {reason} on rows {rows}, which have "
                    "exactly one successful pressing sequence"
                )
            count += 1
            keys.add(weights)
            at = block.find(1, at + 1)
        lo += len(block)
    return count, keys


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
