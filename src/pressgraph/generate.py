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
runs the two maps on the cup's root column weights and builds it from
them once.  Past its first letter, with LR and RL taken as one in each
pair (2, 3), (4, 5), ..., the word is a ternary code: one word per
graph, listed by generate_cup, counted by cup_count.
"""

from __future__ import annotations

import itertools
import os
import random
from collections.abc import Iterable, Iterator, Sequence
from operator import and_, or_, rshift, xor

from .gf2 import _Record, iter_support
from .graphs import PseudoGraph
from .recognition import CENSUS_MAX_N, _decide

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


def _grow(weights: Sequence[int], word: Iterable[str]) -> list[int]:
    """Run word's maps on a cup's root column weights: R appends n + 1,
    L prepends 1 and rounds every odd weight up by one.

    Rounding twice changes nothing, so each weight is the one it was
    made with, rounded once if an L comes after it: an L makes 1, and
    the t-th letter (from 0), if R, makes len(weights) + t + 1.  The L
    weights lie newest first, then the given ones, then the R weights.
    """
    made = list(weights)
    lefts = last = 0
    for t, c in enumerate(word, len(made) + 1):
        if c == "L":
            # The weights made so far all come before this L.
            lefts, last = lefts + 1, len(made)
        elif c == "R":
            made.append(t)
        else:
            raise ValueError(f"choice must be 'L' or 'R', got {c!r}")
    if not lefts:
        return made
    # The newest L's 1 has no L after it; each older L's is rounded to 2.
    ones = [1, *[2] * (lefts - 1)]
    return [*ones, *[w + (w & 1) for w in made[:last]], *made[last:]]


def _gram(weights: Sequence[int]) -> PseudoGraph:
    """The cup U^T U on 1..n, for U the band of root column weights w.

    Column j of U has ones in rows j - w_j + 1 .. j (property 1), so U's
    rows are the running XOR of a list that flips bit j at row
    j - w_j + 1 and again at row j + 1.  Row j of U^T U XORs those rows
    of U: P[j] ^ P[j - w_j], for P[k] the XOR of U's first k rows.
    """
    d = [0] * (len(weights) + 1)
    for j, w in enumerate(weights):
        d[j - w + 1] ^= 1 << j
        d[j + 1] ^= 1 << j
    p = [0, *itertools.accumulate(itertools.accumulate(d, xor), xor)]
    rows = [p[j] ^ p[j - w] for j, w in enumerate(weights, 1)]
    return PseudoGraph._from_rows(tuple(range(1, len(rows) + 1)), rows)


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
    reason, _, order, weights = _decide(g.rows)
    if not n or reason is not None or order != list(range(n)):
        raise NotUniquelyPressableError(
            "input is not a canonically labeled uniquely pressable graph"
        )
    return _gram(_grow(weights, c))


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
    result.  The maps run on the root's column weights, and the graph
    is built from them once.  Distinct words may reach the same graph.
    """
    return _gram(_grow([1], choices))


def random_cup(n: int, rng: random.Random | None = None) -> PseudoGraph:
    """A pseudo-random cup graph on n vertices (not uniform over them).

    ``rng`` defaults to the random module's own generator.
    """
    if n < 1:
        raise ValueError("n must be positive")
    choice = random.choice if rng is None else rng.choice
    return cup_from_choices(choice("LR") for _ in range(n - 1))


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
    for rows in _mask_rows(n, range(1 << len(_pairs(n)))):
        yield wrap(labels, rows)


def _pair_tables(n: int) -> list[list[tuple[int, ...]]]:
    """Rows contributed by each byte of a pair-mask, one table per byte.

    Entry b of table c holds the rows of the graph whose edges are the
    pairs at mask bits 8c..8c+7 selected by b, so the rows of any mask
    are the OR of one entry per table: about P/8 tables of 256 entries
    for P = n(n+1)/2 pairs.  There is always one table, so that n = 0
    has its single empty graph.  Each pair doubles its table: the
    entries with its bit set are those before it, ORed with its edge.
    """
    pairs = _pairs(n)
    tables = []
    for start in range(0, max(len(pairs), 1), 8):
        table = [(0,) * n]
        for u, v in pairs[start:start + 8]:
            edge = [0] * n
            edge[u - 1] |= 1 << v - 1
            edge[v - 1] |= 1 << u - 1
            table += [tuple(map(or_, rows, edge)) for rows in table]
        tables.append(table)
    return tables


def _mask_rows(n: int, masks: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The rows of the graphs with each pair-mask in masks, in order.

    A mask's rows OR one entry of each byte table (_pair_tables).  While
    the masks ascend, the entries of the high bytes are ORed once per
    page of 256 masks, and each mask ORs in its low byte's entry.
    """
    low, *high = _pair_tables(n)
    page = None
    for mask in masks:
        if mask >> 8 != page:
            page = mask >> 8
            base = low[0]
            for c, table in enumerate(high, 1):
                base = tuple(map(or_, base, table[mask >> 8 * c & 255]))
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
# cached row each per level, and each v >= 3 one per subset of the
# other vertices in 3..n.  A larger k builds bigger rows that fewer
# blocks read, a smaller one more blocks and rows: levels 3-5 ran
# fastest at 2n - 1.  The cap leaves n >= 6 at 1,024 masks.  With the
# translate gather, cap 12 is slower: census 7 --jobs 2 took 20.7-22.4 s
# against 19.3-20.6 s (worker peak RSS 20.8-20.9 against 20.2-20.3 MiB),
# and census 6 0.57-0.58 s at caps 11-12 against 0.39-0.51 s (2 vCPUs).
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
    joins them into one short table, and the row is cached as each
    mask's spot in it.  The row keeps the low byte of every spot, and
    for each 256-byte window of the joined table an int with byte 0xFF
    at the masks whose spot lies in that window.  bytes.translate of
    the low bytes through a window reads a byte there for every mask,
    and ANDing with that int keeps the masks whose spot it holds, so
    the reads of all windows add up to the counts, with no index XORed
    and no int built per mask.  A row is built at its first block by
    C-level passes of map, bytes and translate, with no Python loop per
    mask.  The table of the level below is built the same way, upward
    from n = 0; the level-n masks are streamed.
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
                # lays them out in that order: XOR by at[t] moves page t.
                tops = list(map(and_, row, itertools.repeat(-page)))
                starts = sorted(set(tops))
                at = {t: t ^ i * page for i, t in enumerate(starts)}
                spots = list(map(xor, row, map(at.__getitem__, tops)))
                lows = bytes(map(and_, spots, itertools.repeat(255)))
                # Window h of that table is its bytes 256h .. 256h + 255;
                # translating the spots' high bytes by a table that maps h
                # alone to 0xFF marks the pair-masks whose spot is there.
                his = bytes(map(rshift, spots, itertools.repeat(8)))
                windows = [
                    (h << 8, int.from_bytes(his.translate(
                        bytes(h) + b"\xff" + bytes(255 - h)), "little"))
                    for h in range(max(his) + 1)
                ]
                entry = by_set[s] = starts, lows, windows
            starts, lows, windows = entry
            moved = map(xor, starts, itertools.repeat(d & in_below))
            table = b"".join([below[t:t + page] for t in moved])
            # Each count is at most 2 and comes through one window, so n
            # of them never carry for n <= 127.
            for w, keep in windows:
                window = table[w:w + 256].ljust(256, b"\0")
                total += int.from_bytes(
                    lows.translate(window), "little"
                ) & keep
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
    and only the masks with c = 1 have their rows built, by _mask_rows,
    which builds the rows of their high bytes once per 256-mask page.
    They reach the recognizer core, which must say yes on each, for its
    class key: the root column weights w, the padding being n - len(w).
    w fixes the core in press order, as _gram(w); and an isomorphism
    between yes graphs carries one unique sequence onto the other, so
    two share a key exactly when they are isomorphic.
    """
    n, lo, hi = args
    count, keys = 0, set()
    for rows in _mask_rows(n, _unique_masks(n, lo, hi)):
        reason, _, _, weights = _decide(rows)
        if reason is not None:
            raise RuntimeError(
                f"recognizer says {reason} on rows {rows}, which have "
                "exactly one successful pressing sequence"
            )
        count += 1
        keys.add(weights)
    return count, keys


def _unique_masks(n: int, lo: int, hi: int) -> Iterator[int]:
    """The pair-masks in [lo, hi) with c = 1 (_counts), ascending."""
    for block in _counts(n, lo, hi):
        at = block.find(1)
        while at >= 0:
            yield lo + at
            at = block.find(1, at + 1)
        lo += len(block)


def _census_chunks(n: int, jobs: int) -> list[tuple[int, int, int]]:
    """Mask ranges for at most min(jobs, masks, CPU count) workers."""
    total = 1 << len(_pairs(n))
    workers = min(jobs, total, os.cpu_count() or 1)
    step = -(-total // workers)
    return [(n, lo, min(lo + step, total)) for lo in range(0, total, step)]


def census(n: int, jobs: int = 1) -> CensusResult:
    """Census of the uniquely pressable graphs among all 2^(n(n+1)/2).

    Counts the labeled graphs with exactly one successful pressing
    sequence, by that definition (_counts), then their isomorphism
    classes and the connected classes with an edge (the cup cores), by
    the recognizer's keys on those graphs alone.  n = 0 counts the one
    empty graph.  n above CENSUS_MAX_N is refused with a ValueError
    before any table is built or worker started; jobs > 1 splits the
    mask range across at most min(jobs, CPU count) processes.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > CENSUS_MAX_N:
        raise ValueError(
            f"census of {n}-vertex graphs exceeds bound {CENSUS_MAX_N}"
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
