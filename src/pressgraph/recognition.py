"""Recognition of uniquely pressable pseudo-graphs.

A graph has exactly one successful pressing sequence iff, after
stripping loopless isolated vertices, a single non-trivial component
remains and the Cholesky root taken under the greedy pressing order
satisfies four structural properties of its columns:

1. the ones in each column are consecutive and end at the diagonal;
2. the column weights are nondecreasing and start at exactly 1;
3. a weight above 2 must grow within two columns;
4. a non-initial column of odd weight must be full (weight equal to its
   index), and so must every column to its right.

Everything runs on packed bit rows, so recognition is O(n^3 / w) word
operations for an n-vertex graph.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from functools import cache
from itertools import compress
from operator import not_

from .gf2 import BitMatrix, _greedy, _press, _rank, _Record, iter_support
from .graphs import ORACLE_MAX_N, PseudoGraph, UnpressableError, _reach

__all__ = [
    "PropertyReport",
    "RecognitionReport",
    "OracleBoundError",
    "REASON_MULTI_COMPONENT",
    "REASON_UNPRESSABLE",
    "REASON_TIE",
    "check_properties",
    "recognize",
    "count_sequences_bruteforce",
    "pressing_length",
]

REASON_MULTI_COMPONENT = "MULTI_COMPONENT"
REASON_UNPRESSABLE = "UNPRESSABLE"
REASON_TIE = "TIE"


class OracleBoundError(ValueError):
    """The graph exceeds the configured brute-force size bound."""


class PropertyReport(_Record):
    """Outcome of the four column checks on an upper-triangular root.

    Each ``failN`` is the first witness column (1-based) when property N
    fails, else None, and ``propN`` is True exactly when it is None.
    ``column_weights`` are the integer column sums.
    """

    __match_args__ = ("fail1", "fail2", "fail3", "fail4", "column_weights")

    def __init__(
        self, fail1: int | None, fail2: int | None, fail3: int | None,
        fail4: int | None, column_weights: tuple[int, ...],
    ) -> None:
        self.__dict__.update(
            fail1=fail1, fail2=fail2, fail3=fail3, fail4=fail4,
            column_weights=column_weights,
        )

    @property
    def prop1(self) -> bool:
        return self.fail1 is None

    @property
    def prop2(self) -> bool:
        return self.fail2 is None

    @property
    def prop3(self) -> bool:
        return self.fail3 is None

    @property
    def prop4(self) -> bool:
        return self.fail4 is None

    @property
    def all_pass(self) -> bool:
        return self.first_failure() is None

    def first_failure(self) -> tuple[int, int] | None:
        """Lowest failing property number with its witness column."""
        fails = (self.fail1, self.fail2, self.fail3, self.fail4)
        for num, col in enumerate(fails, 1):
            if col is not None:
                return num, col
        return None


def check_properties(u: BitMatrix) -> PropertyReport:
    """Check the four membership properties of an upper-triangular matrix."""
    if not u.is_upper_triangular():
        raise ValueError("matrix must be upper-triangular")
    fails, weights = _check_columns(u.row_bits, range(u.n))
    return PropertyReport(*fails, weights)


def _check_columns(
    rows: Sequence[int], order: Sequence[int]
) -> tuple[tuple[int | None, ...], tuple[int, ...]]:
    """The four column checks on ``rows`` with columns taken in ``order``.

    Column j (1-based) is bit ``order[j - 1]`` of every row, and the rows
    must be upper-triangular in that column order, which lists every set bit.
    Returns ``(failures, weights)``: property N's first witness column,
    or None, at index N - 1, and the integer column sums.
    """
    n = len(order)
    # One top-down row scan: note the first row holding each column, and
    # track the columns whose run of ones has started but not yet
    # reached the diagonal.  A started column missing from the current
    # row breaks property 1.
    top: dict[int, int] = {}
    seen = active = broken = 0
    for t, r in enumerate(rows):
        new = r & ~seen
        while new:
            low = new & -new
            top[low.bit_length() - 1] = t
            new ^= low
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

    # One pass for properties 2-4; from the first odd non-initial
    # column on, every column must be full.
    fail2 = 1 if n and w[0] != 1 else None
    fail3 = fail4 = None
    odd = False
    for j in range(1, n):
        wj = w[j]
        if fail2 is None and wj < w[j - 1]:
            fail2 = j + 1
        if fail3 is None and j > 1 and w[j - 2] > 2 and wj <= w[j - 2]:
            fail3 = j + 1
        odd = odd or wj & 1
        if fail4 is None and odd and wj != j + 1:
            fail4 = j + 1

    return (fail1, fail2, fail3, fail4), tuple(w)


class RecognitionReport(_Record):
    """Verdict of the unique-pressability pipeline.

    On yes, ``sequence`` is the unique successful pressing sequence in
    original labels.  On no, ``reason`` names the first certificate the
    pipeline met, as one of the stable codes: MULTI_COMPONENT; then TIE
    (two looped vertices shared the maximum degree) or UNPRESSABLE (the
    greedy stalled with edges left), whichever came at the earlier
    step; then PROP1..PROP4 with ``column`` as the witness.
    ``stripped`` lists the loopless isolated vertices removed before
    the pipeline ran.
    """

    __match_args__ = ("verdict", "sequence", "reason", "column", "stripped")

    def __init__(
        self,
        verdict: bool,
        sequence: tuple[int, ...] | None = None,
        reason: str | None = None,
        column: int | None = None,
        stripped: tuple[int, ...] = (),
    ) -> None:
        self.__dict__.update(
            verdict=verdict, sequence=sequence, reason=reason, column=column,
            stripped=stripped,
        )

    def to_text(self) -> str:
        lines = [f"verdict: {'yes' if self.verdict else 'no'}"]
        if self.verdict:
            assert self.sequence is not None
            lines.append(
                ("sequence: " + " ".join(map(str, self.sequence))).rstrip()
            )
        else:
            detail = self.reason or "UNKNOWN"
            if self.column is not None:
                detail += f" col {self.column}"
            lines.append(f"reason: {detail}")
        if self.stripped:
            lines.append("stripped: " + " ".join(map(str, self.stripped)))
        return "\n".join(lines) + "\n"


def recognize(g: PseudoGraph) -> RecognitionReport:
    """Decide whether g has exactly one successful pressing sequence.

    Loopless isolated vertices (zero rows) are stripped first.  More
    than one non-trivial component rejects with MULTI_COMPONENT.  The
    greedy order then stops at its first tie (TIE) or stall
    (UNPRESSABLE), whichever comes first; each is impossible for a
    uniquely pressable graph, so no press past it is made.  Otherwise
    the greedy has pressed every core vertex (proved at _greedy), and
    its pivot rows, the root in g's own columns, are checked against
    the four column properties in press order (PROPk); the matrix is
    eliminated only once.
    """
    labels, rows = g.labels, g.rows
    reason, column, order, _ = _decide(rows)
    seq = tuple(labels[i] for i in order) if reason is None else None
    return RecognitionReport(
        reason is None, seq, reason, column,
        tuple(compress(labels, map(not_, rows))),
    )


def _decide(
    rows: Sequence[int],
) -> tuple[str | None, int | None, list[int], tuple[int, ...]]:
    """recognize's verdict core, on bare symmetric rows and no labels.

    Returns ``(reason, column, order, weights)``: the reason code, None
    on yes; the witness column of a PROPk reason, else None; the row
    indices the greedy pressed, in press order, which on yes is the
    unique pressing sequence; and on yes the root's column weights w in
    press order, one per nonzero row, else ().  A yes certifies the
    core: the pivots are its root along the order, and w passes
    properties 1-4, so in press order the core is U^T U for U the band
    of w, one of generate_cup's cups.  Only recognize builds a report.

    A yes needs no component check.  With no tie and no stall every
    nonzero row is pressed (_greedy), and a press changes only rows of
    its own component.  A second non-trivial component would be first
    pressed at some step s >= 2, with no earlier pivot in it, so root
    column s would hold only its diagonal: an odd weight 1 below the
    full weight s, which property 4 rejects.  (The scan ties before
    that.  A component's last pivot zeroes every row it names, so any
    such row but its own equalled it, looped at the same degree: a tie.
    So that pivot has weight 1, and when the first component to finish
    makes its last press, the other still holds a looped row, of
    degree at least 1: a tie again.)  So the reach only names the
    reason of a no, which on a disconnected graph would otherwise read
    TIE or UNPRESSABLE.  It runs first because it is one pass over the
    rows, where the greedy may run far before it ties.
    """
    first = next(filter(None, rows), 0)
    if not first:
        return None, None, [], ()
    # Reached vertices have nonzero rows: connected iff the counts agree.
    if _reach(rows, first).bit_count() != len(rows) - rows.count(0):
        return REASON_MULTI_COMPONENT, None, [], ()
    order, pivots, first_tie, pressed = _greedy(rows, True)
    if first_tie is not None:
        return REASON_TIE, None, order, ()
    if any(pressed):
        return REASON_UNPRESSABLE, None, order, ()
    # With no tie and no stall every nonzero row was pressed (_greedy).
    fails, weights = _check_columns(pivots, order)
    if fails == (None, None, None, None):
        return None, None, order, weights
    num, column = next(f for f in enumerate(fails, 1) if f[1] is not None)
    return f"PROP{num}", column, order, ()


def count_sequences_bruteforce(g: PseudoGraph, bound: int = 10) -> int:
    """Exact number of successful pressing sequences, by exhaustive DFS.

    Every press choice is explored at every state; states reached more
    than once are counted through a memo on the packed adjacency rows.
    Exponential in the worst case, hence the size bound, which is
    capped at ORACLE_MAX_N: a larger graph is refused before the memo
    is built.
    """
    bound = min(bound, ORACLE_MAX_N)
    if g.n > bound:
        raise OracleBoundError(
            f"graph has {g.n} vertices, oracle bound is {bound}"
        )
    n = g.n

    @cache
    def count(state: tuple[int, ...]) -> int:
        if not any(state):
            return 1
        total = 0
        for v in range(n):
            if (state[v] >> v) & 1:
                nxt = list(state)
                _press(nxt, v)
                total += count(tuple(nxt))
        return total

    return count(g.rows)


def pressing_length(g: PseudoGraph) -> int:
    """Length shared by every successful pressing sequence of g.

    That length is rank(A) over GF(2) of the adjacency matrix.  A
    successful sequence exists iff every non-trivial component has a
    looped vertex (Cooper and Davis); otherwise UnpressableError names
    the first component, by smallest label, that has none.
    """
    looped = g.looped_vertices()
    for comp in g.components():
        if not comp.trivial and looped.isdisjoint(comp.labels):
            raise UnpressableError(comp.labels)
    return _rank(g.rows)
