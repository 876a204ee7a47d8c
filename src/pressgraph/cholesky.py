"""Pressing orders and instructional Cholesky roots over GF(2).

Pressing the vertices 1, 2, ... of an ordered graph mirrors Gaussian
elimination on its adjacency matrix: the row copied out just before
vertex i is pressed is the neighborhood of i at that moment.  Stacking
those rows gives an upper-triangular matrix U with U^T U = A, the
instructional Cholesky root of A.  It exists exactly when pressing the
vertices in order empties the graph, and it is unique for that order.

The greedy order below repeatedly presses a looped vertex of maximum
degree (loop included), breaking ties toward the smaller label.  For a
graph with exactly one successful pressing sequence the maximum is
provably unique at every step, so an observed tie is a certificate of
non-uniqueness; the order records where the first one happened.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import compress

from .gf2 import (
    BitMatrix,
    _defer,
    _eliminate,
    _flush,
    _lanes,
    _Record,
    iter_support,
)
from .graphs import PseudoGraph, _reach

__all__ = [
    "CholeskyRoot",
    "PressingOrder",
    "NotOrderPressableError",
    "UnpressableError",
    "instructional_root",
    "find_pressing_order",
]


class NotOrderPressableError(ValueError):
    """Pressing in index order does not empty the graph.

    ``stuck_index`` is the 1-based position of the first vertex that has
    no loop when its turn comes while edges still remain.
    """

    def __init__(self, stuck_index: int):
        self.stuck_index = stuck_index
        super().__init__(
            f"not pressable in vertex order: stuck at index {stuck_index}"
        )

    def __reduce__(self):
        # args holds the message; rebuild from the index instead.
        return type(self), (self.stuck_index,)


class UnpressableError(ValueError):
    """Pressing ran out of looped vertices while edges remain.

    ``component`` is one leftover non-trivial component (its labels) at
    the point where no looped vertex remained.  A uniquely pressable
    graph never reaches this state; a merely pressable one can, when
    the max-degree choice strands part of the graph.
    """

    def __init__(self, component: tuple[int, ...]):
        self.component = component
        super().__init__(
            f"pressing stalled: loopless component {component} remains"
        )

    def __reduce__(self):
        # args holds the message; rebuild from the component instead.
        return type(self), (self.component,)


class PressingOrder(_Record):
    """A pressing order found by the greedy strategy.

    ``permutation`` lists the pressed labels in press order; the greedy
    ran to the end, and the vertices left unpressed ended isolated and
    loopless.  ``first_tie`` is the 1-based step at which two looped
    vertices first shared the maximum degree, or None.
    """

    __match_args__ = ("permutation", "first_tie")

    def __init__(
        self, permutation: tuple[int, ...], first_tie: int | None = None
    ) -> None:
        self.__dict__.update(permutation=permutation, first_tie=first_tie)


class CholeskyRoot(_Record):
    """An upper-triangular GF(2) root together with the vertex order used."""

    __match_args__ = ("matrix", "order")

    def __init__(self, matrix: BitMatrix, order: tuple[int, ...]) -> None:
        self.__dict__.update(matrix=matrix, order=order)


def instructional_root(
    a: BitMatrix, order: Sequence[int] | None = None
) -> CholeskyRoot:
    """Eliminate ``a`` in index order and collect the pivot rows.

    While the current diagonal entry is 1, the current row is copied
    into the root and added to every later row with a 1 in the pivot
    column.  Elimination stops at the first zero diagonal; the remaining
    rows must then all be zero (the graph pressed empty early), else the
    order cannot press the graph and NotOrderPressableError is raised.

    ``order`` only annotates which vertex labels the matrix indices
    stand for; it defaults to 1..n.
    """
    if not a.is_symmetric():
        raise ValueError("matrix must be symmetric")
    n = a.n
    if order is None:
        order = tuple(range(1, n + 1))
    else:
        order = tuple(order)
        if len(order) != n or len(set(order)) != n:
            raise ValueError(f"order must list {n} distinct labels")
    return CholeskyRoot(BitMatrix(n, _root_rows(list(a.row_bits))), order)


def _root_rows(rows: list[int]) -> list[int]:
    """instructional_root's rows, eliminating symmetric ``rows`` in place."""
    root = _eliminate(rows, range(len(rows)))
    if any(rows[len(root) :]):
        raise NotOrderPressableError(stuck_index=len(root) + 1)
    return root + [0] * (len(rows) - len(root))


def find_pressing_order(g: PseudoGraph) -> PressingOrder:
    """Greedy pressing order: max-degree looped vertex, smallest label first.

    Runs the greedy core, _greedy, until no looped vertex remains.  If
    any edge survives, UnpressableError carries one leftover component.
    That failure certifies the graph is not uniquely pressable; it does
    not rule out a successful sequence along some other order.
    """
    labels = g.labels
    order, _, first_tie, rows, alive = _greedy(g.rows, False)
    if alive:
        comp = iter_support(_reach(rows, rows[alive[0]]))
        raise UnpressableError(tuple(labels[j - 1] for j in comp))
    return PressingOrder(tuple(labels[i] for i in order), first_tie)


def _greedy(rows: Sequence[int], stop_at_tie: bool) -> tuple:
    """The one greedy loop, on bare symmetric rows pressed in a copy.

    Returns ``(order, pivots, first_tie, rows, alive)``: the pressed
    indices, each one's row just before its press, the 1-based step of
    the first tie or None, the pressed copy and the indices still
    nonzero.  ``alive`` is nonempty after a stall, or after
    ``stop_at_tie`` stopped the loop at ``first_tie``, before pressing.

    The scan reads only the looped rows, off the mask ``looped`` of
    diagonal bits, kept as ``looped ^= pivot`` after each press.  That
    is exact: a press of p XORs the pivot into the rows holding bit p,
    which by symmetry are the rows i whose bit the pivot holds, so
    each of their diagonals flips, row p's included, and no other.

    Presses wait in gf2's table of pivot sums, the kernel ``_eliminate``
    uses: row i stands for ``rows[i]`` XOR the table entry that byte i
    of ``keys`` names.  The scan and the pivot read rows caught up that
    way, and every return flushes first.  A pivot of more than 32 bits
    joins the table, which flushes every row in one C-level pass when 8
    wait.  A lighter one is XORed straight into the stale rows its
    bits name: joining costs about what 30 to 60 such XORs cost (an
    eighth of a flush and the table's doubling, at n = 128 to 2048).
    Mixing the two is exact because presses commute as XORs: a press
    adds its pivot to the rows holding bit p, which by symmetry are the
    rows the pivot names, whatever pending terms they still owe.  So
    either path leaves a row's caught-up value its start XOR every pivot
    that named it, and a straight XOR leaves the pending terms as they
    were.

    With no tie and no stall, every nonzero row was pressed.  With no
    stall every row ends at zero.  A row changes only when a pivot whose
    bit it holds is XORed into it, and a press keeps the rows symmetric.
    Were row v never pressed yet zeroed, then just before some press of
    p != v row v held bit p and equalled row p; by symmetry row p held
    bit v, so row v held bit v: v was looped with the degree of p, the
    maximum, and the scan tied.
    """
    n = len(rows)
    index = range(n)
    rows = list(rows)
    order: list[int] = []
    pivots: list[int] = []
    first_tie: int | None = None
    table, keys = [0], 0
    looped = sum(r & 1 << i for i, r in enumerate(rows))
    while looped:
        if not looped & looped - 1:
            # One looped row, so no tie: most steps on census-sized
            # graphs, where the scan's set-up would cost the most.
            best = looped.bit_length() - 1
        else:
            best_deg = 0
            tied = False
            kb = keys.to_bytes(n, "little")
            for i in compress(index, _lanes(looped)):
                d = (rows[i] ^ table[kb[i]]).bit_count()
                if d > best_deg:
                    best, best_deg, tied = i, d, False
                elif d == best_deg:
                    tied = True
            if tied and first_tie is None:
                first_tie = len(order) + 1
                if stop_at_tie:
                    break
        pivot = rows[best] ^ table[keys >> 8 * best & 255]
        order.append(best)
        pivots.append(pivot)
        if pivot.bit_count() <= 32:
            # _press's loop, inline: a call per press cost census-5 4%.
            for i in compress(index, _lanes(pivot)):
                rows[i] ^= pivot
        else:
            table, keys = _defer(rows, table, keys, pivot)
        looped ^= pivot
    _flush(rows, table, keys)
    return order, pivots, first_tie, rows, list(compress(index, rows))
