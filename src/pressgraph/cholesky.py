"""Pressing orders and instructional Cholesky roots over GF(2).

Pressing the vertices 1, 2, ... of an ordered graph mirrors Gaussian
elimination on its adjacency matrix: the row copied out just before
vertex i is pressed is the neighborhood of i at that moment.  Stacking
those rows gives an upper-triangular matrix U with U^T U = A, the
instructional Cholesky root of A.  It exists exactly when pressing the
vertices in order empties the graph, and it is unique for that order.

The greedy order repeatedly presses a looped vertex of maximum
degree (loop included), breaking ties toward the smaller label.  For a
graph with exactly one successful pressing sequence the maximum is
provably unique at every step, so an observed tie is a certificate of
non-uniqueness; the order records where the first one happened.
"""

from __future__ import annotations

from collections.abc import Sequence

from .gf2 import BitMatrix, _eliminate, _greedy, _Record, iter_support
from .graphs import (
    NotOrderPressableError,
    PseudoGraph,
    UnpressableError,
    _reach,
)

__all__ = [
    "CholeskyRoot",
    "PressingOrder",
    "instructional_root",
    "find_pressing_order",
]


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

    Runs gf2's greedy core, _greedy, until no looped vertex remains.  If
    any edge survives, UnpressableError carries one leftover component.
    That failure certifies the graph is not uniquely pressable; it does
    not rule out a successful sequence along some other order.
    """
    labels = g.labels
    order, _, first_tie, rows = _greedy(g.rows, False)
    if any(rows):
        comp = iter_support(_reach(rows, next(filter(None, rows))))
        raise UnpressableError(tuple(labels[j - 1] for j in comp))
    return PressingOrder(tuple(labels[i] for i in order), first_tie)

