"""Shared fixtures: golden matrices, golden graphs, and naive oracles.

The naive helpers here deliberately avoid the library's own fast paths
(bit tricks, memoized search) so they can serve as independent
cross-checks.
"""

import io
import sys
import contextlib

import pytest

from pressgraph import BitMatrix, PseudoGraph, InvalidPressError
from pressgraph.cli import main as cli_main


# 5x5 worked example: adjacency matrix and its upper-triangular root.
EXAMPLE5_TEXT = "5\n10001\n01010\n00000\n01010\n10001\n"
EXAMPLE5_ROOT_TEXT = "5\n10001\n01010\n00000\n00000\n00000\n"

# Two 4x4 upper-triangular candidates: the first satisfies all four
# root-column properties, the second breaks the weight monotonicity.
GOOD4_ROWS = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
BAD4_ROWS = [[1, 1, 1, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]]


@pytest.fixture
def example5():
    return BitMatrix.from_text(EXAMPLE5_TEXT)


@pytest.fixture
def example5_root():
    return BitMatrix.from_text(EXAMPLE5_ROOT_TEXT)


@pytest.fixture
def good4():
    return BitMatrix.from_rows(GOOD4_ROWS)


@pytest.fixture
def bad4():
    return BitMatrix.from_rows(BAD4_ROWS)


@pytest.fixture
def cup2():
    return PseudoGraph((1, 2), frozenset({(1, 1), (1, 2)}))


@pytest.fixture
def loop_path3():
    # vertex 1 looped, edge 1-3, vertex 2 isolated
    return PseudoGraph((1, 2, 3), frozenset({(1, 1), (1, 3)}))


def naive_press(g, v):
    """Press v by the definition, on edge sets: toggle every pair of
    vertices in the closed neighborhood of v, loops included.

    Kept apart from PseudoGraph.press, which runs on packed rows, so
    the two can check each other.
    """
    edges = g.edges
    if (v, v) not in edges:
        raise InvalidPressError(v)
    nb = sorted({b if a == v else a for a, b in edges if v in (a, b)})
    toggle = {
        (nb[i], nb[j]) for i in range(len(nb)) for j in range(i, len(nb))
    }
    return PseudoGraph(g.labels, edges ^ toggle)


def naive_successful_sequences(g, bound=8):
    """Every successful pressing sequence of g, by plain recursion.

    Uses only naive_press, no memoization, no bit tricks; meant as an
    oracle for the fast counter.  Exponential, so keep n small.
    """
    if g.n > bound:
        raise ValueError(f"naive enumeration capped at {bound} vertices")
    out = []

    def walk(h, prefix):
        edges = h.edges
        if not edges:
            out.append(tuple(prefix))
            return
        for v in sorted(u for u, w in edges if u == w):
            walk(naive_press(h, v), prefix + [v])

    walk(g, [])
    return out


def dense_det2(rows):
    """GF(2) determinant of a dense 0/1 list-of-lists, by elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            return 0
        m[col], m[piv] = m[piv], m[col]
        for r in range(col + 1, n):
            if m[r][col]:
                m[r] = [a ^ b for a, b in zip(m[r], m[col])]
    return 1


def run_cli(argv, stdin=None):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(argv))
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()
