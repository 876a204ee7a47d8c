"""Seeded input generators for the benchmark.

Everything here is built from ``random.Random(seed)`` and packed-int
rows, without calling the library's own constructors
(``cup_from_choices``, ``random_cup``), so a change to the library
cannot change the inputs it is measured on.

Rows are Python ints used as bitsets: vertex i (0-based) is bit i.
"""

from __future__ import annotations

import random
from math import comb, factorial


def cup_root(word: str) -> list[int]:
    """Upper-triangular root rows of the cup graph reached by an L/R word.

    Start from the single loop.  "R" appends a vertex pressed last: its
    root column is full, so every row gains the new bit and a new
    diagonal row is added.  "L" prepends a vertex pressed first: the
    old root shifts one column right and a new top row has a 1 on the
    diagonal and in every old column whose weight is odd (the looped
    vertices of the old graph).
    """
    rows = [1]
    weights = [1]  # column weights of the root
    for c in word:
        n = len(rows)
        if c == "R":
            new = 1 << n
            rows = [r | new for r in rows]
            rows.append(new)
            weights.append(n + 1)
        elif c == "L":
            odd = 0
            for j, w in enumerate(weights):
                if w & 1:
                    odd |= 1 << j
            rows = [1 | (odd << 1)] + [r << 1 for r in rows]
            weights = [1] + [w + (w & 1) for w in weights]
        else:
            raise ValueError(f"choice must be 'L' or 'R', got {c!r}")
    return rows


def gram(root: list[int]) -> list[int]:
    """Adjacency rows of A = U^T U over GF(2)."""
    adj = [0] * len(root)
    for r in root:
        x = r
        while x:
            low = x & -x
            x ^= low
            adj[low.bit_length() - 1] ^= r
    return adj


def biased_word(n: int, rng: random.Random) -> str:
    """n-1 extension choices, biased 3:1 toward R."""
    return "".join("R" if rng.random() < 0.75 else "L" for _ in range(n - 1))


def permutation(n: int, rng: random.Random) -> list[int]:
    """A seeded bijection from 0-based vertex index to label 1..n."""
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return labels


def relabel(adj: list[int], label: list[int]) -> list[int]:
    """Adjacency rows after moving vertex i to position label[i] - 1."""
    out = [0] * len(adj)
    for i, r in enumerate(adj):
        bits = 0
        while r:
            low = r & -r
            r ^= low
            bits |= 1 << (label[low.bit_length() - 1] - 1)
        out[label[i] - 1] = bits
    return out


def graph_text(adj: list[int]) -> str:
    """Graph text of adjacency rows, vertex i labeled i + 1.

    The layout is the one ``PseudoGraph.to_text`` writes: count, label
    line, then the edges "u v" with u <= v in ascending order.
    """
    lines = [str(len(adj)), " ".join(map(str, range(1, len(adj) + 1)))]
    for i, r in enumerate(adj):
        x = r >> i
        while x:
            low = x & -x
            x ^= low
            lines.append(f"{i + 1} {i + low.bit_length()}")
    return "\n".join(lines) + "\n"


def cup_case(n: int, rng: random.Random) -> tuple[str, tuple[int, ...]]:
    """Permuted cup graph text and its planted (unique) pressing sequence.

    The unpermuted cup is pressed in index order, so the planted
    sequence is the labels of indices 0..n-1 in turn.
    """
    label = permutation(n, rng)
    adj = relabel(gram(cup_root(biased_word(n, rng))), label)
    return graph_text(adj), tuple(label)


def mirror_adjacency(m: int, rng: random.Random) -> list[int]:
    """Two copies of a random loopy graph on m vertices, joined by rungs.

    Edges and loops each have density 1/2.  Vertex i of the first copy
    is joined to vertex i + m of the second.  Swapping the copies is a
    fixed-point-free automorphism, so any successful pressing sequence
    has a distinct mirror image and the count is never exactly 1.  A
    copy without a loop or that is disconnected is drawn again, so the
    graph is connected and has a looped vertex.
    """
    while True:
        half = [0] * m
        for i in range(m):
            upper = rng.getrandbits(m - i) << i
            half[i] |= upper
            for j in range(i + 1, m):
                if (upper >> j) & 1:
                    half[j] |= 1 << i
        if any((half[i] >> i) & 1 for i in range(m)) and _connected(half):
            break
    return [half[i] | (1 << (i + m)) for i in range(m)] + [
        (half[i] << m) | (1 << i) for i in range(m)
    ]


def _connected(adj: list[int]) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        reach = 0
        x = frontier
        while x:
            low = x & -x
            x ^= low
            reach |= adj[low.bit_length() - 1]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def greedy_empties(adj: list[int]) -> bool:
    """Whether max-degree pressing, ties to the lower index, ends edgeless.

    Pressing looped vertex v XORs v's row into every row that has bit v
    and clears row v.  The degree counts the loop.
    """
    rows = list(adj)
    alive = [i for i in range(len(rows)) if rows[i]]
    while alive:
        best, best_deg = -1, 0
        for i in alive:
            r = rows[i]
            if (r >> i) & 1 and r.bit_count() > best_deg:
                best, best_deg = i, r.bit_count()
        if best < 0:
            return False
        piv, bit = rows[best], 1 << best
        rows[best] = 0
        still = []
        for i in alive:
            r = rows[i]
            if r & bit:
                r ^= piv
                rows[i] = r
            if r:
                still.append(i)
        alive = still
    return True


def mirror_case(n: int, rng: random.Random) -> str:
    """Permuted mirrored graph text on n (even) vertices.

    Only mirrors on which greedy pressing empties the graph are kept.
    On those the recognizer's greedy order runs to the end and then
    rejects at the tie between a vertex and its mirror image; on the
    others it would stop early at UNPRESSABLE, a different path.
    """
    while True:
        adj = relabel(mirror_adjacency(n // 2, rng), permutation(n, rng))
        if greedy_empties(adj):
            return graph_text(adj)


def cup_count(n: int) -> int:
    """Closed-form number of cup graphs on n vertices."""
    if n <= 2:
        return 1
    if n % 2 == 0:
        return 3 ** ((n - 2) // 2)
    return 2 * 3 ** ((n - 3) // 2)


def census_line(n: int) -> str:
    """The census output line the closed forms predict for n vertices.

    A uniquely pressable graph is one cup core plus loopless isolated
    padding, and cup graphs have no nontrivial automorphisms: the
    labeled total places a k-vertex core on k of the n labels in k!
    ways, and the classes are the cores of every size up to n.
    """
    labeled = sum(
        comb(n, k) * factorial(k) * cup_count(k) for k in range(n + 1)
    )
    classes = sum(cup_count(k) for k in range(n + 1))
    return (
        f"n={n} labeled_total={labeled} up_iso_classes={classes} "
        f"cup_iso_classes={cup_count(n)}\n"
    )
