"""Simple pseudo-graphs and the pressing dynamic.

A simple pseudo-graph allows loops but no multiple edges.  Pressing a
looped vertex v complements the induced subgraph on the closed
neighborhood of v, loops included, after which v is isolated and
loopless.  A pressing sequence is successful when the final graph has
no edges at all.

Graphs here are immutable; every operation returns a new graph.  Vertex
labels are arbitrary distinct positive integers and need not be
contiguous.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import takewhile

from .gf2 import BitMatrix, _echo, _eliminate, _Record, iter_support

__all__ = [
    "Edge",
    "PseudoGraph",
    "Component",
    "GraphFormatError",
    "UnknownVertexError",
    "InvalidPressError",
    "NotOrderPressableError",
    "UnpressableError",
    "from_adjacency",
    "parse_graph",
    "parse_auto",
    "detect_format",
]

Edge = tuple[int, int]

GRAPH_MAX_N = 16_384
"""Largest vertex count graph text may declare: a star on it holds 32 MiB
of rows, since a row with an edge to index k takes k bits.  Dense text
is read through byte lanes of n * n bytes, 256 MiB at the bound, but
only when the text itself is at least half that long (``_DENSE``)."""

ORACLE_MAX_N = 16
"""Largest n that count_sequences_bruteforce counts, whatever its bound.

The brute-force memo holds up to 2^n states: 16 looped isolated
vertices take about 1 s and 33 MiB, and each two more vertices cost
about 5 times as much.
"""

CENSUS_MAX_N = 7
"""Largest n that generate.census accepts: 2^28 graphs.

This cap and ORACLE_MAX_N are kept here, in a module every command
loads, so that the CLI's help can quote them without loading
recognition or generate.
"""


class GraphFormatError(ValueError):
    """Malformed graph text."""


class UnknownVertexError(ValueError):
    """A label that is not a vertex of the graph."""


class InvalidPressError(ValueError):
    """Pressing a vertex that is not looped (or not present)."""

    def __init__(
        self, vertex: int, position: int | None = None, missing: bool = False
    ):
        self.vertex = vertex
        self.position = position
        self.missing = missing
        what = "in the graph" if missing else "looped"
        msg = f"vertex {vertex} is not {what}"
        if position is not None:
            msg = f"press {position} invalid: {msg}"
        super().__init__(msg)

    def __reduce__(self):
        # args holds the message; rebuild from the fields instead.
        return type(self), (self.vertex, self.position, self.missing)


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


class Component(_Record):
    """A connected component; trivial means one loopless isolated vertex."""

    __match_args__ = ("labels", "trivial")

    def __init__(self, labels: tuple[int, ...], trivial: bool) -> None:
        self.__dict__.update(labels=labels, trivial=trivial)


class PseudoGraph(_Record):
    """An undirected graph with optional loops and no multi-edges.

    ``labels`` is the strictly increasing tuple of vertex labels.  The
    graph is stored as packed adjacency ``rows``, one per label: bit j
    of ``rows[i]`` is set when ``labels[i]`` and ``labels[j]`` are
    adjacent, and bit i marks a loop at ``labels[i]``.  ``edges`` is a
    view derived from the rows: unordered pairs normalized to
    (min, max), a loop at v as the pair (v, v).
    """

    __match_args__ = ("labels", "rows")

    def __init__(self, labels: Iterable[int], edges: Iterable[Edge]) -> None:
        labels = tuple(labels)
        if not _increasing(labels):
            raise ValueError(
                "labels must be strictly increasing positive integers"
            )
        pos = {lab: i for i, lab in enumerate(labels)}
        rows = [0] * len(labels)
        for u, v in edges:
            if u not in pos or v not in pos:
                raise UnknownVertexError(f"edge ({u}, {v}) leaves the graph")
            iu, iv = pos[u], pos[v]
            rows[iu] |= 1 << iv
            rows[iv] |= 1 << iu
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "rows", tuple(rows))

    @classmethod
    def _from_rows(
        cls, labels: tuple[int, ...], rows: Iterable[int]
    ) -> "PseudoGraph":
        """Wrap symmetric rows over valid labels, without checking them."""
        g = object.__new__(cls)
        object.__setattr__(g, "labels", labels)
        object.__setattr__(g, "rows", tuple(rows))
        return g

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def edges(self) -> frozenset[Edge]:
        labels = self.labels
        return frozenset((labels[i], labels[k]) for i, k in self._pairs())

    def _pairs(self) -> Iterator[tuple[int, int]]:
        """Index pairs (i, k), i <= k, of the edges, in ascending order."""
        for i, r in enumerate(self.rows):
            for j in iter_support(r >> i):
                yield i, i + j - 1

    def _index(self, v: int) -> int:
        try:
            return self.labels.index(v)
        except ValueError:
            raise UnknownVertexError(f"no vertex labeled {v}") from None

    def is_looped(self, v: int) -> bool:
        i = self._index(v)
        return bool(self.rows[i] >> i & 1)

    def looped_vertices(self) -> frozenset[int]:
        return frozenset(
            self.labels[i] for i, r in enumerate(self.rows) if r >> i & 1
        )

    def neighborhood(self, v: int) -> frozenset[int]:
        """All vertices adjacent to v; contains v itself iff v is looped."""
        r = self.rows[self._index(v)]
        return frozenset(self.labels[j - 1] for j in iter_support(r))

    def press(self, v: int) -> "PseudoGraph":
        """Press looped vertex v: toggle every pair inside its neighborhood.

        Raises InvalidPressError when v carries no loop.  The pressed
        vertex ends isolated and loopless.
        """
        rows = list(self.rows)
        if not _eliminate(rows, [self._index(v)]):
            raise InvalidPressError(v)
        return PseudoGraph._from_rows(self.labels, rows)

    def apply_sequence(self, seq: Sequence[int]) -> "PseudoGraph":
        """Press the vertices of ``seq`` in order.

        The first invalid press aborts with an InvalidPressError whose
        ``position`` is its 1-based index in the sequence.
        """
        return self._replay(tuple(seq))[-1]

    def is_successful(self, seq: Sequence[int]) -> bool:
        """True when every press is valid and the final graph is edgeless."""
        try:
            g = self.apply_sequence(seq)
        except InvalidPressError:
            return False
        return not any(g.rows)

    def _replay(
        self, seq: Sequence[int], trace: bool = False
    ) -> list["PseudoGraph"]:
        """apply_sequence on one copy of the rows, pressed in place.

        The labels up to the first unknown one are pressed by one
        ``_eliminate`` call, or with ``trace`` by one call per press.
        A press of a loopless or an unknown label raises
        InvalidPressError, with ``missing`` set for an unknown one.
        Returns the final graph, preceded with ``trace`` by the input
        and every state between.
        """
        index = {lab: i for i, lab in enumerate(self.labels)}
        order = [index[v] for v in takewhile(index.__contains__, seq)]
        rows = list(self.rows)
        if trace:
            states = [self]
            for i in order:
                if not _eliminate(rows, [i]):
                    break
                states.append(PseudoGraph._from_rows(self.labels, rows))
            done = len(states) - 1
        else:
            done = len(_eliminate(rows, order))
            states = [PseudoGraph._from_rows(self.labels, rows)]
        if done < len(seq):
            # Every known label was pressed: the next one is unknown.
            raise InvalidPressError(seq[done], done + 1, done == len(order))
        return states

    def components(self) -> list[Component]:
        """Connected components, ordered by smallest label."""
        labels, rows = self.labels, self.rows
        comps = []
        seen = 0
        for i, r in enumerate(rows):
            if seen >> i & 1:
                continue
            comp = _reach(rows, 1 << i)
            seen |= comp
            members = tuple(labels[j - 1] for j in iter_support(comp))
            # A vertex without a row bit has no edge and no loop.
            comps.append(Component(members, trivial=not r))
        return comps

    def induced(self, keep: Iterable[int]) -> "PseudoGraph":
        """Subgraph induced on a subset of the labels."""
        ks = set(keep)
        unknown = ks - set(self.labels)
        if unknown:
            raise UnknownVertexError(f"no vertices labeled {sorted(unknown)}")
        kept = [i for i, lab in enumerate(self.labels) if lab in ks]
        if len(kept) == self.n:
            return self
        new_pos = {i: t for t, i in enumerate(kept)}
        rows = (
            sum(
                1 << new_pos[j - 1]
                for j in iter_support(self.rows[i])
                if j - 1 in new_pos
            )
            for i in kept
        )
        labels = tuple(self.labels[i] for i in kept)
        return PseudoGraph._from_rows(labels, rows)

    def delete_vertex(self, v: int) -> "PseudoGraph":
        """Remove v and every edge touching it."""
        self._index(v)
        return self.induced(lab for lab in self.labels if lab != v)

    def relabel(self, mapping: dict[int, int]) -> "PseudoGraph":
        """Apply a label bijection; mapping must cover every vertex."""
        missing = set(self.labels) - set(mapping)
        if missing:
            raise UnknownVertexError(f"mapping misses labels {sorted(missing)}")
        new_labels = [mapping[lab] for lab in self.labels]
        if len(set(new_labels)) != len(new_labels):
            raise ValueError("mapping is not injective on the labels")
        edges = {(mapping[u], mapping[v]) for u, v in self.edges}
        return PseudoGraph(tuple(sorted(new_labels)), frozenset(edges))

    def adjacency_matrix(self) -> BitMatrix:
        """Adjacency matrix with labels compressed to 1..n preserving order."""
        return BitMatrix(self.n, self.rows)

    def to_text(self) -> str:
        """Serialize to the graph text format.

        Line 1 is n, line 2 the space-separated labels, then one edge
        per line as "u v" (a loop as "v v"), ascending.
        """
        names = [str(lab) for lab in self.labels]
        lines = [str(self.n), " ".join(names)]
        lines += [f"{names[i]} {names[k]}" for i, k in self._pairs()]
        return "\n".join(lines) + "\n"


def _increasing(labels: tuple[int, ...]) -> bool:
    """True when the labels are strictly increasing positive integers."""
    return all(a < b for a, b in zip((0,) + labels, labels))


def _reach(rows: Sequence[int], comp: int) -> int:
    """Bitmask of the vertices connected to the vertex set ``comp``."""
    frontier = comp
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~comp
        comp |= frontier
    return comp


def from_adjacency(a: BitMatrix) -> PseudoGraph:
    """Graph on labels 1..n with the given symmetric adjacency matrix."""
    if not a.is_symmetric():
        raise ValueError("adjacency matrix must be symmetric")
    return PseudoGraph._from_rows(tuple(range(1, a.n + 1)), a.row_bits)


def _parse_matrix(text: str) -> PseudoGraph:
    """Graph of a matrix-format adjacency on labels 1..n."""
    try:
        return from_adjacency(BitMatrix.from_text(text))
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from None


def _parse_count(lines: list[str]) -> int:
    if not lines or not lines[0].strip():
        raise GraphFormatError("line 1: expected the vertex count")
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise GraphFormatError(
            f"line 1: expected an integer count, got {_echo(lines[0])}"
        ) from None
    if n < 0:
        raise GraphFormatError(f"line 1: negative vertex count {_echo(n)}")
    return n


def _head(text: str) -> tuple[list[str], int]:
    """The first two lines of text, as str.splitlines reads them, and
    the offset where the third begins.

    Only the text up to the second "\\n" is split, and a cut just past a
    "\\n" breaks no line that the whole text's splitlines() keeps.
    """
    end = text.find("\n", text.find("\n") + 1)
    head = text[: end + 1 if end >= 0 else None].splitlines(True)[:2]
    return [ln.splitlines()[0] for ln in head], sum(map(len, head))


_CHUNK = 1 << 16
"""Characters of edge text parse_graph reads at a time in the to_text
layout, cut back to the last line end in them."""

_DENSE = 2
"""parse_graph reads the chunks of a text with n * n <= _DENSE * len(text)
into byte lanes, one bytearray(n) per row: each endpoint sets one byte,
and each row becomes an int once, after the last chunk.  The lanes hold
n * n bytes, so they never exceed twice the text already in memory.
Sparser text ORs each endpoint into its int row, which rebuilds an
n-bit int every time.  The two took equal time at n * n / len(text) of
about 4 for n = 256..2048 (CPython 3.11.7)."""

_ASCII_BITS = bytes.maketrans(b"\0\1", b"01")


def parse_graph(text: str) -> PseudoGraph:
    """Parse one record of the graph text format.

    The edge list ends at the first blank line or at end of input;
    anything non-blank after that is rejected.

    The edge lines are read in chunks of whole lines while a chunk is
    in the layout that ``to_text`` writes, and each chunk costs a few
    C-level passes.  Its edges set bytes in per-row lanes when the text
    is dense (see ``_DENSE``), and are ORed into the int rows otherwise.
    The first chunk in any other spelling, or with a token that is not
    a line-2 label, hands the rest of the text to the line loop
    ``_edge_lines``, which raises every error of the edge lines.
    """
    lines, pos = _head(text)
    n = _parse_count(lines)
    if n > GRAPH_MAX_N:
        raise GraphFormatError(
            f"line 1: vertex count {_echo(n)} exceeds bound {GRAPH_MAX_N}"
        )
    if n > 0 and len(lines) < 2:
        raise GraphFormatError("line 2: expected the label line")
    label_tokens = lines[1].split() if len(lines) > 1 else []
    if len(label_tokens) != n:
        raise GraphFormatError(
            f"line 2: expected {n} labels, got {len(label_tokens)}"
        )
    try:
        labels = tuple(int(t) for t in label_tokens)
    except ValueError:
        raise GraphFormatError("line 2: labels must be integers") from None
    if not _increasing(labels):
        raise GraphFormatError(
            "line 2: labels must be strictly increasing positive integers"
        )
    # A chunk token spelled as on line 2 is that label, whatever int()
    # would make of another spelling.
    index = dict(zip(map(str.encode, label_tokens), range(n)))
    rows = [0] * n
    dense, lanes = n * n <= _DENSE * len(text), []
    line = 3
    while True:
        end = text.rfind("\n", pos, pos + _CHUNK) + 1
        chunk = text[pos:end]
        if not chunk or not chunk.isascii():
            break
        chunk = chunk.encode()
        count = chunk.count(b"\n")
        # With the digits deleted, only " \n" per line is left, so each
        # line is a digit run, one space and a digit run; 2 tokens a
        # line then say that no run is empty.
        if chunk.translate(None, b"0123456789") != b" \n" * count:
            break
        tokens = chunk.split()
        if len(tokens) != 2 * count:
            break
        try:
            idx = list(map(index.__getitem__, tokens))
        except KeyError:
            break
        pairs = iter(idx)
        if dense:
            lanes = lanes or [bytearray(n) for _ in range(n)]
            for iu, iv in zip(pairs, pairs):
                lanes[iu][iv] = 1
                lanes[iv][iu] = 1
        else:
            for iu, iv in zip(pairs, pairs):
                rows[iu] |= 1 << iv
                rows[iv] |= 1 << iu
        pos = end
        line += count
    if lanes:
        rows = [int(b.translate(_ASCII_BITS)[::-1], 2) for b in lanes]
        del lanes
    if pos < len(text):
        _edge_lines(text[pos:], line, labels, rows)
    return PseudoGraph._from_rows(labels, rows)


def _edge_lines(
    text: str, line: int, labels: tuple[int, ...], rows: list[int]
) -> None:
    """OR the edges of text, whose first line is numbered ``line``,
    into rows.

    The line loop of parse_graph: it reads every spelling str.split and
    int() accept, stops at the first blank line, rejects anything
    non-blank after it, and raises every edge-section GraphFormatError.
    """
    # Row index of each label, keyed by the label and by its decimal
    # text, so an endpoint written as its label needs no int().
    index = {lab: i for i, lab in enumerate(labels)}
    index.update({str(lab): i for lab, i in index.items()})
    lines = text.splitlines()
    stop = len(lines)
    for k, ln in enumerate(lines):
        parts = ln.split()
        if len(parts) != 2:
            if parts:
                raise GraphFormatError(
                    f"line {line + k}: expected an edge as 'u v', "
                    f"got {_echo(ln.strip())}"
                )
            stop = k
            break
        u, v = parts
        try:
            iu, iv = index[u], index[v]
        except KeyError:
            # Another spelling of a label ("+3", "007"), a label outside
            # the graph, or not an integer at all.
            try:
                u, v = int(u), int(v)
            except ValueError:
                raise GraphFormatError(
                    f"line {line + k}: edge endpoints must be integers"
                ) from None
            if u not in index or v not in index:
                raise GraphFormatError(
                    f"line {line + k}: edge ({u}, {v}) leaves the graph"
                )
            iu, iv = index[u], index[v]
        rows[iu] |= 1 << iv
        rows[iv] |= 1 << iu
    for k in range(stop, len(lines)):
        if lines[k].strip():
            raise GraphFormatError(
                f"line {line + k}: unexpected content after the record"
            )


def detect_format(text: str) -> str:
    """Classify text as "graph" or "matrix" by its second line.

    A second line that is a single n-character 0/1 token reads as a
    matrix row, and anything else as graph text.  Only at n = 1 can that
    token also be a label: the file "1\\n1" resolves to the graph reading
    (one vertex, no loop), while "1\\n0" cannot be graph text, since
    labels are positive, and reads as the 1x1 zero matrix.  Unparseable
    text counts as "graph" so its diagnostics name the graph grammar.
    Only the first two lines are read.
    """
    lines = _head(text)[0]
    try:
        n = _parse_count(lines)
    except GraphFormatError:
        return "graph"
    second = lines[1].split() if len(lines) > 1 else []
    matrix_like = (
        second != ["1"]
        and len(second) == 1
        and len(second[0]) == n
        and all(c in "01" for c in second[0])
    )
    return "matrix" if matrix_like else "graph"


def parse_auto(text: str) -> PseudoGraph:
    """Parse graph text, accepting the matrix format for labels 1..n.

    Format chosen per detect_format; matrix input becomes the graph of
    its (symmetric) adjacency matrix on labels 1..n.
    """
    return _read(text)[0]


def _read(text: str, fmt: str | None = None) -> tuple[PseudoGraph, str]:
    """The graph of text in fmt, by default the detected format, and fmt."""
    fmt = fmt or detect_format(text)
    if fmt == "matrix":
        return _parse_matrix(text), fmt
    return parse_graph(text), fmt
