"""In-memory spans around the library's public calls.

``Tracer.install`` replaces each public function or method listed in
``TARGETS`` with a wrapper that records a span (name, start, end,
parent) and, for a few calls, counters read off the returned value.
Module-level functions are replaced in every ``pressgraph`` module that
imported them, so calls the library makes internally are traced too.
``Tracer.uninstall`` puts the originals back.  Nothing is wrapped while
the tracer is not installed, so untraced runs pay nothing.

Self time of a span is its duration minus the durations of its direct
children; single-threaded nesting makes the children disjoint.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns


def _root_row_xors(counters, root) -> None:
    # Eliminating pivot k XORs row k into every later row with bit k,
    # one per off-diagonal one of root row k: ones(U) minus the pivots.
    rows = root.matrix.row_bits
    xors = sum(r.bit_count() for r in rows) - sum(1 for r in rows if r)
    words = -(-root.matrix.n // 64)
    counters["cholesky.root_row_xors"] += xors
    # Each XOR reads two rows and writes one, 8 bytes per 64-bit word.
    counters["gf2.root_bytes_moved"] += xors * 3 * 8 * words


def _greedy_presses(counters, order) -> None:
    presses = len(order.permutation)
    counters["cholesky.greedy_presses"] += presses
    if order.first_tie is not None:
        # Presses from the first tie on: work an early reject would skip.
        counters["cholesky.presses_after_tie"] += presses - order.first_tie + 1


def _verdicts(counters, report) -> None:
    counters["recognition.recognize.calls"] += 1
    counters["recognition.recognize.yes"] += bool(report.verdict)


# (span name, module, attribute path, counter hook)
TARGETS = (
    ("cli.main", "pressgraph.cli", "main", None),
    ("graphs.parse_auto", "pressgraph.graphs", "parse_auto", None),
    ("graphs.components", "pressgraph.graphs", "PseudoGraph.components", None),
    ("graphs.induced", "pressgraph.graphs", "PseudoGraph.induced", None),
    (
        "graphs.adjacency_matrix",
        "pressgraph.graphs",
        "PseudoGraph.adjacency_matrix",
        None,
    ),
    ("graphs.press", "pressgraph.graphs", "PseudoGraph.press", None),
    ("graphs.to_text", "pressgraph.graphs", "PseudoGraph.to_text", None),
    (
        "cholesky.find_pressing_order",
        "pressgraph.cholesky",
        "find_pressing_order",
        _greedy_presses,
    ),
    (
        "cholesky.instructional_root",
        "pressgraph.cholesky",
        "instructional_root",
        _root_row_xors,
    ),
    (
        "recognition.check_properties",
        "pressgraph.recognition",
        "check_properties",
        None,
    ),
    (
        "recognition.recognize",
        "pressgraph.recognition",
        "recognize",
        _verdicts,
    ),
    ("gf2.is_symmetric", "pressgraph.gf2", "BitMatrix.is_symmetric", None),
    (
        "gf2.is_upper_triangular",
        "pressgraph.gf2",
        "BitMatrix.is_upper_triangular",
        None,
    ),
    ("generate.canonical_form", "pressgraph.generate", "canonical_form", None),
)

SPAN_CAP = 50_000
"""Raw spans kept for the trace file; aggregates always cover every span."""


class Tracer:
    """Spans and per-op aggregates of one benchmark run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.op = -1
        self.spans: list[tuple[int, int, int, int, int, int]] = []
        self.dropped = 0
        self._next_id = 0
        self._stack: list[list[int]] = []  # [span id, children's total ns]
        self.self_ns: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def reset_op(self) -> None:
        """Start the next op's aggregates; raw spans keep accumulating."""
        self.op += 1
        self.self_ns = {}
        self.total_ns = {}
        self.calls = {}
        self.counters = {
            "cholesky.root_row_xors": 0,
            "gf2.root_bytes_moved": 0,
            "cholesky.greedy_presses": 0,
            "cholesky.presses_after_tie": 0,
            "recognition.recognize.calls": 0,
            "recognition.recognize.yes": 0,
        }

    def _open(self) -> int:
        sid = self._next_id
        self._next_id += 1
        self._stack.append([sid, 0])
        return sid

    def _close(self, name: str, sid: int, start: int, end: int) -> None:
        _, child_ns = self._stack.pop()
        dur = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dur
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child_ns
        self.total_ns[name] = self.total_ns.get(name, 0) + dur
        self.calls[name] = self.calls.get(name, 0) + 1
        if len(self.spans) < SPAN_CAP:
            pid = parent[0] if parent else -1
            nid = self.name_id(name)
            self.spans.append((self.op, sid, pid, nid, start, end))
        else:
            self.dropped += 1

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name."""
        sid = self._open()
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, sid, start, perf_counter_ns())

    def _wrap(self, name: str, fn, hook):
        def traced(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self.counters, result)
            return result

        return traced

    def install(self) -> None:
        modules = [
            m
            for key, m in list(sys.modules.items())
            if key == "pressgraph" or key.startswith("pressgraph.")
        ]
        for name, modname, attr, hook in TARGETS:
            self.name_id(name)
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(name, orig, hook))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig, hook)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches = []
