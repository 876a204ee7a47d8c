"""Command-line front-end for the pressing toolkit.

Subcommands: recognize, press, root, generate, count, census, convert.
Input `-` means standard input.  Everything speaks the library's text
formats byte for byte, and nothing here is randomized, so outputs are
stable across runs.

Exit status contract: 0 on success (recognize: verdict yes); 1 when the
pressing dynamics refuse the request (verdict no, invalid press,
unpressable graph); 2 for malformed input, usage errors, or an exceeded
oracle bound.
"""

from __future__ import annotations

import argparse
import sys

from .cholesky import (
    NotOrderPressableError,
    UnpressableError,
    instructional_root,
)
from .generate import (
    NotUniquelyPressableError,
    census,
    cup_count,
    generate_cup,
    total_count,
)
from .gf2 import MatrixFormatError
from .graphs import (
    GraphFormatError,
    InvalidPressError,
    PseudoGraph,
    UnknownVertexError,
    _parse_matrix,
    detect_format,
    parse_auto,
    parse_graph,
)
from .recognition import (
    OracleBoundError,
    count_sequences_bruteforce,
    recognize,
)

__all__ = ["main"]

COUNT_MAX_N = 100_000
"""Largest n that count accepts: about 24,000 digits per number."""

CENSUS_MAX_N = 7
"""Largest n that census accepts, whatever --oracle-bound says: 2^28 graphs."""


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(text: str, fmt: str | None) -> PseudoGraph:
    if fmt == "graph":
        return parse_graph(text)
    if fmt == "matrix":
        return _parse_matrix(text)
    return parse_auto(text)


def _to_dot(g: PseudoGraph) -> str:
    """DOT text; looped vertices are filled black, loops not re-drawn."""
    looped = g.looped_vertices()
    lines = ["graph G {"]
    for v in g.labels:
        if v in looped:
            lines.append(
                f"  {v} [style=filled, fillcolor=black, fontcolor=white];"
            )
        else:
            lines.append(f"  {v};")
    for u, v in sorted(g.edges):
        if u != v:
            lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _sequence_arg(raw: str) -> tuple[int, ...]:
    tokens = raw.replace(",", " ").split()
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sequence must be integer labels, got {raw!r}"
        ) from None


def _cmd_recognize(args: argparse.Namespace) -> int:
    g = _load_graph(_read_input(args.input), args.format)
    report = recognize(g)
    out = report.to_text()
    if args.oracle_bound is not None:
        n_seq = count_sequences_bruteforce(g, bound=args.oracle_bound)
        out += f"sequences: {n_seq}\n"
    sys.stdout.write(out)
    return 0 if report.verdict else 1


def _cmd_press(args: argparse.Namespace) -> int:
    g = _load_graph(_read_input(args.input), args.format)
    states = [g]
    for pos, v in enumerate(args.sequence, start=1):
        try:
            states.append(states[-1].press(v))
        except (InvalidPressError, UnknownVertexError):
            raise InvalidPressError(v, position=pos) from None
    if args.trace:
        sys.stdout.write("\n".join(s.to_text() for s in states))
    else:
        sys.stdout.write(states[-1].to_text())
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(_to_dot(states[-1]))
    return 0


def _cmd_root(args: argparse.Namespace) -> int:
    g = _load_graph(_read_input(args.input), args.format)
    root = instructional_root(g.adjacency_matrix(), order=g.labels)
    sys.stdout.write(root.matrix.to_text())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    graphs = generate_cup(args.n)
    sys.stdout.write("\n".join(g.to_text() for g in graphs))
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    if args.n > COUNT_MAX_N:
        raise ValueError(f"count of n={args.n} exceeds bound {COUNT_MAX_N}")
    # Decimal(int) is exact in any context and, unlike str(int), is not
    # capped by the interpreter's integer string-conversion limit.  It
    # is imported here so that other commands do not pay for it.
    from decimal import Decimal

    cup = Decimal(cup_count(args.n))
    total = Decimal(total_count(args.n))
    sys.stdout.write(f"cup={cup} total={total}\n")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    bound = min(args.oracle_bound, CENSUS_MAX_N)
    result = census(args.n, bound=bound, jobs=args.jobs)
    sys.stdout.write(result.to_text())
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    text = _read_input(args.input)
    src = detect_format(text)
    g = _load_graph(text, src)
    target = args.format or ("matrix" if src == "graph" else "graph")
    if target == "graph":
        sys.stdout.write(g.to_text())
    else:
        sys.stdout.write(g.adjacency_matrix().to_text())
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(_to_dot(g))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pressgraph",
        description="Pressing dynamics on loopy graphs over GF(2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="input file, or - for standard input")
        p.add_argument(
            "--format",
            choices=("graph", "matrix"),
            help="input format (default: detect by shape)",
        )

    p = sub.add_parser(
        "recognize", help="decide whether the pressing sequence is unique"
    )
    graph_input(p)
    p.add_argument(
        "--oracle-bound",
        type=int,
        metavar="N",
        help="also count sequences by brute force, for graphs up to N "
        "vertices",
    )
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("press", help="apply a pressing sequence")
    graph_input(p)
    p.add_argument(
        "--sequence",
        type=_sequence_arg,
        default=(),
        metavar="V1,V2,...",
        help="vertices to press, comma or space separated (default: none)",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="print every state from input to final, blank-line separated",
    )
    p.add_argument("--dot", metavar="PATH", help="write final state as DOT")
    p.set_defaults(func=_cmd_press)

    p = sub.add_parser(
        "root", help="upper-triangular root of the adjacency matrix"
    )
    graph_input(p)
    p.set_defaults(func=_cmd_root)

    p = sub.add_parser(
        "generate", help="all uniquely pressable graphs on 1..n, in order"
    )
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("count", help="closed-form counts for n vertices")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser(
        "census", help="exhaustive recognition sweep over n-vertex graphs"
    )
    p.add_argument("n", type=int)
    p.add_argument(
        "--oracle-bound",
        type=int,
        default=5,
        metavar="N",
        help="largest n the sweep will accept (default 5)",
    )
    p.add_argument(
        "--jobs", type=int, default=1, metavar="N", help="worker processes"
    )
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("convert", help="re-serialize between text formats")
    p.add_argument("input", help="input file, or - for standard input")
    p.add_argument(
        "--format",
        choices=("graph", "matrix"),
        help="target format (default: the one the input is not in)",
    )
    p.add_argument("--dot", metavar="PATH", help="also write DOT")
    p.set_defaults(func=_cmd_convert)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (GraphFormatError, MatrixFormatError, OracleBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        InvalidPressError,
        UnpressableError,
        NotOrderPressableError,
        NotUniquelyPressableError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except UnknownVertexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
