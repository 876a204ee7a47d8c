"""Command-line front-end for the pressing toolkit.

Subcommands: recognize, press, root, generate, count, census, convert.
Input `-` means standard input.  Everything speaks the library's text
formats byte for byte, and nothing here is randomized, so outputs are
stable across runs.

Exit status contract: 0 on success (recognize: verdict yes); 1 when the
pressing dynamics refuse the request (verdict no, an invalid press, a
graph that root cannot press in vertex order); 2 for malformed input,
usage errors, or an exceeded size bound.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache

from .gf2 import BitMatrix, _echo
from .graphs import (
    CENSUS_MAX_N,
    ORACLE_MAX_N,
    InvalidPressError,
    NotOrderPressableError,
    PseudoGraph,
    _read,
    parse_auto,
)

# recognition, cholesky and generate are each imported inside the
# commands that run them, so that no other command compiles or runs
# them: the package only registers them, to load on first use.

__all__ = ["main"]

COUNT_MAX_N = 100_000
"""Largest n that count accepts: about 24,000 digits per number."""

GENERATE_MAX_N = 22
"""Largest n generate accepts, to bound output: 3^10 graphs, 11.7 MB."""


# A string literal: argparse quotes a bad choice, or an ignored explicit
# argument, in repr, and either may be the part of a token after "=".
# Only an error reads it, so it is compiled there, through re's cache.
_LITERAL = r"'(?:[^'\\]|\\.)*'" r'|"(?:[^"\\]|\\.)*"'


def _cut(text: str, quote: str = "") -> str:
    """text in quotes, cut after 80 characters as _echo cuts it."""
    if len(text) <= 80:
        return quote + text + quote
    return f"{quote}{text[:80]}{quote}... ({len(text)} characters)"


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors quote at most 80 characters of any
    token; add_subparsers builds each subcommand's parser from it too."""

    _tokens: tuple[str, ...] = ()

    def parse_known_args(self, args=None, namespace=None):
        # Kept for error: the tokens this parser may quote bare.
        self._tokens = tuple(sys.argv[1:] if args is None else args)
        return super().parse_known_args(args, namespace)

    def error(self, message: str):
        message = re.sub(
            _LITERAL, lambda m: _cut(m[0][1:-1], m[0][0]), message
        )
        # An unrecognized argument or an ambiguous option is quoted bare
        # and whole; the longest first, as a shorter one may lie in it.
        for token in sorted(self._tokens, key=len, reverse=True):
            if len(token) > 80:
                message = message.replace(token, _cut(token))
        super().error(message)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_graph(text: str, fmt: str | None) -> PseudoGraph:
    # parse_auto(text) is _read(text, None)[0], but tracing wraps the
    # public parse_auto: calling _read here would leave the traced
    # graphs.parse_auto span, and the parse time it reports, at zero.
    return _read(text, fmt)[0] if fmt else parse_auto(text)


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
    for i, k in g._pairs():
        if i != k:
            lines.append(f"  {g.labels[i]} -- {g.labels[k]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _write_dot(path: str, g: PseudoGraph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_to_dot(g))


def _sequence_arg(raw: str) -> tuple[int, ...]:
    fields = raw.split(",")
    try:
        # An empty field ("1,,3", ",1", "1,2,") is a missing label.
        if len(fields) > 1 and not all(map(str.strip, fields)):
            raise ValueError
        return tuple(int(t) for t in raw.replace(",", " ").split())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"sequence must be integer labels, got {_echo(raw)}"
        ) from None


def _int_arg(raw: str) -> int:
    """An integer argument: each N, --jobs and --oracle-bound.

    Its error quotes at most 80 characters of the token.  A longer token
    is refused as well, so that no message which prints the value, such
    as a bound it exceeds, runs longer either.
    """
    try:
        if len(raw) > 80:
            raise ValueError
        return int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at most 80 characters, got {_echo(raw)}"
        ) from None


def _cmd_recognize(args: argparse.Namespace) -> int:
    from .recognition import (
        OracleBoundError,
        count_sequences_bruteforce,
        recognize,
    )

    g = _load_graph(_read_input(args.input), args.format)
    bound = args.oracle_bound
    if bound is not None:
        # Refused before recognize runs; the oracle caps its bound at
        # the same ORACLE_MAX_N, but only when it is called.
        bound = min(bound, ORACLE_MAX_N)
        if g.n > bound:
            raise OracleBoundError(
                f"oracle count of n={g.n} exceeds bound {bound}"
            )
    report = recognize(g)
    out = report.to_text()
    if bound is not None:
        n_seq = count_sequences_bruteforce(g, bound=bound)
        out += f"sequences: {n_seq}\n"
    sys.stdout.write(out)
    return 0 if report.verdict else 1


def _cmd_press(args: argparse.Namespace) -> int:
    g = _load_graph(_read_input(args.input), args.format)
    # One row list is pressed in place; only --trace copies out a graph
    # after each press, so without it no state between is ever built.
    states = g._replay(args.sequence, trace=args.trace)
    # The DOT file is written first, so a path that cannot be opened
    # exits 2 with nothing on stdout.
    if args.dot:
        _write_dot(args.dot, states[-1])
    sys.stdout.write("\n".join(s.to_text() for s in states))
    return 0


def _cmd_root(args: argparse.Namespace) -> int:
    from .cholesky import _root_rows

    g = _load_graph(_read_input(args.input), args.format)
    # The rows are symmetric by construction: graph text sets both
    # bits of every edge, and matrix text passed from_adjacency.
    root = _root_rows(list(g.rows))
    sys.stdout.write(BitMatrix(g.n, root).to_text())
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.n > GENERATE_MAX_N:
        raise ValueError(
            f"generate of n={args.n} exceeds bound {GENERATE_MAX_N}"
        )
    from .generate import _cups

    # Each graph is written as soon as it is built, blank-line separated.
    sep = ""
    for g in _cups(args.n):
        sys.stdout.write(sep + g.to_text())
        sep = "\n"
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    if args.n > COUNT_MAX_N:
        raise ValueError(f"count of n={args.n} exceeds bound {COUNT_MAX_N}")
    # Decimal(int) is exact in any context and, unlike str(int), is not
    # capped by the interpreter's integer string-conversion limit.  It
    # is imported here so that other commands do not pay for it.
    from decimal import Decimal

    from .generate import cup_count, total_count

    cup = Decimal(cup_count(args.n))
    total = Decimal(total_count(args.n))
    sys.stdout.write(f"cup={cup} total={total}\n")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    from .generate import census

    sys.stdout.write(census(args.n, jobs=args.jobs).to_text())
    return 0


def _cmd_convert(args: argparse.Namespace) -> int:
    g, src = _read(_read_input(args.input))
    target = args.format or ("matrix" if src == "graph" else "graph")
    if args.dot:
        _write_dot(args.dot, g)
    if target == "graph":
        sys.stdout.write(g.to_text())
    else:
        sys.stdout.write(g.adjacency_matrix().to_text())
    return 0


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and then reused."""
    parser = _Parser(
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
        type=_int_arg,
        metavar="N",
        help="also count sequences by brute force, for graphs up to N "
        f"vertices (at most {ORACLE_MAX_N})",
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
    p.add_argument("n", type=_int_arg)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("count", help="closed-form counts for n vertices")
    p.add_argument("n", type=_int_arg)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser(
        "census",
        help="count the n-vertex graphs with one successful pressing "
        "sequence, from the definition",
    )
    p.add_argument(
        "n", type=_int_arg, help=f"number of vertices, at most {CENSUS_MAX_N}"
    )
    p.add_argument(
        "--jobs",
        type=_int_arg,
        default=1,
        metavar="N",
        help="worker processes",
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
    except (InvalidPressError, NotOrderPressableError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        # Malformed input and every other library error are ValueErrors.
        # str(OSError) quotes its path whole; this cuts it as _echo does.
        if isinstance(exc, OSError) and exc.filename is not None:
            exc = f"[Errno {exc.errno}] {exc.strerror}: {_echo(exc.filename)}"
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
