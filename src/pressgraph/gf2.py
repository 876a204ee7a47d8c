"""Bit-packed linear algebra over GF(2).

Vectors and matrix rows are Python integers used as bitsets: column 1
lives at the least significant bit, so row ``r`` has entry ``j`` equal
to ``(r >> (j - 1)) & 1``.  Padding bits above the declared length are
always zero, which makes equality a plain integer comparison.

All indices are 1-based at the public boundary.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from itertools import compress
from operator import attrgetter, xor

__all__ = [
    "BitRow",
    "BitMatrix",
    "DimensionError",
    "MatrixFormatError",
    "gf2_dot",
    "transpose_mul",
    "leading_principal_minors",
    "principal_submatrix",
    "iter_support",
]


class DimensionError(ValueError):
    """Operands disagree on dimensions."""


class MatrixFormatError(ValueError):
    """Malformed matrix text."""


class _Record:
    """Base of the package's immutable records.

    A subclass lists its two or more fields in ``__match_args__`` and
    its own ``__init__`` writes them straight into the instance
    ``__dict__``, which holds nothing else.  A record equals only a
    record of the same class with equal fields, hashes as its field
    tuple, prints as ``Name(field=value, ...)`` and refuses assignment
    and deletion.  Pickle and copy restore the ``__dict__`` without
    calling ``__setattr__``.
    """

    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._astuple = attrgetter(*cls.__match_args__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple(self))

    def __repr__(self) -> str:
        fields = zip(self.__match_args__, self._astuple(self))
        body = ", ".join(f"{name}={value!r}" for name, value in fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def _echo(value: str | int) -> str:
    """``repr`` of a text, or a number in decimal, for an error message,
    cut after 80 characters."""
    text = str(value)
    cut = f"... ({len(text)} characters)" if len(text) > 80 else ""
    return (repr if isinstance(value, str) else str)(text[:80]) + cut


def _mask(width: int) -> int:
    return (1 << width) - 1


def iter_support(bits: int) -> Iterator[int]:
    """Yield the 1-based positions of the set bits of ``bits``, ascending."""
    while bits:
        low = bits & -bits
        yield low.bit_length()
        bits ^= low


_LANES = bytes.maketrans(b"01", b"\0\1")
_BYTE_LANES = [bin(x)[:1:-1].encode().translate(_LANES) for x in range(256)]


def _lanes(x: int) -> bytes:
    """Byte i is bit i of ``x``, up to its top set bit (one byte if 0).

    Below 256 it is read from a table: on the small graphs of a census
    the four string passes would cost more than the press they feed.
    """
    if x < 256:
        return _BYTE_LANES[x]
    return bin(x)[:1:-1].encode().translate(_LANES)


def _press(rows: list[int], p: int) -> None:
    """XOR row ``p`` into every row holding bit ``p``, in place.

    The rows must be symmetric: then the rows holding bit ``p`` are the
    ones that row ``p``'s bits name, so only those are visited, through
    one C-level ``compress`` over its lanes.  This is both a press of
    looped vertex ``p`` and a GF(2) Cholesky elimination step; row
    ``p`` holds its own bit, so it is cleared too.  It serves brute
    force, which presses each state of its search once.  The greedy
    XORs pivots of 32 bits or fewer by an inline copy of this loop;
    heavier ones, and the fixed orders, wait in ``_defer``.
    """
    piv = rows[p]
    for i in compress(range(len(rows)), _lanes(piv)):
        rows[i] ^= piv


def _defer(
    rows: list[int], table: list[int], keys: int, piv: int
) -> tuple[list[int], int]:
    """Add ``piv`` to the pending presses; return the new pending state.

    Up to 8 pivots wait, as in M4RI's Method of Four Russians: ``table``
    holds the 2^t sums of the t pending pivots, and byte i of ``keys``
    has bit s equal to bit i of pivot s.  On symmetric rows pivot s was
    XORed into exactly the rows its bits name, so row i stands for
    ``rows[i] ^ table[keys >> 8 * i & 255]`` until a flush.  The 8th
    pivot flushes every row and leaves the table empty, ``([0], 0)``.
    """
    t = len(table).bit_length() - 1
    keys |= int.from_bytes(_lanes(piv), "little") << t
    table += [x ^ piv for x in table]
    if len(table) < 256:
        return table, keys
    _flush(rows, table, keys)
    return [0], 0


def _flush(rows: list[int], table: list[int], keys: int) -> None:
    """Catch every row up with the pending presses, in place: row i XORs
    in the table entry that byte i of ``keys`` names, in one C-level
    pass.  With nothing pending (``keys`` is 0) no row is visited."""
    if keys:
        lookup = map(table.__getitem__, keys.to_bytes(len(rows), "little"))
        rows[:] = map(xor, rows, lookup)


def _eliminate(rows: list[int], order: Sequence[int]) -> list[int]:
    """Press the indices of ``order`` on symmetric ``rows``, in place.

    Stops before the first entry not looped at its turn; returns the
    rows pressed, each as it was just before its press.  Presses wait
    in ``_defer``'s table, 8 at a time: each pivot is its row caught up
    with the pending ones, and every row catches up in one ``_flush``
    per 8 pivots and one at the end.  Caught-up rows are exact: a press
    keeps the rows symmetric, so just before press s bit p_s of row i
    is bit i of pivot s, and every row ends as its start XOR the
    pivots holding its bit.  That holds for pressed rows, which end at
    zero, and for rows pressed earlier, which are zero and get key 0.
    """
    pivots: list[int] = []
    table, keys = [0], 0
    for p in order:
        piv = rows[p] ^ table[keys >> 8 * p & 255]
        if not piv >> p & 1:
            break
        pivots.append(piv)
        table, keys = _defer(rows, table, keys, piv)
    _flush(rows, table, keys)
    return pivots


def _greedy(rows: Sequence[int], stop_at_tie: bool) -> tuple:
    """The one greedy loop, on bare symmetric rows pressed in a copy.

    Returns ``(order, pivots, first_tie, rows)``: the pressed indices,
    each one's row just before its press, the 1-based step of the first
    tie or None, and the pressed copy.  Some row of the copy is nonzero
    after a stall, or after ``stop_at_tie`` stopped the loop at
    ``first_tie``, before pressing.

    The scan reads only the looped rows, off the mask ``looped`` of
    diagonal bits, kept as ``looped ^= pivot`` after each press.  That
    is exact: a press of p XORs the pivot into the rows holding bit p,
    which by symmetry are the rows i whose bit the pivot holds, so
    each of their diagonals flips, row p's included, and no other.

    Presses wait in ``_defer``'s pending state, as in ``_eliminate``.
    The scan and the pivot read rows caught up with it, and every
    return flushes first.  A pivot of more than 32 bits joins the
    table, which flushes every row in one C-level pass when 8 wait.
    A lighter one is XORed straight into the stale rows its bits
    name: joining costs about what 30 to 60 such XORs cost (an
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
    return order, pivots, first_tie, rows


def _rank(rows: Iterable[int]) -> int:
    """Rank over GF(2) of packed rows, by a basis keyed by lowest bit."""
    basis: dict[int, int] = {}
    for r in rows:
        while r and (low := r & -r) in basis:
            r ^= basis[low]
        if r:
            basis[low] = r
    return len(basis)


class BitRow(_Record):
    """A GF(2) row vector of fixed length.

    Attributes:
        length: number of entries.
        bits: packed entries, entry j at bit j-1.
    """

    __match_args__ = ("length", "bits")

    def __init__(self, length: int, bits: int = 0) -> None:
        if length < 0:
            raise DimensionError(f"negative length {length}")
        if bits < 0 or bits >> length:
            raise ValueError("bits set outside the declared length")
        self.__dict__.update(length=length, bits=bits)

    @classmethod
    def from_values(cls, values: Iterable[int]) -> "BitRow":
        """Pack an iterable of 0/1 entries, first entry at column 1."""
        bits = 0
        n = 0
        for v in values:
            if v not in (0, 1):
                raise ValueError(f"entries must be 0 or 1, got {v!r}")
            bits |= v << n
            n += 1
        return cls(n, bits)

    def bit(self, j: int) -> int:
        """Entry at 1-based column j."""
        if not 1 <= j <= self.length:
            raise IndexError(f"column {j} outside [1, {self.length}]")
        return (self.bits >> (j - 1)) & 1

    def weight(self) -> int:
        """Number of ones (an integer, not a GF(2) value)."""
        return self.bits.bit_count()

    def support(self) -> tuple[int, ...]:
        """1-based columns holding a one."""
        return tuple(iter_support(self.bits))

    def values(self) -> list[int]:
        return [(self.bits >> j) & 1 for j in range(self.length)]

    def __xor__(self, other: "BitRow") -> "BitRow":
        if self.length != other.length:
            raise DimensionError(
                f"length mismatch: {self.length} vs {other.length}"
            )
        return BitRow(self.length, self.bits ^ other.bits)


def gf2_dot(a: BitRow, b: BitRow) -> int:
    """GF(2) inner product of two rows of equal length."""
    if a.length != b.length:
        raise DimensionError(f"length mismatch: {a.length} vs {b.length}")
    return (a.bits & b.bits).bit_count() & 1


class BitMatrix(_Record):
    """A square GF(2) matrix stored as one packed integer per row.

    ``row_bits[i - 1]`` is row i; bit j-1 of it is entry (i, j).  Rows
    carry no padding above column n, so two equal matrices compare equal
    as tuples of ints.
    """

    __match_args__ = ("n", "row_bits")

    def __init__(self, n: int, row_bits: Iterable[int]) -> None:
        if n < 0:
            raise DimensionError(f"negative size {n}")
        row_bits = tuple(row_bits)
        if len(row_bits) != n:
            raise DimensionError(f"expected {n} rows, got {len(row_bits)}")
        top = _mask(n)
        for r in row_bits:
            if r < 0 or r & ~top:
                raise ValueError("row bits set outside column range")
        self.__dict__.update(n=n, row_bits=row_bits)

    @classmethod
    def zero(cls, n: int) -> "BitMatrix":
        return cls(n, (0,) * n)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "BitMatrix":
        """Build from a square list-of-lists of 0/1 entries."""
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionError("matrix must be square")
        return cls(n, [BitRow.from_values(row).bits for row in rows])

    def bit(self, i: int, j: int) -> int:
        """Entry at 1-based (row, column)."""
        return self.row(i).bit(j)

    def row(self, i: int) -> BitRow:
        if not 1 <= i <= self.n:
            raise IndexError(f"row {i} outside [1, {self.n}]")
        return BitRow(self.n, self.row_bits[i - 1])

    def column(self, j: int) -> BitRow:
        if not 1 <= j <= self.n:
            raise IndexError(f"column {j} outside [1, {self.n}]")
        jm = 1 << (j - 1)
        bits = 0
        for i, r in enumerate(self.row_bits):
            if r & jm:
                bits |= 1 << i
        return BitRow(self.n, bits)

    def transpose(self) -> "BitMatrix":
        # Rows n..1 as text, column n first: the k-th characters of the
        # texts spell column n - k, row n first, i.e. its packed bits.
        n = self.n
        texts = [format(r, f"0{n}b") for r in reversed(self.row_bits)]
        return BitMatrix(n, [int("".join(c), 2) for c in zip(*texts)][::-1])

    def is_symmetric(self) -> bool:
        return self.row_bits == self.transpose().row_bits

    def is_upper_triangular(self) -> bool:
        for i, r in enumerate(self.row_bits):
            if r & _mask(i):
                return False
        return True

    def to_text(self) -> str:
        """Serialize to the shared matrix text format.

        Line 1 is n, then n lines of n characters from {0, 1}, row i on
        line i+1 with column 1 leftmost.
        """
        width = f"0{self.n}b"
        lines = [format(r, width)[::-1] for r in self.row_bits]
        return "\n".join([str(self.n), *lines]) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "BitMatrix":
        """Parse the matrix text format; raises MatrixFormatError."""
        lines = text.splitlines()
        if not lines or not lines[0].strip():
            raise MatrixFormatError("line 1: expected the matrix size")
        try:
            n = int(lines[0].strip())
        except ValueError:
            raise MatrixFormatError(
                f"line 1: expected an integer size, got {_echo(lines[0])}"
            ) from None
        if n < 0:
            raise MatrixFormatError(f"line 1: negative size {_echo(n)}")
        rows = []
        for i in range(n):
            ln = i + 2
            if i + 1 >= len(lines):
                raise MatrixFormatError(f"line {ln}: missing row {i + 1}")
            raw = lines[i + 1].strip()
            # strip("01") leaves any other character; int() alone would
            # also take "_", "+" and inner spaces.
            if len(raw) != n or raw.strip("01"):
                raise MatrixFormatError(
                    f"line {ln}: expected {_echo(n)} characters from {{0,1}}"
                )
            rows.append(int(raw[::-1], 2))
        for ln, extra in enumerate(lines[n + 1 :], n + 2):
            if extra.strip():
                raise MatrixFormatError(
                    f"line {ln}: unexpected content after the matrix"
                )
        return cls(n, tuple(rows))


def transpose_mul(u: BitMatrix) -> BitMatrix:
    """Return the GF(2) product of the transpose of ``u`` with ``u``.

    Entry (i, j) of the result is the GF(2) dot product of columns i and
    j of ``u``; the result is symmetric by construction.  Row i of the
    product is the XOR of the rows of ``u`` holding bit i.
    """
    out = [0] * u.n
    for r in u.row_bits:
        for i in iter_support(r):
            out[i - 1] ^= r
    return BitMatrix(u.n, out)


def leading_principal_minors(a: BitMatrix) -> tuple[int, ...]:
    """GF(2) determinants of every leading principal block of ``a``.

    Entry k-1 of the result is the determinant of the top-left k x k
    block.  Computed in one sweep: rows enter an echelon basis that is
    kept restricted to the columns activated so far, and rows whose
    active part vanishes wait in a pending pool until a later column
    revives them.  The k-th minor is 1 exactly when the basis holds k
    pivots after row and column k have been absorbed.
    """
    n = a.n
    pivots: dict[int, int] = {}
    pending: list[int] = []
    minors = []
    for k in range(n):
        bit = 1 << k
        survivors: list[int] = []
        pivot_row = None
        for r in pending:
            if r & bit:
                if pivot_row is None:
                    pivot_row = r
                    pivots[k] = r
                else:
                    r ^= pivot_row
                    if r:
                        survivors.append(r)
            else:
                survivors.append(r)
        pending = survivors
        r = a.row_bits[k]
        active = _mask(k + 1)
        while r & active:
            c = (r & -r).bit_length() - 1
            p = pivots.get(c)
            if p is None:
                pivots[c] = r
                break
            r ^= p
        else:
            if r:
                pending.append(r)
        minors.append(1 if len(pivots) == k + 1 else 0)
    return tuple(minors)


def principal_submatrix(m: BitMatrix, lo: int, hi: int) -> BitMatrix:
    """Rows and columns lo..hi of ``m`` (1-based, inclusive)."""
    if not 1 <= lo <= hi <= m.n:
        raise IndexError(f"range {lo}..{hi} outside [1, {m.n}]")
    span = hi - lo + 1
    window = _mask(span) << (lo - 1)
    rows = tuple(
        (m.row_bits[i] & window) >> (lo - 1) for i in range(lo - 1, hi)
    )
    return BitMatrix(span, rows)
