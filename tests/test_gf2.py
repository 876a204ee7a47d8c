"""Unit tests for the bit-packed GF(2) layer."""

import copy
import importlib
import pickle
import pkgutil
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pressgraph import (
    BitMatrix,
    BitRow,
    CensusResult,
    CholeskyRoot,
    Component,
    DimensionError,
    MatrixFormatError,
    gf2_dot,
    instructional_root,
    iter_support,
    leading_principal_minors,
    principal_submatrix,
    PressingOrder,
    PropertyReport,
    PseudoGraph,
    RecognitionReport,
    transpose_mul,
)
import pressgraph
from pressgraph import gf2
from pressgraph.gf2 import _eliminate, _lanes, _press
from conftest import (
    dense_det2,
    exactly,
    reference_matrix_from_text,
    random_symmetric_rows,
    reference_press,
    reference_transpose_rows,
)


def bitrows(max_len=64):
    return st.integers(1, max_len).flatmap(
        lambda n: st.builds(BitRow, st.just(n), st.integers(0, (1 << n) - 1))
    )


def random_matrix(rng, n):
    return BitMatrix(n, tuple(rng.getrandbits(n) for _ in range(n)))


# ---------------------------------------------------------------- BitRow


def test_bitrow_from_values_round_trip():
    r = BitRow.from_values([1, 0, 1, 1])
    assert r.length == 4
    assert r.bits == 0b1101
    assert r.values() == [1, 0, 1, 1]
    assert r.support() == (1, 3, 4)
    assert r.weight() == 3
    assert [r.bit(j) for j in (1, 2, 3, 4)] == [1, 0, 1, 1]


def test_bitrow_rejects_bad_input():
    with pytest.raises(ValueError):
        BitRow.from_values([0, 2])
    with pytest.raises(ValueError):
        BitRow(2, 0b100)  # bit above the declared length
    with pytest.raises(DimensionError):
        BitRow(-1, 0)
    with pytest.raises(IndexError):
        BitRow(3, 0b101).bit(4)
    with pytest.raises(IndexError):
        BitRow(3, 0b101).bit(0)


def test_bitrow_xor_requires_equal_length():
    assert (BitRow(3, 0b110) ^ BitRow(3, 0b011)).bits == 0b101
    with pytest.raises(DimensionError):
        BitRow(3, 0) ^ BitRow(4, 0)


def test_iter_support_orders_ascending():
    assert list(iter_support(0)) == []
    assert list(iter_support(0b101001)) == [1, 4, 6]


@given(bitrows())
@settings(max_examples=100)
def test_weight_matches_support(r):
    assert r.weight() == len(r.support())
    assert sum(r.values()) == r.weight()


# ---------------------------------------------------------------- gf2_dot


def test_gf2_dot_known_values():
    a = BitRow.from_values([1, 1, 0, 1])
    b = BitRow.from_values([1, 0, 1, 1])
    assert gf2_dot(a, b) == 0  # overlap {1, 4}, even
    assert gf2_dot(a, a) == 1  # weight 3, odd
    with pytest.raises(DimensionError):
        gf2_dot(BitRow(3, 0), BitRow(4, 0))


@given(st.integers(1, 48).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << n) - 1),
        st.integers(0, (1 << n) - 1),
    )
))
@settings(max_examples=150)
def test_gf2_dot_commutative_and_bilinear(nabc):
    n, a, b, c = nabc
    ra, rb, rc = BitRow(n, a), BitRow(n, b), BitRow(n, c)
    assert gf2_dot(ra, rb) == gf2_dot(rb, ra)
    # <a ^ b, c> = <a, c> + <b, c> over GF(2)
    assert gf2_dot(ra ^ rb, rc) == gf2_dot(ra, rc) ^ gf2_dot(rb, rc)


# ---------------------------------------------------------------- BitMatrix


def test_matrix_constructors_and_accessors():
    m = BitMatrix.from_rows([[0, 1], [1, 1]])
    assert m.bit(1, 2) == 1 and m.bit(1, 1) == 0
    assert m.row(2).values() == [1, 1]
    assert m.column(1).values() == [0, 1]
    assert BitMatrix.zero(3).row_bits == (0, 0, 0)
    eye = BitMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert eye.row_bits == (1, 2, 4)
    assert eye.is_symmetric()
    assert eye.is_upper_triangular()
    assert not m.is_upper_triangular()


def test_matrix_validation():
    with pytest.raises(DimensionError):
        BitMatrix(2, (0,))
    with pytest.raises(ValueError):
        BitMatrix(2, (0b100, 0))
    with pytest.raises(DimensionError, match=exactly("matrix must be square")):
        BitMatrix.from_rows([[0, 1], [1]])
    with pytest.raises(
        ValueError, match=exactly("entries must be 0 or 1, got 2")
    ):
        BitMatrix.from_rows([[2]])
    eye = BitMatrix(2, (1, 2))
    with pytest.raises(IndexError, match=exactly("row 3 outside [1, 2]")):
        eye.bit(3, 1)
    with pytest.raises(IndexError, match=exactly("column 3 outside [1, 2]")):
        eye.bit(1, 3)
    with pytest.raises(IndexError):
        eye.row(0)
    with pytest.raises(IndexError):
        eye.column(3)


def test_transpose_involution(example5):
    assert example5.transpose().transpose() == example5
    u = BitMatrix.from_rows([[1, 1], [0, 1]])
    assert u.transpose().row_bits == (0b01, 0b11)
    assert not u.is_symmetric()


def test_matrix_text_round_trip(example5):
    assert BitMatrix.from_text(example5.to_text()) == example5
    assert BitMatrix.from_text("0\n") == BitMatrix.zero(0)
    assert BitMatrix.zero(0).to_text() == "0\n"


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "line 1"),
        ("x\n", "line 1"),
        ("-2\n", "line 1"),
        ("2\n10\n", "line 3"),
        ("2\n10\n012\n", "line 3"),
        ("1\n2\n", "line 2"),
        ("1\n1\n\nleftover\n", "line 4: unexpected content after the matrix"),
    ],
)
def test_matrix_parse_errors_name_the_line(text, fragment):
    with pytest.raises(MatrixFormatError, match=fragment):
        BitMatrix.from_text(text)


def _matrix_texts():
    """Seeded matrix texts, valid and not: random 0/1 rows at n = 0, 1,
    2, 3, 8 and 70, each also with one row spoiled by a stray "2", "_",
    "+", "-", inner or outer spaces, a tab, a wrong length or a missing
    row, or with content after the matrix."""
    rng = random.Random(12)
    spoilers = (
        lambda r: "2" + r[1:],
        lambda r: r[:1] + "_" + r[1:-1],
        lambda r: "+" + r[1:],
        lambda r: "-" + r[1:],
        lambda r: r[:1] + " " + r[2:],
        lambda r: r[:1] + "\t" + r[2:],
        lambda r: "  " + r + " ",
        lambda r: r + rng.choice("01"),
        lambda r: r[1:],
        lambda r: "",
    )
    yield from ("", "x\n", "-1\n", "0", "0\n\n", "0\n1\n", "1\n", "1\n1")
    yield "x1" * 50 + "\n"  # quoted only up to 80 characters
    for n in (0, 1, 2, 3, 8, 70):
        for _ in range(6):
            rows = [
                "".join(rng.choice("01") for _ in range(n)) for _ in range(n)
            ]
            yield "\n".join([str(n), *rows]) + "\n"
            yield "\n".join([str(n), *rows, "", "tail"]) + "\n"
            yield "\n".join([str(n), *rows[:-1]]) + "\n"
            if n:
                k = rng.randrange(n)
                for spoil in spoilers:
                    bad = rows[:k] + [spoil(rows[k])] + rows[k + 1 :]
                    yield "\n".join([str(n), *bad]) + "\n"


def _parsed(parse, text):
    try:
        return parse(text)
    except MatrixFormatError as exc:
        return str(exc)


def test_from_text_matches_the_per_bit_reference():
    """from_text checks each row with str.strip and packs it with int();
    every text gives the per-bit parser's matrix or its message."""
    outcomes = set()
    for text in _matrix_texts():
        got = _parsed(BitMatrix.from_text, text)
        assert got == _parsed(reference_matrix_from_text, text), text
        outcomes.add(type(got))
        if isinstance(got, BitMatrix):
            assert BitMatrix.from_text(got.to_text()) == got
    assert outcomes == {BitMatrix, str}


def test_transpose_matches_the_per_bit_reference():
    rng = random.Random(13)
    for n in (0, 1, 2, 3, 8, 65, 130):
        for density in (0.0, 0.1, 0.5, 1.0):
            rows = tuple(
                sum(1 << j for j in range(n) if rng.random() < density)
                for _ in range(n)
            )
            m = BitMatrix(n, rows)
            want = reference_transpose_rows(m)
            assert m.transpose().row_bits == want
            assert m.is_symmetric() == (rows == want)
            assert transpose_mul(m).is_symmetric()


# ------------------------------------------------------------ matrix ops


def test_transpose_mul_recovers_example(example5, example5_root):
    assert transpose_mul(example5_root) == example5


def test_transpose_mul_entry_is_column_dot(good4):
    prod = transpose_mul(good4)
    for i in range(1, 5):
        for j in range(1, 5):
            assert prod.bit(i, j) == gf2_dot(good4.column(i), good4.column(j))


@given(st.integers(1, 64), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_transpose_mul_always_symmetric(n, rng):
    assert transpose_mul(random_matrix(rng, n)).is_symmetric()


def test_leading_principal_minors_known_values():
    assert leading_principal_minors(BitMatrix.from_rows([[1, 1], [1, 0]])) == (1, 1)
    assert leading_principal_minors(BitMatrix.zero(3)) == (0, 0, 0)
    assert leading_principal_minors(BitMatrix(4, (1, 2, 4, 8))) == (1, 1, 1, 1)
    assert leading_principal_minors(BitMatrix.zero(0)) == ()


@given(st.integers(1, 8), st.randoms(use_true_random=False))
@settings(max_examples=120)
def test_leading_principal_minors_match_dense_determinants(n, rng):
    m = random_matrix(rng, n)
    dense = [m.row(i).values() for i in range(1, n + 1)]
    expect = tuple(
        dense_det2([row[: k + 1] for row in dense[: k + 1]]) for k in range(n)
    )
    assert leading_principal_minors(m) == expect


@given(st.integers(1, 32), st.randoms(use_true_random=False))
@settings(max_examples=50)
def test_all_ones_minors_iff_natural_order_presses(n, rng):
    """All leading minors are 1 exactly when elimination in vertex order
    runs the full n steps with every diagonal it meets equal to 1."""
    bits = [rng.getrandbits(n) for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (bits[i] >> j) & 1:
                bits[j] |= 1 << i
            else:
                bits[j] &= ~(1 << i)
    a = BitMatrix(n, tuple(bits))
    minors = leading_principal_minors(a)
    try:
        root = instructional_root(a)
        full = all(root.matrix.bit(k, k) == 1 for k in range(1, n + 1))
    except ValueError:
        full = False
    assert (minors == (1,) * n) == full


def _elimination_case(rng, n, m, stop, tail):
    """Symmetric rows on n vertices and an order whose first stop falls
    at entry ``stop`` = m + 1, or nowhere if ``stop`` is None.

    The top-left m x m block of the rows is U^T U for a random unit
    upper-triangular U, which presses in index order whatever the other
    rows hold, so the first m entries are valid.  The entry at ``stop``
    is loopless at its turn (a pressed index repeats, or a loopless one
    comes); up to ``tail`` indices follow it.  Every index is then
    relabeled at random.
    """
    u = [rng.getrandbits(m - i) << i | 1 << i for i in range(m)]
    gram = transpose_mul(BitMatrix(m, u)).row_bits
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if (gram[i] >> j & 1) if j < m else rng.random() < 0.4:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    order = list(range(m))
    if stop is not None:
        state = list(rows)
        for p in order:
            reference_press(state, p, range(n))
        loopless = [i for i in range(n) if not state[i] >> i & 1]
        if not loopless:  # stop == 1 and every vertex looped
            loopless = [rng.randrange(n)]
            rows[loopless[0]] ^= 1 << loopless[0]
        order.append(rng.choice(loopless))
        order += [rng.randrange(n) for _ in range(rng.randint(0, tail))]
    perm = rng.sample(range(n), n)
    moved = [0] * n
    for i, r in enumerate(rows):
        moved[perm[i]] = sum(1 << perm[j - 1] for j in iter_support(r))
    return moved, [perm[p] for p in order]


@st.composite
def _eliminations(draw):
    """Symmetric rows on n <= 40 and an order up to 40 long whose first
    stop falls at entry 1, 8, 9, 16 or 17 (either side of a block edge)
    or nowhere, as _elimination_case builds them."""
    stop = draw(st.sampled_from((1, 8, 9, 16, 17, None)))
    n = draw(st.integers(stop or 0, 40))
    m = draw(st.integers(0, n)) if stop is None else stop - 1
    rng = random.Random(draw(st.integers(0, 2**32)))
    tail = 40 - (stop or 40)
    return (*_elimination_case(rng, n, m, stop, tail), stop)


def _pressed_one_at_a_time(rows, order):
    """reference_press along ``order`` up to its first loopless entry:
    the pivot rows and the final rows."""
    rows, pivots = list(rows), []
    for p in order:
        if not rows[p] >> p & 1:
            break
        pivots.append(rows[p])
        reference_press(rows, p, range(len(rows)))
    return pivots, rows


@settings(max_examples=300, deadline=None)
@given(case=_eliminations())
def test_eliminate_equals_one_press_at_a_time(case):
    """_eliminate, 8 pivots to a table lookup, gives the pivot rows, the
    stop and the final rows of reference_press applied one pivot at a
    time."""
    rows, order, stop = case
    got_rows = list(rows)
    got = _eliminate(got_rows, order)
    assert (got, got_rows) == _pressed_one_at_a_time(rows, order)
    assert len(got) == (len(order) if stop is None else stop - 1)


@pytest.mark.parametrize("n, stop", [(128, 100), (200, 133), (300, 263)])
def test_eliminate_stops_partway_through_a_table(n, stop, monkeypatch):
    """At n = 128..300, an order whose first loopless entry comes with
    pivots still waiting in the table: _eliminate flushes every full
    table, then the partial one at the stop, and ends with the pivot
    rows and rows of reference_press applied one pivot at a time."""
    rows, order = _elimination_case(random.Random(n), n, stop - 1, stop, 40)
    pending, real = [], gf2._flush

    def flush(rows, table, keys):
        pending.append(len(table).bit_length() - 1)
        real(rows, table, keys)

    monkeypatch.setattr(gf2, "_flush", flush)
    got_rows = list(rows)
    got = _eliminate(got_rows, order)
    assert (got, got_rows) == _pressed_one_at_a_time(rows, order)
    assert len(got) == stop - 1
    assert pending == [8] * ((stop - 1) // 8) + [(stop - 1) % 8]


@st.composite
def _symmetric_rows(draw):
    """Symmetric rows on n <= 64 at a drawn density, and one index."""
    n = draw(st.integers(1, 64))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from((0.05, 0.3, 0.5, 0.9)))
    return random_symmetric_rows(n, density, rng), draw(st.integers(0, n - 1))


@settings(max_examples=300, deadline=None)
@given(case=_symmetric_rows())
def test_press_reads_its_rows_off_the_pivot_bits(case):
    """On symmetric rows, _press, which reads the rows to change off the
    pivot's bits, gives what reference_press's test of every row's
    column gives, looped pivot or not."""
    rows, p = case
    want = list(rows)
    reference_press(want, p, range(len(rows)))
    got = list(rows)
    assert _press(got, p) is None
    assert got == want


def test_only_gf2_binds_the_pending_press_state():
    """The layout of the pending presses, _defer's table and keys, which
    _flush reads and _lanes spells, is known to gf2 alone: no other
    pressgraph module binds those names."""
    names = {"_defer", "_flush", "_lanes"}
    modules = [pressgraph] + [
        importlib.import_module(f"pressgraph.{info.name}")
        for info in pkgutil.iter_modules(pressgraph.__path__)
    ]
    assert gf2 in modules and len(modules) > 2
    for module in modules:
        bound = names & vars(module).keys()
        assert bound == (names if module is gf2 else set()), module.__name__


def test_lanes_spell_the_bits_one_byte_each():
    """Byte i of _lanes(x) is bit i of x, on both sides of its table of
    the values below 256."""
    assert _lanes(0) == b"\0"
    assert _lanes(0b10110) == b"\0\1\1\0\1"
    rng = random.Random(5)
    for x in [*range(1, 1024), *(rng.getrandbits(300) for _ in range(20))]:
        assert _lanes(x) == bytes(x >> i & 1 for i in range(x.bit_length()))


def test_principal_submatrix(example5):
    sub = principal_submatrix(example5, 2, 4)
    assert sub == BitMatrix.from_rows([[1, 0, 1], [0, 0, 0], [1, 0, 1]])
    assert principal_submatrix(example5, 1, 5) == example5
    assert principal_submatrix(example5, 3, 3) == BitMatrix.zero(1)
    with pytest.raises(IndexError):
        principal_submatrix(example5, 0, 3)
    with pytest.raises(IndexError):
        principal_submatrix(example5, 4, 6)
    with pytest.raises(IndexError):
        principal_submatrix(example5, 4, 2)


# ---------------------------------------------------------------- records

# Each of the package's records, built by keyword with every default
# left out, then its fields in order and its repr.
_RECORDS = [
    (
        lambda: BitRow(length=3),
        {"length": 3, "bits": 0},
        "BitRow(length=3, bits=0)",
    ),
    (
        lambda: BitMatrix(n=2, row_bits=[1, 2]),
        {"n": 2, "row_bits": (1, 2)},
        "BitMatrix(n=2, row_bits=(1, 2))",
    ),
    (
        lambda: Component(labels=(4, 7), trivial=False),
        {"labels": (4, 7), "trivial": False},
        "Component(labels=(4, 7), trivial=False)",
    ),
    (
        lambda: PseudoGraph(labels=[1, 2], edges=[(1, 1), (2, 1)]),
        {"labels": (1, 2), "rows": (3, 1)},
        "PseudoGraph(labels=(1, 2), rows=(3, 1))",
    ),
    (
        lambda: PressingOrder(permutation=(2, 1)),
        {"permutation": (2, 1), "first_tie": None},
        "PressingOrder(permutation=(2, 1), first_tie=None)",
    ),
    (
        lambda: CholeskyRoot(matrix=BitMatrix(1, (1,)), order=(5,)),
        {"matrix": BitMatrix(1, (1,)), "order": (5,)},
        "CholeskyRoot(matrix=BitMatrix(n=1, row_bits=(1,)), order=(5,))",
    ),
    (
        lambda: PropertyReport(
            fail1=None, fail2=1, fail3=None, fail4=None, column_weights=(2, 1)
        ),
        {"fail1": None, "fail2": 1, "fail3": None, "fail4": None,
         "column_weights": (2, 1)},
        "PropertyReport(fail1=None, fail2=1, fail3=None, fail4=None, "
        "column_weights=(2, 1))",
    ),
    (
        lambda: RecognitionReport(verdict=False, reason="TIE"),
        {"verdict": False, "sequence": None, "reason": "TIE",
         "column": None, "stripped": ()},
        "RecognitionReport(verdict=False, sequence=None, reason='TIE', "
        "column=None, stripped=())",
    ),
    (
        lambda: CensusResult(
            n=2, labeled_total=5, up_iso_classes=3, cup_iso_classes=1
        ),
        {"n": 2, "labeled_total": 5, "up_iso_classes": 3,
         "cup_iso_classes": 1},
        "CensusResult(n=2, labeled_total=5, up_iso_classes=3, "
        "cup_iso_classes=1)",
    ),
]


@pytest.mark.parametrize(
    "build, fields, text",
    _RECORDS,
    ids=[text.partition("(")[0] for _, _, text in _RECORDS],
)
def test_records_keep_the_frozen_dataclass_contract(build, fields, text):
    """Fields, defaults, equality within one class only, field-tuple
    hash, repr, refused assignment and deletion, and pickle and copy
    round trips."""
    rec = build()
    names = tuple(fields)
    values = tuple(fields.values())
    assert rec.__match_args__ == names
    assert tuple(getattr(rec, name) for name in names) == values
    assert repr(rec) == text
    twin = build()
    assert rec == twin and not rec != twin
    assert hash(rec) == hash(twin) == hash(values)
    assert rec != values and values != rec
    for name in names:
        with pytest.raises(AttributeError, match=f"field '{name}'"):
            setattr(rec, name, None)
        with pytest.raises(AttributeError, match=f"field '{name}'"):
            delattr(rec, name)
    for back in (pickle.loads(pickle.dumps(rec)), copy.deepcopy(rec)):
        assert type(back) is type(rec) and back == rec
        assert repr(back) == text
