"""Hand-made mutants of the package that tier-1 must kill.

Each entry is (file under src/pressgraph, exact old text, new text, why
the change is semantic).  The old text must occur exactly once in its
file.  test_mutants.py applies each entry to a copy of src/ and runs
tier-1 against it.  A new decision path adds one entry here.

Left out: the greedy's light-pivot threshold set to 0.  It changes no
result; only a test that spies on which path the greedy takes sees it.
Also left out: a mutant that drops the greedy's catch-up of its pivot
with the pending presses, or spells its keys in slot 0 of the table.
Either makes ``looped`` never empty, so the greedy's lists grow without
bound: one such tier-1 run passed 4.8 GB before it was killed.

The page mutant needs no larger _BLOCK_BITS to hide it from the census
goldens: with blocks of 2^min(_BLOCK_BITS, 2n - 1) masks, raising the
cap would not keep any level off the page gather.

The window mutant changes nothing on levels up to 5, whose rows read
one 256-byte window of the joined pages; tier-1 reaches the second
window only on level 6, through its slice test and census(6).
"""

MUTANTS = [
    (
        "gf2.py",
        "first_tie = len(order) + 1",
        "first_tie = len(order) + 2",
        "the greedy reports its first tie one step late",
    ),
    (
        "gf2.py",
        "        if not piv >> p & 1:\n            break\n",
        "",
        "_eliminate presses a pivot that is not looped at its turn",
    ),
    (
        "recognition.py",
        "wj <= w[j - 2]",
        "wj < w[j - 2]",
        "property 3 becomes strict and passes an equal weight",
    ),
    (
        "recognition.py",
        "if fail4 is None and odd and wj != j + 1:",
        "if fail4 is None and odd and wj != j + 1 and j < n - 1:",
        "property 4 never checks the last column",
    ),
    (
        "gf2.py",
        "bytes((0, 1 << t, 0))",
        "bytes((0, 1 << t, 1))",
        "_eliminate's key bytes leak a bit into the row above the pivot's",
    ),
    (
        "gf2.py",
        "_BYTE_LANES[pivot] if pivot < 256",
        "_BYTE_LANES[pivot] if pivot < 512",
        "the greedy reads a light pivot's lanes off the byte table past 255",
    ),
    (
        "recognition.py",
        "if fails == (None, None, None, None):",
        "if fails[0] is None:",
        "_decide says yes once property 1 holds, whatever 2-4 say",
    ),
    (
        "gf2.py",
        "rows[i] ^ table[kb[i]] if waits else rows[i]",
        "rows[i]",
        "the greedy's scan reads rows straight while presses wait",
    ),
    (
        "recognition.py",
        "if _reach(rows, first).bit_count() != len(rows) - rows.count(0):",
        "if False:",
        "_decide skips its connectivity check",
    ),
    (
        "generate.py",
        "_CAP = bytes(min(c, 2) for c in range(256))",
        "_CAP = bytes(min(c, 3) for c in range(256))",
        "the census count table caps counts at 3, so c = 2 and 3 differ",
    ),
    (
        "generate.py",
        "w + (w & 1)",
        "w | 1",
        "the L map on weights sets the low bit of each weight",
    ),
    (
        "generate.py",
        "        d[j + 1] ^= 1 << j\n",
        "",
        "the builder runs each column of the band past its diagonal",
    ),
    (
        "graphs.py",
        "                rows[iu] |= 1 << iv\n",
        "                rows[iu] ^= 1 << iv\n",
        "the fast parser's sparse path cancels a repeated edge",
    ),
    (
        "graphs.py",
        "        if len(tokens) != 2 * count:\n            break\n",
        "",
        "the fast parser reads a line with an empty token",
    ),
    (
        "generate.py",
        "page = 1 << sum(",
        "page = 2 << sum(",
        "the census gathers pages one bit too large from the level below",
    ),
    (
        "generate.py",
        'bytes(h) + b"\\xff"',
        'b"\\xff" * (h + 1)',
        "the census adds each count again through every later window",
    ),
    (
        "generate.py",
        '"little")\n                        & looped)',
        '"little"))',
        "the census counts an unlooped v through its looped twin's spot",
    ),
    (
        "generate.py",
        "if n > CENSUS_MAX_N:",
        "if n > CENSUS_MAX_N + 1:",
        "census lets one size past its cap through to the sweep",
    ),
    (
        "generate.py",
        "            edge[v - 1] |= 1 << u - 1\n",
        "",
        "the pair tables set each edge in its first endpoint's row only",
    ),
    (
        "recognition.py",
        "bound = min(bound, ORACLE_MAX_N)",
        "bound = min(bound, ORACLE_MAX_N + 1)",
        "brute force lets one size past its cap through to the memo",
    ),
    (
        "cli.py",
        "except (InvalidPressError, NotOrderPressableError) as exc:",
        "except InvalidPressError as exc:",
        "root exits 2, not 1, on a graph it cannot press in vertex order",
    ),
    (
        "gf2.py",
        "            if t == 8:\n",
        "            if t == 9:\n",
        "the greedy lets a 9th pivot join a full table",
    ),
]
