"""Hand-made mutants of the package that tier-1 must kill.

Each entry is (file under src/pressgraph, exact old text, new text, why
the change is semantic).  The old text must occur exactly once in its
file.  test_mutants.py applies each entry to a copy of src/ and runs
tier-1 against it.  A new decision path adds one entry here.

Left out: the greedy's light-pivot threshold set to 0.  It changes no
result; only a test that spies on which path the greedy takes sees it.

The page mutant needs no larger _BLOCK_BITS to hide it from the census
goldens: with blocks of 2^min(_BLOCK_BITS, 2n - 1) masks, raising the
cap would not keep any level off the page gather.
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
        "        if n % 2 == 0:\n            looped |= bit\n",
        "        if n % 2 == 1:\n            looped |= bit\n",
        "the R map loops the new vertex at the wrong parity of n",
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
]
