"""Pressing dynamics on loopy graphs over GF(2).

Pressing a looped vertex complements the edges among its neighbors and
isolates it; a sequence of presses that empties the graph is called
successful.  This package models the dynamic on a bit-packed GF(2)
kernel, decides in O(n^3/w) word operations whether a graph has
exactly one successful sequence, generates and counts all graphs that
do, and counts the successful sequences of small graphs by brute force.
"""

from .gf2 import (
    BitMatrix,
    BitRow,
    DimensionError,
    MatrixFormatError,
    gf2_dot,
    iter_support,
    leading_principal_minors,
    principal_submatrix,
    transpose_mul,
)
from .graphs import (
    Component,
    Edge,
    GraphFormatError,
    InvalidPressError,
    PseudoGraph,
    UnknownVertexError,
    detect_format,
    from_adjacency,
    parse_auto,
    parse_graph,
)
from .cholesky import (
    CholeskyRoot,
    NotOrderPressableError,
    PressingOrder,
    UnpressableError,
    find_pressing_order,
    instructional_root,
)
from .recognition import (
    REASON_MULTI_COMPONENT,
    REASON_TIE,
    REASON_UNPRESSABLE,
    OracleBoundError,
    PropertyReport,
    RecognitionReport,
    check_properties,
    count_sequences_bruteforce,
    pressing_length,
    recognize,
)
from .generate import (
    CensusResult,
    NotUniquelyPressableError,
    all_pseudographs,
    canonical_form,
    census,
    cup_count,
    cup_from_choices,
    extend_left,
    extend_right,
    generate_cup,
    random_cup,
    shift_labels,
    total_count,
)
from . import cholesky, generate, gf2, graphs, recognition

__version__ = "0.1.0"

# Each module's own __all__ is the one list of its public names.
__all__ = [
    "__version__",
    *gf2.__all__,
    *graphs.__all__,
    *cholesky.__all__,
    *recognition.__all__,
    *generate.__all__,
]
