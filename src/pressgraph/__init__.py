"""Pressing dynamics on loopy graphs over GF(2).

Pressing a looped vertex complements the edges among its neighbors and
isolates it; a sequence of presses that empties the graph is called
successful.  This package models the dynamic on a bit-packed GF(2)
kernel, decides in O(n^3/w) word operations whether a graph has
exactly one successful sequence, generates and counts all graphs that
do, and counts the successful sequences of small graphs by brute force.
"""

from .gf2 import *
from .graphs import *
from .cholesky import *
from .recognition import *
from .generate import *
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
