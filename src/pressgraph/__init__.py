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
from . import gf2, graphs

__version__ = "0.1.0"


def _lazy(name: str):
    """Module name, put in sys.modules now but run on its first use."""
    import sys
    from importlib.util import LazyLoader, find_spec, module_from_spec

    if name in sys.modules:  # a reload of the package keeps it
        return sys.modules[name]
    spec = find_spec(name)
    spec.loader = LazyLoader(spec.loader)
    module = sys.modules[spec.name] = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# recognize runs recognition, root runs cholesky, and generate, count
# and census run generate, which imports recognition; press and convert
# run none of the three.  So that no command compiles or runs one for
# nothing at start-up, each is in sys.modules from here on, and runs
# when one of its names is first read, through the module or through
# __getattr__ below.
cholesky = _lazy(__name__ + ".cholesky")
recognition = _lazy(__name__ + ".recognition")
generate = _lazy(__name__ + ".generate")
del _lazy


def __getattr__(name: str):
    """Bind the lazy modules' public names and __all__ on first use of one.

    Each module's own __all__ is the one list of its public names.  A
    private name, and cli, which ``from pressgraph import cli`` asks for
    before it imports the module, are refused without running any lazy
    module.  The names are bound once, so that a later miss rebinds none
    that a caller has patched.  Any name still missing is missing, as it
    is from a module without this hook.
    """
    names = globals()
    public = name == "__all__" or not name.startswith("_") and name != "cli"
    if public and "__all__" not in names:
        for module in (cholesky, recognition, generate):
            names.update((key, getattr(module, key)) for key in module.__all__)
        names["__all__"] = [
            "__version__",
            *gf2.__all__,
            *graphs.__all__,
            *cholesky.__all__,
            *recognition.__all__,
            *generate.__all__,
        ]
    if public and name in names:
        return names[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    """dir(pressgraph) lists the lazy modules' names, binding them first."""
    __getattr__("__all__")
    return sorted(globals())
