"""Deterministic engine for resource graph games.

Exact-arithmetic tools for building congestion-style games over 0/1
resource vectors, deciding when they admit potential functions and pure
Nash equilibria, constructing counterexample gadgets when they do not,
and solving matroid-constrained security games.
"""

__version__ = "0.1.0"

from .core import Explicit, Game, Player, load_of, private_cost  # noqa: F401
from .errors import (  # noqa: F401
    CapacityError,
    GameError,
    IncompatibleModelsError,
    LoadRangeError,
    StructureError,
    UsageError,
)
