"""Exception hierarchy shared by all modules."""


class GameError(Exception):
    """Base class for all engine errors."""


class StructureError(GameError):
    """Malformed game data: dimension mismatch, empty strategy space, etc."""


class LoadRangeError(GameError):
    """A table-backed cost model was evaluated outside its declared load bound."""


class CapacityError(GameError):
    """An enumeration exceeded its limit or budget."""


class IncompatibleModelsError(GameError):
    """Cost models that cannot be composed structurally."""


class UsageError(GameError):
    """An operation was called with arguments that violate its contract."""
