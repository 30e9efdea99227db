"""Game representation: players, strategy spaces, profiles, loads, private cost.

Strategy vectors are tuples over the m resources.  Unweighted players play
0/1 incidence vectors; a player of weight w plays w times a 0/1 vector.
A player's strategy space is an `Explicit` list of vectors or a matroid
descriptor (`matroid.Uniform`, `Partition`, `Graphic`), whose bases it plays.
Games and profiles are immutable; every operation here is a pure function.
A Player keeps its enumerated strategy tuple once computed (`strategies`), and
reads it as a `Trie` for the pruned deviation search (`trie`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Optional, Tuple, Union

from .costs import unscaled
from .errors import StructureError

Number = Union[int, Fraction]
Vector = Tuple[Number, ...]
Profile = Tuple[Vector, ...]


@dataclass(frozen=True, eq=False)
class Explicit:
    """An explicit list of 0/1 incidence vectors, deduplicated and sorted."""

    vectors: tuple

    def __post_init__(self):
        if not self.vectors:
            raise StructureError("strategy space must be non-empty")
        dims = {len(v) for v in self.vectors}
        if len(dims) != 1:
            raise StructureError("all strategy vectors must share one dimension")
        for v in self.vectors:
            if any(e not in (0, 1) for e in v):
                raise StructureError(f"explicit strategies must be 0/1 vectors, got {v}")
        canon = tuple(sorted(set(self.vectors)))
        object.__setattr__(self, "vectors", canon)

    @property
    def m(self) -> int:
        return len(self.vectors[0])


class Trie:
    """One player's sorted strategy tuple read as a trie over the resources.

    Every entry of a player's strategy is 0 or the player's weight.  The node over
    space[lo:hi] holds strategies that agree on every resource before its split, the
    first resource on which space[lo] and space[hi - 1] differ (m for a single
    strategy).  Its first child, space[lo:mid], leaves the split unused and its second
    child, space[mid:hi], uses it, so a depth-first walk, first child first, meets the
    strategies in the order of the tuple.  Each node is worked out on its first visit
    and kept.
    """

    __slots__ = ("space", "_nodes")

    def __init__(self, space: tuple):
        self.space = space
        self._nodes = {}

    def node(self, lo: int, hi: int, d: int) -> tuple:
        """(used, split, mid) of the node over space[lo:hi], whose parent splits at d
        (0 for the root): the resources in d..split-1 that its strategies use, its
        split, and the start of its second child (hi for a leaf)."""
        key = (lo, hi)
        node = self._nodes.get(key)
        if node is None:
            first, last = self.space[lo], self.space[hi - 1]
            split, m = d, len(first)
            while split < m and first[split] == last[split]:
                split += 1
            mid = hi if split == m else bisect_right(self.space, first[split], lo, hi,
                                                      key=itemgetter(split))
            node = self._nodes[key] = (tuple(r for r in range(d, split) if first[r]), split, mid)
        return node


@dataclass(frozen=True, eq=False)
class Player:
    weight: Number = 1
    strategy_space: object = None  # an Explicit or a matroid descriptor
    _strategies: Optional[tuple] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.weight <= 0:
            raise StructureError("player weight must be positive")
        if self.strategy_space is None:
            raise StructureError("player needs a strategy space")

    def strategies(self) -> tuple:
        """Playable vectors: weight-scaled copies of the 0/1 base vectors, in canonical order.

        The tuple is computed on the first call and kept on this object, never
        shared with another Player.  A matroid space is enumerated by
        `matroid.enumerate_bases`, which raises CapacityError past its basis
        limit; a call that raised caches nothing.  An explicit space is
        returned whole.
        """
        cached = self._strategies
        if cached is not None:
            return cached
        if isinstance(self.strategy_space, Explicit):
            base = self.strategy_space.vectors
        else:
            from .matroid import enumerate_bases

            base = enumerate_bases(self.strategy_space)
        w = self.weight
        cached = base if w == 1 else tuple(tuple(w * e for e in v) for v in base)
        object.__setattr__(self, "_strategies", cached)
        return cached

    @cached_property
    def trie(self) -> Trie:
        """`strategies()` as a Trie, made on first use and kept with the tuple."""
        return Trie(self.strategies())


@dataclass(frozen=True, eq=False)
class Game:
    n_resources: int
    players: tuple
    cost_model: object

    def __post_init__(self):
        if self.n_resources < 0:
            raise StructureError("resource count must be non-negative")
        object.__setattr__(self, "players", tuple(self.players))
        for i, p in enumerate(self.players):
            if p.strategy_space.m != self.n_resources:
                raise StructureError(
                    f"player {i} has strategies of dimension {p.strategy_space.m}, "
                    f"expected {self.n_resources}"
                )
        if self.cost_model.m != self.n_resources:
            raise StructureError(
                f"cost model covers {self.cost_model.m} resources, game has {self.n_resources}"
            )

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def unweighted(self) -> bool:
        return all(p.weight == 1 for p in self.players)


def load_of(game: Game, profile: Profile) -> Vector:
    """Resource-wise sum of the chosen vectors (exact arithmetic)."""
    if len(profile) != game.n_players:
        raise StructureError("profile has wrong number of players")
    loads = [0] * game.n_resources
    for v in profile:
        if len(v) != game.n_resources:
            raise StructureError("strategy vector has wrong dimension")
        for r, e in enumerate(v):
            if e:
                loads[r] += e
    return tuple(loads)


def pricer(game: Game, profile: Profile, i: int, loads: Optional[Vector] = None):
    """(scale, price): pi_i(y, x_-i) = price(y) / scale, player i's private cost of
    each choice y against the others, in the cost model's pricer protocol."""
    if loads is None:
        loads = load_of(game, profile)
    base = tuple(v - e for v, e in zip(loads, profile[i]))
    return game.cost_model.pricer(base, i, game.players[i].weight)


def private_cost(game: Game, profile: Profile, i: int, loads: Optional[Vector] = None):
    """pi_i(x) = x_i^T c_i(load(x)); only the support rows of c are evaluated."""
    scale, price = pricer(game, profile, i, loads)
    return unscaled(price(profile[i]), scale)


def support(vector: Vector) -> list:
    """The resources a strategy vector uses, in increasing order."""
    return [r for r, e in enumerate(vector) if e]


def incidence(resources, m: int) -> Vector:
    """The 0/1 vector over m resources that uses exactly `resources`; inverts `support`."""
    vector = [0] * m
    for r in resources:
        vector[r] = 1
    return tuple(vector)


def deviate(profile: Profile, i: int, y: Vector) -> Profile:
    """Replace player i's strategy by y, leaving everyone else unchanged."""
    if i < 0 or i >= len(profile):
        raise StructureError(f"no player {i} in a {len(profile)}-player profile")
    return profile[:i] + (tuple(y),) + profile[i + 1 :]


def validate_profile(game: Game, profile: Profile, spaces: Optional[list] = None) -> None:
    """Check that every choice is playable; raises StructureError otherwise.

    `spaces`, when given, holds each player's strategies as already read.  Every
    space is sorted, so a choice is looked up by bisection.
    """
    if len(profile) != game.n_players:
        raise StructureError("profile has wrong number of players")
    if spaces is None:
        spaces = [p.strategies() for p in game.players]
    for i, (space, v) in enumerate(zip(spaces, profile)):
        v = tuple(v)
        k = bisect_left(space, v)
        if k == len(space) or space[k] != v:
            raise StructureError(f"player {i} cannot play resources {support(v)}")

