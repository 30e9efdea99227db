"""Best-response dynamics, equilibrium verification, and the brute-force oracle.

`run_best_response_dynamics` is the package's one best-response loop, with a
pluggable responder; `_deviations` is its one deviation scan.

Verification scans every unilateral deviation of each player, over strategy
spaces that each Player enumerates once and keeps (`core.Player.strategies`).
A space can be exponentially large; that is the documented price of
generality, so every enumeration takes an explicit cap and fails loudly
instead of truncating, on a cached space too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Callable, Optional, Union

from .core import Game, Profile, Vector, deviate, load_of, pricer, validate_profile
from .errors import CapacityError, UsageError

FLOAT_TOL = 1e-9


def _improves(candidate, incumbent) -> bool:
    """Strict improvement; float costs compare with tolerance."""
    if isinstance(candidate, float) or isinstance(incumbent, float):
        return candidate < incumbent - FLOAT_TOL
    return candidate < incumbent


@dataclass(frozen=True)
class IsPNE:
    pass


@dataclass(frozen=True)
class NotPNE:
    player: int
    deviation: Vector
    delta: object  # pi(deviation) - pi(current) < 0


@dataclass(frozen=True)
class PNEFound:
    profile: Profile


@dataclass(frozen=True)
class NoPNEExists:
    profiles_checked: int


Certificate = Union[IsPNE, NotPNE, PNEFound, NoPNEExists]


@dataclass(frozen=True)
class DynamicsTrace:
    steps: tuple  # (player, old strategy, new strategy, delta pi)
    terminal: Profile
    converged: bool
    iterations: int


def _spaces(game: Game, cap: int):
    out = []
    for i, p in enumerate(game.players):
        try:
            out.append(p.strategies(cap=cap))
        except CapacityError as exc:
            raise CapacityError(f"player {i}: {exc}") from None
    return out


def _deviations(game: Game, profile: Profile, i: int, space, loads: Vector):
    """pi_i(x) and an iterator of (y, pi_i(y, x_-i)) for every y in space other than
    player i's choice, in order; all priced by one pricer."""
    price = pricer(game, profile, i, loads)
    current = profile[i]
    return price(current), ((y, price(y)) for y in space if y != current)


def verify_pne(game: Game, profile: Profile, cap: int = 10**6) -> Certificate:
    """IsPNE iff no player has a strictly improving unilateral deviation.

    Raises StructureError when a player's choice is not in their strategy space.
    """
    loads = load_of(game, profile)
    spaces = _spaces(game, cap)
    validate_profile(game, profile, cap, spaces)
    for i, space in enumerate(spaces):
        cur, deviations = _deviations(game, profile, i, space, loads)
        for y, alt in deviations:
            if _improves(alt, cur):
                return NotPNE(player=i, deviation=y, delta=alt - cur)
    return IsPNE()


def best_response(game: Game, profile: Profile, i: int, cap: int = 10**6) -> tuple:
    """(y, cost change) for player i's cheapest y; ties keep the incumbent, then lexicographic."""
    loads = load_of(game, profile)
    cur, deviations = _deviations(game, profile, i, game.players[i].strategies(cap=cap), loads)
    best, best_cost = profile[i], cur
    for y, cost in deviations:
        if _improves(cost, best_cost):
            best, best_cost = y, cost
    return best, best_cost - cur


def run_best_response_dynamics(
    game: Game,
    start: Profile,
    max_iters: int = 1000,
    schedule: str = "round-robin",
    seed: Optional[int] = None,
    cap: int = 10**6,
    responder: Optional[Callable] = None,
) -> DynamicsTrace:
    """Apply strict best responses until none exists or max_iters steps were taken.

    `responder` has the signature and result of `best_response`, the default.
    """
    if schedule not in ("round-robin", "random"):
        raise UsageError(f"unknown schedule {schedule!r}")
    respond = best_response if responder is None else responder
    rng = random.Random(seed) if schedule == "random" else None
    profile = tuple(tuple(v) for v in start)
    steps = []
    n = game.n_players
    while len(steps) < max_iters:
        order = list(range(n))
        if rng is not None:
            rng.shuffle(order)
        moved = False
        for i in order:
            y, delta = respond(game, profile, i, cap=cap)
            if y == profile[i]:
                continue
            steps.append((i, profile[i], y, delta))
            profile = deviate(profile, i, y)
            moved = True
            if len(steps) >= max_iters:
                break
        if not moved:
            return DynamicsTrace(tuple(steps), profile, True, len(steps))
    converged = isinstance(verify_pne(game, profile, cap=cap), IsPNE)
    return DynamicsTrace(tuple(steps), profile, converged, len(steps))


def brute_force_pne(game: Game, budget: int = 10**7, cap: int = 10**6) -> Certificate:
    """Enumerate all profiles in canonical order; first PNE or an exhaustion certificate."""
    spaces = _spaces(game, cap)
    total = 1
    for s in spaces:
        total *= len(s)
    if total > budget:
        raise CapacityError(f"{total} profiles exceed the budget {budget}")
    checked = 0
    for choices in product(*spaces):
        checked += 1
        if isinstance(verify_pne(game, tuple(choices), cap=cap), IsPNE):
            return PNEFound(profile=tuple(choices))
    return NoPNEExists(profiles_checked=checked)
