"""Best-response dynamics, equilibrium verification, and the brute-force oracle.

`run_best_response_dynamics` is the package's one best-response loop, with a
pluggable responder.

Verification searches the unilateral deviations of each player, over strategy
spaces that each Player enumerates once and keeps (`core.Player.strategies`).
A space can be exponentially large; that is the documented price of
generality, so a matroid space past `matroid.enumerate_bases`'s basis limit
fails loudly, naming the player, instead of truncating.

`_searcher` is the one deviation search of `verify_pne`, `brute_force_pne` and
`best_response`: the first deviation in space order priced below a threshold.  It
works in the cost model's pricer units (`costs`), ints over one scale on the
rational models, so its comparisons and differences are int operations; a delta
becomes a Fraction (`costs.unscaled`) only in the certificate or the trace.  It owns
both ways to search.  Where the cost model gives a `bound` (`SeparablePlusLinear`
and `Affine`), `_trie_search` walks the player's strategies as a trie (`core.Trie`)
and skips every subtree whose exact lower bound reaches the threshold (branch and
bound, Land & Doig 1960), so the first improving deviation and the first cheapest
one are those of a full scan, found without pricing most strategies.  The other
models have no kernel to bound a subtree with (and Exponential is float), so they
keep the full scan; so does a space of at most 2m strategies, which the scan prices
faster than the walk is set up, and a base where some deviation could raise (an SPL
table too short for the player's weight), so that errors are the full scan's.

`prices` prices every strategy of one player, in space order, for the min and max of
`reductions.check_reduction`.  Where the model gives a `bound`, one pass over the
sorted space keeps the price of each prefix of the previous strategy's support and
re-adds only the resources past the prefix the next one shares; otherwise it prices
each strategy on its own.  It does not walk the trie: with no threshold nothing is
pruned, and a walk from a cold trie sets up every node it visits, which cost more than
the whole pass on reduced 3-SAT games of 6 clauses (about 2.5 ms against 1.5 ms per
game, CPython 3.11 on a 2-vCPU Linux container), so `_trie_search` stays the one
pruned search.

`_sweep` is the one walk over every profile, shared by `brute_force_pne`,
`potential.check_exact_potential` and `gadgets.check_AB_symmetry`, each over
the spaces read by `_spaces`: it keeps the load vector as prefix sums
over the players, so a step re-adds only the players from the first whose
choice changed.  `brute_force_pne` runs `verify_pne`'s scan on those loads
directly instead of calling `verify_pne` per profile.

`brute_force_pne` sweeps the components of the resource graph one at a time
(`_components`): players who share no resource, and whose resources no cost
reads across, cannot change each other's costs.  A profile is then a PNE iff
its restriction to every component is one, and the first PNE in `product`
order is the union of each component's first PNE.  Only an affine game is
split: an affine cost is exact at every rational load and never raises, while
a table-backed or exponential cost can raise at a load that only the whole
sweep reaches, and such a game is swept whole.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional, Union

from .core import Game, Profile, Vector, deviate, load_of, validate_profile
from .costs import Affine, unscaled
from .errors import CapacityError, UsageError

FLOAT_TOL = 1e-9  # float costs compare within this; `characterize` shares it


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


def _spaces(game: Game):
    """Each player's strategies; an enumeration past the basis limit names the player."""
    out = []
    for i, p in enumerate(game.players):
        try:
            out.append(p.strategies())
        except CapacityError as exc:
            raise CapacityError(f"player {i}: {exc}") from None
    return out


def _searcher(game: Game, profile: Profile, i: int, space, loads: Vector):
    """(scale, pi_i(x), first_below): first_below(start, threshold) is the first k >=
    start whose space[k] is priced strictly below threshold, as (k, price), or None.
    Prices and thresholds are the pricer's, over its scale.

    The trie walk needs the player's own space with more than 2m strategies: it costs
    O(m) to set up and up to m nodes to reach its first leaf, which a scan of 2m
    strategies does not repay.  It also needs a `bound` from the cost model, which is
    None where the model has no kernel or some deviation could raise.  Otherwise the
    scan prices space[start:] in order, skipping player i's choice, so that the first
    error is the full scan's.
    """
    base = tuple(v - e for v, e in zip(loads, profile[i]))
    model, player, current = game.cost_model, game.players[i], profile[i]
    scale, price = model.pricer(base, i, player.weight)
    cur = price(current)
    if len(space) > 2 * game.n_resources and player.trie.space is space:
        bound = model.bound(base, player.weight)
        if bound is not None:
            return scale, cur, _trie_search(*bound, player.trie)

    def scan(start, threshold):
        for k in range(start, len(space)):
            y = space[k]
            if y != current:
                alt = price(y)
                if _improves(alt, threshold):
                    return k, alt
        return None

    return scale, cur, scan


def _trie_search(u: list, c: int, pairs: tuple, trie):
    """first_below(start, threshold) over trie.space for the int prices P(S), where S is
    the support of a strategy and P(S) = sum_{r in S} u[r] + c * sum_{r < s in S} sym[r][s].

    It returns the first k >= start in the order of trie.space whose price is below the
    int threshold, as (k, price), or None.  A depth-first walk over the trie keeps P of the
    resources used so far; a subtree is skipped when that partial sum, plus every
    negative part that an undecided resource (u[r] < 0) or a pair with an undecided
    resource (sym < 0) could add, is at least the threshold.  All sums are ints.
    """
    sym, neg_pairs, neg_rows = pairs
    m = len(u)
    neg_u = [0] * (m + 1)
    for r in range(m - 1, -1, -1):
        neg_u[r] = neg_u[r + 1] + min(0, u[r])

    node, size = trie.node, len(trie.space)

    def first_below(start: int, threshold: int):
        stack = [(0, size, 0, 0, ())] if start < size else []
        while stack:
            lo, hi, d, partial, used = stack.pop()
            more, split, mid = node(lo, hi, d)
            for r in more:
                partial += u[r]
                if sym is not None and used:
                    partial += c * sum(map(sym[r].__getitem__, used))
                used += (r,)
            if split == m:
                if partial < threshold and lo >= start:
                    return lo, partial
                continue
            bound = partial + neg_u[split]
            if neg_pairs is not None:
                bound += c * (neg_pairs[split] + sum(neg_rows[s][split] for s in used))
            if bound >= threshold:
                continue
            stack.append((mid, hi, split, partial, used))
            if mid > start:
                stack.append((lo, mid, split, partial, used))
        return None

    return first_below


def prices(game: Game, i: int, base: Vector) -> tuple:
    """(scale, costs): costs[k] is player i's price of the k-th strategy against the
    other players' loads `base`, over the pricer's scale, for every strategy in space
    order.

    Where the cost model gives a `bound`, a strategy w*1_S costs P(S) = sum_{r in S} u[r]
    + c * sum_{r < s in S} sym[r][s], and one pass keeps P of each prefix of the previous
    support: a strategy re-adds only the resources past the prefix it shares with the
    previous one, which in sorted order is all but its last few.  Otherwise every
    strategy is priced on its own, so every value and the first error are the pricer's.
    """
    model, player = game.cost_model, game.players[i]
    space = player.strategies()
    scale, price = model.pricer(base, i, player.weight)
    bound = model.bound(base, player.weight)
    if bound is None:
        return scale, [price(y) for y in space]
    u, c, (sym, _, _) = bound
    costs, prev, partial = [], [], [0]  # partial[k]: P of the first k resources of prev
    for y in space:
        supp = [r for r, e in enumerate(y) if e]
        k = 0
        while k < len(prev) and k < len(supp) and prev[k] == supp[k]:
            k += 1
        del partial[k + 1:]
        for j in range(k, len(supp)):
            r = supp[j]
            total = partial[j] + u[r]
            if sym is not None and j:
                total += c * sum(map(sym[r].__getitem__, supp[:j]))
            partial.append(total)
        costs.append(partial[-1])
        prev = supp
    return scale, costs


def verify_pne(game: Game, profile: Profile) -> Certificate:
    """IsPNE iff no player has a strictly improving unilateral deviation.

    Raises StructureError when a player's choice is not in their strategy space.
    """
    loads = load_of(game, profile)
    spaces = _spaces(game)
    validate_profile(game, profile, spaces)
    return _scan(game, profile, spaces, loads)


def _scan(game: Game, profile: Profile, spaces, loads: Vector) -> Certificate:
    """verify_pne on a playable profile with its loads: players in index order, each
    player's own choice priced first, stopping at the first strict improvement."""
    for i, space in enumerate(spaces):
        scale, cur, first_below = _searcher(game, profile, i, space, loads)
        hit = first_below(0, cur)
        if hit is not None:
            k, alt = hit
            return NotPNE(player=i, deviation=space[k], delta=unscaled(alt - cur, scale))
    return IsPNE()


def best_response(game: Game, profile: Profile, i: int) -> tuple:
    """(y, cost change) for player i's cheapest y; ties keep the incumbent, then lexicographic."""
    space = game.players[i].strategies()
    scale, cur, first_below = _searcher(game, profile, i, space, load_of(game, profile))
    best, best_cost = profile[i], cur
    hit = first_below(0, cur)
    while hit is not None:
        k, best_cost = hit
        best = space[k]
        hit = first_below(k + 1, best_cost)
    return best, unscaled(best_cost - cur, scale)


def run_best_response_dynamics(
    game: Game,
    start: Profile,
    max_iters: int = 1000,
    seed: Optional[int] = None,
    responder: Optional[Callable] = None,
) -> DynamicsTrace:
    """Apply strict best responses until none exists or max_iters steps were taken.

    Each round visits the players in index order; with a `seed`, the order of
    every round is shuffled by `random.Random(seed)` instead.  `responder` has
    the signature and result of `best_response`, the default.
    """
    if max_iters < 0:
        raise UsageError(f"max_iters: expected a non-negative integer, got {max_iters}")
    respond = best_response if responder is None else responder
    rng = None if seed is None else random.Random(seed)
    profile = tuple(tuple(v) for v in start)
    steps = []
    n = game.n_players
    while len(steps) < max_iters:
        order = list(range(n))
        if rng is not None:
            rng.shuffle(order)
        moved = False
        for i in order:
            y, delta = respond(game, profile, i)
            if y == profile[i]:
                continue
            steps.append((i, profile[i], y, delta))
            profile = deviate(profile, i, y)
            moved = True
            if len(steps) >= max_iters:
                break
        if not moved:
            return DynamicsTrace(tuple(steps), profile, True, len(steps))
    converged = isinstance(verify_pne(game, profile), IsPNE)
    return DynamicsTrace(tuple(steps), profile, converged, len(steps))


def _sweep(game: Game, spaces):
    """(indices, profile, loads) for every profile over `spaces`, in `product` order.

    `indices[i]` is the position of player i's choice in spaces[i], and `loads`
    equals `load_of(game, profile)`, summed in the same order: level i of the
    prefix sums holds the loads of players 0..i-1, and a step recomputes only
    the levels from the first player whose choice changed.
    """
    n = len(spaces)
    if not all(spaces):
        return
    # (r, e) for every non-zero entry of every strategy, read once per sweep
    adds = [[[(r, e) for r, e in enumerate(v) if e] for v in space] for space in spaces]
    idx = [0] * n
    choice = [space[0] for space in spaces]
    prefix = [[0] * game.n_resources] + [None] * n
    first = 0  # the first player whose choice changed since the last profile
    while True:
        for i in range(first, n):
            loads = prefix[i][:]
            for r, e in adds[i][idx[i]]:
                loads[r] += e
            prefix[i + 1] = loads
        yield tuple(idx), tuple(choice), tuple(prefix[n])
        first = n - 1
        while first >= 0 and idx[first] == len(spaces[first]) - 1:
            idx[first] = 0
            choice[first] = spaces[first][0]
            first -= 1
        if first < 0:
            return
        idx[first] += 1
        choice[first] = spaces[first][idx[first]]


def _components(game: Game, spaces) -> list:
    """The players by component of the resource graph, each in index order and the
    components by their lowest player; one component for a game of under two players,
    whose spaces go unread, or for a cost that is not `Affine`.

    Player i joins every resource its strategies use, and resource r every resource
    that c_r reads.
    """
    n = game.n_players
    if n < 2 or not isinstance(game.cost_model, Affine):
        return [range(n)]
    parent = list(range(n + game.n_resources))  # player i, then resource r at n + r

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for r, s in game.cost_model.reads():
        parent[find(n + r)] = find(n + s)
    for i, space in enumerate(spaces):
        for r in {r for v in space for r, e in enumerate(v) if e}:
            parent[find(i)] = find(n + r)
    parts = {}
    for i in range(n):
        parts.setdefault(find(i), []).append(i)
    return list(parts.values())


def brute_force_pne(game: Game, budget: int = 10**7) -> Certificate:
    """Enumerate all profiles in canonical order; first PNE or an exhaustion certificate.

    The spaces are read once; each profile is checked with `verify_pne`'s scan on the
    sweep's loads, without calling `verify_pne`, `load_of` or `validate_profile`.
    Each component is swept with the players outside it held to one strategy: the
    first PNE of a component already swept, the first strategy otherwise.  Every
    profile of the product is refuted by its restriction to the first component that
    has no PNE, so `profiles_checked` is the size of the product.
    """
    spaces = _spaces(game)
    total = 1
    for s in spaces:
        total *= len(s)
    if total > budget:
        raise CapacityError(f"{total} profiles exceed the budget {budget}")
    fixed = [space[:1] for space in spaces]
    for part in _components(game, spaces):
        for i in part:
            fixed[i] = spaces[i]
        found = next((profile for _, profile, loads in _sweep(game, fixed)
                      if isinstance(_scan(game, profile, fixed, loads), IsPNE)), None)
        if found is None:
            return NoPNEExists(profiles_checked=total)
        for i in part:
            fixed[i] = found[i:i + 1]
    return PNEFound(profile=found)
