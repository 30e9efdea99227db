"""Matroid strategy spaces: basis oracles, exchange decomposition, greedy
best response, local monotonicity, and the separable-game equilibrium lift.

Descriptors are uniform, partition, and graphic matroids over the resource
set; bases are 0/1 incidence vectors of length m.  The lift runs
`dynamics.run_best_response_dynamics` with the greedy responder.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod
from typing import Callable, Optional, Sequence, Tuple, Union

from .core import Game, MatroidBases, Profile, load_of
from .costs import CostModel, PlayerSpecificSeparable, eval_cost_entry
from .dynamics import IsPNE, PNEFound, brute_force_pne, run_best_response_dynamics, verify_pne
from .errors import CapacityError, StructureError, UsageError


@dataclass(frozen=True)
class Uniform:
    m: int
    k: int

    def __post_init__(self):
        if not 1 <= self.k <= self.m:
            raise StructureError(f"uniform rank must be in 1..{self.m}")


@dataclass(frozen=True)
class Partition:
    m: int
    blocks: tuple  # disjoint tuples of resource indices
    quotas: tuple

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            for e in block:
                if e in seen or not 0 <= e < self.m:
                    raise StructureError("blocks must be disjoint subsets of the resources")
                seen.add(e)
        if len(self.quotas) != len(self.blocks):
            raise StructureError("one quota per block required")
        for block, q in zip(self.blocks, self.quotas):
            if not 0 <= q <= len(block):
                raise StructureError(f"quota {q} exceeds block size {len(block)}")


@dataclass(frozen=True)
class Graphic:
    n_vertices: int
    edges: tuple  # (u, v) pairs; resource r is edge r

    def __post_init__(self):
        for u, v in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices) or u == v:
                raise StructureError(f"bad edge ({u}, {v})")
        if not _connected(self.n_vertices, self.edges):
            raise StructureError("graphic matroid requires a connected graph")

    @property
    def m(self) -> int:
        return len(self.edges)


MatroidDesc = Union[Uniform, Partition, Graphic]


@dataclass(frozen=True)
class ExchangeStep:
    remove: int
    add: int


def _connected(n: int, edges: Sequence[Tuple[int, int]]) -> bool:
    if n <= 1:
        return True
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in range(n)}) == 1


def _support(v: Sequence[int]) -> frozenset:
    return frozenset(r for r, e in enumerate(v) if e)


def is_independent(desc: MatroidDesc, subset: frozenset) -> bool:
    if isinstance(desc, Uniform):
        return len(subset) <= desc.k
    if isinstance(desc, Partition):
        outside = set(subset)
        for block, q in zip(desc.blocks, desc.quotas):
            inside = sum(1 for e in block if e in subset)
            if inside > q:
                return False
            outside.difference_update(block)
        return not outside
    if isinstance(desc, Graphic):
        parent = list(range(desc.n_vertices))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for r in subset:
            u, v = desc.edges[r]
            ru, rv = find(u), find(v)
            if ru == rv:
                return False
            parent[ru] = rv
        return True
    raise UsageError(f"unknown matroid descriptor {desc!r}")


def rank(desc: MatroidDesc) -> int:
    if isinstance(desc, Uniform):
        return desc.k
    if isinstance(desc, Partition):
        return sum(desc.quotas)
    if isinstance(desc, Graphic):
        return desc.n_vertices - 1
    raise UsageError(f"unknown matroid descriptor {desc!r}")


def is_basis(desc: MatroidDesc, v: Sequence[int]) -> bool:
    if len(v) != desc.m or any(e not in (0, 1) for e in v):
        return False
    supp = _support(v)
    return len(supp) == rank(desc) and is_independent(desc, supp)


def enumerate_bases(desc: MatroidDesc, cap: int = 10**6) -> tuple:
    """All bases as 0/1 vectors in lexicographic vector order.

    Partition bases are built directly, one quota-sized pick per block;
    uniform and graphic bases are the independent rank-sized subsets.
    """
    if isinstance(desc, Partition):
        pairs = tuple(zip(desc.blocks, desc.quotas))
        if prod(comb(len(block), q) for block, q in pairs) > cap:
            raise CapacityError(f"more than {cap} bases")
        out = []
        for picks in product(*(combinations(sorted(block), q) for block, q in pairs)):
            supp = {e for pick in picks for e in pick}
            out.append(tuple(1 if r in supp else 0 for r in range(desc.m)))
        return tuple(sorted(out))
    out = []
    for combo in combinations(range(desc.m), rank(desc)):
        supp = frozenset(combo)
        if is_independent(desc, supp):
            out.append(tuple(1 if r in supp else 0 for r in range(desc.m)))
            if len(out) > cap:
                raise CapacityError(f"more than {cap} bases")
    return tuple(sorted(out))


def exchange_decompose(desc: MatroidDesc, t: Sequence[int], u: Sequence[int]) -> tuple:
    """Single-element exchange sequence from basis t to basis u.

    Removes and adds are pairwise distinct and every intermediate vector is a
    basis; found by depth-first search over valid swaps (the matroid exchange
    property guarantees one exists).
    """
    if not is_basis(desc, t) or not is_basis(desc, u):
        raise StructureError("exchange endpoints must be bases")
    removes = sorted(_support(t) - _support(u))
    adds = sorted(_support(u) - _support(t))

    def search(current: frozenset, remaining_rm: tuple, remaining_add: tuple, acc: tuple):
        if not remaining_rm:
            return acc
        for r in remaining_rm:
            for s in remaining_add:
                nxt = (current - {r}) | {s}
                if is_independent(desc, nxt):
                    result = search(
                        nxt,
                        tuple(x for x in remaining_rm if x != r),
                        tuple(x for x in remaining_add if x != s),
                        acc + (ExchangeStep(remove=r, add=s),),
                    )
                    if result is not None:
                        return result
        return None

    steps = search(_support(t), tuple(removes), tuple(adds), ())
    if steps is None:
        raise StructureError("no exchange sequence found; inputs are not bases of one matroid")
    return steps


def greedy_best_response(desc: MatroidDesc, weights: Sequence) -> tuple:
    """Minimum-weight basis via the matroid greedy; ties broken by resource index."""
    if len(weights) != desc.m:
        raise StructureError("one weight per resource required")
    chosen: set = set()
    target = rank(desc)
    for r in sorted(range(desc.m), key=lambda r: (weights[r], r)):
        if is_independent(desc, frozenset(chosen | {r})):
            chosen.add(r)
            if len(chosen) == target:
                break
    return tuple(1 if r in chosen else 0 for r in range(desc.m))


def group_types(descs: Sequence[MatroidDesc]) -> dict:
    """Players of one type share a base system; keyed by the descriptor value."""
    types: dict = {}
    for i, desc in enumerate(descs):
        types.setdefault(desc, []).append(i)
    return types


def check_local_monotonicity(
    c: CostModel,
    descs: Sequence[MatroidDesc],
    L: int,
    nu: Callable[[MatroidDesc, int, int], object],
    cap: int = 10**6,
) -> Optional[tuple]:
    """Guard-conditioned exchange inequality over the full background grid.

    For every type T, basis t, single exchange u = t + 1_s - 1_r in T, and
    every z <= L with nu(T, r, t_r + z_r) <= nu(T, s, u_s + z_s), checks
    t . c(t + z) <= u . c(u + z).  Returns the first violating
    (T, t, r, s, z) or None.
    """
    m = None
    for desc in set(descs):
        if m is None:
            m = desc.m
        elif desc.m != m:
            raise StructureError("all matroids must share the resource set")
        for t in enumerate_bases(desc, cap=cap):
            supp = _support(t)
            for r in sorted(supp):
                for s in range(desc.m):
                    if s in supp:
                        continue
                    u = tuple(
                        e + (1 if g == s else 0) - (1 if g == r else 0) for g, e in enumerate(t)
                    )
                    if not is_basis(desc, u):
                        continue
                    for z in product(range(L + 1), repeat=desc.m):
                        if nu(desc, r, t[r] + z[r]) > nu(desc, s, u[s] + z[s]):
                            continue
                        t_loads = tuple(t[g] + z[g] for g in range(desc.m))
                        u_loads = tuple(u[g] + z[g] for g in range(desc.m))
                        lhs = sum(eval_cost_entry(c, t_loads, g) for g in supp)
                        rhs = sum(eval_cost_entry(c, u_loads, g) for g in _support(u))
                        if lhs > rhs:
                            return (desc, t, r, s, z)
    return None


def nu_identity(desc: MatroidDesc, r: int, load) -> object:
    return load


def _greedy_response(game: Game, profile: Profile, i: int, cap: int = 10**6) -> tuple:
    """`best_response` on a separable nu-game: the greedy basis if strictly cheaper, else x_i."""
    nu = game.cost_model.nu[i]
    x = profile[i]
    loads = load_of(game, profile)
    weights = [nu[r][loads[r] - x[r] + 1] for r in range(game.n_resources)]
    y = greedy_best_response(game.players[i].strategy_space.desc, weights)
    delta = sum(weights[r] for r in _support(y)) - sum(weights[r] for r in _support(x))
    return (y, delta) if delta < 0 else (x, 0)


def solve_via_theorem3(
    game: Game,
    nu_tables: PlayerSpecificSeparable,
    max_iters: int = 1000,
    cap: int = 10**6,
):
    """Equilibrium lift: solve the separable nu-game, then verify on the original game.

    Runs `run_best_response_dynamics` on the associated player-specific
    separable game with the matroid greedy as responder, for at most
    max_iters improving steps; falls back to brute force on the nu-game if
    the dynamics end outside an equilibrium of it.  The terminal profile must
    verify as an equilibrium of the original non-separable game; a failure
    there signals a nu/monotonicity mismatch and raises.
    """
    for p in game.players:
        if not isinstance(p.strategy_space, MatroidBases):
            raise UsageError("the lift needs matroid strategy spaces")
        if p.weight != 1:
            raise UsageError("the lift is defined for unweighted players")
    nu_game = Game(n_resources=game.n_resources, players=game.players, cost_model=nu_tables)
    start = tuple(p.strategies(cap=cap)[0] for p in game.players)
    profile = run_best_response_dynamics(
        nu_game, start, max_iters=max_iters, cap=cap, responder=_greedy_response
    ).terminal
    if not isinstance(verify_pne(nu_game, profile, cap=cap), IsPNE):
        certificate = brute_force_pne(nu_game, cap=cap)
        if not isinstance(certificate, PNEFound):
            raise UsageError("the separable nu-game has no equilibrium; nu is not valid")
        profile = certificate.profile
    outcome = verify_pne(game, profile, cap=cap)
    if not isinstance(outcome, IsPNE):
        raise AssertionError(
            "nu-game equilibrium failed to lift; local monotonicity does not hold for nu"
        )
    return profile, outcome
