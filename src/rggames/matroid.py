"""Matroid strategy spaces: basis oracles, exchange decomposition, greedy
best response, local monotonicity, and the separable-game equilibrium lift.

Descriptors are uniform, partition, and graphic matroids over the resource
set.  Each owns its `rank`, its independence test `independent(subset)` and
`bases(cap)`, the supports of its bases, which raises CapacityError past
`cap` bases; `enumerate_bases` turns those supports into 0/1 incidence
vectors of length m.  The lift runs `dynamics.run_best_response_dynamics`
with the greedy responder.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from math import comb, prod
from typing import Callable, Iterable, Optional, Sequence, Tuple, Union

from .core import Explicit, Game, Profile, incidence, load_of, support
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

    @property
    def rank(self) -> int:
        return self.k

    def independent(self, subset) -> bool:
        return len(subset) <= self.k

    def bases(self, cap: int) -> Iterable[tuple]:
        if comb(self.m, self.k) > cap:
            raise CapacityError(f"more than {cap} bases")
        return combinations(range(self.m), self.k)


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

    @property
    def rank(self) -> int:
        return sum(self.quotas)

    def independent(self, subset) -> bool:
        outside = set(subset)
        for block, q in zip(self.blocks, self.quotas):
            if sum(1 for e in block if e in subset) > q:
                return False
            outside.difference_update(block)
        return not outside

    def bases(self, cap: int) -> Iterable[tuple]:
        """One quota-sized pick per block, counted against cap before any is built."""
        pairs = tuple(zip(self.blocks, self.quotas))
        if prod(comb(len(block), q) for block, q in pairs) > cap:
            raise CapacityError(f"more than {cap} bases")
        picks = product(*(combinations(sorted(block), q) for block, q in pairs))
        return (sum(pick, ()) for pick in picks)


@dataclass(frozen=True)
class Graphic:
    n_vertices: int
    edges: tuple  # (u, v) pairs; resource r is edge r

    def __post_init__(self):
        if self.n_vertices < 1:
            raise StructureError(f"graphic matroid needs n_vertices >= 1, got {self.n_vertices}")
        for u, v in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices) or u == v:
                raise StructureError(f"bad edge ({u}, {v})")
        if _forest_size(self.n_vertices, self.edges) < self.n_vertices - 1:
            raise StructureError("graphic matroid requires a connected graph")

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def rank(self) -> int:
        return self.n_vertices - 1

    def independent(self, subset) -> bool:
        return _forest_size(self.n_vertices, (self.edges[r] for r in subset)) == len(subset)

    def bases(self, cap: int) -> Iterable[tuple]:
        """The spanning trees: every rank-sized edge set without a cycle."""
        out = []
        for combo in combinations(range(self.m), self.rank):
            if self.independent(combo):
                out.append(combo)
                if len(out) > cap:
                    raise CapacityError(f"more than {cap} bases")
        return out


MatroidDesc = Union[Uniform, Partition, Graphic]


@dataclass(frozen=True)
class ExchangeStep:
    remove: int
    add: int


def _forest_size(n: int, edges: Iterable[Tuple[int, int]]) -> int:
    """Edges of a spanning forest of these edges on n vertices, found by union-find."""
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    size = 0
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            size += 1
    return size


def is_independent(desc: MatroidDesc, subset: frozenset) -> bool:
    return desc.independent(subset)


def is_basis(desc: MatroidDesc, v: Sequence[int]) -> bool:
    if len(v) != desc.m or any(e not in (0, 1) for e in v):
        return False
    supp = frozenset(support(v))
    return len(supp) == desc.rank and is_independent(desc, supp)


def enumerate_bases(desc: MatroidDesc, cap: int = 10**6) -> tuple:
    """All bases as 0/1 vectors in lexicographic vector order.

    More than `cap` bases raise CapacityError.
    """
    return tuple(sorted(incidence(supp, desc.m) for supp in desc.bases(cap)))


def exchange_decompose(desc: MatroidDesc, t: Sequence[int], u: Sequence[int]) -> tuple:
    """Single-element exchange sequence from basis t to basis u.

    Removes and adds are pairwise distinct and every intermediate vector is a
    basis.  The elements of t - u are removed in increasing order, each for the
    first remaining element of u - t that keeps a basis; by the basis exchange
    property one always exists, so no swap is ever undone.
    """
    if not is_basis(desc, t) or not is_basis(desc, u):
        raise StructureError("exchange endpoints must be bases")
    t_supp, u_supp = frozenset(support(t)), frozenset(support(u))
    current, adds, steps = t_supp, sorted(u_supp - t_supp), []
    for r in sorted(t_supp - u_supp):
        s = next(s for s in adds if is_independent(desc, (current - {r}) | {s}))
        current = (current - {r}) | {s}
        adds.remove(s)
        steps.append(ExchangeStep(remove=r, add=s))
    return tuple(steps)


def greedy_best_response(desc: MatroidDesc, weights: Sequence) -> tuple:
    """Minimum-weight basis via the matroid greedy; ties broken by resource index."""
    if len(weights) != desc.m:
        raise StructureError("one weight per resource required")
    chosen: set = set()
    target = desc.rank
    for r in sorted(range(desc.m), key=lambda r: (weights[r], r)):
        if is_independent(desc, frozenset(chosen | {r})):
            chosen.add(r)
            if len(chosen) == target:
                break
    return incidence(chosen, desc.m)


def check_local_monotonicity(
    c: CostModel,
    descs: Sequence[MatroidDesc],
    L: int,
    nu: Callable[[MatroidDesc, int, int], object],
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
        for t in enumerate_bases(desc):
            supp = support(t)
            for r in supp:
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
                        rhs = sum(eval_cost_entry(c, u_loads, g) for g in support(u))
                        if lhs > rhs:
                            return (desc, t, r, s, z)
    return None


def _greedy_response(game: Game, profile: Profile, i: int) -> tuple:
    """`best_response` on a separable nu-game: the greedy basis if strictly cheaper, else x_i."""
    nu = game.cost_model.nu[i]
    x = profile[i]
    loads = load_of(game, profile)
    weights = [nu[r][loads[r] - x[r] + 1] for r in range(game.n_resources)]
    y = greedy_best_response(game.players[i].strategy_space, weights)
    delta = sum(weights[r] for r in support(y)) - sum(weights[r] for r in support(x))
    return (y, delta) if delta < 0 else (x, 0)


def solve_via_theorem3(game: Game, nu_tables: PlayerSpecificSeparable, max_iters: int = 1000):
    """Equilibrium lift: solve the separable nu-game, then verify on the original game.

    Every player needs a matroid strategy space and weight 1.  Runs
    `run_best_response_dynamics` on the associated player-specific separable
    game with the matroid greedy as responder, for at most max_iters
    improving steps; falls back to brute force on the nu-game if the dynamics
    end outside an equilibrium of it.  The terminal profile must verify as an
    equilibrium of the original non-separable game; a failure there signals a
    nu/monotonicity mismatch and raises.
    """
    for i, p in enumerate(game.players):
        if isinstance(p.strategy_space, Explicit):
            raise StructureError(f"player {i} needs a matroid strategy space")
        if p.weight != 1:
            raise StructureError(f"player {i} needs weight 1, got {p.weight}")
    nu_game = Game(n_resources=game.n_resources, players=game.players, cost_model=nu_tables)
    start = tuple(p.strategies()[0] for p in game.players)
    profile = run_best_response_dynamics(
        nu_game, start, max_iters=max_iters, responder=_greedy_response
    ).terminal
    if not isinstance(verify_pne(nu_game, profile), IsPNE):
        certificate = brute_force_pne(nu_game)
        if not isinstance(certificate, PNEFound):
            raise UsageError("the separable nu-game has no equilibrium; nu is not valid")
        profile = certificate.profile
    outcome = verify_pne(game, profile)
    if not isinstance(outcome, IsPNE):
        raise AssertionError(
            "nu-game equilibrium failed to lift; local monotonicity does not hold for nu"
        )
    return profile, outcome
