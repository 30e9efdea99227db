"""Hardness construction generators: 3-SAT and forbidden-pairs path games.

Both reductions produce a single-player game whose minimum strategy cost is
zero exactly when the source instance is a Yes-instance.  Independent
exhaustive oracles (assignment search, path filtering) validate them at desk
scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .core import Explicit, Game, Player, incidence
from .dynamics import IsPNE, prices, verify_pne
from .costs import SeparablePlusLinear, Tabulated
from .errors import CapacityError, StructureError
from .matroid import Partition

MAX_PATHS = 10**5  # simple s-t paths a forbidden-pairs instance may have


@dataclass(frozen=True)
class SatInstance:
    n_vars: int
    clauses: tuple  # each clause: 3 literals (var index, positive?)

    def __post_init__(self):
        for clause in self.clauses:
            if len(clause) != 3:
                raise StructureError("clauses must have exactly 3 literals")
            for var, _sign in clause:
                if not 0 <= var < self.n_vars:
                    raise StructureError(f"variable {var} out of range")


@dataclass(frozen=True)
class ForbiddenPairsInstance:
    n_vertices: int
    edges: tuple  # directed (u, v)
    s: int
    t: int
    pairs: tuple  # pairs of edge indices

    def __post_init__(self):
        for name in ("s", "t"):
            vertex = getattr(self, name)
            if not 0 <= vertex < self.n_vertices:
                last = self.n_vertices - 1
                raise StructureError(f"{name} = {vertex} is not a vertex of 0..{last}")
        if self.s == self.t:
            raise StructureError("source and target must differ")
        for u, v in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise StructureError(f"bad edge ({u}, {v})")
        for a, b in self.pairs:
            if a == b or not (0 <= a < len(self.edges) and 0 <= b < len(self.edges)):
                raise StructureError(f"bad forbidden pair ({a}, {b})")


def reduce_sat(inst: SatInstance) -> Game:
    """One resource per literal slot, a per-clause pick-one partition matroid,
    and a cost that charges each chosen literal the load on its negations."""
    n_clauses = len(inst.clauses)
    m = 3 * n_clauses
    literal = [lit for clause in inst.clauses for lit in clause]
    A = [[Fraction(0)] * m for _ in range(m)]
    for r in range(m):
        var_r, sign_r = literal[r]
        for s in range(m):
            var_s, sign_s = literal[s]
            if var_r == var_s and sign_r != sign_s:
                A[r][s] = Fraction(1)
    # single player, loads stay 0/1; keep a margin for downstream analysis
    f = tuple((Fraction(0),) * 5 for _ in range(m))
    cost = SeparablePlusLinear(f=f, A=tuple(tuple(row) for row in A))
    blocks = tuple(tuple(range(3 * i, 3 * i + 3)) for i in range(n_clauses))
    desc = Partition(m=m, blocks=blocks, quotas=tuple(1 for _ in blocks))
    player = Player(strategy_space=desc)
    return Game(n_resources=m, players=(player,), cost_model=cost)


def _simple_st_paths(inst: ForbiddenPairsInstance) -> tuple:
    adjacency: dict = {}
    for idx, (u, v) in enumerate(inst.edges):
        adjacency.setdefault(u, []).append((idx, v))
    paths = []

    def walk(vertex, visited, used_edges):
        if vertex == inst.t:
            paths.append(tuple(sorted(used_edges)))
            if len(paths) > MAX_PATHS:
                raise CapacityError(f"more than {MAX_PATHS} simple paths")
            return
        for idx, nxt in adjacency.get(vertex, ()):
            if nxt not in visited:
                walk(nxt, visited | {nxt}, used_edges + [idx])

    walk(inst.s, {inst.s}, [])
    return tuple(paths)


def reduce_forbidden_pairs(inst: ForbiddenPairsInstance) -> Game:
    """Resources are edges; paired edges charge each other's load; strategies
    are the incidence vectors of all simple s-t paths."""
    m = len(inst.edges)
    partner = {}
    for a, b in inst.pairs:
        partner[a] = b
        partner[b] = a
    hoods, tables = [], []
    max_load = 2
    for r in range(m):
        if r in partner:
            hoods.append((partner[r],))
            tables.append({(k,): Fraction(k) for k in range(max_load + 1)})
        else:
            hoods.append(())
            tables.append({(): Fraction(0)})
    cost = Tabulated(m=m, neighborhoods=tuple(hoods), tables=tuple(tables), max_load=max_load)
    paths = _simple_st_paths(inst)
    if not paths:
        raise StructureError("no s-t path exists; the strategy space would be empty")
    vectors = tuple(incidence(path, m) for path in paths)
    player = Player(strategy_space=Explicit(vectors=vectors))
    return Game(n_resources=m, players=(player,), cost_model=cost)


def sat_oracle(inst: SatInstance) -> bool:
    """Exhaustive truth-assignment search."""
    for assignment in product((False, True), repeat=inst.n_vars):
        if all(any(assignment[v] == sign for v, sign in clause) for clause in inst.clauses):
            return True
    return False


def forbidden_pairs_oracle(inst: ForbiddenPairsInstance) -> bool:
    """Exhaustive filter over simple s-t paths."""
    for path in _simple_st_paths(inst):
        edge_set = set(path)
        if all(len(edge_set & {a, b}) <= 1 for a, b in inst.pairs):
            return True
    return False


def check_reduction(inst, game: Game, oracle_answer: bool) -> bool:
    """Zero-min-cost equivalence plus the equilibrium framing of verification."""
    strategies = game.players[0].strategies()
    # the only player: no other load, and one scale for every price
    _, costs = prices(game, 0, (0,) * game.n_resources)
    zero_exists = min(costs) == 0
    if zero_exists != oracle_answer:
        return False
    worst = strategies[costs.index(max(costs))]
    is_pne = isinstance(verify_pne(game, (worst,)), IsPNE)
    return is_pne == (max(costs) == min(costs))


def _integer(token: str) -> Optional[int]:
    """The integer a DIMACS token spells, or None."""
    try:
        return int(token)
    except ValueError:
        return None


def parse_dimacs(text: str) -> SatInstance:
    """DIMACS CNF after its header: one clause per line, three literals and a closing 0,
    as many clauses as the header declares."""
    n_vars, n_clauses = 0, None
    clauses = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith(("c", "%")):
            continue
        tokens = line.split()
        if line.startswith("p"):
            if n_clauses is not None:
                raise StructureError(f"line {number}: a second DIMACS header")
            counts = [_integer(tok) for tok in tokens[2:4]]
            if len(counts) < 2 or tokens[1] != "cnf" or any(k is None or k < 0 for k in counts):
                raise StructureError(f"bad DIMACS header: {line!r}")
            n_vars, n_clauses = counts
            continue
        if n_clauses is None:
            raise StructureError(f"line {number}: clause before the DIMACS header")
        lits = [_integer(tok) for tok in tokens]
        if None in lits:
            bad = tokens[lits.index(None)]
            raise StructureError(f"line {number}: expected an integer literal, got {bad!r}")
        if lits[-1] != 0:
            raise StructureError(f"line {number}: a clause must end with 0 on its line")
        lits = lits[:-1]
        if 0 in lits:
            raise StructureError(f"line {number}: 0 may only end a clause")
        if not lits:
            continue
        if len(lits) != 3:
            raise StructureError(f"line {number}: every clause must have exactly 3 literals")
        clauses.append(tuple((abs(l) - 1, l > 0) for l in lits))
    if n_clauses is not None and n_clauses != len(clauses):
        raise StructureError(
            f"DIMACS header declares a clause count of {n_clauses}, found {len(clauses)}"
        )
    return SatInstance(n_vars=n_vars, clauses=tuple(clauses))
