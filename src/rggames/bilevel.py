"""Bilevel load balancing: attacker budget split over the most loaded
resources, folded into the cost function, with the matroid equilibrium lift.

A bilevel game is a plain `Game` with the `Bilevel` cost model whose players
have weight 1 and matroid strategy spaces; `solve_bilevel` checks the cost
model and `matroid.solve_via_theorem3` checks the players.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .core import Game, Player
from .costs import Bilevel, PlayerSpecificSeparable, kappa_star
from .errors import StructureError, UsageError
from .matroid import solve_via_theorem3


def make_bilevel_game(n_resources: int, descs: Sequence, budget) -> Game:
    players = tuple(Player(strategy_space=d) for d in descs)
    return Game(
        n_resources=n_resources,
        players=players,
        cost_model=Bilevel(m=n_resources, budget=Fraction(budget)),
    )


def identity_nu(game: Game) -> PlayerSpecificSeparable:
    """nu_{T,g}(x) = x for every type and resource, tabulated up to the player count."""
    n, m = game.n_players, game.n_resources
    table = tuple(range(n + 2))
    return PlayerSpecificSeparable(nu=tuple(tuple(table for _ in range(m)) for _ in range(n)))


def solve_bilevel(game: Game, max_iters: int = 1000):
    """Equilibrium via the separable identity-nu game, verified on the attack costs."""
    if not isinstance(game.cost_model, Bilevel):
        raise StructureError("bilevel games need the budget-attack cost model")
    return solve_via_theorem3(game, identity_nu(game), max_iters=max_iters)


@dataclass(frozen=True)
class CaseAudit:
    case: str
    guard_holds: bool
    lhs: Fraction  # sum of kappa over supp(t)
    rhs: Fraction  # sum of kappa over supp(u)
    inequality_holds: bool


def case_audit(t: Sequence[int], u: Sequence[int], z: Sequence, budget) -> CaseAudit:
    """Classify a single exchange into the attack-conservation proof cases.

    Requires u = t + 1_s - 1_r (or t = u).  Checks the inequality
    sum_{g in supp(t)} kappa*_g(t+z) <= sum_{g in supp(u)} kappa*_g(u+z)
    and reports which case of the argmax analysis applies.  The inequality is
    only claimed when the guard t_r + z_r <= u_s + z_s holds.
    """
    if len(t) != len(u) or len(z) != len(t):
        raise StructureError("t, u, z must share one dimension")
    m = len(t)
    delta = [u[g] - t[g] for g in range(m)]
    if all(d == 0 for d in delta):
        loads = tuple(t[g] + z[g] for g in range(m))
        kap = kappa_star(loads, budget)
        val = sum(kap[g] for g in range(m) if t[g])
        return CaseAudit("equal", True, val, val, True)
    rs = [g for g, d in enumerate(delta) if d == -1]
    ss = [g for g, d in enumerate(delta) if d == 1]
    if len(rs) != 1 or len(ss) != 1 or sum(abs(d) for d in delta) != 2:
        raise UsageError("inputs must differ by one single-element exchange")
    r, s = rs[0], ss[0]

    t_loads = tuple(t[g] + z[g] for g in range(m))
    u_loads = tuple(u[g] + z[g] for g in range(m))
    top_t = max(t_loads)
    top_u = max(u_loads)
    S_t = {g for g in range(m) if t_loads[g] == top_t}
    S_u = {g for g in range(m) if u_loads[g] == top_u}

    kap_t = kappa_star(t_loads, budget)
    kap_u = kappa_star(u_loads, budget)
    lhs = sum((kap_t[g] for g in range(m) if t[g]), Fraction(0))
    rhs = sum((kap_u[g] for g in range(m) if u[g]), Fraction(0))

    if s not in S_u:
        case = "1"
    elif s in S_t:
        case = "2a"
    else:
        case = "2b" + ("-empty" if not (S_t & {g for g in range(m) if t[g]}) else
                       ("-r-max" if r in S_t else "-r-not-max"))
    guard = t_loads[r] <= u_loads[s]
    return CaseAudit(case, guard, lhs, rhs, lhs <= rhs)
