"""The matroid equilibrium lift against a frozen copy of its original loop.

`reference_lift` is the hand-rolled best-response loop that
`solve_via_theorem3` used to carry: rounds over the players in index order,
each player moving to the greedy basis of its nu-weights when that basis is
strictly cheaper, until a round moves nobody.  The lift must return the same
profile on every roster below, and a verified equilibrium when its step cap
binds.
"""

import random
from fractions import Fraction

from rggames.bilevel import identity_nu, make_bilevel_game
from rggames.core import Game, Player
from rggames.costs import PlayerSpecificSeparable
from rggames.dynamics import (
    IsPNE,
    PNEFound,
    brute_force_pne,
    run_best_response_dynamics,
    verify_pne,
)
from rggames.matroid import (
    Graphic,
    Partition,
    Uniform,
    _greedy_response,
    greedy_best_response,
    solve_via_theorem3,
)

# the rosters of acceptance criterion 6
BILEVEL_DESCS = [
    Uniform(2, 1),
    Uniform(2, 2),
    Uniform(3, 1),
    Uniform(3, 2),
    Partition(m=3, blocks=((0, 1), (2,)), quotas=(1, 1)),
    Graphic(n_vertices=3, edges=((0, 1), (1, 2), (0, 2))),
    Uniform(4, 1),
    Uniform(4, 2),
    Partition(m=4, blocks=((0, 1), (2, 3)), quotas=(1, 1)),
    Graphic(n_vertices=4, edges=((0, 1), (1, 2), (2, 3), (3, 0))),
]
BUDGETS = (Fraction(1), Fraction(2), Fraction(3), Fraction(7, 2))
MIXED = [Uniform(3, 1), Partition(m=3, blocks=((0, 1), (2,)), quotas=(1, 1)),
         Graphic(n_vertices=3, edges=((0, 1), (1, 2), (0, 2)))]

# descriptors by resource count, for random rosters
DESCS_BY_M = {
    3: MIXED + [Uniform(3, 2), Partition(m=3, blocks=((0,), (1, 2)), quotas=(1, 2))],
    4: [Uniform(4, 1), Uniform(4, 2), Uniform(4, 3),
        Partition(m=4, blocks=((0, 1), (2, 3)), quotas=(1, 1)),
        Partition(m=4, blocks=((0, 2, 3), (1,)), quotas=(2, 1)),
        Graphic(n_vertices=4, edges=((0, 1), (1, 2), (2, 3), (3, 0))),
        Graphic(n_vertices=3, edges=((0, 1), (1, 2), (0, 2), (0, 1)))],
    5: [Uniform(5, 2), Uniform(5, 3),
        Partition(m=5, blocks=((0, 1, 2), (3, 4)), quotas=(1, 1)),
        Graphic(n_vertices=4, edges=((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))],
}


def _support(v):
    return frozenset(r for r, e in enumerate(v) if e)


def reference_lift(game, nu_tables, max_iters=1000):
    """The original loop of `solve_via_theorem3`; `max_iters` counts rounds."""
    nu_game = Game(n_resources=game.n_resources, players=game.players, cost_model=nu_tables)
    profile = tuple(p.strategies()[0] for p in game.players)
    converged = False
    for _ in range(max_iters):
        moved = False
        loads = [sum(v[r] for v in profile) for r in range(game.n_resources)]
        for i, p in enumerate(game.players):
            desc = p.strategy_space
            other = [loads[r] - profile[i][r] for r in range(game.n_resources)]
            weights = [nu_tables.nu[i][r][other[r] + 1] for r in range(game.n_resources)]
            y = greedy_best_response(desc, weights)
            if y != profile[i]:
                old = sum(nu_tables.nu[i][r][other[r] + profile[i][r]]
                          for r in _support(profile[i]))
                new = sum(nu_tables.nu[i][r][other[r] + 1] for r in _support(y))
                if new < old:
                    for r in range(game.n_resources):
                        loads[r] += y[r] - profile[i][r]
                    profile = profile[:i] + (y,) + profile[i + 1:]
                    moved = True
        if not moved:
            converged = True
            break
    if not converged or not isinstance(verify_pne(nu_game, profile), IsPNE):
        certificate = brute_force_pne(nu_game)
        assert isinstance(certificate, PNEFound)
        profile = certificate.profile
    return profile


def random_separable_game(rng):
    """A player-specific separable game with nondecreasing random nu-tables."""
    m = rng.choice(sorted(DESCS_BY_M))
    n = rng.randint(2, 5)
    descs = [rng.choice(DESCS_BY_M[m]) for _ in range(n)]
    tables = []
    for _ in range(n):
        rows = []
        for _ in range(m):
            row, value = [Fraction(0)], Fraction(0)
            for _ in range(n):
                value += Fraction(rng.randint(0, 4), rng.choice((1, 2)))
                row.append(value)
            rows.append(tuple(row))
        tables.append(tuple(rows))
    nu = PlayerSpecificSeparable(nu=tuple(tables))
    players = tuple(Player(strategy_space=d) for d in descs)
    return Game(n_resources=m, players=players, cost_model=nu), nu


def test_lift_matches_reference_on_bilevel_rosters():
    rosters = [[desc] * n for desc in BILEVEL_DESCS for n in range(1, 7)] + [MIXED]
    for descs in rosters:
        for budget in BUDGETS:
            game = make_bilevel_game(descs[0].m, descs, budget)
            nu = identity_nu(game)
            profile, cert = solve_via_theorem3(game, nu)
            assert isinstance(cert, IsPNE)
            assert profile == reference_lift(game, nu), (descs, budget)


def test_lift_matches_reference_on_random_separable_tables():
    rng = random.Random(20080)
    for _ in range(300):
        game, nu = random_separable_game(rng)
        profile, cert = solve_via_theorem3(game, nu)
        assert isinstance(cert, IsPNE)
        assert profile == reference_lift(game, nu), game


def test_binding_step_cap_still_returns_a_verified_equilibrium():
    # four players crowd resource 1 at the start; two improving steps spread them
    game = make_bilevel_game(2, [Uniform(2, 1)] * 4, 1)
    nu = identity_nu(game)
    nu_game = Game(n_resources=2, players=game.players, cost_model=nu)
    start = tuple(p.strategies()[0] for p in game.players)
    trace = run_best_response_dynamics(nu_game, start, responder=_greedy_response)
    assert trace.converged and trace.iterations == 2
    for cap in (0, 1):
        assert not run_best_response_dynamics(
            nu_game, start, max_iters=cap, responder=_greedy_response).converged
        profile, cert = solve_via_theorem3(game, nu, max_iters=cap)
        assert isinstance(cert, IsPNE)
        assert isinstance(verify_pne(game, profile), IsPNE)
        assert isinstance(verify_pne(nu_game, profile), IsPNE)
