from fractions import Fraction
from itertools import product

import pytest

from rggames.core import Explicit, Game, Player, deviate, private_cost
from rggames.costs import Affine, SeparablePlusLinear
from rggames.dynamics import (
    IsPNE,
    NoPNEExists,
    NotPNE,
    PNEFound,
    best_response,
    brute_force_pne,
    run_best_response_dynamics,
    verify_pne,
)
from rggames.errors import CapacityError
from rggames.gadgets import GadgetSpec, build_gadget
from rggames.potential import potential_unweighted


def separable(f_tables, A=None):
    m = len(f_tables)
    if A is None:
        A = tuple(tuple(Fraction(0) for _ in range(m)) for _ in range(m))
    return SeparablePlusLinear(f=tuple(tuple(Fraction(v) for v in t) for t in f_tables), A=A)


def make_game(cost, spaces):
    players = tuple(Player(strategy_space=Explicit(vectors=s)) for s in spaces)
    return Game(n_resources=len(spaces[0][0]), players=players, cost_model=cost)


LINEAR_2 = separable([[0, 1, 2, 3], [0, 1, 2, 3]])


class TestVerifyPNE:
    def test_single_strategy_is_pne(self):
        game = make_game(separable([[0, 1]]), [((1,),)])
        assert isinstance(verify_pne(game, ((1,),)), IsPNE)

    def test_congested_resource_not_pne(self):
        game = make_game(LINEAR_2, [((1, 0), (0, 1))] * 2)
        cert = verify_pne(game, ((1, 0), (1, 0)))
        assert isinstance(cert, NotPNE)
        assert cert.delta == -1
        assert cert.deviation == (0, 1)

    def test_potential_argmin_is_pne(self):
        game = make_game(LINEAR_2, [((1, 0), (0, 1))] * 2)
        profiles = list(product(*[p.strategies() for p in game.players]))
        best = min(profiles, key=lambda x: potential_unweighted(game, x))
        assert isinstance(verify_pne(game, best), IsPNE)

    def test_agrees_with_manual_deviation_scan(self):
        game = make_game(LINEAR_2, [((1, 0), (0, 1), (1, 1))] * 2)
        for profile in product(*[p.strategies() for p in game.players]):
            manual = all(
                private_cost(game, profile, i)
                <= private_cost(game, deviate(profile, i, y), i)
                for i in range(2)
                for y in game.players[i].strategies()
            )
            assert isinstance(verify_pne(game, profile), IsPNE) == manual


class TestBestResponse:
    def test_keeps_incumbent_on_tie(self):
        flat = separable([[0, 0, 0], [0, 0, 0]])
        game = make_game(flat, [((1, 0), (0, 1))])
        assert best_response(game, ((0, 1),), 0) == ((0, 1), 0)

    def test_moves_off_loaded_resource(self):
        cost = Affine(
            A=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            b=(Fraction(0), Fraction(0)),
        )
        spaces = [((1, 0), (0, 1)), ((1, 0),), ((1, 0),)]
        game = make_game(cost, spaces)
        # five units... here two other players pin resource 1; player 0 flees to 2
        profile = ((1, 0), (1, 0), (1, 0))
        assert best_response(game, profile, 0) == ((0, 1), -2)

    def test_equals_enumeration_argmin(self):
        game = make_game(LINEAR_2, [((1, 0), (0, 1), (1, 1))] * 2)
        for profile in product(*[p.strategies() for p in game.players]):
            y, delta = best_response(game, profile, 0)
            costs = {
                v: private_cost(game, deviate(profile, 0, v), 0)
                for v in game.players[0].strategies()
            }
            assert costs[y] == min(costs.values())
            assert delta == costs[y] - costs[profile[0]]


class TestDynamics:
    def test_start_at_pne_converges_immediately(self):
        game = make_game(LINEAR_2, [((1, 0), (0, 1))] * 2)
        trace = run_best_response_dynamics(game, ((1, 0), (0, 1)), max_iters=10)
        assert trace.converged and trace.iterations == 0

    def test_potential_strictly_decreases(self):
        cost = separable(
            [[0, 1, 4, 9], [0, 2, 4, 6], [0, 1, 2, 3]],
            A=tuple(tuple(Fraction(1 if r != s else 0) for s in range(3)) for r in range(3)),
        )
        spaces = [((1, 0, 0), (0, 1, 0), (0, 0, 1))] * 3
        game = make_game(cost, spaces)
        start = ((1, 0, 0), (1, 0, 0), (1, 0, 0))
        trace = run_best_response_dynamics(game, start, max_iters=100)
        assert trace.converged
        assert isinstance(verify_pne(game, trace.terminal), IsPNE)
        current = start
        last = potential_unweighted(game, current)
        for player, _old, new, delta in trace.steps:
            assert delta < 0
            current = deviate(current, player, new)
            value = potential_unweighted(game, current)
            assert value < last
            last = value

    def test_no_pne_gadget_never_converges(self):
        base = Affine(A=((Fraction(1), Fraction(1)), (Fraction(3), Fraction(1))),
                      b=(Fraction(0), Fraction(0)))
        game = build_gadget(GadgetSpec(lemma="L3", base_cost=base, point=(0, 0), resources=(0, 1)))
        start = tuple(p.strategies()[0] for p in game.players)
        trace = run_best_response_dynamics(game, start, max_iters=40)
        assert not trace.converged and trace.iterations == 40

    def test_random_schedule_deterministic_given_seed(self):
        game = make_game(LINEAR_2, [((1, 0), (0, 1))] * 2)
        start = ((1, 0), (1, 0))
        a = run_best_response_dynamics(game, start, schedule="random", seed=7)
        b = run_best_response_dynamics(game, start, schedule="random", seed=7)
        assert a == b


class TestBruteForce:
    def test_consistent_game_has_pne(self):
        game = make_game(LINEAR_2, [((1, 0), (0, 1))] * 2)
        cert = brute_force_pne(game)
        assert isinstance(cert, PNEFound)
        assert isinstance(verify_pne(game, cert.profile), IsPNE)

    def test_single_player_global_minimizer(self):
        game = make_game(separable([[0, 5], [0, 1]]), [((1, 0), (0, 1))])
        cert = brute_force_pne(game)
        assert isinstance(cert, PNEFound) and cert.profile == ((0, 1),)

    def test_gadget_has_no_pne(self):
        base = Affine(A=((Fraction(1), Fraction(1)), (Fraction(3), Fraction(1))),
                      b=(Fraction(0), Fraction(0)))
        game = build_gadget(GadgetSpec(lemma="L3", base_cost=base, point=(0, 0), resources=(0, 1)))
        cert = brute_force_pne(game)
        assert isinstance(cert, NoPNEExists) and cert.profiles_checked == 4

    def test_budget_enforced(self):
        game = make_game(LINEAR_2, [((1, 0), (0, 1))] * 2)
        with pytest.raises(CapacityError):
            brute_force_pne(game, budget=3)
