from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from rggames.core import Explicit, Game, MatroidBases, Player, deviate, private_cost
from rggames.costs import Affine, SeparablePlusLinear
from rggames.errors import UsageError
from rggames.matroid import Uniform
from rggames.potential import (
    check_exact_potential,
    potential_unweighted,
    potential_weighted_affine,
)


def sequential_sum(game, profile):
    """Independent oracle: add players one at a time, summing each entrant's cost.

    For cost c(x) = Ax + b (or the separable-plus-linear form) the potential
    equals sum_i x_i^T (A x_{<=i} + b-part), i.e. each player's private cost
    in the partial game containing players 1..i only.
    """
    model = game.cost_model
    prefix = [Fraction(0)] * game.n_resources
    total = Fraction(0)
    for v in profile:
        for r, e in enumerate(v):
            prefix[r] += e
        for r, e in enumerate(v):
            if not e:
                continue
            if isinstance(model, Affine):
                cr = model.b[r] + sum(model.A[r][s] * prefix[s] for s in range(game.n_resources))
            else:
                # separable part enters through f evaluated at the partial load
                cr = model.f[r][int(prefix[r])] + sum(
                    model.A[r][s] * prefix[s] for s in range(game.n_resources)
                )
            total += e * cr
    return total


def reference_check(game, P):
    """The exact-potential identity term by term, P evaluated afresh at every deviation."""
    spaces = [p.strategies() for p in game.players]
    for x in product(*spaces):
        for i in range(game.n_players):
            for y in spaces[i]:
                if y == x[i]:
                    continue
                x_y = deviate(x, i, y)
                if P(x_y) - P(x) != private_cost(game, x_y, i) - private_cost(game, x, i):
                    return (x, i, y)
    return None


def make_game(cost, spaces, weights=None):
    players = tuple(
        Player(weight=(weights[i] if weights else 1), strategy_space=Explicit(vectors=spaces[i]))
        for i in range(len(spaces))
    )
    m = len(spaces[0][0])
    return Game(n_resources=m, players=players, cost_model=cost)


class TestUnweightedPotential:
    def test_no_players_is_zero(self):
        cost = SeparablePlusLinear(
            f=((Fraction(0), Fraction(1)),), A=((Fraction(0),),)
        )
        game = Game(n_resources=1, players=(), cost_model=cost)
        assert potential_unweighted(game, ()) == 0

    def test_two_players_one_resource(self):
        # f(k) = k, no interaction: P = f(1) + f(2) = 3
        cost = SeparablePlusLinear(
            f=(tuple(Fraction(k) for k in range(3)),), A=((Fraction(0),),)
        )
        game = make_game(cost, [((1,),), ((1,),)])
        profile = ((1,), (1,))
        assert potential_unweighted(game, profile) == 3
        assert potential_unweighted(game, profile) == sequential_sum(game, profile)

    def test_pure_interaction(self):
        # f = 0, A = [[0,1],[1,0]], players on disjoint resources: P = 1
        cost = SeparablePlusLinear(
            f=((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
            A=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        )
        game = make_game(cost, [((1, 0),), ((0, 1),)])
        profile = ((1, 0), (0, 1))
        assert potential_unweighted(game, profile) == 1
        assert potential_unweighted(game, profile) == sequential_sum(game, profile)

    def test_asymmetric_A_rejected(self):
        cost = SeparablePlusLinear(
            f=((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
            A=((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
        )
        game = make_game(cost, [((1, 0),), ((0, 1),)])
        with pytest.raises(UsageError):
            potential_unweighted(game, ((1, 0), (0, 1)))

    def test_order_invariance(self):
        cost = SeparablePlusLinear(
            f=(tuple(Fraction(k * k) for k in range(4)), tuple(Fraction(k) for k in range(4))),
            A=((Fraction(0), Fraction(2)), (Fraction(2), Fraction(0))),
        )
        spaces = [((1, 0), (0, 1))] * 3
        game = make_game(cost, spaces)
        profile = ((1, 0), (1, 0), (0, 1))
        reference = sequential_sum(game, profile)
        for order in permutations(range(3)):
            permuted = tuple(profile[i] for i in order)
            assert sequential_sum(game, permuted) == reference
        assert potential_unweighted(game, profile) == reference


class TestWeightedAffinePotential:
    def test_no_players_is_zero(self):
        cost = Affine(A=((Fraction(0),),), b=(Fraction(0),))
        game = Game(n_resources=1, players=(), cost_model=cost)
        assert potential_weighted_affine(game, ()) == 0

    def test_constant_cost_single_player(self):
        cost = Affine(A=((Fraction(0),),), b=(Fraction(1),))
        w = Fraction(5, 3)
        game = make_game(cost, [((1,),)], weights=[w])
        profile = ((w,),)
        assert potential_weighted_affine(game, profile) == w
        assert potential_weighted_affine(game, profile) == sequential_sum(game, profile)

    def test_identity_interaction(self):
        cost = Affine(
            A=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
            b=(Fraction(0), Fraction(0)),
        )
        game = make_game(
            cost, [((1, 0),), ((0, 1),)], weights=[Fraction(1), Fraction(2)]
        )
        profile = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2)))
        assert potential_weighted_affine(game, profile) == 5
        assert potential_weighted_affine(game, profile) == sequential_sum(game, profile)

    def test_order_invariance_with_weights(self):
        cost = Affine(
            A=((Fraction(1), Fraction(2)), (Fraction(2), Fraction(3))),
            b=(Fraction(1), Fraction(-1)),
        )
        weights = [Fraction(1, 2), Fraction(2), Fraction(3, 4)]
        profile = (
            (Fraction(1, 2), Fraction(0)),
            (Fraction(2), Fraction(2)),
            (Fraction(0), Fraction(3, 4)),
        )
        spaces = [((1, 0),), ((1, 1),), ((0, 1),)]
        game = make_game(cost, spaces, weights=weights)
        reference = sequential_sum(game, profile)
        for order in permutations(range(3)):
            permuted = tuple(profile[i] for i in order)
            assert sequential_sum(game, permuted) == reference
        assert potential_weighted_affine(game, profile) == reference


class TestExactPotentialCheck:
    def test_consistent_game_passes(self):
        cost = SeparablePlusLinear(
            f=(tuple(Fraction(2 * k) for k in range(4)), tuple(Fraction(k) for k in range(4))),
            A=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
        )
        game = make_game(cost, [((1, 0), (0, 1))] * 2)
        result = check_exact_potential(game, lambda x: potential_unweighted(game, x))
        assert result.ok

    def test_zero_potential_fails_with_witness(self):
        cost = SeparablePlusLinear(
            f=(tuple(Fraction(k) for k in range(4)), tuple(Fraction(0) for _ in range(4))),
            A=((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
        )
        game = make_game(cost, [((1, 0), (0, 1))] * 2)
        result = check_exact_potential(game, lambda x: Fraction(0))
        assert not result.ok
        x, i, y = result.witness
        assert y in game.players[i].strategies()

    def test_asymmetric_affine_fails(self):
        cost = Affine(
            A=((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0))),
            b=(Fraction(0), Fraction(0)),
        )
        game = make_game(cost, [((1, 0), (0, 1))] * 2)
        # symmetrized candidate potential cannot be exact for the asymmetric game
        sym = Affine(
            A=((Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0))),
            b=(Fraction(0), Fraction(0)),
        )
        proxy = Game(n_resources=2, players=game.players, cost_model=sym)
        result = check_exact_potential(game, lambda x: potential_weighted_affine(proxy, x))
        assert not result.ok

    def test_potential_evaluated_once_per_profile(self):
        # two players on the 10 bases of Uniform(5, 2): 100 profiles, 1,900 deviations
        m = 5
        cost = SeparablePlusLinear(
            f=tuple(tuple(Fraction(k * (r + 1)) for k in range(4)) for r in range(m)),
            A=tuple(tuple(Fraction(1 if r + s == m - 1 else 0) for s in range(m))
                    for r in range(m)),
        )
        space = MatroidBases(desc=Uniform(m, 2))
        game = Game(n_resources=m, players=(Player(strategy_space=space),) * 2, cost_model=cost)
        profiles = list(product(*(p.strategies() for p in game.players)))
        candidates = {
            "exact": lambda x: potential_unweighted(game, x),
            "zero": lambda x: Fraction(0),
            "late error": lambda x: potential_unweighted(game, x) + (x == profiles[57]),
            "last profile": lambda x: potential_unweighted(game, x) + (x == profiles[-1]),
        }
        for name, P in candidates.items():
            seen = Counter()

            def counted(x):
                seen[x] += 1
                return P(x)

            result = check_exact_potential(game, counted)
            assert set(seen.values()) == {1}, name
            assert result.witness == reference_check(game, P), name
            assert result.ok == (name == "exact"), name
            if result.ok:
                assert len(seen) == len(profiles) == 100
