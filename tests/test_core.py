from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rggames import matroid
from rggames.core import (
    Explicit,
    Game,
    MatroidBases,
    Player,
    deviate,
    load_of,
    private_cost,
    validate_profile,
)
from rggames.costs import Affine, SeparablePlusLinear
from rggames.dynamics import PNEFound, brute_force_pne
from rggames.errors import CapacityError, StructureError
from rggames.matroid import Graphic, Partition, Uniform, enumerate_bases


def affine_identity(m):
    rows = tuple(tuple(Fraction(1 if r == s else 0) for s in range(m)) for r in range(m))
    return Affine(A=rows, b=tuple(Fraction(0) for _ in range(m)))


def simple_game(m=2, n=2, cost=None):
    space = Explicit(vectors=tuple(tuple(1 if r == k else 0 for r in range(m)) for k in range(m)))
    players = tuple(Player(strategy_space=space) for _ in range(n))
    return Game(n_resources=m, players=players, cost_model=cost or affine_identity(m))


class TestLoadOf:
    def test_componentwise_sum(self):
        game = simple_game()
        # choose (1,0) and (0,1); also check an overlapping pair
        assert load_of(game, ((1, 0), (0, 1))) == (1, 1)
        assert load_of(game, ((1, 0), (1, 0))) == (2, 0)

    def test_no_players(self):
        game = Game(n_resources=3, players=(), cost_model=affine_identity(3))
        assert load_of(game, ()) == (0, 0, 0)

    def test_rational_weights(self):
        space = Explicit(vectors=((1, 0),))
        players = (
            Player(weight=Fraction(1, 2), strategy_space=space),
            Player(weight=Fraction(3, 2), strategy_space=space),
        )
        game = Game(n_resources=2, players=players, cost_model=affine_identity(2))
        profile = tuple(p.strategies()[0] for p in players)
        assert load_of(game, profile) == (2, 0)

    def test_dimension_mismatch(self):
        game = simple_game()
        with pytest.raises(StructureError):
            load_of(game, ((1, 0, 0), (0, 1)))


class TestPrivateCost:
    def test_single_player_identity_cost(self):
        game = simple_game(m=1, n=1, cost=Affine(A=((Fraction(1),),), b=(Fraction(0),)))
        assert private_cost(game, ((1,),), 0) == 1

    def test_empty_vector_costs_zero(self):
        space = Explicit(vectors=((0, 0), (1, 0)))
        game = Game(
            n_resources=2,
            players=(Player(strategy_space=space),),
            cost_model=affine_identity(2),
        )
        assert private_cost(game, ((0, 0),), 0) == 0

    def test_quadratic_separable(self):
        # f1(k) = k^2, f2 = 0, no interaction; two players sharing resource 1 pay 4 each
        f = (tuple(Fraction(k * k) for k in range(4)), tuple(Fraction(0) for _ in range(4)))
        A = ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0)))
        game = simple_game(cost=SeparablePlusLinear(f=f, A=A))
        profile = ((1, 0), (1, 0))
        assert private_cost(game, profile, 0) == 4
        assert private_cost(game, profile, 1) == 4

    def test_depends_only_on_aggregate_load(self):
        game = simple_game(m=2, n=3)
        a = ((1, 0), (0, 1), (1, 0))
        b = ((1, 0), (1, 0), (0, 1))  # others permuted, same aggregate for player 0
        assert private_cost(game, a, 0) == private_cost(game, b, 0)


class TestDeviate:
    def test_identity(self):
        profile = ((1, 0), (0, 1))
        assert deviate(profile, 0, (1, 0)) == profile

    def test_single_player(self):
        assert deviate(((1, 0),), 0, (0, 1)) == ((0, 1),)

    def test_frame_condition(self):
        profile = ((1, 0), (0, 1), (1, 0))
        out = deviate(profile, 1, (1, 0))
        assert out[0] == profile[0] and out[2] == profile[2] and out[1] == (1, 0)

    def test_bad_index(self):
        with pytest.raises(StructureError):
            deviate(((1, 0),), 3, (0, 1))


@given(
    st.integers(min_value=1, max_value=4),
    st.data(),
)
def test_load_of_deviate_identity(m, data):
    k = data.draw(st.integers(min_value=1, max_value=3))
    vectors = st.tuples(*[st.integers(min_value=0, max_value=1) for _ in range(m)])
    space = Explicit(
        vectors=tuple(data.draw(vectors) for _ in range(3))
    )
    players = tuple(Player(strategy_space=space) for _ in range(k))
    game = Game(n_resources=m, players=players, cost_model=affine_identity(m))
    profile = tuple(data.draw(st.sampled_from(space.vectors)) for _ in range(k))
    i = data.draw(st.integers(min_value=0, max_value=k - 1))
    y = data.draw(st.sampled_from(space.vectors))
    before = load_of(game, profile)
    after = load_of(game, deviate(profile, i, y))
    expected = tuple(before[r] - profile[i][r] + y[r] for r in range(m))
    assert after == expected


class TestStructure:
    def test_explicit_deduplicates_and_sorts(self):
        space = Explicit(vectors=((1, 0), (0, 1), (1, 0)))
        assert space.vectors == ((0, 1), (1, 0))

    def test_explicit_rejects_non_binary(self):
        with pytest.raises(StructureError):
            Explicit(vectors=((2, 0),))

    def test_empty_space_rejected(self):
        with pytest.raises(StructureError):
            Explicit(vectors=())

    def test_weight_must_be_positive(self):
        with pytest.raises(StructureError):
            Player(weight=0, strategy_space=Explicit(vectors=((1,),)))

    def test_game_checks_dimensions(self):
        with pytest.raises(StructureError):
            Game(
                n_resources=3,
                players=(Player(strategy_space=Explicit(vectors=((1, 0),))),),
                cost_model=affine_identity(3),
            )

    def test_weighted_strategies_scale(self):
        p = Player(weight=Fraction(3, 2), strategy_space=Explicit(vectors=((1, 0),)))
        assert p.strategies() == ((Fraction(3, 2), Fraction(0)),)

    def test_validate_profile(self):
        game = simple_game()
        validate_profile(game, ((1, 0), (0, 1)))
        with pytest.raises(StructureError):
            validate_profile(game, ((1, 1), (0, 1)))

    def test_brute_force_budget_boundary(self):
        game = simple_game(m=2, n=3)  # 2**3 profiles
        assert isinstance(brute_force_pne(game, budget=8), PNEFound)
        with pytest.raises(CapacityError, match="8 profiles exceed the budget 7"):
            brute_force_pne(game, budget=7)


@pytest.fixture
def enumerations(monkeypatch):
    """The descriptors matroid.enumerate_bases is called with, in order."""
    calls = []
    original = matroid.enumerate_bases

    def counted(desc, cap=10**6):
        calls.append(desc)
        return original(desc, cap=cap)

    monkeypatch.setattr(matroid, "enumerate_bases", counted)
    return calls


def uniform_player(weight=1):
    return Player(weight=weight, strategy_space=MatroidBases(desc=Uniform(4, 2)))  # 6 bases


class TestStrategyCache:
    def test_second_call_does_not_enumerate(self, enumerations):
        p = uniform_player()
        first = p.strategies()
        assert p.strategies() is first
        assert enumerations == [Uniform(4, 2)]

    def test_smaller_cap_on_warm_cache_raises(self, enumerations):
        p = uniform_player()
        assert len(p.strategies(cap=6)) == 6
        with pytest.raises(CapacityError, match="more than 5 bases"):
            p.strategies(cap=5)
        assert len(p.strategies(cap=6)) == 6
        assert len(enumerations) == 1

    def test_call_that_raised_caches_nothing(self, enumerations):
        p = uniform_player()
        with pytest.raises(CapacityError):
            p.strategies(cap=5)
        assert len(p.strategies(cap=6)) == 6
        assert len(enumerations) == 2

    def test_explicit_space_ignores_cap(self):
        p = Player(strategy_space=Explicit(vectors=((1, 0), (0, 1))))
        assert len(p.strategies(cap=1)) == 2
        assert len(p.strategies(cap=1)) == 2

    def test_equal_descriptors_do_not_share_a_cache(self, enumerations):
        a, b = uniform_player(), uniform_player()
        for p in (a, b, a, b):
            p.strategies()
        assert enumerations == [Uniform(4, 2), Uniform(4, 2)]

    @pytest.mark.parametrize("weight", [1, 2, Fraction(3, 2)])
    @pytest.mark.parametrize("desc", [
        Uniform(4, 2),
        Partition(m=4, blocks=((2, 0), (1, 3)), quotas=(1, 1)),
        Graphic(n_vertices=3, edges=((0, 1), (1, 2), (0, 2))),
    ])
    def test_weighted_copies(self, desc, weight):
        p = Player(weight=weight, strategy_space=MatroidBases(desc=desc))
        expected = tuple(tuple(weight * e for e in v) for v in enumerate_bases(desc))
        assert p.strategies() == expected
        assert p.strategies() == expected
