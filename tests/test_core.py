import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from rggames import costs, matroid
from rggames.core import (
    Explicit,
    Game,
    Player,
    deviate,
    load_of,
    pricer,
    private_cost,
    support,
    validate_profile,
)
from rggames.costs import (
    Affine,
    Bilevel,
    PlayerSpecificSeparable,
    SeparablePlusLinear,
    Tabulated,
)
from rggames.dynamics import IsPNE, NotPNE, PNEFound, brute_force_pne, verify_pne
from rggames.errors import CapacityError, StructureError
from rggames.matroid import Graphic, Partition, Uniform, enumerate_bases
from rggames.reductions import SatInstance, reduce_sat


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

    def test_validate_profile_below_between_and_past_the_space(self):
        space = Explicit(vectors=((0, 1, 0), (0, 1, 1), (1, 1, 0)))
        game = Game(n_resources=3, players=(Player(weight=2, strategy_space=space),),
                    cost_model=affine_identity(3))
        validate_profile(game, ((Fraction(2), 2, 0),))
        for choice in ((0, 0, 2), (0, 2, 1), (2, 0, 0), (2, 2, 2), (1, 1, 0)):
            with pytest.raises(StructureError, match=re.escape(
                    f"player 0 cannot play resources {support(choice)}")):
                validate_profile(game, (choice,))

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
    return Player(weight=weight, strategy_space=Uniform(4, 2))  # 6 bases


class TestStrategyCache:
    def test_second_call_does_not_enumerate(self, enumerations):
        p = uniform_player()
        first = p.strategies()
        assert p.strategies() is first
        assert enumerations == [Uniform(4, 2)]

    def test_call_that_raised_caches_nothing(self, enumerations):
        p = Player(strategy_space=Uniform(30, 15))  # C(30, 15) > 10**6
        for _ in range(2):
            with pytest.raises(CapacityError, match="^more than 1000000 bases$"):
                p.strategies()
        assert enumerations == [Uniform(30, 15)] * 2

    def test_explicit_space_ignores_cap(self, enumerations):
        """An explicit space never reaches enumerate_bases, where the basis limit lives."""
        p = Player(strategy_space=Explicit(vectors=((1, 0), (0, 1))))
        assert p.strategies() == ((0, 1), (1, 0))
        assert p.strategies() == ((0, 1), (1, 0))
        assert enumerations == []

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
        p = Player(weight=weight, strategy_space=desc)
        expected = tuple(tuple(weight * e for e in v) for v in enumerate_bases(desc))
        assert p.strategies() == expected
        assert p.strategies() == expected


# --- pricing against a frozen copy of entry-by-entry evaluation ---------------


def reference_entry(model, loads, r, player):
    """The entry formulas of SeparablePlusLinear and Affine before the integer kernel
    (dense Fraction rows); every other model's unchanged `entry`."""
    if isinstance(model, SeparablePlusLinear):
        il = tuple(int(v) for v in loads)
        assert il == tuple(loads)  # integral loads only; the corpus never makes others
        total = model.f[r][il[r]]
        for s, coeff in enumerate(model.A[r]):
            if coeff and il[s]:
                total += coeff * il[s]
        return total
    if isinstance(model, Affine):
        total = model.b[r]
        for s, coeff in enumerate(model.A[r]):
            if coeff and loads[s]:
                total += coeff * loads[s]
        return total
    return model.entry(loads, r, player)


def reference_private_cost(game, profile, i):
    """private_cost as it was: x_i^T c_i(load(x)), one entry per support resource."""
    loads = load_of(game, profile)
    total = 0
    for r, e in enumerate(profile[i]):
        if e:
            total += e * reference_entry(game.cost_model, loads, r, i)
    return total


KINDS = ("spl_int", "spl_frac", "affine_int", "affine_frac", "affine_weighted",
         "tabulated", "bilevel", "player_specific")


def random_value(rng, denominators):
    return Fraction(rng.randint(-6, 6), rng.choice(denominators))


def random_game(seed):
    """A small seeded game of one cost kind (seed % len(KINDS)) on explicit spaces."""
    rng = random.Random(seed)
    kind = KINDS[seed % len(KINDS)]
    m, n = rng.randint(1, 4), rng.randint(1, 3)
    dens = (1,) if kind.endswith("_int") else (1, 2, 3, 7)
    matrix = tuple(
        tuple(random_value(rng, dens) if rng.random() < 0.6 else Fraction(0) for _ in range(m))
        for _ in range(m)
    )
    if kind.startswith("spl"):
        f = tuple(tuple(random_value(rng, dens) for _ in range(n + 1)) for _ in range(m))
        cost = SeparablePlusLinear(f=f, A=matrix)
    elif kind.startswith("affine"):
        cost = Affine(A=matrix, b=tuple(random_value(rng, dens) for _ in range(m)))
    elif kind == "tabulated":
        hoods = tuple(tuple(s for s in range(m) if s == r or rng.random() < 0.4) for r in range(m))
        tables = tuple(
            {key: random_value(rng, dens) for key in product(range(n + 1), repeat=len(hood))}
            for hood in hoods
        )
        cost = Tabulated(m=m, neighborhoods=hoods, tables=tables, max_load=n)
    elif kind == "bilevel":
        cost = Bilevel(m=m, budget=Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    else:
        cost = PlayerSpecificSeparable(nu=tuple(
            tuple(tuple(sorted(random_value(rng, dens) for _ in range(n + 1))) for _ in range(m))
            for _ in range(n)
        ))
    weights = (1,) * n
    if kind == "affine_weighted":
        weights = tuple(rng.choice((1, 2, Fraction(1, 2), Fraction(5, 3))) for _ in range(n))
    vectors = list(product((0, 1), repeat=m))
    spaces = [rng.sample(vectors, rng.randint(1, min(3, len(vectors)))) for _ in weights]
    players = tuple(
        Player(weight=w, strategy_space=Explicit(vectors=tuple(space)))
        for w, space in zip(weights, spaces)
    )
    return Game(n_resources=m, players=players, cost_model=cost)


class TestPricerMatchesReference:
    @pytest.mark.parametrize("block", range(8))
    def test_every_deviation_prices_as_before(self, block):
        kinds_seen = set()
        for seed in range(block * 40, block * 40 + 40):  # 320 games, 40 of each kind
            game = random_game(seed)
            kinds_seen.add(KINDS[seed % len(KINDS)])
            spaces = [p.strategies() for p in game.players]
            for x in product(*spaces):
                for i in range(game.n_players):
                    scale, price = pricer(game, x, i)
                    assert private_cost(game, x, i) == reference_private_cost(game, x, i)
                    for y in spaces[i]:
                        p = price(y)  # over the stated scale when an int
                        assert (Fraction(p, scale) if isinstance(p, int) else p) == (
                            reference_private_cost(game, deviate(x, i, y), i)), (seed, x, i, y)
        assert kinds_seen == set(KINDS)

    def test_corpus_reaches_both_denominators(self):
        linear = ("spl_int", "spl_frac", "affine_int", "affine_frac")
        kernels = [random_game(seed).cost_model.kernel for seed in range(320)
                   if KINDS[seed % len(KINDS)] in linear]
        assert any(D == 1 for D, _, _ in kernels) and any(D > 1 for D, _, _ in kernels)

    def test_sat_verification_evaluates_no_entry(self, monkeypatch):
        calls = []

        def counting(f):
            def counted(*args, **kwargs):
                calls.append(args)
                return f(*args, **kwargs)

            return counted

        for owner, name in ((costs, "eval_cost_entry"), (SeparablePlusLinear, "entry")):
            monkeypatch.setattr(owner, name, counting(getattr(owner, name)))
        clauses = tuple(((k % 4, True), ((k + 1) % 4, k % 2 == 0), ((k + 2) % 4, False))
                        for k in range(8))
        game = reduce_sat(SatInstance(n_vars=4, clauses=clauses))
        strategies = game.players[0].strategies()
        assert len(strategies) == 3**8
        results = {type(verify_pne(game, (y,))) for y in strategies[:: 3**6]}
        assert results <= {IsPNE, NotPNE} and calls == []
