from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from rggames.bilevel import case_audit, identity_nu, make_bilevel_game, solve_bilevel
from rggames.core import Explicit, Game, Player, load_of, private_cost
from rggames.costs import Bilevel, PlayerSpecificSeparable, kappa_star
from rggames.dynamics import IsPNE, PNEFound, brute_force_pne
from rggames.errors import StructureError, UsageError
from rggames.matroid import Uniform, enumerate_bases


class TestConstruction:
    def test_requires_bilevel_cost(self):
        players = (Player(strategy_space=Explicit(vectors=((1, 0),))),)
        game = Game(n_resources=2, players=players, cost_model=Bilevel(m=2, budget=Fraction(1)))
        with pytest.raises(StructureError, match="^player 0 needs a matroid strategy space$"):
            solve_bilevel(game)  # explicit space, not a matroid
        nu = PlayerSpecificSeparable(nu=(((0, 1, 2),) * 2,))
        game = Game(n_resources=2, players=(Player(strategy_space=Uniform(2, 1)),), cost_model=nu)
        with pytest.raises(StructureError, match="^bilevel games need the budget-attack cost"):
            solve_bilevel(game)

    def test_rejects_weighted_players(self):
        players = (Player(weight=Fraction(2), strategy_space=Uniform(2, 1)),)
        game = Game(n_resources=2, players=players, cost_model=Bilevel(m=2, budget=Fraction(1)))
        with pytest.raises(StructureError, match="^player 0 needs weight 1, got 2$"):
            solve_bilevel(game)


class TestAttackAllocation:
    def test_all_tied(self):
        assert kappa_star((2, 2, 2), Fraction(6)) == (2, 2, 2)

    def test_unique_max(self):
        assert kappa_star((5, 0), Fraction(1)) == (1, 0)

    def test_two_way_split(self):
        assert kappa_star((1, 1, 0), Fraction(1)) == (
            Fraction(1, 2),
            Fraction(1, 2),
            Fraction(0),
        )


class TestSolveBilevel:
    def test_two_players_spread_out(self):
        game = make_bilevel_game(2, [Uniform(2, 1)] * 2, 2)
        profile, cert = solve_bilevel(game)
        assert isinstance(cert, IsPNE)
        loads = load_of(game, profile)
        assert sorted(loads) == [1, 1]
        # each pays 1 + B/2 = 2; sharing would cost 2 + 2 = 4
        assert private_cost(game, profile, 0) == 2

    def test_single_player_trivial(self):
        game = make_bilevel_game(3, [Uniform(3, 2)], 1)
        profile, cert = solve_bilevel(game)
        assert isinstance(cert, IsPNE)

    def test_three_players_two_resources(self):
        game = make_bilevel_game(2, [Uniform(2, 1)] * 3, 3)
        profile, cert = solve_bilevel(game)
        assert isinstance(cert, IsPNE)
        assert sorted(load_of(game, profile)) == [1, 2]
        assert isinstance(brute_force_pne(game), PNEFound)

    def test_identity_tables_shape(self):
        game = make_bilevel_game(2, [Uniform(2, 1)] * 2, 1)
        nu = identity_nu(game)
        assert nu.m == 2
        assert nu.nu[0][0][3] == 3


class TestCaseAudit:
    def test_equal_bases(self):
        audit = case_audit((1, 0), (1, 0), (0, 5), Fraction(1))
        assert audit.case == "equal" and audit.inequality_holds

    def test_guarded_exchange_inequality(self):
        audit = case_audit((1, 0), (0, 1), (0, 5), Fraction(1))
        assert audit.guard_holds and audit.inequality_holds

    def test_rejects_double_exchange(self):
        with pytest.raises(UsageError):
            case_audit((1, 1, 0, 0), (0, 0, 1, 1), (0, 0, 0, 0), Fraction(1))

    @given(
        st.integers(min_value=2, max_value=4),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_fuzz_inequality_under_guard(self, m, data):
        k = data.draw(st.integers(min_value=1, max_value=m - 1))
        bases = enumerate_bases(Uniform(m, k))
        t = data.draw(st.sampled_from(bases))
        # draw a single exchange partner
        supp = [r for r in range(m) if t[r]]
        rest = [r for r in range(m) if not t[r]]
        r = data.draw(st.sampled_from(supp))
        s = data.draw(st.sampled_from(rest))
        u = tuple(e + (1 if g == s else 0) - (1 if g == r else 0) for g, e in enumerate(t))
        z = tuple(data.draw(st.integers(min_value=0, max_value=3)) for _ in range(m))
        budget = data.draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(7, 2)]))
        audit = case_audit(t, u, z, budget)
        if audit.guard_holds:
            assert audit.inequality_holds


class TestConservation:
    def test_kappa_sums_to_budget_on_all_grids(self):
        for m in (1, 2, 3):
            for budget in (Fraction(1), Fraction(7, 2)):
                for loads in product(range(4), repeat=m):
                    assert sum(kappa_star(loads, budget)) == budget
