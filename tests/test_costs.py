import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from rggames.core import Explicit, Game, Player, private_cost
from rggames.costs import (
    Affine,
    Bilevel,
    Exponential,
    PlayerSpecificSeparable,
    SeparablePlusLinear,
    Tabulated,
    as_tabulated,
    compose,
    eval_cost,
    eval_cost_entry,
    kappa_star,
)
from rggames.dynamics import FLOAT_TOL, verify_pne
from rggames.errors import (
    IncompatibleModelsError,
    LoadRangeError,
    StructureError,
    UsageError,
)


def frac_matrix(rows):
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


class TestEvalCost:
    def test_affine_matrix_vector(self):
        model = Affine(A=frac_matrix([[0, 1], [1, 0]]), b=(Fraction(0), Fraction(0)))
        assert eval_cost(model, (2, 3)) == (3, 2)

    def test_bilevel_budget_split(self):
        model = Bilevel(m=3, budget=Fraction(6))
        assert eval_cost(model, (3, 3, 1)) == (6, 6, 1)

    def test_exponential_phi_zero(self):
        model = Exponential(a=(1.0,), phi=0.0, b=(0.0,))
        assert eval_cost(model, (5,)) == pytest.approx((1.0,))

    def test_exponential_zero_a_never_reads_the_exponential(self):
        """exp(1000 * 3) is past the float range, but with a_r = 0 the cost is b_r."""
        model = Exponential(a=(0.0, -0.0, 1.0), phi=1000.0, b=(0.25, 0.0, 1.0))
        assert [repr(eval_cost_entry(model, (3, 3, 0), r)) for r in range(3)] == [
            "0.25", "0.0", "2.0"]
        with pytest.raises(LoadRangeError, match="resource 2 overflows a float at load 3"):
            eval_cost_entry(model, (3, 3, 3), 2)

    def test_player_specific_requires_index(self):
        model = PlayerSpecificSeparable(nu=(((Fraction(0), Fraction(1)),),))
        with pytest.raises(UsageError):
            eval_cost(model, (1,))
        assert eval_cost(model, (1,), player=0) == (1,)

    def test_table_bound_enforced(self):
        f = (tuple(Fraction(k) for k in range(3)),)
        model = SeparablePlusLinear(f=f, A=((Fraction(0),),))
        with pytest.raises(LoadRangeError):
            eval_cost(model, (3,))

    def test_integer_models_reject_fractional_loads(self):
        f = (tuple(Fraction(k) for k in range(3)),)
        model = SeparablePlusLinear(f=f, A=((Fraction(0),),))
        with pytest.raises(LoadRangeError):
            eval_cost(model, (Fraction(1, 2),))


class TestKappaStar:
    def test_unique_argmax(self):
        assert kappa_star((1, 2), Fraction(4)) == (0, 4)

    def test_full_argmax_splits_evenly(self):
        assert kappa_star((5, 5, 5), Fraction(3)) == (1, 1, 1)

    def test_singleton(self):
        assert kappa_star((0,), Fraction(1)) == (1,)

    def test_argmax_set(self):
        assert kappa_star((1, 3, 3), Fraction(2)) == (0, 1, 1)

    @pytest.mark.parametrize("loads, budget, message", [
        ((1, 2), Fraction(0), "budget must be positive"),
        ((), Fraction(1), "argmax of an empty load vector"),
    ])
    def test_rejected_input(self, loads, budget, message):
        with pytest.raises(StructureError, match=message):
            kappa_star(loads, budget)

    @given(
        st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=5),
        st.fractions(min_value=Fraction(1, 3), max_value=Fraction(7)),
    )
    def test_conservation(self, loads, budget):
        assert sum(kappa_star(loads, budget)) == budget


class TestCompose:
    def test_affine_blockdiag(self):
        a = Affine(A=frac_matrix([[1, 2], [3, 4]]), b=(Fraction(5), Fraction(6)))
        big = compose(a, 2)
        assert big.A == frac_matrix([[1, 2, 0, 0], [3, 4, 0, 0], [0, 0, 1, 2], [0, 0, 3, 4]])
        assert big.b == (5, 6, 5, 6)

    def test_k_fold_dimension(self):
        base = Affine(A=frac_matrix([[1]]), b=(Fraction(0),))
        assert compose(base, 5).m == 5

    def test_eval_concatenates(self):
        a = Affine(A=frac_matrix([[0, 1], [2, 0]]), b=(Fraction(1), Fraction(0)))
        big = compose(a, 3)
        for loads in product(range(3), repeat=6):
            assert eval_cost(big, loads) == sum((eval_cost(a, loads[k:k + 2])
                                                 for k in (0, 2, 4)), ())

    def test_exponential_copies(self):
        e = Exponential(a=(1.0, 2.0), phi=0.5, b=(0.0, 3.0))
        big = compose(e, 2)
        assert (big.a, big.phi, big.b) == ((1.0, 2.0, 1.0, 2.0), 0.5, (0.0, 3.0, 0.0, 3.0))

    @pytest.mark.parametrize("model", [
        Bilevel(m=2, budget=Fraction(1)),
        PlayerSpecificSeparable(nu=(((Fraction(0), Fraction(1)),),)),
    ], ids=lambda model: type(model).__name__)
    def test_models_without_copies_rejected(self, model):
        name = type(model).__name__
        with pytest.raises(IncompatibleModelsError, match=re.escape(
                f"{name} has no structural composition; normalize with as_tabulated first")):
            compose(model, 4)

    def test_separable_plus_linear_copies(self):
        spl = SeparablePlusLinear(f=(tuple(Fraction(k * k) for k in range(3)),) * 2,
                                  A=frac_matrix([[0, 1], [2, 0]]))
        big = compose(spl, 2)
        assert big.f == spl.f * 2 and big.max_load == 2
        assert big.A == frac_matrix([[0, 1, 0, 0], [2, 0, 0, 0], [0, 0, 0, 1], [0, 0, 2, 0]])
        for loads in product(range(3), repeat=4):
            assert eval_cost(big, loads) == eval_cost(spl, loads[:2]) + eval_cost(spl, loads[2:])

    def test_tabulated_compose_preserves_locality(self):
        tab = Tabulated(
            m=1,
            neighborhoods=((0,),),
            tables=({(k,): Fraction(k) for k in range(3)},),
            max_load=2,
        )
        big = compose(tab, 2)
        assert big.neighborhoods == ((0,), (1,)) and big.max_load == 2
        assert eval_cost(big, (1, 2)) == (1, 2)


class TestAsTabulated:
    def test_separable_minimizes_neighborhoods(self):
        f = (tuple(Fraction(k) for k in range(4)), tuple(Fraction(2 * k) for k in range(4)))
        model = SeparablePlusLinear(f=f, A=frac_matrix([[0, 0], [0, 0]]))
        tab = as_tabulated(model, max_load=3)
        assert tab.neighborhoods == ((0,), (1,))

    def test_dense_affine_keeps_full_neighborhoods(self):
        model = Affine(A=frac_matrix([[1, 1], [1, 1]]), b=(Fraction(0), Fraction(0)))
        tab = as_tabulated(model, max_load=2)
        assert tab.neighborhoods == ((0, 1), (0, 1))

    def test_bilevel_matches_kappa_pointwise(self):
        model = Bilevel(m=2, budget=Fraction(3))
        tab = as_tabulated(model, max_load=2)
        for loads in product(range(3), repeat=2):
            assert eval_cost(tab, loads) == eval_cost(model, loads)

    def test_round_trip_on_full_domain(self):
        model = Affine(A=frac_matrix([[1, 2], [2, 1]]), b=(Fraction(1), Fraction(0)))
        tab = as_tabulated(model, max_load=3)
        for loads in product(range(4), repeat=2):
            assert eval_cost(tab, loads) == eval_cost(model, loads)

    def test_exponential_needs_float_flag(self):
        model = Exponential(a=(1.0,), phi=1.0, b=(0.0,))
        with pytest.raises(UsageError):
            as_tabulated(model, max_load=2)
        tab = as_tabulated(model, max_load=2, allow_float=True)
        assert eval_cost(tab, (1,)) == eval_cost(model, (1,))

    def test_locality_perturbation(self):
        # perturbing a coordinate outside B_r never changes c_r
        model = Affine(A=frac_matrix([[1, 0], [0, 2]]), b=(Fraction(0), Fraction(0)))
        tab = as_tabulated(model, max_load=2)
        for r in range(2):
            outside = [s for s in range(2) if s not in tab.neighborhoods[r]]
            for loads in product(range(2), repeat=2):
                for s in outside:
                    bumped = tuple(v + (1 if u == s else 0) for u, v in enumerate(loads))
                    assert eval_cost_entry(tab, bumped, r) == eval_cost_entry(tab, loads, r)


class TestValidation:
    def test_nu_must_be_non_decreasing(self):
        with pytest.raises(StructureError):
            PlayerSpecificSeparable(nu=(((Fraction(1), Fraction(0)),),))

    def test_budget_positive(self):
        with pytest.raises(StructureError):
            Bilevel(m=2, budget=Fraction(0))

    def test_bilevel_resource_count_positive_int(self):
        for m in (None, 0, -1, 2.0):
            with pytest.raises(StructureError):
                Bilevel(m=m, budget=Fraction(1))

    def test_tabulated_neighborhood_sorted(self):
        with pytest.raises(StructureError, match="neighborhood of resource 0 must be sorted"):
            Tabulated(m=2, neighborhoods=((1, 0), ()), tables=({}, {}), max_load=1)

    def test_tabulated_neighborhood_names_each_resource_once(self):
        """A sorted neighborhood that repeats a resource is refused: a table key such
        as "0,1" could never be read under it."""
        table = {(0, 0): Fraction(0), (0, 1): Fraction(5), (1, 1): Fraction(1)}
        with pytest.raises(StructureError,
                           match="neighborhood of resource 1 names a resource twice"):
            Tabulated(m=2, neighborhoods=((0,), (1, 1)), tables=({}, table), max_load=1)
        Tabulated(m=2, neighborhoods=((0,), (0, 1)), tables=({}, table), max_load=1)



def one_resource_each(m, weights, cost):
    """Each player picks one resource; a player of weight w plays w on it."""
    space = Explicit(vectors=tuple(tuple(int(r == k) for r in range(m)) for k in range(m)))
    players = tuple(Player(weight=w, strategy_space=space) for w in weights)
    return Game(n_resources=m, players=players, cost_model=cost)


class TestLoadRangeRule:
    """Integer-load models reject a fractional load anywhere in the vector; Tabulated
    also rejects any load outside 0..max_load, read or not; the pricer keeps both."""

    SPL = SeparablePlusLinear(
        f=(tuple(Fraction(k) for k in range(3)),) * 2,
        A=frac_matrix([[0, 1], [1, 0]]),
    )
    TAB = Tabulated(
        m=2,
        neighborhoods=((0,), (0,)),  # no entry reads coordinate 1
        tables=({(k,): Fraction(k) for k in range(3)},) * 2,
        max_load=2,
    )

    def test_half_weight_player_on_separable_plus_linear(self):
        game = one_resource_each(2, (Fraction(1, 2), 1), self.SPL)
        profile = ((Fraction(1, 2), Fraction(0)), (0, 1))
        message = re.escape("integer-load model evaluated at fractional load Fraction(1, 2)")
        for i in (0, 1):  # player 1 reads only its own, integral, resource
            with pytest.raises(LoadRangeError, match=message):
                private_cost(game, profile, i)
        with pytest.raises(LoadRangeError, match=message):
            verify_pne(game, profile)

    def test_separable_plus_linear_bounds_only_the_loads_it_reads(self):
        scale, price = self.SPL.pricer((3, 0), 0)  # beyond max_load = 2 on resource 0
        assert Fraction(price((0, 1)), scale) == self.SPL.entry((3, 1), 1) == 1 + 3
        with pytest.raises(LoadRangeError, match=re.escape("load 4 outside 0..2")):
            price((1, 0))

    def test_tabulated_rejects_an_unread_coordinate_out_of_range(self):
        message = re.escape("load (1, 3) outside 0..2")
        with pytest.raises(LoadRangeError, match=message):
            eval_cost_entry(self.TAB, (1, 3), 0)
        with pytest.raises(LoadRangeError, match=message):
            self.TAB.pricer((0, 3), 0)[1]((1, 0))
        game = one_resource_each(2, (1, 1, 1, 1), self.TAB)
        with pytest.raises(LoadRangeError, match=message):
            private_cost(game, ((1, 0), (0, 1), (0, 1), (0, 1)), 0)

    def test_empty_choice_evaluates_no_entry(self):
        for model in (self.SPL, self.TAB):
            scale, price = model.pricer((Fraction(1, 2), 3), 0)
            assert price((0, 0)) / scale == 0


# --- the pricer protocol: price(y) / scale is the private cost of y ---------------------

# (kind, whether its prices are ints over the stated scale)
PRICED_KINDS = (("spl", True), ("affine", True), ("tabulated", True),
                ("tabulated_float", False), ("exponential", False), ("bilevel", False),
                ("player_specific", False))


@st.composite
def priced_case(draw):
    """(kind, model, base, y, weight, player): y is weight times a 0/1 vector and
    base + y is a load every entry of the model reads in range.

    SPL coefficients have D > 1, and its base may pass max_load - weight off supp y;
    Affine has a fractional weight and a fractional base;
    the rational tables hold fractions and are two `compose` copies of one table."""
    kind, exact = draw(st.sampled_from(PRICED_KINDS))
    rat = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3)))
    m = draw(st.integers(1, 3))
    weight, player = 1, 0
    if kind == "spl":
        f = [[draw(rat) for _ in range(4)] for _ in range(m)]
        f[0][0] = Fraction(1, 2)  # so D > 1
        model = SeparablePlusLinear(f=tuple(map(tuple, f)),
                                    A=tuple(tuple(draw(rat) for _ in range(m)) for _ in range(m)))
        weight = draw(st.integers(1, 2))
        base = tuple(draw(st.integers(0, 3)) for _ in range(m))
    elif kind == "affine":
        model = Affine(A=tuple(tuple(draw(rat) for _ in range(m)) for _ in range(m)),
                       b=tuple(draw(rat) for _ in range(m)))
        weight = draw(st.sampled_from((Fraction(1, 2), Fraction(3, 2), Fraction(2, 3), 1, 2)))
        base = (Fraction(2 * draw(st.integers(0, 4)) + 1, 4),) + tuple(
            draw(st.fractions(0, 4, max_denominator=4)) for _ in range(m - 1))
    elif kind.startswith("tabulated"):
        half = draw(st.integers(1, 2))  # resources of the table that is composed twice
        top = draw(st.integers(1, 2))
        value = st.floats(-5, 5) if kind == "tabulated_float" else rat
        hoods = tuple(tuple(sorted(draw(st.sets(st.integers(0, half - 1), min_size=1))))
                      for _ in range(half))
        tables = tuple({key: draw(value) for key in product(range(top + 1), repeat=len(hood))}
                       for hood in hoods)
        model = compose(Tabulated(m=half, neighborhoods=hoods, tables=tables, max_load=top), 2)
        m = model.m
        base = tuple(draw(st.integers(0, top - 1)) for _ in range(m))
    elif kind == "exponential":
        model = Exponential(a=tuple(draw(st.floats(-3, 3)) for _ in range(m)),
                            phi=draw(st.floats(-1, 1)),
                            b=tuple(draw(st.floats(-3, 3)) for _ in range(m)))
        weight = draw(st.sampled_from((Fraction(1, 2), 1, 2)))
        base = tuple(draw(st.fractions(0, 3, max_denominator=2)) for _ in range(m))
    elif kind == "bilevel":
        model = Bilevel(m=m, budget=draw(st.fractions(Fraction(1, 3), 3, max_denominator=3)))
        weight = draw(st.sampled_from((Fraction(1, 2), 1, 2)))
        base = tuple(draw(st.integers(0, 3)) for _ in range(m))
    else:
        nu = tuple(tuple(tuple(sorted(draw(rat) for _ in range(4))) for _ in range(m))
                   for _ in range(2))
        model = PlayerSpecificSeparable(nu=nu)
        player = draw(st.integers(0, 1))
        base = tuple(draw(st.integers(0, 2)) for _ in range(m))
    y = tuple(0 if kind == "spl" and b + weight > 3 else weight * draw(st.integers(0, 1))
              for b in base)
    return kind, exact, model, base, y, weight, player


class TestPricerProtocol:
    def test_affine_refuses_a_choice_off_the_weight_unit(self):
        model = Affine(A=frac_matrix([[1, 0], [0, 1]]), b=(Fraction(0), Fraction(0)))
        scale, price = model.pricer((0, 0), 0, Fraction(1, 2))
        assert (scale, price((Fraction(3, 2), 0))) == (4, 9)  # 9/4
        with pytest.raises(UsageError,
                           match=r"^load 1/3 is not a multiple of 1/2, the player weight's unit$"):
            price((0, Fraction(1, 3)))

    @given(priced_case())
    def test_price_over_scale_is_the_private_cost(self, case):
        kind, exact, model, base, y, weight, player = case
        scale, price = model.pricer(base, player, weight)
        got = price(y)
        loads = tuple(b + e for b, e in zip(base, y))
        want = sum(e * model.entry(loads, r, player) for r, e in enumerate(y) if e)
        if exact:
            assert type(got) is int, kind
            assert Fraction(got, scale) == want, kind
        elif kind in ("exponential", "tabulated_float"):
            assert scale == 1 and abs(got - want) <= FLOAT_TOL, kind
        else:
            assert scale == 1 and got == want, kind
        if kind in ("spl", "affine"):
            bound = model.bound(base, weight)
            if kind == "spl":
                fractional = any(int(v) != v for v in (*base, weight))
                assert (bound is None) == (fractional or max(base) + weight > model.max_load)
            if bound is not None:  # every strategy weight*1_S prices as the bound says
                u, c, (sym, _, _) = bound
                for ones in product((0, 1), repeat=len(base)):
                    supp = [r for r, e in enumerate(ones) if e]
                    pairs = sum(sym[r][s] for r in supp for s in supp if r < s) if sym else 0
                    assert price(tuple(weight * e for e in ones)) == (
                        sum(u[r] for r in supp) + c * pairs), kind
