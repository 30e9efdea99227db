import random
from dataclasses import fields
from fractions import Fraction
from itertools import product

import pytest

from rggames.characterize import Violation, analyze_unweighted
from rggames.core import Explicit, Game, Player, load_of, pricer, private_cost
from rggames.costs import (
    Affine,
    SeparablePlusLinear,
    Tabulated,
    as_tabulated,
    compose,
    eval_cost_entry,
)
from rggames.dynamics import NoPNEExists, PNEFound, brute_force_pne
from rggames.errors import StructureError, UsageError
from rggames.gadgets import (
    GadgetSpec,
    SymmetryFailure,
    SymmetryWitness,
    build_gadget,
    check_AB_symmetry,
    gadget_spec_for,
    violation_to_counterexample,
)


def tabulate(fn, m, L):
    grid = list(product(range(L + 1), repeat=m))
    hoods = tuple(tuple(range(m)) for _ in range(m))
    tables = tuple({pt: Fraction(fn(pt)[r]) for pt in grid} for r in range(m))
    return Tabulated(m=m, neighborhoods=hoods, tables=tables, max_load=L)


ASYM = Affine(A=((Fraction(1), Fraction(1)), (Fraction(3), Fraction(1))),
              b=(Fraction(0), Fraction(0)))
SYM = Affine(A=((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1))),
             b=(Fraction(0), Fraction(0)))


def bump(pt, *idx):
    return tuple(e + sum(1 for i in idx if i == g) for g, e in enumerate(pt))


class TestBuildGadget:
    def test_two_resource_structure(self):
        game = build_gadget(GadgetSpec(lemma="L3", base_cost=SYM, point=(0, 0), resources=(0, 1)))
        assert game.n_resources == 8
        assert game.n_players == 2
        assert all(len(p.strategies()) == 2 for p in game.players)

    def test_dummies_pin_background_load(self):
        point = (2, 1)
        game = build_gadget(GadgetSpec(lemma="L3", base_cost=SYM, point=point, resources=(0, 1)))
        assert game.n_players == 2 + 3
        profile = tuple(p.strategies()[0] for p in game.players)
        loads = load_of(game, profile)
        # subtract the two free players: each copy must carry the background
        free = [sum(v[r] for v in profile[:2]) for r in range(8)]
        for copy in range(4):
            for u in range(2):
                assert loads[copy * 2 + u] - free[copy * 2 + u] == point[u]

    def test_symmetric_cost_gives_pne(self):
        game = build_gadget(GadgetSpec(lemma="L3", base_cost=SYM, point=(0, 0), resources=(0, 1)))
        assert isinstance(brute_force_pne(game), PNEFound)

    def test_asymmetric_cost_gives_no_pne(self):
        game = build_gadget(GadgetSpec(lemma="L3", base_cost=ASYM, point=(0, 0), resources=(0, 1)))
        assert isinstance(brute_force_pne(game), NoPNEExists)

    def test_positive_load_required_for_deeper_gadgets(self):
        with pytest.raises(StructureError, match="positive load"):
            GadgetSpec(lemma="L4", base_cost=SYM, point=(0, 0), resources=(0, 1))
        three = Affine(A=tuple(tuple(Fraction(int(r == s)) for s in range(3)) for r in range(3)),
                       b=(Fraction(0),) * 3)
        with pytest.raises(StructureError, match="positive load"):
            GadgetSpec(lemma="L5", base_cost=three, point=(0, 1, 1), resources=(0, 1, 2))

    @pytest.mark.parametrize("lemma, resources", [
        ("L3", (-1, 0)), ("L3", (0, 2)), ("weighted-eps", (1, -2)), ("L5", (0, 1, 2)),
    ])
    def test_resources_must_index_the_base_cost(self, lemma, resources):
        with pytest.raises(StructureError, match="0-based indices below 2"):
            GadgetSpec(lemma=lemma, base_cost=SYM, point=(1, 1), resources=resources)


class TestABSymmetry:
    def test_two_resource_values_match_cost_expressions(self):
        # A = c_r(x+1_{rs}) + c_s(x+1_s); B = c_s(x+1_{rs}) + c_r(x+1_r)
        c = as_tabulated(ASYM, max_load=4)
        x = (1, 0)
        game = build_gadget(GadgetSpec(lemma="L3", base_cost=c, point=x, resources=(0, 1)))
        w = check_AB_symmetry(game, 0, 1)
        assert isinstance(w, SymmetryWitness)
        expected_A = eval_cost_entry(c, bump(x, 0, 1), 0) + eval_cost_entry(c, bump(x, 1), 1)
        expected_B = eval_cost_entry(c, bump(x, 0, 1), 1) + eval_cost_entry(c, bump(x, 0), 0)
        assert {w.A_value, w.B_value} == {expected_A, expected_B}

    def test_three_resource_values_match_cost_expressions(self):
        fn = lambda p: (p[0] + p[1] * p[2], p[1] + p[0] * p[2], p[2] + p[0] * p[1])
        c = tabulate(fn, 3, 5)
        x = (1, 0, 1)
        game = build_gadget(GadgetSpec(lemma="L5", base_cost=c, point=x, resources=(0, 1, 2)))
        w = check_AB_symmetry(game, 0, 1)
        assert isinstance(w, SymmetryWitness)
        xp = bump(x)  # background is x - 1_r inside the gadget
        xp = tuple(v - (1 if g == 0 else 0) for g, v in enumerate(x))
        expected_A = (
            eval_cost_entry(c, bump(xp, 0, 1, 2), 0)
            + eval_cost_entry(c, bump(xp, 1, 2), 1)
            + eval_cost_entry(c, bump(xp, 1, 2), 2)
        )
        expected_B = (
            eval_cost_entry(c, bump(xp, 0), 0)
            + eval_cost_entry(c, bump(xp, 0, 1, 2), 1)
            + eval_cost_entry(c, bump(xp, 0, 1, 2), 2)
        )
        assert {w.A_value, w.B_value} == {expected_A, expected_B}

    def test_no_swap_is_a_failure(self):
        # player-independent fixed payoffs 0 and 1, two strategies each: no swap
        cost = Tabulated(
            m=2,
            neighborhoods=((), ()),
            tables=({(): Fraction(0)}, {(): Fraction(1)}),
            max_load=2,
        )
        players = (
            Player(strategy_space=Explicit(vectors=((1, 0), (1, 1)))),
            Player(strategy_space=Explicit(vectors=((0, 1),))),
        )
        game = Game(n_resources=2, players=players, cost_model=cost)
        result = check_AB_symmetry(game, 0, 1)
        assert isinstance(result, SymmetryFailure)

    def test_a_pair_that_varies_across_two_scales_is_a_failure(self):
        # Three players of weight 1/2 on c(x) = (x_0, 2 x_1 + 1/3).  The others' loads
        # are integral in the first profile, all on resource 1, and halves in the
        # second, so the two profiles' pairs are priced over different scales.
        cost = Affine(A=((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2))),
                      b=(Fraction(0), Fraction(1, 3)))
        half = Fraction(1, 2)
        space = Explicit(vectors=((0, 1), (1, 0)))
        game = Game(n_resources=2, cost_model=cost,
                    players=tuple(Player(weight=half, strategy_space=space) for _ in range(3)))
        first, x = ((0, half),) * 3, ((0, half), (0, half), (half, 0))
        assert pricer(game, first, 0)[0] != pricer(game, x, 0)[0]
        a, b = private_cost(game, x, 0), private_cost(game, x, 1)
        assert (a, b) == (Fraction(7, 6), Fraction(7, 6))
        assert private_cost(game, first, 0) == Fraction(5, 3)
        assert check_AB_symmetry(game, 0, 1) == SymmetryFailure(
            profile=x, reason=f"payoff pair {{{a}, {b}}} varies")


class TestViolationMapping:
    def test_jacobian_maps_to_two_resource_gadget(self):
        c = as_tabulated(ASYM, max_load=4)
        v = analyze_unweighted(c, 2)
        spec = gadget_spec_for(c, v)
        assert spec.lemma == "L3" and spec.resources == (v.r, v.s)

    def test_linearity_violation_has_no_gadget(self):
        # the three per-step cross identities imply linearity, so no check reports it
        c = as_tabulated(SYM, max_load=4)
        with pytest.raises(UsageError, match="no gadget construction"):
            gadget_spec_for(c, Violation(lemma="linearity", r=0, s=1, x=(1, 0)))

    def test_cross_b_maps_through_the_shifted_point(self):
        c = tabulate(lambda p: (p[0] + p[1] ** 2, p[1] + p[0] ** 2), 2, 6)
        from rggames.characterize import check_cross_linearity

        v = check_cross_linearity(c, 2)
        assert v.lemma == "cross_b"
        spec = gadget_spec_for(c, v)
        assert spec.lemma == "L4"
        game = build_gadget(spec)
        assert isinstance(brute_force_pne(game), NoPNEExists)

    def test_end_to_end_counterexamples(self):
        cases = [
            tabulate(lambda p: (p[0] + p[1], 3 * p[0] + p[1]), 2, 5),  # jacobian
            tabulate(lambda p: ((p[0] + p[1]) ** 2, (p[0] + p[1]) ** 2), 2, 6),  # cross_a
            tabulate(
                lambda p: (p[0] + p[1] * p[2], p[1] + p[0] * p[2], p[2] + p[0] * p[1]), 3, 5
            ),  # cross_distinct
        ]
        for c in cases:
            report = analyze_unweighted(c, 2)
            assert isinstance(report, Violation)
            game, cert = violation_to_counterexample(c, report)
            assert isinstance(cert, NoPNEExists)
            w = check_AB_symmetry(game, 0, 1)
            assert isinstance(w, SymmetryWitness) and w.A_value != w.B_value


class TestWeightedGadget:
    def test_epsilon_players_and_weighted_dummies(self):
        eps = Fraction(1, 2)
        spec = GadgetSpec(
            lemma="weighted-eps", base_cost=ASYM, point=(1, 2), resources=(0, 1), epsilon=eps
        )
        game = build_gadget(spec)
        assert game.players[0].weight == eps and game.players[1].weight == eps
        assert sorted(p.weight for p in game.players[2:]) == [1, 2]
        assert isinstance(brute_force_pne(game), NoPNEExists)
        w = check_AB_symmetry(game, 0, 1)
        assert isinstance(w, SymmetryWitness) and w.A_value != w.B_value

    def test_epsilon_must_be_positive(self):
        for eps in (Fraction(-1), Fraction(0)):
            with pytest.raises(StructureError, match="^epsilon must be positive$"):
                GadgetSpec(lemma="weighted-eps", base_cost=ASYM, point=(0, 0), resources=(0, 1),
                           epsilon=eps)

    def test_epsilon_defaults_to_one(self):
        spec = GadgetSpec(lemma="weighted-eps", base_cost=ASYM, point=(0, 0), resources=(0, 1))
        assert spec.epsilon == 1
        game = build_gadget(spec)
        assert game.players[0].weight == 1 and game.players[1].weight == 1

    @pytest.mark.parametrize("lemma, point, resources", [
        ("L3", (0, 0), (0, 1)), ("L4", (1, 0), (0, 1)), ("L5", (1, 0, 0), (0, 1, 2))])
    def test_epsilon_only_for_weighted_lemma(self, lemma, point, resources):
        cost = Affine(A=((1, 0, 0), (0, 1, 0), (0, 0, 1)), b=(0, 0, 0)) if lemma == "L5" else ASYM
        with pytest.raises(StructureError, match=f"^{lemma} takes no epsilon; only weighted-eps"):
            GadgetSpec(lemma=lemma, base_cost=cost, point=point, resources=resources,
                       epsilon=Fraction(1))


def _reference_unit(total, *indices):
    v = [0] * total
    for idx in indices:
        v[idx] = 1
    return tuple(v)


def reference_build_gadget(spec):
    """Frozen copy of the three-branch construction the pattern table replaced."""
    _unit = _reference_unit
    m = spec.base_cost.m
    big = compose(spec.base_cost, 4)
    M = 4 * m

    def idx(copy, res):
        return copy * m + res

    r, s = spec.resources[0], spec.resources[1]
    if spec.lemma == "L3" or spec.lemma == "weighted-eps":
        x1 = (_unit(M, idx(0, r), idx(1, s)), _unit(M, idx(2, s), idx(3, r)))
        x2 = (_unit(M, idx(0, s), idx(2, r)), _unit(M, idx(1, r), idx(3, s)))
        background = spec.point
    elif spec.lemma == "L4":
        x1 = (
            _unit(M, idx(0, r), idx(0, s), idx(1, r)),
            _unit(M, idx(2, r), idx(3, r), idx(3, s)),
        )
        x2 = (
            _unit(M, idx(0, r), idx(2, r), idx(2, s)),
            _unit(M, idx(1, r), idx(1, s), idx(3, r)),
        )
        background = tuple(v - 1 if u == r else v for u, v in enumerate(spec.point))
    else:  # L5
        t = spec.resources[2]
        x1 = (
            _unit(M, idx(0, r), idx(1, s), idx(1, t)),
            _unit(M, idx(2, s), idx(2, t), idx(3, r)),
        )
        x2 = (
            _unit(M, idx(0, s), idx(0, t), idx(2, r)),
            _unit(M, idx(1, r), idx(3, s), idx(3, t)),
        )
        background = tuple(v - 1 if u == r else v for u, v in enumerate(spec.point))

    if spec.lemma == "weighted-eps":
        free = [
            Player(weight=spec.epsilon, strategy_space=Explicit(vectors=strats))
            for strats in (x1, x2)
        ]
        dummies = [
            Player(
                weight=Fraction(background[u]),
                strategy_space=Explicit(vectors=(_unit(M, *(idx(k, u) for k in range(4))),)),
            )
            for u in range(m)
            if background[u] > 0
        ]
    else:
        free = [Player(strategy_space=Explicit(vectors=strats)) for strats in (x1, x2)]
        dummies = [
            Player(strategy_space=Explicit(vectors=(_unit(M, *(idx(k, u) for k in range(4))),)))
            for u in range(m)
            for _ in range(background[u])
        ]
    return Game(n_resources=M, players=tuple(free + dummies), cost_model=big)


def _random_cost(rng, kind, m):
    A = tuple(tuple(Fraction(rng.randint(-2, 3)) for _ in range(m)) for _ in range(m))
    if kind == "affine":
        return Affine(A=A, b=tuple(Fraction(rng.randint(0, 4)) for _ in range(m)))
    if kind == "spl":
        return SeparablePlusLinear(
            f=tuple(tuple(Fraction(rng.randint(0, 9)) for _ in range(6)) for _ in range(m)), A=A)
    hoods = tuple(tuple(sorted(rng.sample(range(m), rng.randint(0, m)))) for _ in range(m))
    tables = tuple({key: Fraction(rng.randint(0, 9)) for key in product(range(3), repeat=len(h))}
                   for h in hoods)
    return Tabulated(m=m, neighborhoods=hoods, tables=tables, max_load=2)


def _gadget_corpus(per_case=30, seed=20201):
    """Seeded specs over every lemma, m = 2..4 and three cost kinds."""
    rng = random.Random(seed)
    specs = []
    for lemma in ("L3", "L4", "L5", "weighted-eps"):
        for m in (2, 3, 4):
            if lemma == "L5" and m < 3:
                continue
            for kind in ("affine", "spl", "tabulated"):
                for _ in range(per_case):
                    resources = tuple(rng.sample(range(m), 3 if lemma == "L5" else 2))
                    point = [rng.randint(0, 3) for _ in range(m)]
                    if lemma in ("L4", "L5"):
                        point[resources[0]] = max(1, point[resources[0]])
                    epsilon = None
                    if lemma == "weighted-eps" and rng.random() < 0.8:
                        epsilon = Fraction(rng.randint(1, 7), rng.randint(1, 4))
                    specs.append(GadgetSpec(lemma=lemma, base_cost=_random_cost(rng, kind, m),
                                            point=tuple(point), resources=resources,
                                            epsilon=epsilon))
    return specs


def _init_fields(model):
    return type(model), {f.name: getattr(model, f.name) for f in fields(model) if f.init}


class TestFrozenReference:
    def test_corpus_covers_every_lemma_and_size(self):
        seen = {(spec.lemma, spec.base_cost.m) for spec in _gadget_corpus()}
        assert seen == {(lemma, m) for lemma in ("L3", "L4", "L5", "weighted-eps")
                        for m in (2, 3, 4) if not (lemma == "L5" and m == 2)}

    def test_library_matches_the_three_branch_construction(self):
        for spec in _gadget_corpus():
            got, want = build_gadget(spec), reference_build_gadget(spec)
            assert got.n_resources == want.n_resources, spec
            assert [p.weight for p in got.players] == [p.weight for p in want.players], spec
            assert [type(p.weight) for p in got.players] == \
                [type(p.weight) for p in want.players], spec
            assert [p.strategy_space.vectors for p in got.players] == \
                [p.strategy_space.vectors for p in want.players], spec
            assert [p.strategies() for p in got.players] == \
                [p.strategies() for p in want.players], spec
            assert _init_fields(got.cost_model) == _init_fields(want.cost_model), spec
