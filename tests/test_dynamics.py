import random
from fractions import Fraction
from itertools import product

import pytest

from rggames.core import (
    Explicit,
    Game,
    Player,
    deviate,
    load_of,
    pricer,
    private_cost,
    validate_profile,
)
from rggames.costs import (
    Affine,
    Bilevel,
    Exponential,
    PlayerSpecificSeparable,
    SeparablePlusLinear,
    Tabulated,
)
from rggames.dynamics import (
    IsPNE,
    NoPNEExists,
    NotPNE,
    PNEFound,
    _sweep,
    best_response,
    brute_force_pne,
    run_best_response_dynamics,
    verify_pne,
)
from rggames.errors import CapacityError, LoadRangeError, UsageError
from rggames.matroid import Uniform
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

    def test_negative_step_budget_rejected(self):
        game = make_game(LINEAR_2, [((1, 0), (0, 1))] * 2)
        message = r"^max_iters: expected a non-negative integer, got -1$"
        with pytest.raises(UsageError, match=message):
            run_best_response_dynamics(game, ((1, 0), (1, 0)), max_iters=-1)
        trace = run_best_response_dynamics(game, ((1, 0), (1, 0)), max_iters=0)
        assert trace.iterations == 0 and not trace.converged

    def test_random_schedule_deterministic_given_seed(self):
        game = make_game(LINEAR_2, [((1, 0), (0, 1))] * 2)
        start = ((1, 0), (1, 0))
        a = run_best_response_dynamics(game, start, seed=7)
        b = run_best_response_dynamics(game, start, seed=7)
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


# --- the profile sweep against a frozen copy of the per-profile loop ----------


def reference_brute_force(game, budget=10**7, where=None):
    """brute_force_pne as it was: verify_pne run afresh on every profile of the product.

    When pricing raises, `where` (a list) receives (profile number, player, whether
    the player's own choice was being priced, size of the player's space).
    """
    spaces = []
    for i, p in enumerate(game.players):
        try:
            spaces.append(p.strategies())
        except CapacityError as exc:
            raise CapacityError(f"player {i}: {exc}") from None
    total = 1
    for s in spaces:
        total *= len(s)
    if total > budget:
        raise CapacityError(f"{total} profiles exceed the budget {budget}")
    checked = 0
    for choices in product(*spaces):
        profile = tuple(choices)
        checked += 1
        loads = load_of(game, profile)
        validate_profile(game, profile, spaces)
        if reference_is_pne(game, profile, spaces, loads, checked, where):
            return PNEFound(profile=profile)
    return NoPNEExists(profiles_checked=checked)


def reference_is_pne(game, profile, spaces, loads, checked, where):
    for i, space in enumerate(spaces):
        own = True
        try:
            price = pricer(game, profile, i, loads)
            cur = price(profile[i])
            own = False
            for y in space:
                if y != profile[i]:
                    alt = price(y)
                    floats = isinstance(alt, float) or isinstance(cur, float)
                    if alt < cur - 1e-9 if floats else alt < cur:
                        return False
        except LoadRangeError:
            if where is not None:
                where.append((checked, i, own, len(space)))
            raise
    return True


SWEEP_KINDS = ("affine", "gadget_beside", "weighted", "exponential", "short_tabulated",
               "short_spl", "bilevel", "player_specific")


def _rat(rng, dens=(1, 2, 3)):
    return Fraction(rng.randint(-3, 6), rng.choice(dens))


def _explicit(rng, m, most=3):
    vectors = [v for v in product((0, 1), repeat=m) if any(v)]
    return Explicit(vectors=tuple(rng.sample(vectors, rng.randint(1, min(most, len(vectors))))))


def _gadget_beside(rng):
    """The L3 gadget (no PNE) beside one or two players on disjoint extra resources."""
    base = Affine(A=((Fraction(1), Fraction(1)), (Fraction(3), Fraction(1))),
                  b=(Fraction(0), Fraction(0)))
    gadget = build_gadget(GadgetSpec(lemma="L3", base_cost=base, point=(0, 0), resources=(0, 1)))
    extra_m = rng.randint(1, 3)
    extra = Affine(A=tuple(tuple(_rat(rng) for _ in range(extra_m)) for _ in range(extra_m)),
                   b=tuple(_rat(rng) for _ in range(extra_m)))
    M, pad = gadget.n_resources, (0,) * extra_m
    players = [Player(strategy_space=Explicit(vectors=tuple(v + pad for v in p.strategies())))
               for p in gadget.players]
    for _ in range(rng.randint(1, 2)):
        space = _explicit(rng, extra_m)
        players.append(Player(strategy_space=Explicit(
            vectors=tuple((0,) * M + v for v in space.vectors))))
    big, pad_A = gadget.cost_model, (Fraction(0),) * extra_m
    cost = Affine(A=tuple(row + pad_A for row in big.A)
                  + tuple((Fraction(0),) * M + row for row in extra.A), b=big.b + extra.b)
    return Game(n_resources=M + extra_m, players=tuple(players), cost_model=cost)


def sweep_game(seed):
    """A small seeded game of kind SWEEP_KINDS[seed % 8].  The short tables stop up
    to two loads below what the players can put on a resource, and a tenth of the
    tabulated entries are missing."""
    rng = random.Random(seed)
    kind = SWEEP_KINDS[seed % len(SWEEP_KINDS)]
    if kind == "gadget_beside":
        return _gadget_beside(rng)
    m, n = rng.randint(1, 4), rng.randint(1, 4)
    short = max(0, n - rng.randint(0, 2))
    if kind in ("affine", "weighted"):
        dens = (1,) if kind == "affine" else (1, 2, 3)
        cost = Affine(A=tuple(tuple(_rat(rng, dens) for _ in range(m)) for _ in range(m)),
                      b=tuple(_rat(rng, dens) for _ in range(m)))
    elif kind == "exponential":
        cost = Exponential(a=tuple(rng.uniform(-1, 2) for _ in range(m)),
                           phi=rng.choice((0.5, 1.0, 1.5)),
                           b=tuple(rng.uniform(-1, 1) for _ in range(m)))
    elif kind == "short_tabulated":
        hoods = tuple(tuple(s for s in range(m) if s == r or rng.random() < 0.4)
                      for r in range(m))
        tables = tuple({key: _rat(rng) for key in product(range(short + 1), repeat=len(hood))
                        if rng.random() < 0.9} for hood in hoods)
        cost = Tabulated(m=m, neighborhoods=hoods, tables=tables, max_load=short)
    elif kind == "short_spl":
        cost = SeparablePlusLinear(
            f=tuple(tuple(_rat(rng) for _ in range(short + 1)) for _ in range(m)),
            A=tuple(tuple(_rat(rng) for _ in range(m)) for _ in range(m)))
    elif kind == "bilevel":
        cost = Bilevel(m=m, budget=Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    else:
        cost = PlayerSpecificSeparable(nu=tuple(
            tuple(tuple(sorted(_rat(rng) for _ in range(n + 1))) for _ in range(m))
            for _ in range(n)))
    weights = [1] * n
    if kind in ("weighted", "exponential"):
        weights = [rng.choice((1, 2, Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3)))
                   for _ in range(n)]
    players = tuple(Player(weight=w, strategy_space=_explicit(rng, m)) for w in weights)
    return Game(n_resources=m, players=players, cost_model=cost)


def outcome(search, game, **kwargs):
    try:
        return search(game, **kwargs)
    except (CapacityError, LoadRangeError) as exc:
        return type(exc), str(exc)


class TestSweepMatchesReference:
    SEEDS = range(480)

    def test_sweep_loads_equal_load_of(self):
        for seed in self.SEEDS:
            game = sweep_game(seed)
            spaces = [p.strategies() for p in game.players]
            rows = list(_sweep(game, spaces))
            assert [x for _, x, _ in rows] == list(product(*spaces)), seed
            for idx, x, loads in rows:
                assert x == tuple(space[k] for space, k in zip(spaces, idx)), seed
                assert loads == load_of(game, x), (seed, x)
                assert list(map(type, loads)) == list(map(type, load_of(game, x))), (seed, x)

    def test_sweep_without_players_yields_one_profile(self):
        game = Game(n_resources=2, players=(), cost_model=LINEAR_2)
        assert list(_sweep(game, [])) == [((), (), (0, 0))]
        assert brute_force_pne(game) == reference_brute_force(game) == PNEFound(profile=())

    def test_certificate_or_error_as_before(self):
        kinds = {kind: set() for kind in SWEEP_KINDS}
        raised_at = []
        for seed in self.SEEDS:
            game = sweep_game(seed)
            where = []
            want = outcome(reference_brute_force, game, where=where)
            assert outcome(brute_force_pne, game) == want, seed
            kinds[SWEEP_KINDS[seed % len(SWEEP_KINDS)]].add(
                want[0] if isinstance(want, tuple) else type(want))
            raised_at.extend(where)
        assert kinds["gadget_beside"] == {NoPNEExists}
        for kind in ("affine", "weighted", "exponential", "bilevel", "player_specific"):
            assert PNEFound in kinds[kind] and kinds[kind] <= {PNEFound, NoPNEExists}, kind
        for kind in ("short_tabulated", "short_spl"):
            assert {PNEFound, LoadRangeError} <= kinds[kind], kind
        # an error on a later profile, on a deviation, and on a single-strategy
        # player's own choice
        assert any(checked > 1 for checked, _, _, _ in raised_at)
        assert any(not own for _, _, own, _ in raised_at)
        assert any(own and size == 1 for _, _, own, size in raised_at)

    def test_single_strategy_player_is_priced(self):
        # profile 1 is refuted by player 0; at profile 2 player 0 has no improvement
        # and player 1's only choice reads an entry the table lacks
        tables = ({(0,): 0, (1,): 0, (2,): 0}, {(0,): 0, (2,): 0}, {(0,): 0, (1,): 5, (2,): 5})
        cost = Tabulated(m=3, neighborhoods=((0,), (1,), (2,)), tables=tables, max_load=2)
        game = make_game(cost, [((1, 0, 0), (0, 0, 1)), ((0, 1, 0),)])
        where = []
        want = outcome(reference_brute_force, game, where=where)
        assert where == [(2, 1, True, 1)]
        assert want == (LoadRangeError, "no table entry for resource 1 at (1,)")
        assert outcome(brute_force_pne, game) == want

    def test_budget_and_cap_errors_as_before(self):
        game = sweep_game(0)
        total = 1
        for p in game.players:
            total *= len(p.strategies())
        assert outcome(brute_force_pne, game, budget=total - 1) == outcome(
            reference_brute_force, game, budget=total - 1)
        assert outcome(brute_force_pne, game, budget=total) == outcome(
            reference_brute_force, game, budget=total)
        # C(30, 15) bases exceed the limit, which raises before any basis is built
        uniform = Player(strategy_space=Uniform(30, 15))
        explicit = Player(strategy_space=Explicit(vectors=((1,) + (0,) * 29, (0,) * 29 + (1,))))
        wide = Game(n_resources=30, players=(explicit, uniform),
                    cost_model=Bilevel(m=30, budget=Fraction(1)))
        got = outcome(brute_force_pne, wide)
        assert got == outcome(reference_brute_force, wide)
        assert got == (CapacityError, "player 1: more than 1000000 bases")
