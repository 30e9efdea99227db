import os
import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, seed, settings, strategies as st

from rggames.core import (
    Explicit,
    Game,
    Player,
    Trie,
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
from rggames import dynamics
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
from rggames.matroid import Partition, Uniform
from rggames.reductions import parse_dimacs, reduce_sat
from rggames.gadgets import GadgetSpec, build_gadget
from rggames.potential import potential_unweighted


def number_pricer(game, profile, i, loads=None):
    """y -> pi_i(y, x_-i) as a number: `pricer`'s price over its stated scale, exact
    for an int price."""
    scale, price = pricer(game, profile, i, loads)

    def number(y):
        p = price(y)
        return Fraction(p, scale) if isinstance(p, int) else p / scale

    return number


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
            price = number_pricer(game, profile, i, loads)
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


# --- the component split against the frozen per-profile loop ------------------

# (cost class, variant): games whose resource graph splits, for every class, with
# the forms that no evaluation inside the box of reachable loads fails on first,
# then the forms that some evaluation can fail on.  Exhaustive search splits only
# the affine ones; every other game must keep the outcome of the whole sweep.
SPLIT_KINDS = (
    ("affine", ""), ("affine", "fractional"), ("spl", ""), ("tabulated", ""),
    ("exponential", ""), ("player_specific", ""), ("bilevel", ""),
    ("spl", "short"), ("spl", "fractional"), ("tabulated", "short"), ("tabulated", "missing"),
    ("tabulated", "fractional"), ("player_specific", "short"),
    ("player_specific", "fractional"), ("exponential", "overflow"),
)
NOT_TOTAL = SPLIT_KINDS[7:]
NO_PNE_CLASSES = ("affine", "spl", "tabulated", "player_specific")  # can hold a part without PNE


def reads(cost):
    """(r, s) for every s that c_r reads, from each model's own fields."""
    m = cost.m
    if isinstance(cost, (Affine, SeparablePlusLinear)):
        return [(r, s) for r in range(m) for s in range(m) if cost.A[r][s]]
    if isinstance(cost, Tabulated):
        return [(r, s) for r in range(m) for s in cost.neighborhoods[r]]
    if isinstance(cost, Bilevel):
        return list(product(range(m), repeat=2))
    return []


def components(game):
    """The players in parts linked by shared resources and cost reads, each part in
    index order and the parts by their lowest player (a search of the graph)."""
    n = game.n_players
    links = {node: set() for node in range(n + game.n_resources)}
    for r, s in reads(game.cost_model):
        links[n + r].add(n + s)
        links[n + s].add(n + r)
    for i, p in enumerate(game.players):
        for v in p.strategies():
            for r, e in enumerate(v):
                if e:
                    links[i].add(n + r)
                    links[n + r].add(i)
    seen, parts = set(), []
    for i in range(n):
        if i in seen:
            continue
        part, todo = [], [i]
        seen.add(i)
        while todo:
            node = todo.pop()
            if node < n:
                part.append(node)
            for other in links[node] - seen:
                seen.add(other)
                todo.append(other)
        parts.append(sorted(part))
    return parts


def _no_pne_part(rng, cls):
    """A part without PNE: (resources, players as (weight, vectors), interaction block,
    whether it takes a random separable term, player-specific tables or None).

    For player_specific it is two players on three resources; otherwise the two free
    players of an L3 gadget on four copies of a 2x2 asymmetric A, with no separable
    term, which would differ between the copies."""
    if cls == "player_specific":
        nu = (((0, 4, 6), (2, 5, 5), (2, 3, 4)), ((1, 2, 4), (0, 0, 6), (3, 5, 5)))
        players = [(1, ((0, 1, 0), (1, 0, 0))), (1, ((0, 0, 1), (1, 1, 0)))]
        return 3, players, ((Fraction(0),) * 3,) * 3, False, nu
    a01 = rng.randint(-2, 3)
    base = ((rng.randint(-1, 2), a01), (a01 + rng.choice((-2, -1, 1, 2)), rng.randint(-1, 2)))
    base = tuple(tuple(map(Fraction, row)) for row in base)
    game = build_gadget(GadgetSpec(lemma="L3", base_cost=Affine(A=base, b=(Fraction(0),) * 2),
                                   point=(0, 0), resources=(0, 1)))
    players = [(1, p.strategy_space.vectors) for p in game.players]
    return 8, players, game.cost_model.A, False, None


def _random_part(rng, weights):
    """One to two players on one to three resources, with a random interaction block
    and a random separable term."""
    m = rng.randint(1, 3)
    players = [(rng.choice(weights), _explicit(rng, m).vectors) for _ in range(rng.randint(1, 2))]
    A = tuple(tuple(_rat(rng) if r == s or rng.random() < 0.5 else Fraction(0)
                    for s in range(m)) for r in range(m))
    return m, players, A, True, None


def split_game(seed):
    """Two or three parts on disjoint resources, their players interleaved at random,
    under one cost of class and variant SPLIT_KINDS[seed % 15].

    Where the class can hold one, a part has no PNE a third of the time, and the first
    part of a game that some evaluation can fail on always has none, so that a
    split of that game would stop before the failure.  A bilevel game splits only with an
    idle player, whose one strategy uses no resource."""
    rng = random.Random(seed)
    cls, variant = SPLIT_KINDS[seed % len(SPLIT_KINDS)]
    weights = (1,)
    if variant == "fractional" and cls != "affine":
        weights = (Fraction(1, 2), Fraction(3, 2))  # halves on one resource add up to an integer
    elif variant == "fractional" or cls == "exponential":
        weights = (1, Fraction(2), Fraction(1, 2), Fraction(3, 2), Fraction(5, 3))
    parts = [_no_pne_part(rng, cls)
             if cls in NO_PNE_CLASSES and (k == 0 and (cls, variant) in NOT_TOTAL
                                           or rng.random() < 1 / 3)
             else _random_part(rng, weights) for k in range(rng.randint(2, 3))]
    m = sum(part[0] for part in parts)
    players, A, term = [], [[Fraction(0)] * m for _ in range(m)], []
    for size, members, block, separable, nu in parts:
        start = len(term)
        term += [separable] * size
        for k, (w, vectors) in enumerate(members):
            space = Explicit(vectors=tuple((0,) * start + v + (0,) * (m - start - size)
                                           for v in vectors))
            players.append((Player(weight=w, strategy_space=space),
                            {start + r: table for r, table in enumerate(nu[k])} if nu else {}))
        for r in range(size):
            A[start + r][start:start + size] = block[r]
    if cls == "bilevel" and rng.random() < 0.5:
        players.append((Player(strategy_space=Explicit(vectors=((0,) * m,))), {}))
    rng.shuffle(players)
    top = [sum(p.weight for p, _ in players if any(v[r] for v in p.strategy_space.vectors))
           for r in range(m)]
    bound = max(1, int(max(top)) + 1)
    if variant == "short":
        bound = max(0, int(max(top)) - rng.randint(1, 2))
    A = tuple(map(tuple, A))
    if cls == "affine":
        cost = Affine(A=A, b=tuple(_rat(rng) * t for t in term))
    elif cls == "spl":
        cost = SeparablePlusLinear(
            f=tuple(tuple(_rat(rng) * t for _ in range(bound + 1)) for t in term), A=A)
    elif cls == "tabulated":  # a separable-plus-linear cost, tabulated
        f = [[_rat(rng) * t for _ in range(bound + 1)] for t in term]
        hoods = tuple(tuple(s for s in range(m) if s == r or A[r][s]) for r in range(m))
        tables = tuple(
            {key: f[r][key[hood.index(r)]] + sum(A[r][s] * x for s, x in zip(hood, key))
             for key in product(range(bound + 1), repeat=len(hood))
             if variant != "missing" or rng.random() < 0.9}
            for r, hood in enumerate(hoods))
        cost = Tabulated(m=m, neighborhoods=hoods, tables=tables, max_load=bound)
    elif cls == "exponential":
        cost = Exponential(a=tuple(rng.uniform(-1, 2) for _ in range(m)),
                           phi=500.0 if variant == "overflow" else rng.choice((-0.5, 0.5, 1.0)),
                           b=tuple(rng.uniform(-1, 1) for _ in range(m)))
    elif cls == "player_specific":
        def table():
            return tuple(sorted(_rat(rng) for _ in range(rng.randint(bound, bound + 1))))

        cost = PlayerSpecificSeparable(nu=tuple(tuple(own.get(r) or table() for r in range(m))
                                                for _, own in players))
    else:
        cost = Bilevel(m=m, budget=Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    return Game(n_resources=m, players=tuple(p for p, _ in players), cost_model=cost)


def l3_beside_heavy_player(tabulated=False):
    """An L3 gadget (players g0, g1) on a separable-plus-linear cost with max_load 2, or
    on its tabulation, beside b, who plays {8} or {8, 9}, and c, of weight 2, who plays
    {9}; the players in the order g0, b, g1, c.  b's deviation to {8, 9} loads resource
    9 with 3."""
    A = ((Fraction(1), Fraction(1)), (Fraction(3), Fraction(1)))
    gadget = build_gadget(GadgetSpec(lemma="L3", base_cost=separable([[0, 1, 2]] * 2, A),
                                     point=(0, 0), resources=(0, 1)))
    g0, g1 = (Player(strategy_space=Explicit(vectors=tuple(v + (0, 0) for v in p.strategies())))
              for p in gadget.players)
    b = Player(strategy_space=Explicit(vectors=((0,) * 8 + (1, 0), (0,) * 8 + (1, 1))))
    c = Player(weight=2, strategy_space=Explicit(vectors=((0,) * 8 + (0, 1),)))
    zeros = (Fraction(0),) * 2
    cost = SeparablePlusLinear(
        f=gadget.cost_model.f + ((Fraction(0), Fraction(1), Fraction(2)),) * 2,
        A=tuple(row + zeros for row in gadget.cost_model.A)
        + ((Fraction(0),) * 8 + (Fraction(1), Fraction(0)),
           (Fraction(0),) * 8 + (Fraction(0), Fraction(1))))
    if tabulated:
        hoods = tuple(tuple(s for s in range(10) if s == r or cost.A[r][s]) for r in range(10))
        cost = Tabulated(m=10, neighborhoods=hoods, max_load=2, tables=tuple(
            {key: cost.entry(tuple(dict(zip(hood, key)).get(s, 0) for s in range(10)), r)
             for key in product(range(3), repeat=len(hood))} for r, hood in enumerate(hoods)))
    return Game(n_resources=10, players=(g0, b, g1, c), cost_model=cost)


def exponential_overflow_in_a_later_state():
    """Two components, {0, 3} and {1, 2}, under c_r = a_r e^(300 x_r): loads up to 2
    are floats, while players 0 and 3, both of weight 2, can load resource 3 with 4.
    The whole sweep meets that load before its first PNE; the component {0, 3} alone
    has a PNE among the states it sweeps first."""
    m = 5

    def player(weight, *supports):
        return Player(weight=weight, strategy_space=Explicit(
            vectors=tuple(tuple(int(r in sup) for r in range(m)) for sup in supports)))

    return Game(n_resources=m, players=(
        player(2, {2}, {2, 3}), player(1, {0}), player(1, {1}, {0}, {0, 1}),
        player(2, {4}, {3}, {3, 4})), cost_model=Exponential(
            a=(-1.0, 2.0, 2.0, 2.0, 2.0), phi=300.0, b=(0.0,) * m))


def only(game, part):
    """The game with every player outside `part` held to their first strategy."""
    return Game(n_resources=game.n_resources, cost_model=game.cost_model, players=tuple(
        p if i in part else Player(weight=p.weight, strategy_space=Explicit(
            vectors=p.strategy_space.vectors[:1])) for i, p in enumerate(game.players)))


def split_outcome(search, game):
    try:
        return search(game)
    except (LoadRangeError, OverflowError) as exc:
        return type(exc), str(exc)


class TestComponentSplit:
    SEEDS = range(600)

    def test_certificate_or_error_as_before(self):
        split = {cls: set() for cls, _ in SPLIT_KINDS}
        outcomes = {kind: set() for kind in SPLIT_KINDS}
        first_without = set()  # the place of the first part without PNE, when one has none
        for seed in self.SEEDS:
            game = split_game(seed)
            want = split_outcome(reference_brute_force, game)
            assert split_outcome(brute_force_pne, game) == want, seed
            kind = SPLIT_KINDS[seed % len(SPLIT_KINDS)]
            parts = components(game)
            if len(parts) > 1:
                split[kind[0]].add(kind[1])
                outcomes[kind].add(want[0] if isinstance(want, tuple) else type(want))
            if isinstance(want, NoPNEExists):
                first_without.add(next(k for k, part in enumerate(parts) if isinstance(
                    split_outcome(reference_brute_force, only(game, part)), NoPNEExists)))
        # every class is split-shaped in each of its forms, those that fail included
        for cls, variant in SPLIT_KINDS:
            assert variant in split[cls], (cls, variant)
        for kind in SPLIT_KINDS[:7]:
            assert PNEFound in outcomes[kind] and outcomes[kind] <= {PNEFound, NoPNEExists}, kind
        for cls in NO_PNE_CLASSES:
            assert NoPNEExists in outcomes[cls, ""], cls
        assert 0 in first_without and any(k > 0 for k in first_without)
        for kind in NOT_TOTAL:
            assert outcomes[kind] & {LoadRangeError, OverflowError}, kind

    def test_bilevel_parts_interact_through_the_argmax(self):
        # the players on {0, 1, 2} and those on {3, 4} share no resource, yet
        # swept apart they would give player 2 the strategy {2}, not {0, 1}
        m = 5

        def player(weight, *supports):
            return Player(weight=weight, strategy_space=Explicit(
                vectors=tuple(tuple(int(r in sup) for r in range(m)) for sup in supports)))

        game = Game(n_resources=m, players=(
            player(2, {2}, {0, 1, 2}), player(3, {4}), player(2, {2}, {0, 1}),
            player(2, {4}, {3})), cost_model=Bilevel(m=m, budget=Fraction(5, 2)))
        assert len(components(game)) == 1
        want = PNEFound(profile=((0, 0, 2, 0, 0), (0, 0, 0, 0, 3), (2, 2, 0, 0, 0),
                                 (0, 0, 0, 2, 0)))
        assert brute_force_pne(game) == reference_brute_force(game) == want

    def test_fails_where_the_heavy_player_overloads_a_resource(self):
        game = l3_beside_heavy_player()
        assert len(components(game)) == 2
        want = (LoadRangeError, "load 3 outside 0..2")
        assert split_outcome(reference_brute_force, game) == want
        assert split_outcome(brute_force_pne, game) == want
        game = l3_beside_heavy_player(tabulated=True)
        want = split_outcome(reference_brute_force, game)
        assert want[0] is LoadRangeError and want[1].endswith("outside 0..2")
        assert split_outcome(brute_force_pne, game) == want

    def test_overflows_where_a_later_state_overflows(self):
        game = exponential_overflow_in_a_later_state()
        assert len(components(game)) == 2
        want = (LoadRangeError, "exponential cost of resource 3 overflows a float at load 4")
        assert split_outcome(reference_brute_force, game) == want
        assert split_outcome(brute_force_pne, game) == want

    def test_sweeps_each_component_alone(self, monkeypatch):
        yielded = []
        sweep = dynamics._sweep

        def counting(game, spaces):
            for row in sweep(game, spaces):
                yielded.append(row)
                yield row

        monkeypatch.setattr(dynamics, "_sweep", counting)

        def assert_swept_whole(game, want, seed):
            profiles = list(product(*[p.strategies() for p in game.players]))
            yielded.clear()
            assert brute_force_pne(game) == want, seed
            assert len(yielded) == (profiles.index(want.profile) + 1
                                    if isinstance(want, PNEFound) else len(profiles)), seed
        totals = set()
        for seed in range(20):
            game = _gadget_beside(random.Random(seed))
            total = len(list(product(*[p.strategies() for p in game.players])))
            totals.add(total)
            yielded.clear()
            assert brute_force_pne(game) == NoPNEExists(profiles_checked=total), seed
            assert len(yielded) == 4, seed
        assert max(totals) > 4
        connected = 0
        for seed in TestSweepMatchesReference.SEEDS:
            game = sweep_game(seed)
            want = outcome(reference_brute_force, game)
            if len(components(game)) > 1 or isinstance(want, tuple):
                continue
            assert_swept_whole(game, want, seed)
            connected += 1
        assert connected > 100
        # a split-shaped game under any cost but Affine is swept whole
        shaped = 0
        for seed in self.SEEDS:
            game = split_game(seed)
            want = split_outcome(reference_brute_force, game)
            if isinstance(game.cost_model, Affine) or isinstance(want, tuple):
                continue
            assert_swept_whole(game, want, seed)
            shaped += len(components(game)) > 1
        assert shaped > 100


# --- the pruned search against a frozen copy of the full scan ---------------------------


def frozen_scan(game, profile):
    """verify_pne as it was before the pruned search: every deviation priced in order."""
    loads = load_of(game, profile)
    validate_profile(game, profile)
    for i, p in enumerate(game.players):
        price = number_pricer(game, profile, i, loads)
        cur = price(profile[i])
        for y in p.strategies():
            if y != profile[i]:
                alt = price(y)
                if alt < cur:
                    return NotPNE(player=i, deviation=y, delta=alt - cur)
    return IsPNE()


def frozen_best_response(game, profile, i):
    """best_response as it was before the pruned search: the first strict minimum."""
    price = number_pricer(game, profile, i)
    cur = price(profile[i])
    best, best_cost = profile[i], cur
    for y in game.players[i].strategies():
        if y != profile[i]:
            cost = price(y)
            if cost < best_cost:
                best, best_cost = y, cost
    return best, best_cost - cur


@st.composite
def pruned_games(draw):
    """A kernel game whose spaces mostly hold more than 2m strategies: SPL (integer and
    half weights, tables that may stop below the loads the players reach) or Affine
    (integer and Fraction weights); negative and tied coefficients; explicit, uniform
    and partition spaces."""
    m = draw(st.integers(3, 6), label="m")
    n = draw(st.integers(1, 3), label="n")
    ratio = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 2)))
    A = tuple(tuple(draw(st.lists(ratio, min_size=m, max_size=m))) for _ in range(m))
    if draw(st.booleans(), label="affine"):
        cost = Affine(A=A, b=tuple(draw(st.lists(ratio, min_size=m, max_size=m))))
        weights = st.sampled_from((1, 2, Fraction(2), Fraction(1, 2), Fraction(5, 3)))
    else:
        top = draw(st.integers(1, 2 * n + 1), label="max_load")
        f = tuple(tuple(draw(st.lists(ratio, min_size=top + 1, max_size=top + 1)))
                  for _ in range(m))
        cost = SeparablePlusLinear(f=f, A=A)
        weights = st.sampled_from((1, 1, 2, Fraction(1, 2)))
    vectors = list(product((0, 1), repeat=m))
    players = []
    for _ in range(n):
        kind = draw(st.sampled_from(("explicit", "explicit", "uniform", "partition")))
        if kind == "explicit":
            size = draw(st.integers(2 * m - 2, len(vectors)), label="size")
            space = Explicit(vectors=tuple(draw(st.permutations(vectors))[:size]))
        elif kind == "uniform":
            space = Uniform(m, draw(st.integers(2, m - 1), label="k"))
        else:
            cut = draw(st.integers(1, m - 1), label="cut")
            blocks = (tuple(range(cut)), tuple(range(cut, m)))
            space = Partition(m, blocks, tuple(draw(st.integers(0, len(b))) for b in blocks))
        players.append(Player(weight=draw(weights), strategy_space=space))
    game = Game(n_resources=m, players=tuple(players), cost_model=cost)
    profile = tuple(draw(st.sampled_from(p.strategies())) for p in game.players)
    return game, profile


class TestPrunedSearch:
    """verify_pne, best_response and brute_force_pne give the frozen full scan's answer,
    deviation, delta and error, with the trie walk where it applies."""

    @seed(20)
    @settings(max_examples=250, deadline=None)
    @given(pruned_games())
    def test_matches_the_frozen_full_scan(self, drawn):
        game, profile = drawn
        assert (outcome(verify_pne, game, profile=profile)
                == outcome(frozen_scan, game, profile=profile))
        for i in range(game.n_players):
            assert (outcome(best_response, game, profile=profile, i=i)
                    == outcome(frozen_best_response, game, profile=profile, i=i)), i
        if len(list(product(*(p.strategies() for p in game.players)))) <= 4000:
            assert (outcome(brute_force_pne, game)
                    == outcome(reference_brute_force, game))

    @pytest.mark.parametrize("space", [Uniform(6, 3), Uniform(6, 1)], ids=["walk", "scan"])
    def test_one_fraction_per_reported_delta(self, space, monkeypatch):
        """Prices are ints over D = 2: verify_pne builds a Fraction for a NotPNE's delta
        and for nothing else, on the trie walk (20 > 2m strategies) and on the scan."""
        m = 6
        cost = SeparablePlusLinear(
            f=tuple(tuple(Fraction(k * (r + 1), 2) for k in range(4)) for r in range(m)),
            A=tuple(tuple(Fraction(int(abs(r - s) == 1)) for s in range(m)) for r in range(m)))
        game = Game(n_resources=m, players=(Player(strategy_space=space),) * 2, cost_model=cost)
        assert cost.kernel[0] == 2
        profiles = list(product(*(p.strategies() for p in game.players)))
        verify_pne(game, profiles[0])  # builds the kernel, the pair table and the trie
        built = []
        new = Fraction.__new__

        def counted(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counted)
        certificates = []
        for profile in profiles:
            built.clear()
            certificates.append(verify_pne(game, profile))
            assert len(built) == isinstance(certificates[-1], NotPNE), profile
        monkeypatch.undo()
        assert IsPNE() in certificates and any(isinstance(c, NotPNE) for c in certificates)
        assert certificates == [frozen_scan(game, profile) for profile in profiles]

    def test_walks_the_trie_of_a_reduced_sat_game(self, monkeypatch):
        """On sat6.cnf's game the cost-0 profile is certified at the root; the cost-2
        profile's first improving deviation, strategy 408 of 729, is reached through
        fewer than 408 nodes, and the best response is the frozen one."""
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
        with open(os.path.join(golden, "sat6.cnf")) as fh:
            game = reduce_sat(parse_dimacs(fh.read()))
        space = game.players[0].strategies()
        visits = []
        node = Trie.node
        monkeypatch.setattr(Trie, "node", lambda self, *key: visits.append(key) or node(self, *key))
        pne, not_pne = space[408], (space[38],)
        assert verify_pne(game, (pne,)) == IsPNE()
        assert visits == [(0, 729, 0)]
        visits.clear()
        assert verify_pne(game, not_pne) == frozen_scan(game, not_pne) == NotPNE(0, pne, -2)
        assert 0 < len(visits) < 408
        assert best_response(game, not_pne, 0) == frozen_best_response(game, not_pne, 0)

    def test_ties_keep_the_incumbent_then_the_first(self):
        cost = Affine(A=((Fraction(0),) * 4,) * 4, b=tuple(map(Fraction, (1, 0, 0, 1))))
        space = Explicit(vectors=tuple(product((0, 1), repeat=4)))  # 16 > 2m: walked
        game = Game(n_resources=4, players=(Player(strategy_space=space),), cost_model=cost)
        assert best_response(game, ((0, 1, 1, 0),), 0) == ((0, 1, 1, 0), 0)
        # from (1, 0, 0, 1) at cost 2, four strategies cost 0; (0, 0, 0, 0) comes first
        worst = ((1, 0, 0, 1),)
        assert best_response(game, worst, 0) == ((0, 0, 0, 0), -2)
        assert best_response(game, worst, 0) == frozen_best_response(game, worst, 0)

    def test_short_table_raises_as_the_full_scan(self):
        """A table one load short for the player's weight: the walk gives way to the scan,
        which raises at the first deviation that reads past it."""
        spl = SeparablePlusLinear(f=(tuple(Fraction(k) for k in range(3)),) * 3,
                                  A=((Fraction(-1),) * 3,) * 3)
        space = Explicit(vectors=tuple(product((0, 1), repeat=3)))
        game = Game(n_resources=3, players=(Player(weight=2, strategy_space=space),
                                            Player(weight=1, strategy_space=space)),
                    cost_model=spl)
        profile = ((0, 0, 0), (0, 0, 1))
        message = "load 3 outside 0..2"
        for run in (lambda: verify_pne(game, profile), lambda: frozen_scan(game, profile),
                    lambda: best_response(game, profile, 0),
                    lambda: frozen_best_response(game, profile, 0)):
            with pytest.raises(LoadRangeError, match=message):
                run()


# --- prices: every strategy of one player, against the list priced one by one -------


def listed(game, i, base):
    """prices as the list of each strategy priced on its own by the model's pricer."""
    player = game.players[i]
    scale, price = game.cost_model.pricer(base, i, player.weight)
    return scale, [price(y) for y in player.strategies()]


PRICES_KINDS = ("spl", "affine", "tabulated", "exponential")


def prices_case(seed):
    """(game, i, base): a seeded game of kind PRICES_KINDS[seed % 4] with one to three
    players of integer or fractional weight, and a base of integral, fractional,
    negative or past-the-table loads."""
    rng = random.Random(seed)
    kind = PRICES_KINDS[seed % len(PRICES_KINDS)]
    m, top = rng.randint(2, 5), rng.randint(1, 4)
    if kind == "spl":
        cost = SeparablePlusLinear(
            f=tuple(tuple(_rat(rng) for _ in range(top + 1)) for _ in range(m)),
            A=tuple(tuple(_rat(rng) for _ in range(m)) for _ in range(m)))
    elif kind == "affine":
        cost = Affine(A=tuple(tuple(_rat(rng) for _ in range(m)) for _ in range(m)),
                      b=tuple(_rat(rng) for _ in range(m)))
    elif kind == "tabulated":
        hoods = tuple(tuple(s for s in range(m) if s == r or rng.random() < 0.4)
                      for r in range(m))
        tables = tuple({key: _rat(rng) for key in product(range(top + 1), repeat=len(hood))
                        if rng.random() < 0.9} for hood in hoods)
        cost = Tabulated(m=m, neighborhoods=hoods, tables=tables, max_load=top)
    else:
        cost = Exponential(a=tuple(rng.choice((0.0, rng.uniform(-1, 2))) for _ in range(m)),
                           phi=rng.choice((0.5, 1.5, 400.0)),
                           b=tuple(rng.uniform(-1, 1) for _ in range(m)))
    spaces = (lambda: _explicit(rng, m, most=2 ** m), lambda: Uniform(m, rng.randint(1, m)),
              lambda: Partition(m, (tuple(range(m // 2)), tuple(range(m // 2, m))),
                                (rng.randint(0, m // 2), rng.randint(0, m - m // 2))))
    players = tuple(
        Player(weight=rng.choice((1, 1, 2, Fraction(1, 2), Fraction(3, 2))),
               strategy_space=rng.choice(spaces)())
        for _ in range(rng.randint(1, 3)))
    game = Game(n_resources=m, players=players, cost_model=cost)
    loads = (lambda: rng.randint(0, top), lambda: rng.randint(0, top),
             lambda: rng.randint(top, top + 2), lambda: -1, lambda: Fraction(rng.randint(0, 5), 2))
    base = tuple(rng.choice(loads)() for _ in range(m))
    return game, rng.randrange(len(players)), base


class TestPrices:
    """prices equals the list of every strategy priced on its own, value for value and
    error for error, on both of its paths."""

    def test_matches_the_list(self):
        seen = set()
        for seed in range(400):
            game, i, base = prices_case(seed)
            got = outcome(lambda game: dynamics.prices(game, i, base), game)
            assert got == outcome(lambda game: listed(game, i, base), game), seed
            bound = game.cost_model.bound(base, game.players[i].weight)
            seen.add((type(game.cost_model).__name__, bound is not None, type(got[0]) is type))
        # each kernel model took the one pass; every model raised somewhere but Affine
        assert {("SeparablePlusLinear", True, False), ("Affine", True, False),
                ("SeparablePlusLinear", False, True), ("Tabulated", False, True),
                ("Exponential", False, True)} <= seen

    def test_spl_base_at_and_past_the_table(self):
        spl = separable([[0, 1, 3, 6]] * 3, A=tuple(
            tuple(Fraction(r - s, 2) for s in range(3)) for r in range(3)))  # max_load 3
        full = make_game(spl, [tuple(v for v in product((0, 1), repeat=3) if any(v))])
        avoid = make_game(spl, [((0, 0, 1), (0, 1, 0), (0, 1, 1))])
        for game, base in ((full, (2, 2, 2)), (full, (3, 0, 1)), (full, (0, 0, 4)),
                           (avoid, (4, 1, 2))):
            assert (outcome(lambda game: dynamics.prices(game, 0, base), game)
                    == outcome(lambda game: listed(game, 0, base), game)), base
        assert spl.bound((2, 2, 2), 1) is not None and spl.bound((3, 0, 1), 1) is None
        with pytest.raises(LoadRangeError, match="load 4 outside 0..3"):
            dynamics.prices(full, 0, (3, 0, 1))
        assert dynamics.prices(avoid, 0, (4, 1, 2))[1] == listed(avoid, 0, (4, 1, 2))[1]

    def test_negative_base_keeps_the_list(self):
        """A base of -2 takes a load of weight 1 below 0: there is no bound, and the
        list raises where a strategy reads that load."""
        spl = separable([[0, 1, 2]] * 2)
        game = make_game(spl, [((0, 1), (1, 0))])
        assert spl.bound((-2, 0), 1) is None
        with pytest.raises(LoadRangeError, match="load -1 outside 0..2"):
            dynamics.prices(game, 0, (-2, 0))

    def test_one_pass_prices_no_strategy_on_its_own(self, monkeypatch):
        """On sat6.cnf's game the pricer gives the scale and prices nothing."""
        golden = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
        with open(os.path.join(golden, "sat6.cnf")) as fh:
            game = reduce_sat(parse_dimacs(fh.read()))
        base = (0,) * game.n_resources
        expected = listed(game, 0, base)
        priced = []
        pricer = SeparablePlusLinear.pricer

        def counting(self, *args):
            scale, price = pricer(self, *args)
            return scale, lambda y: priced.append(y) or price(y)

        monkeypatch.setattr(SeparablePlusLinear, "pricer", counting)
        assert dynamics.prices(game, 0, base) == expected
        assert priced == [] and len(expected[1]) == 729
