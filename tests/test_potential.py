import math
import random
from collections import Counter
from fractions import Fraction
from itertools import permutations, product

import pytest

from rggames import costs
from rggames.core import (
    Explicit,
    Game,
    Player,
    deviate,
    load_of,
    pricer,
    private_cost,
)
from rggames.costs import Affine, Bilevel, Exponential, SeparablePlusLinear
from rggames.errors import CapacityError, LoadRangeError, UsageError
from rggames.matroid import Uniform
from rggames.potential import (
    PotentialCheck,
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

    def test_potential_off_by_half_a_price_unit_fails(self):
        # D = 2, so every price is a multiple of 1/2; P is off by 1/(2D) = 1/4 at one
        # profile, which a check that rounded dP to the pricer's units would pass
        cost = SeparablePlusLinear(
            f=(tuple(Fraction(k, 2) for k in range(4)),
               tuple(Fraction(3 * k, 2) for k in range(4))),
            A=((Fraction(1, 2), Fraction(1)), (Fraction(1), Fraction(0))),
        )
        game = make_game(cost, [((1, 0), (0, 1), (1, 1))] * 2)
        assert cost.kernel[0] == 2
        off = ((0, 1), (1, 1))

        def P(x):
            return potential_unweighted(game, x) + (Fraction(1, 4) if x == off else 0)

        assert check_exact_potential(game, lambda x: potential_unweighted(game, x)).ok
        result = check_exact_potential(game, P)
        assert not result.ok and result.witness == reference_check(game, P)
        assert off in (result.witness[0], deviate(*result.witness))

    def test_basis_limit_names_the_player(self):
        # C(30, 15) bases exceed the limit, which raises before any basis is built
        explicit = Player(strategy_space=Explicit(vectors=((1,) + (0,) * 29,)))
        wide = Player(strategy_space=Uniform(30, 15))
        game = Game(n_resources=30, players=(explicit, wide),
                    cost_model=Bilevel(m=30, budget=Fraction(1)))
        with pytest.raises(CapacityError, match="^player 1: more than 1000000 bases$"):
            check_exact_potential(game, lambda x: 0)

    def test_potential_evaluated_once_per_profile(self):
        # two players on the 10 bases of Uniform(5, 2): 100 profiles, 1,900 deviations
        m = 5
        cost = SeparablePlusLinear(
            f=tuple(tuple(Fraction(k * (r + 1)) for k in range(4)) for r in range(m)),
            A=tuple(tuple(Fraction(1 if r + s == m - 1 else 0) for s in range(m))
                    for r in range(m)),
        )
        space = Uniform(m, 2)
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

    def test_symmetry_of_A_checked_once_per_model(self, monkeypatch):
        # 100 profiles of Uniform(5, 2) for two players: one comparison of A per model
        m = 5
        A = tuple(tuple(Fraction(1 if r + s == m - 1 else 0) for s in range(m)) for r in range(m))
        spl = SeparablePlusLinear(f=tuple(tuple(Fraction(k) for k in range(4)) for _ in range(m)),
                                  A=A)
        affine = Affine(A=A, b=tuple(Fraction(r) for r in range(m)))
        checked, first_asymmetry = [], costs.first_asymmetry

        def counted(A):
            checked.append(A)
            return first_asymmetry(A)

        monkeypatch.setattr(costs, "first_asymmetry", counted)
        for cost, potential in ((spl, potential_unweighted), (affine, potential_weighted_affine)):
            game = Game(n_resources=m, players=(Player(strategy_space=Uniform(m, 2)),) * 2,
                        cost_model=cost)
            assert check_exact_potential(game, lambda x: potential(game, x)).ok
        assert checked == [A, A]

    def test_each_price_once_and_each_pair_from_its_lower_end(self, monkeypatch):
        # the game above: 2 players x 10 others' profiles, 10 prices each, 900 pairs
        m = 5
        cost = SeparablePlusLinear(
            f=tuple(tuple(Fraction(k * (r + 1)) for k in range(4)) for r in range(m)),
            A=tuple(tuple(Fraction(1 if r + s == m - 1 else 0) for s in range(m))
                    for r in range(m)),
        )
        space = Uniform(m, 2)
        game = Game(n_resources=m, players=(Player(strategy_space=space),) * 2, cost_model=cost)
        profiles = list(product(*(p.strategies() for p in game.players)))
        exact = {x: potential_unweighted(game, x) for x in profiles}  # before any count
        pairs, calls, built, priced = [], Counter(), [], []

        class Tagged(Fraction):
            """P's value at profiles[at]; records each difference taken between two."""

            def __sub__(self, other):
                pairs.append((other.at, self.at))
                return Fraction.__sub__(self, other)

        def P(x):
            calls[x] += 1
            value = Tagged(exact[x])
            value.at = profiles.index(x)
            return value

        original = SeparablePlusLinear.pricer

        def counted_pricer(model, base, player=None, weight=1):
            built.append(base)
            scale, price = original(model, base, player, weight)

            def counted(y):
                priced.append(y)
                return price(y)

            return scale, counted

        monkeypatch.setattr(SeparablePlusLinear, "pricer", counted_pricer)
        assert check_exact_potential(game, P).ok
        assert len(built) == 20 and len(priced) == 200
        assert len(calls) == sum(calls.values()) == 100
        unilateral = {(profiles.index(x), profiles.index(deviate(x, i, y)))
                      for x in profiles for i in range(2) for y in game.players[i].strategies()
                      if y != x[i]}
        assert len(pairs) == 900
        assert set(pairs) == {(a, b) for a, b in unilateral if a < b}

    def test_a_witness_before_a_raising_price_is_returned(self):
        # player 0's last strategy takes resource 0 to load 2, past f; P is off at k = 1
        cost = SeparablePlusLinear(f=((Fraction(0), Fraction(1)),) * 3,
                                   A=((Fraction(0),) * 3,) * 3)
        game = make_game(cost, [((0, 0, 1), (0, 1, 0), (1, 0, 0)), ((1, 0, 0),)])
        first = ((0, 0, 1), (1, 0, 0))
        off = ((0, 1, 0), (1, 0, 0))
        assert game.players[0].strategies()[-1] == (1, 0, 0)

        def P(x):
            return potential_unweighted(game, x) + (x == off)

        with pytest.raises(LoadRangeError):
            pricer(game, first, 0)[1]((1, 0, 0))
        result = check_exact_potential(game, P)
        assert result == PotentialCheck(False, (first, 0, (0, 1, 0))) == frozen_check(game, P)


# --- the profile sweep against a frozen copy of the product loop -------------


def frozen_check(game, P, tol=0.0):
    """check_exact_potential as it was: a product loop, load_of per profile, and P
    kept by profile."""
    spaces = [p.strategies() for p in game.players]
    values = {}

    def value(x):
        if x not in values:
            values[x] = P(x)
        return values[x]

    for choices in product(*spaces):
        x = tuple(choices)
        px = value(x)
        loads = load_of(game, x)
        for i in range(game.n_players):
            scale, raw = pricer(game, x, i, loads)

            def price(y):
                p = raw(y)  # over the stated scale when an int
                return Fraction(p, scale) if isinstance(p, int) else p

            pi_x = price(x[i])
            for y in spaces[i]:
                if y == x[i]:
                    continue
                pi_y = price(y)
                diff = (value(deviate(x, i, y)) - px) - (pi_y - pi_x)
                if (abs(diff) > tol) if tol else (diff != 0):
                    return PotentialCheck(False, (x, i, y))
    return PotentialCheck(True, None)


POTENTIAL_KINDS = ("spl", "affine_weighted", "affine_asym", "exponential", "short_spl",
                   "matroid")


def _symmetric(rng, m, dens):
    A = [[Fraction(0)] * m for _ in range(m)]
    for r in range(m):
        for s in range(r, m):
            A[r][s] = A[s][r] = Fraction(rng.randint(-3, 4), rng.choice(dens))
    return tuple(map(tuple, A))


def rosenthal(game, x):
    """sum_r sum_{k <= x_r} c_r(k) for a separable exponential model (unit weights)."""
    model = game.cost_model
    return sum(model.entry(tuple(k if s == r else 0 for s in range(game.n_resources)), r)
               for r, xr in enumerate(load_of(game, x)) for k in range(1, int(xr) + 1))


def potential_case(seed):
    """(kind, game, exact P): a small seeded game whose P is an exact potential
    except for affine_asym (a symmetrized proxy) and short_spl (tables too short)."""
    rng = random.Random(seed)
    kind = POTENTIAL_KINDS[seed % len(POTENTIAL_KINDS)]
    m, n = rng.randint(1, 4), rng.randint(1, 3)
    vectors = [v for v in product((0, 1), repeat=m) if any(v)]
    spaces = [Explicit(vectors=tuple(rng.sample(vectors, rng.randint(1, min(4, len(vectors))))))
              for _ in range(n)]
    weights = [1] * n
    if kind == "matroid":
        m = rng.randint(2, 4)
        spaces = [Uniform(m, rng.randint(1, m)) for _ in range(n)]
    if kind in ("spl", "short_spl", "matroid"):
        top = n if kind != "short_spl" else n - rng.randint(1, 2)
        f = tuple(tuple(Fraction(rng.randint(-4, 6), rng.choice((1, 2))) for _ in range(top + 1))
                  for _ in range(m))
        cost = SeparablePlusLinear(f=f, A=_symmetric(rng, m, (1, 2)))
        game = make_game_spaces(cost, spaces, weights)
        return kind, game, lambda x: potential_unweighted(game, x)
    if kind == "exponential":
        cost = Exponential(a=tuple(rng.uniform(0.1, 2) for _ in range(m)), phi=0.75,
                           b=tuple(rng.uniform(-1, 1) for _ in range(m)))
        game = make_game_spaces(cost, spaces, weights)
        return kind, game, lambda x: rosenthal(game, x)
    weights = [rng.choice((1, 2, Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5, 3)))
               for _ in range(n)]
    sym = Affine(A=_symmetric(rng, m, (1, 2, 3)),
                 b=tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(m)))
    proxy = make_game_spaces(sym, spaces, weights)
    if kind == "affine_asym":
        A = [list(row) for row in sym.A]
        r, s = rng.randrange(m), rng.randrange(m)
        A[r][s] += 1
        game = make_game_spaces(Affine(A=tuple(map(tuple, A)), b=sym.b), spaces, weights)
    else:
        game = proxy
    return kind, game, lambda x: potential_weighted_affine(proxy, x)


def make_game_spaces(cost, spaces, weights):
    players = tuple(Player(weight=w, strategy_space=sp) for w, sp in zip(weights, spaces))
    return Game(n_resources=cost.m, players=players, cost_model=cost)


def recorded(check, game, P, **kwargs):
    """(result or (error type, message), the profiles P was called at, in order)."""
    calls = []

    def counted(x):
        calls.append(x)
        return P(x)

    try:
        result = check(game, counted, **kwargs)
    except Exception as exc:  # the error itself is what is compared
        result = type(exc), str(exc)
    return result, calls


class TestSweepMatchesFrozenCheck:
    SEEDS = range(360)

    def candidates(self, seed, game, P):
        profiles = list(product(*(p.strategies() for p in game.players)))
        late = profiles[random.Random(seed).randrange(len(profiles))]
        return {
            "exact": P,
            "zero": lambda x: 0,
            "late mismatch": lambda x: P(x) + (x == late),
            "raises late": lambda x: P(x) if x != late else math.log(-1),
        }

    def test_result_witness_error_and_calls_as_before(self):
        seen = Counter()
        for seed in self.SEEDS:
            kind, game, P = potential_case(seed)
            tols = (0.0, 1e-9) if kind == "exponential" else (0.0,)
            for name, cand in self.candidates(seed, game, P).items():
                for tol in tols:
                    want = recorded(frozen_check, game, cand, tol=tol)
                    assert recorded(check_exact_potential, game, cand, tol=tol) == want, (
                        seed, name, tol)
                    result = want[0]
                    seen[kind, name, tol, result[0] if isinstance(result[0], type)
                         else result.ok] += 1
        for kind in ("spl", "affine_weighted", "matroid"):
            assert seen[kind, "exact", 0.0, True] and seen[kind, "late mismatch", 0.0, False]
            assert seen[kind, "raises late", 0.0, ValueError]
        assert seen["affine_asym", "exact", 0.0, False]
        assert seen["exponential", "exact", 1e-9, True]
        assert seen["short_spl", "exact", 0.0, LoadRangeError]  # P itself reads past f, too
        assert seen["short_spl", "zero", 0.0, LoadRangeError]

    def test_integral_fraction_weights_price_and_potential_in_int(self, monkeypatch):
        """Weights such as Fraction(3) reach the kernel as ints: every vector handed to
        _times, and every y handed to _quadratic, holds ints only; the potential prices
        through the same kernel."""
        seen = []

        def int_only(f, name, arg):
            def checked(*args):
                values = args[arg]
                assert all(type(v) is int for v in values), (name, values)
                seen.append(name)
                return f(*args)

            return checked

        monkeypatch.setattr(costs, "_times", int_only(costs._times, "_times", 1))
        monkeypatch.setattr(costs, "_quadratic", int_only(costs._quadratic, "_quadratic", 2))
        A = ((Fraction(2), Fraction(1, 2)), (Fraction(1, 2), Fraction(1)))
        cost = Affine(A=A, b=(Fraction(1), Fraction(-1, 3)))
        spaces = [((1, 0), (0, 1), (1, 1))] * 3
        game = make_game(cost, spaces, weights=[Fraction(3), Fraction(2), 1])
        result = check_exact_potential(game, lambda x: potential_weighted_affine(game, x))
        assert result.ok and {"_times", "_quadratic"} <= set(seen)
        for x in product(*(p.strategies() for p in game.players)):
            assert potential_weighted_affine(game, x) == sequential_sum(game, x)
            for i in range(game.n_players):
                assert private_cost(game, x, i) == reference_private_cost(game, x, i)


def reference_private_cost(game, profile, i):
    """x_i^T (A load + b), entry by entry in Fractions."""
    model, loads = game.cost_model, load_of(game, profile)
    return sum(e * (model.b[r] + sum(model.A[r][s] * loads[s] for s in range(len(loads))))
               for r, e in enumerate(profile[i]) if e)


# --- the sequential potential against a frozen copy of the two closed forms --


def frozen_unweighted(game, profile):
    """potential_unweighted as it was: sum_r sum_{k<=x_r} f_r(k) + 1/2 x^T A x
    + 1/2 sum_i x_i^T A x_i, in Fractions."""
    model = game.cost_model
    if not isinstance(model, SeparablePlusLinear):
        raise UsageError("unweighted potential needs a separable-plus-linear cost model")
    if not game.unweighted:
        raise UsageError("unweighted potential requires unit weights")
    frozen_symmetric(model.A)
    loads = load_of(game, profile)

    def quad(u, v):
        return sum(u[r] * model.A[r][s] * v[s] for r in range(len(u)) for s in range(len(v)))

    total = Fraction(0)
    for r, xr in enumerate(loads):
        for k in range(1, int(xr) + 1):
            total += model.f[r][k]
    total += Fraction(1, 2) * quad(loads, loads)
    for v in profile:
        total += Fraction(1, 2) * quad(v, v)
    return total


def frozen_weighted(game, profile):
    """potential_weighted_affine as it was: sum_i x_i^T (A x_{<=i} + b), in Fractions."""
    model = game.cost_model
    if not isinstance(model, Affine):
        raise UsageError("weighted potential needs an affine cost model")
    frozen_symmetric(model.A)
    prefix = [0] * game.n_resources
    total = Fraction(0)
    for v in profile:
        for r, e in enumerate(v):
            prefix[r] += e
        for r, e in enumerate(v):
            total += e * (model.b[r] + sum(model.A[r][s] * prefix[s] for s in range(len(v))))
    return total


def frozen_symmetric(A):
    for r in range(len(A)):
        for s in range(r + 1, len(A)):
            if A[r][s] != A[s][r]:
                raise UsageError(f"interaction matrix is asymmetric at ({r},{s})")


def closed_form_case(rng):
    """A small game on SPL (unit weights, f long enough for n players) or Affine
    (rational weights) costs, with negative entries; A is asymmetric one time in six
    and an SPL player has weight 2 one time in eight."""
    m, n = rng.randint(1, 4), rng.randint(0, 4)
    vectors = list(product((0, 1), repeat=m))
    spaces = [Explicit(vectors=tuple(rng.sample(vectors, rng.randint(1, min(3, len(vectors))))))
              for _ in range(n)]
    A = [list(row) for row in _symmetric(rng, m, (1, 2, 3))]
    if m > 1 and rng.random() < 1 / 6:
        r, s = rng.sample(range(m), 2)
        A[r][s] += 1
    A = tuple(map(tuple, A))
    if rng.random() < 0.5:
        f = tuple(tuple(Fraction(rng.randint(-4, 6), rng.choice((1, 2, 3))) for _ in range(n + 1))
                  for _ in range(m))
        weights = [1] * n
        if n and rng.random() < 1 / 8:
            weights[rng.randrange(n)] = 2
        cost = SeparablePlusLinear(f=f, A=A)
    else:
        weights = [rng.choice((1, 2, Fraction(3), Fraction(1, 2), Fraction(5, 3), Fraction(1, 4)))
                   for _ in range(n)]
        cost = Affine(A=A, b=tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                                   for _ in range(m)))
    return make_game_spaces(cost, spaces, weights)


def outcome(P, game, x):
    """P's value, or the type and message of the error it raised."""
    try:
        return P(game, x)
    except (UsageError, LoadRangeError) as exc:
        return type(exc), str(exc)


class TestSequentialMatchesClosedForms:
    def test_values_and_gate_errors_as_before(self):
        rng = random.Random(16)
        seen = Counter()
        for _ in range(600):
            game = closed_form_case(rng)
            for x in product(*(p.strategies() for p in game.players)):
                for P, frozen in ((potential_unweighted, frozen_unweighted),
                                  (potential_weighted_affine, frozen_weighted)):
                    want = outcome(frozen, game, x)
                    got = outcome(P, game, x)
                    assert got == want and type(got) is type(want), (game, x)
                    if isinstance(want, tuple):
                        seen[P.__name__, want[1].split(" at ")[0]] += 1
                    else:
                        seen[P.__name__, "value"] += 1
                        seen["m = 1"] += game.n_resources == 1
                        seen["n = 0"] += game.n_players == 0
                        seen["negative"] += want < 0
        for name in ("potential_unweighted", "potential_weighted_affine"):
            assert seen[name, "value"] > 1000
            assert seen[name, "interaction matrix is asymmetric"]
        assert seen["potential_unweighted",
                    "unweighted potential needs a separable-plus-linear cost model"]
        assert seen["potential_unweighted", "unweighted potential requires unit weights"]
        assert seen["potential_weighted_affine", "weighted potential needs an affine cost model"]
        assert seen["m = 1"] and seen["n = 0"] and seen["negative"]
