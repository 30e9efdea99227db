import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from rggames.core import Game, MatroidBases, Player
from rggames.costs import Bilevel, PlayerSpecificSeparable, Tabulated, as_tabulated
from rggames.dynamics import IsPNE, verify_pne
from rggames.errors import CapacityError, StructureError
from rggames.matroid import (
    ExchangeStep,
    Graphic,
    Partition,
    Uniform,
    check_local_monotonicity,
    enumerate_bases,
    exchange_decompose,
    greedy_best_response,
    group_types,
    is_basis,
    is_independent,
    nu_identity,
    rank,
    solve_via_theorem3,
)

TRIANGLE = Graphic(n_vertices=3, edges=((0, 1), (1, 2), (0, 2)))
FOUR_CYCLE = Graphic(n_vertices=4, edges=((0, 1), (1, 2), (2, 3), (3, 0)))


class TestBasisOracle:
    def test_uniform(self):
        assert is_basis(Uniform(3, 2), (1, 1, 0))
        assert not is_basis(Uniform(3, 2), (1, 1, 1))

    def test_partition_quota(self):
        desc = Partition(m=3, blocks=((0, 1), (2,)), quotas=(1, 1))
        assert is_basis(desc, (1, 0, 1))
        assert not is_basis(desc, (1, 1, 0))

    def test_graphic_spanning_tree(self):
        assert is_basis(TRIANGLE, (1, 1, 0))
        assert not is_basis(FOUR_CYCLE, (1, 1, 1, 1))

    def test_rank(self):
        assert rank(Uniform(5, 2)) == 2
        assert rank(Partition(m=4, blocks=((0, 1), (2, 3)), quotas=(1, 2))) == 3
        assert rank(FOUR_CYCLE) == 3


class TestEnumeration:
    def test_uniform_rank_one(self):
        assert len(enumerate_bases(Uniform(3, 1))) == 3

    def test_partition_full_quotas_single_basis(self):
        desc = Partition(m=3, blocks=((0, 1), (2,)), quotas=(2, 1))
        assert enumerate_bases(desc) == ((1, 1, 1),)

    def test_triangle_has_three_trees(self):
        assert len(enumerate_bases(TRIANGLE)) == 3

    def test_output_is_sorted_and_all_bases(self):
        for desc in (Uniform(4, 2), FOUR_CYCLE):
            bases = enumerate_bases(desc)
            assert list(bases) == sorted(bases)
            assert all(is_basis(desc, v) for v in bases)

    @pytest.mark.parametrize("desc", [
        Uniform(5, 2),
        Partition(m=6, blocks=((4, 0, 2), (1, 5)), quotas=(2, 1)),
        FOUR_CYCLE,
    ])
    def test_cap_boundary(self, desc):
        n = len(enumerate_bases(desc))
        assert len(enumerate_bases(desc, cap=n)) == n
        with pytest.raises(CapacityError, match=f"more than {n - 1} bases"):
            enumerate_bases(desc, cap=n - 1)


def reference_bases(desc):
    """The partition enumeration as it was: filter every rank-sized subset of the blocks."""
    ground = [e for block in desc.blocks for e in block]
    out = []
    for combo in combinations(sorted(ground), rank(desc)):
        supp = frozenset(combo)
        if is_independent(desc, supp):
            out.append(tuple(1 if r in supp else 0 for r in range(desc.m)))
    return tuple(sorted(out))


def random_partition(rng):
    """Shuffled (so unsorted) blocks, possibly empty, quotas from 0 up; leftovers lie in no block."""
    m = rng.randint(0, 9)
    free = rng.sample(range(m), m)
    blocks = []
    while rng.random() < 0.8:
        size = rng.randint(0, min(4, len(free)))
        blocks.append(tuple(free[:size]))
        free = free[size:]
    quotas = tuple(rng.randint(0, len(block)) for block in blocks)
    return Partition(m=m, blocks=tuple(blocks), quotas=quotas)


class TestPartitionEnumeration:
    def test_matches_reference_filter(self):
        rng = random.Random(5)
        descs = [random_partition(rng) for _ in range(200)]
        descs += [Partition(m=3, blocks=(), quotas=()),
                  Partition(m=5, blocks=((3, 1), (), (4,)), quotas=(1, 0, 0))]
        for desc in descs:
            assert enumerate_bases(desc) == reference_bases(desc), desc
        # the corpus reaches every shape the direct product must handle
        assert any(not d.blocks for d in descs)
        assert any(0 in d.quotas for d in descs)
        assert any(list(b) != sorted(b) for d in descs for b in d.blocks)
        assert any(sum(map(len, d.blocks)) < d.m for d in descs)


class TestExchangeDecompose:
    def test_identical_bases_empty(self):
        assert exchange_decompose(Uniform(3, 2), (1, 1, 0), (1, 1, 0)) == ()

    def test_uniform_single_swap(self):
        steps = exchange_decompose(Uniform(3, 2), (1, 1, 0), (0, 1, 1))
        assert steps == (ExchangeStep(remove=0, add=2),)

    def test_four_cycle_tree_swap(self):
        steps = exchange_decompose(FOUR_CYCLE, (1, 1, 1, 0), (0, 1, 1, 1))
        assert len(steps) == 1

    def replay(self, desc, t, steps):
        cur = list(t)
        seen_rm, seen_add = set(), set()
        for step in steps:
            assert step.remove not in seen_rm and step.add not in seen_add
            seen_rm.add(step.remove)
            seen_add.add(step.add)
            assert cur[step.remove] == 1 and cur[step.add] == 0
            cur[step.remove], cur[step.add] = 0, 1
            assert is_basis(desc, tuple(cur))
        return tuple(cur)

    @pytest.mark.parametrize(
        "desc",
        [
            Uniform(5, 3),
            Partition(m=5, blocks=((0, 1), (2, 3, 4)), quotas=(1, 2)),
            TRIANGLE,
            FOUR_CYCLE,
            Graphic(n_vertices=4, edges=((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))),
        ],
    )
    def test_exhaustive_replay(self, desc):
        bases = enumerate_bases(desc)
        for t in bases:
            for u in bases:
                steps = exchange_decompose(desc, t, u)
                assert len(steps) == sum(1 for r in range(desc.m) if t[r] and not u[r])
                assert self.replay(desc, t, steps) == u

    def test_rejects_non_bases(self):
        with pytest.raises(StructureError):
            exchange_decompose(Uniform(3, 2), (1, 0, 0), (0, 1, 1))


class TestGreedy:
    def test_uniform_rank_one_picks_cheapest(self):
        assert greedy_best_response(Uniform(3, 1), [5, 1, 3]) == (0, 1, 0)

    def test_graphic_minimum_spanning_tree(self):
        assert greedy_best_response(TRIANGLE, [3, 1, 2]) == (0, 1, 1)

    @pytest.mark.parametrize(
        "desc",
        [Uniform(4, 2), Partition(m=4, blocks=((0, 1), (2, 3)), quotas=(1, 1)), FOUR_CYCLE],
    )
    def test_agrees_with_enumeration(self, desc):
        for weights in product(range(4), repeat=desc.m):
            got = greedy_best_response(desc, list(weights))
            best = min(
                enumerate_bases(desc),
                key=lambda v: (sum(weights[r] for r in range(desc.m) if v[r]), v),
            )
            total = lambda v: sum(weights[r] for r in range(desc.m) if v[r])
            assert total(got) == total(best)

    def test_group_types(self):
        descs = [Uniform(3, 1), Uniform(3, 2), Uniform(3, 1)]
        types = group_types(descs)
        assert types[Uniform(3, 1)] == [0, 2]


class TestLocalMonotonicity:
    def test_bilevel_cost_is_locally_monotone(self):
        c = as_tabulated(Bilevel(m=2, budget=Fraction(2)), max_load=6)
        assert check_local_monotonicity(c, [Uniform(2, 1)], 3, nu_identity) is None

    def test_separable_non_decreasing_with_matching_nu(self):
        c = Tabulated(
            m=2,
            neighborhoods=((0,), (1,)),
            tables=(
                {(k,): Fraction(k * k) for k in range(6)},
                {(k,): Fraction(2 * k) for k in range(6)},
            ),
            max_load=5,
        )

        def nu(desc, r, load):
            return (load * load) if r == 0 else (2 * load)

        assert check_local_monotonicity(c, [Uniform(2, 1)], 2, nu) is None

    def test_decreasing_cross_effect_yields_witness(self):
        c = Tabulated(
            m=2,
            neighborhoods=((1,), (0,)),
            tables=(
                {(k,): Fraction(-k) for k in range(6)},
                {(k,): Fraction(0) for k in range(6)},
            ),
            max_load=5,
        )
        witness = check_local_monotonicity(c, [Uniform(2, 1)], 2, nu_identity)
        assert witness is not None
        desc, t, r, s, z = witness
        assert is_basis(desc, t)


class TestEquilibriumLift:
    def make_bilevel(self, descs, budget):
        players = tuple(Player(strategy_space=MatroidBases(desc=d)) for d in descs)
        return Game(
            n_resources=descs[0].m,
            players=players,
            cost_model=Bilevel(m=descs[0].m, budget=Fraction(budget)),
        )

    def identity_tables(self, n, m, L):
        table = tuple(Fraction(k) for k in range(L + 1))
        return PlayerSpecificSeparable(nu=tuple(tuple(table for _ in range(m)) for _ in range(n)))

    def test_two_player_split(self):
        game = self.make_bilevel([Uniform(2, 1)] * 2, 1)
        profile, cert = solve_via_theorem3(game, self.identity_tables(2, 2, 4))
        assert isinstance(cert, IsPNE)
        loads = [sum(v[r] for v in profile) for r in range(2)]
        assert sorted(loads) == [1, 1]

    def test_three_player_partition(self):
        desc = Partition(m=4, blocks=((0, 1), (2, 3)), quotas=(1, 1))
        game = self.make_bilevel([desc] * 3, 3)
        profile, cert = solve_via_theorem3(game, self.identity_tables(3, 4, 5))
        assert isinstance(cert, IsPNE)
        assert isinstance(verify_pne(game, profile), IsPNE)

    def test_separable_costs_reduce_to_player_specific_solving(self):
        # when the real cost *is* the separable nu, the lift is just that game
        n, m = 2, 3
        tables = tuple(
            tuple(tuple(Fraction((r + 1) * k) for k in range(5)) for r in range(m))
            for _ in range(n)
        )
        nu = PlayerSpecificSeparable(nu=tables)
        players = tuple(Player(strategy_space=MatroidBases(desc=Uniform(m, 1))) for _ in range(n))
        game = Game(n_resources=m, players=players, cost_model=nu)
        profile, cert = solve_via_theorem3(game, nu)
        assert isinstance(cert, IsPNE)
