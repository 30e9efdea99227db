import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from rggames import matroid
from rggames.core import Explicit, Game, Player
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
    is_basis,
    is_independent,
    solve_via_theorem3,
)

TRIANGLE = Graphic(n_vertices=3, edges=((0, 1), (1, 2), (0, 2)))
FOUR_CYCLE = Graphic(n_vertices=4, edges=((0, 1), (1, 2), (2, 3), (3, 0)))
IDENTITY_NU = lambda desc, r, load: load  # noqa: E731


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
        assert Uniform(5, 2).rank == 2
        assert Partition(m=4, blocks=((0, 1), (2, 3)), quotas=(1, 2)).rank == 3
        assert FOUR_CYCLE.rank == 3


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


# Frozen reference: matroid dispatch and enumeration as isinstance chains and a
# filter over every rank-sized subset, kept so that the descriptors' own
# methods are checked against independent code.


def reference_independent(desc, subset):
    if isinstance(desc, Uniform):
        return len(subset) <= desc.k
    if isinstance(desc, Partition):
        outside = set(subset)
        for block, q in zip(desc.blocks, desc.quotas):
            if sum(1 for e in block if e in subset) > q:
                return False
            outside.difference_update(block)
        return not outside
    parent = list(range(desc.n_vertices))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for r in subset:
        ru, rv = find(desc.edges[r][0]), find(desc.edges[r][1])
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def reference_rank(desc):
    if isinstance(desc, Uniform):
        return desc.k
    if isinstance(desc, Partition):
        return sum(desc.quotas)
    return desc.n_vertices - 1


def reference_bases(desc):
    out = []
    for combo in combinations(range(desc.m), reference_rank(desc)):
        if reference_independent(desc, frozenset(combo)):
            out.append(tuple(1 if r in combo else 0 for r in range(desc.m)))
    return tuple(sorted(out))


def reference_is_basis(desc, v):
    supp = frozenset(r for r, e in enumerate(v) if e)
    return len(supp) == reference_rank(desc) and reference_independent(desc, supp)


def reference_greedy(desc, weights):
    chosen = set()
    for r in sorted(range(desc.m), key=lambda r: (weights[r], r)):
        if len(chosen) < reference_rank(desc) and reference_independent(desc, chosen | {r}):
            chosen.add(r)
    return tuple(1 if r in chosen else 0 for r in range(desc.m))


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


def random_uniform(rng):
    m = rng.randint(1, 8)
    return Uniform(m, rng.randint(1, m))


def random_graphic(rng):
    """A random spanning tree in random orientation, plus edges that may close cycles or repeat."""
    n = rng.randint(1, 5)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    for _ in range(rng.randint(0, 3) if n > 1 else 0):
        edges.append(tuple(rng.sample(range(n), 2)))
    edges = [e if rng.random() < 0.5 else e[::-1] for e in edges]
    rng.shuffle(edges)
    return Graphic(n_vertices=n, edges=tuple(edges))


class TestDescriptorDispatch:
    """rank, is_independent, is_basis, enumerate_bases and greedy against the reference."""

    def check(self, desc, rng):
        m = desc.m
        assert desc.rank == reference_rank(desc), desc
        assert enumerate_bases(desc) == reference_bases(desc), desc
        for v in product((0, 1), repeat=m):
            supp = frozenset(r for r in range(m) if v[r])
            assert is_independent(desc, supp) == reference_independent(desc, supp), (desc, v)
            assert is_basis(desc, v) == reference_is_basis(desc, v), (desc, v)
        for _ in range(5):
            weights = [rng.randint(0, 3) for _ in range(m)]
            assert greedy_best_response(desc, weights) == reference_greedy(desc, weights)

    def test_uniform(self):
        rng = random.Random(61)
        descs = [random_uniform(rng) for _ in range(60)] + [Uniform(1, 1), Uniform(6, 6)]
        for desc in descs:
            self.check(desc, rng)
        assert any(d.k == d.m for d in descs) and any(d.k < d.m for d in descs)

    def test_partition(self):
        rng = random.Random(62)
        descs = [random_partition(rng) for _ in range(100)]
        descs += [Partition(m=3, blocks=(), quotas=()),
                  Partition(m=5, blocks=((3, 1), (), (4,)), quotas=(1, 0, 0))]
        for desc in descs:
            self.check(desc, rng)
        assert any(() in d.blocks for d in descs)
        assert any(0 in d.quotas for d in descs)
        assert any(sum(map(len, d.blocks)) < d.m for d in descs)

    def test_graphic(self):
        rng = random.Random(63)
        descs = [random_graphic(rng) for _ in range(100)]
        descs += [TRIANGLE, FOUR_CYCLE, Graphic(n_vertices=1, edges=()),
                  Graphic(n_vertices=2, edges=((0, 1), (1, 0), (0, 1)))]
        for desc in descs:
            self.check(desc, rng)
        distinct = [len({frozenset(e) for e in d.edges}) for d in descs]
        assert any(len(d.edges) == d.n_vertices - 1 > 0 for d in descs)  # trees
        assert any(k >= d.n_vertices for k, d in zip(distinct, descs))  # simple cycles
        assert any(k < len(d.edges) for k, d in zip(distinct, descs))  # parallel edges

    @pytest.mark.parametrize("n, edges", [
        (3, ((0, 1),)), (4, ((0, 1), (2, 3), (1, 0))), (2, ()), (2, ((0, 0),)), (2, ((0, 2),)),
    ])
    def test_graphic_rejects_disconnected_or_bad_edges(self, n, edges):
        with pytest.raises(StructureError):
            Graphic(n_vertices=n, edges=edges)


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

    def test_matches_frozen_search(self, monkeypatch):
        """Same steps, and the same is_independent calls in the same order, as the
        depth-first search over swaps."""
        calls = []

        def recorded(desc, subset):
            calls.append(subset)
            return desc.independent(subset)

        monkeypatch.setattr(matroid, "is_independent", recorded)
        rng = random.Random(71)
        descs = [Uniform(4, 2), Partition(m=5, blocks=((0, 1), (2, 3, 4)), quotas=(1, 2)),
                 FOUR_CYCLE]
        descs += [random_uniform(rng) for _ in range(30)]
        descs += [random_partition(rng) for _ in range(30)]
        descs += [random_graphic(rng) for _ in range(60)]
        pairs = refusals = 0
        for desc in descs:
            bases = enumerate_bases(desc)
            for t, u in product(bases, repeat=2):
                calls.clear()
                want = frozen_exchange(desc, t, u)
                want_calls = calls[:]
                calls.clear()
                assert exchange_decompose(desc, t, u) == want, (desc, t, u)
                assert calls == want_calls, (desc, t, u)
                pairs += 1
                refusals += len(calls) > 2 + len(want)  # a swap was tested and refused
        assert pairs > 5000 and refusals > 100


def frozen_exchange(desc, t, u):
    """exchange_decompose as it was: a depth-first search over valid swaps."""
    if not is_basis(desc, t) or not is_basis(desc, u):
        raise StructureError("exchange endpoints must be bases")
    t_supp = frozenset(r for r, e in enumerate(t) if e)
    u_supp = frozenset(r for r, e in enumerate(u) if e)

    def search(current, remaining_rm, remaining_add, acc):
        if not remaining_rm:
            return acc
        for r in remaining_rm:
            for s in remaining_add:
                nxt = (current - {r}) | {s}
                if matroid.is_independent(desc, nxt):
                    result = search(nxt, tuple(x for x in remaining_rm if x != r),
                                    tuple(x for x in remaining_add if x != s),
                                    acc + (ExchangeStep(remove=r, add=s),))
                    if result is not None:
                        return result
        return None

    steps = search(t_supp, tuple(sorted(t_supp - u_supp)), tuple(sorted(u_supp - t_supp)), ())
    assert steps is not None
    return steps


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


class TestLocalMonotonicity:
    def test_bilevel_cost_is_locally_monotone(self):
        c = as_tabulated(Bilevel(m=2, budget=Fraction(2)), max_load=6)
        assert check_local_monotonicity(c, [Uniform(2, 1)], 3, IDENTITY_NU) is None

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
        witness = check_local_monotonicity(c, [Uniform(2, 1)], 2, IDENTITY_NU)
        assert witness is not None
        desc, t, r, s, z = witness
        assert is_basis(desc, t)


class TestEquilibriumLift:
    def make_bilevel(self, descs, budget):
        players = tuple(Player(strategy_space=d) for d in descs)
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
        players = tuple(Player(strategy_space=Uniform(m, 1)) for _ in range(n))
        game = Game(n_resources=m, players=players, cost_model=nu)
        profile, cert = solve_via_theorem3(game, nu)
        assert isinstance(cert, IsPNE)

    @pytest.mark.parametrize("player, message", [
        (Player(strategy_space=Explicit(vectors=((1, 0, 0),))),
         "player 1 needs a matroid strategy space"),
        (Player(weight=Fraction(3, 2), strategy_space=Uniform(3, 1)),
         "player 1 needs weight 1, got 3/2"),
        # the space is checked before the weight
        (Player(weight=2, strategy_space=Explicit(vectors=((1, 0, 0),))),
         "player 1 needs a matroid strategy space"),
    ])
    def test_rejects_explicit_space_and_weight(self, player, message):
        nu = self.identity_tables(2, 3, 4)
        players = (Player(strategy_space=Uniform(3, 1)), player)
        game = Game(n_resources=3, players=players, cost_model=nu)
        with pytest.raises(StructureError) as info:
            solve_via_theorem3(game, nu)
        assert str(info.value) == message
