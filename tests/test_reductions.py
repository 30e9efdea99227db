
import pytest

from rggames.characterize import UnweightedConsistent, analyze_unweighted
from rggames.core import private_cost
from rggames.costs import as_tabulated
from rggames.errors import StructureError
from rggames.reductions import (
    ForbiddenPairsInstance,
    SatInstance,
    check_reduction,
    forbidden_pairs_oracle,
    parse_dimacs,
    reduce_forbidden_pairs,
    reduce_sat,
    sat_oracle,
)


def min_cost(game):
    return min(private_cost(game, (y,), 0) for y in game.players[0].strategies())


class TestSatReduction:
    def test_tautological_clause_costs_zero(self):
        inst = SatInstance(n_vars=1, clauses=(((0, True), (0, True), (0, True)),))
        game = reduce_sat(inst)
        assert game.n_resources == 3
        assert min_cost(game) == 0

    def test_contradiction_has_positive_cost(self):
        inst = SatInstance(
            n_vars=1,
            clauses=(
                ((0, True), (0, True), (0, True)),
                ((0, False), (0, False), (0, False)),
            ),
        )
        game = reduce_sat(inst)
        assert not sat_oracle(inst)
        assert min_cost(game) > 0

    def test_satisfiable_two_clause(self):
        inst = SatInstance(
            n_vars=3,
            clauses=(
                ((0, True), (1, True), (2, True)),
                ((0, False), (1, False), (2, True)),
            ),
        )
        assert sat_oracle(inst)
        assert min_cost(reduce_sat(inst)) == 0

    def test_cost_matrix_is_symmetric_zero_one(self):
        inst = SatInstance(
            n_vars=2,
            clauses=(((0, True), (1, False), (0, False)), ((1, True), (0, False), (1, False))),
        )
        game = reduce_sat(inst)
        A = game.cost_model.A
        m = game.n_resources
        for r in range(m):
            for s in range(m):
                assert A[r][s] in (0, 1)
                assert A[r][s] == A[s][r]
        # hence the cost is in the consistent class: the pipeline must confirm
        tab = as_tabulated(game.cost_model, max_load=3)
        assert isinstance(analyze_unweighted(tab, 1), UnweightedConsistent)

    def test_strategy_space_picks_one_literal_per_clause(self):
        inst = SatInstance(
            n_vars=2,
            clauses=(((0, True), (1, True), (0, False)), ((1, False), (0, True), (1, True))),
        )
        game = reduce_sat(inst)
        for v in game.players[0].strategies():
            assert sum(v[0:3]) == 1 and sum(v[3:6]) == 1


class TestForbiddenPairs:
    DIAMOND = ForbiddenPairsInstance(
        n_vertices=4,
        edges=((0, 1), (1, 3), (0, 2), (2, 3)),
        s=0,
        t=3,
        pairs=(),
    )

    def test_no_pairs_all_paths_free(self):
        game = reduce_forbidden_pairs(self.DIAMOND)
        assert len(game.players[0].strategies()) == 2
        assert min_cost(game) == 0

    def test_one_pair_still_avoidable(self):
        inst = ForbiddenPairsInstance(
            n_vertices=4,
            edges=((0, 1), (1, 3), (0, 2), (2, 3)),
            s=0,
            t=3,
            pairs=((0, 2),),  # one edge of each parallel path
        )
        assert forbidden_pairs_oracle(inst)
        assert min_cost(reduce_forbidden_pairs(inst)) == 0

    def test_unavoidable_pair(self):
        # single path 0 -> 1 -> 2 whose two edges form a pair
        inst = ForbiddenPairsInstance(
            n_vertices=3,
            edges=((0, 1), (1, 2)),
            s=0,
            t=2,
            pairs=((0, 1),),
        )
        assert not forbidden_pairs_oracle(inst)
        assert min_cost(reduce_forbidden_pairs(inst)) >= 1

    def test_neighborhood_size_at_most_one(self):
        inst = ForbiddenPairsInstance(
            n_vertices=4,
            edges=((0, 1), (1, 3), (0, 2), (2, 3)),
            s=0,
            t=3,
            pairs=((0, 3),),
        )
        game = reduce_forbidden_pairs(inst)
        assert all(len(h) <= 1 for h in game.cost_model.neighborhoods)

    def test_no_path_rejected(self):
        inst = ForbiddenPairsInstance(
            n_vertices=3, edges=((1, 0),), s=0, t=2, pairs=()
        )
        with pytest.raises(StructureError):
            reduce_forbidden_pairs(inst)


class TestCheckReduction:
    def test_sat_families(self):
        instances = [
            SatInstance(n_vars=1, clauses=(((0, True), (0, True), (0, True)),)),
            SatInstance(
                n_vars=1,
                clauses=(
                    ((0, True), (0, True), (0, True)),
                    ((0, False), (0, False), (0, False)),
                ),
            ),
            SatInstance(
                n_vars=3,
                clauses=(
                    ((0, True), (1, True), (2, True)),
                    ((0, False), (1, False), (2, True)),
                ),
            ),
        ]
        for inst in instances:
            assert check_reduction(inst, reduce_sat(inst), sat_oracle(inst))

    def test_pairs_families(self):
        instances = [
            self_inst
            for self_inst in (
                TestForbiddenPairs.DIAMOND,
                ForbiddenPairsInstance(
                    n_vertices=4,
                    edges=((0, 1), (1, 3), (0, 2), (2, 3)),
                    s=0,
                    t=3,
                    pairs=((0, 2),),
                ),
                ForbiddenPairsInstance(
                    n_vertices=3, edges=((0, 1), (1, 2)), s=0, t=2, pairs=((0, 1),)
                ),
            )
        ]
        for inst in instances:
            game = reduce_forbidden_pairs(inst)
            assert check_reduction(inst, game, forbidden_pairs_oracle(inst))

    @pytest.mark.parametrize("inst, answer", [
        (SatInstance(n_vars=3, clauses=(((0, True), (1, True), (2, True)),
                                        ((0, False), (1, False), (2, True)))), True),
        (SatInstance(n_vars=1, clauses=(((0, True),) * 3, ((0, False),) * 3)), False),
    ], ids=["satisfiable", "unsatisfiable"])
    def test_sat_refuses_the_flipped_answer(self, inst, answer):
        game = reduce_sat(inst)
        assert sat_oracle(inst) is answer
        assert check_reduction(inst, game, answer)
        assert not check_reduction(inst, game, not answer)

    @pytest.mark.parametrize("inst, answer", [
        (TestForbiddenPairs.DIAMOND, True),
        (ForbiddenPairsInstance(n_vertices=3, edges=((0, 1), (1, 2)), s=0, t=2,
                                pairs=((0, 1),)), False),
    ], ids=["yes", "no"])
    def test_pairs_refuses_the_flipped_answer(self, inst, answer):
        game = reduce_forbidden_pairs(inst)
        assert forbidden_pairs_oracle(inst) is answer
        assert check_reduction(inst, game, answer)
        assert not check_reduction(inst, game, not answer)


class TestDimacs:
    def test_parse_basic(self):
        text = "c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n"
        inst = parse_dimacs(text)
        assert inst.n_vars == 3
        assert inst.clauses == (
            ((0, True), (1, False), (2, True)),
            ((0, False), (1, True), (2, False)),
        )

    def test_non_ternary_clause_rejected(self):
        with pytest.raises(StructureError):
            parse_dimacs("p cnf 2 1\n1 -2 0\n")
