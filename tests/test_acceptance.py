"""Acceptance suite: ten theorem-anchored, property-based criteria.

Every criterion prints one [PASS] line on success (visible in the live
test log); failures surface as ordinary assertion errors.  All randomness
is seeded, so the suite is deterministic end to end.
"""

import json
import random
import sys
import time
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO
from itertools import product

import pytest

from rggames.bilevel import make_bilevel_game, solve_bilevel
from rggames.characterize import (
    UnweightedConsistent,
    Violation,
    WeightedAffine,
    WeightedExponential,
    analyze_unweighted,
    classify_weighted,
    decompose_unweighted,
)
from rggames.cli import encode, game_to_json, main
from rggames.core import Explicit, Game, Player, deviate
from rggames.costs import (
    Affine,
    Bilevel,
    Exponential,
    SeparablePlusLinear,
    Tabulated,
    as_tabulated,
    eval_cost,
    kappa_star,
)
from rggames.dynamics import (
    IsPNE,
    NoPNEExists,
    PNEFound,
    brute_force_pne,
    run_best_response_dynamics,
    verify_pne,
)
from rggames.gadgets import SymmetryWitness, check_AB_symmetry, violation_to_counterexample
from rggames.matroid import (
    Graphic,
    Partition,
    Uniform,
    check_local_monotonicity,
    enumerate_bases,
    exchange_decompose,
    is_basis,
)
from rggames.potential import (
    check_exact_potential,
    potential_unweighted,
    potential_weighted_affine,
)
from rggames.reductions import (
    ForbiddenPairsInstance,
    SatInstance,
    check_reduction,
    forbidden_pairs_oracle,
    reduce_forbidden_pairs,
    reduce_sat,
    sat_oracle,
)

SEED = 12345
MAX_LOAD = 6


def report(criterion: int, message: str) -> None:
    print(f"[PASS] criterion {criterion}: {message}", file=sys.__stdout__, flush=True)


# ------------------------------------------------------------------ corpus


def random_unweighted_game(rng: random.Random) -> Game:
    """m <= 4, n <= 4, |X_i| <= 6, random f tables and random symmetric A."""
    m = rng.randint(1, 4)
    n = rng.randint(1, 4)
    f = tuple(tuple(rng.randint(0, 8) for _ in range(MAX_LOAD + 1)) for _ in range(m))
    A = [[0] * m for _ in range(m)]
    for r in range(m):
        for s in range(r, m):
            A[r][s] = A[s][r] = rng.randint(-2, 3)
    cost = SeparablePlusLinear(f=f, A=tuple(tuple(row) for row in A))
    all_vectors = list(product((0, 1), repeat=m))
    players = []
    for _ in range(n):
        size = rng.randint(1, min(6, len(all_vectors)))
        vectors = tuple(rng.sample(all_vectors, size))
        players.append(Player(strategy_space=Explicit(vectors=vectors)))
    return Game(n_resources=m, players=tuple(players), cost_model=cost)


@pytest.fixture(scope="module")
def consistent_corpus():
    rng = random.Random(SEED)
    return [random_unweighted_game(rng) for _ in range(200)]


def test_criterion_01_exact_potential(consistent_corpus):
    started = time.monotonic()
    for game in consistent_corpus:
        result = check_exact_potential(game, lambda x, g=game: potential_unweighted(g, x))
        assert result.ok, f"potential identity failed with witness {result.witness}"
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"criterion 1 took {elapsed:.1f}s"
    report(1, f"exact potential identity on {len(consistent_corpus)} games, "
              f"every deviation, in {elapsed:.1f}s")


def test_criterion_02_existence_and_convergence(consistent_corpus):
    for game in consistent_corpus:
        cert = brute_force_pne(game)
        assert isinstance(cert, PNEFound), "consistent game without an equilibrium"
        start = tuple(p.strategies()[0] for p in game.players)
        trace = run_best_response_dynamics(game, start, max_iters=500)
        assert trace.converged, "best-response dynamics failed to converge"
        assert isinstance(verify_pne(game, trace.terminal), IsPNE)
        current = start
        last = potential_unweighted(game, current)
        for player, _old, new, delta in trace.steps:
            assert delta < 0
            current = deviate(current, player, new)
            value = potential_unweighted(game, current)
            assert value < last, "potential did not strictly decrease"
            last = value
    report(2, f"equilibrium found and dynamics converged with strictly "
              f"decreasing potential on all {len(consistent_corpus)} games")


# ------------------------------------------------------- necessity pipeline


def random_violating_cost(rng: random.Random) -> Tabulated:
    """Random tabulated costs engineered to break one of the necessary conditions."""
    kind = rng.choice(("raw", "raw", "sum-nonlinear", "product-of-others",
                       "kinked-cross"))
    if kind == "kinked-cross":
        # c_r(x) = x_r + g(x_s): g linear on 0..2 but kinked at 3, so the
        # first-order symmetry holds on the small grid while the second
        # difference in the other coordinate does not stay constant
        m = 2
        L = 4
        slope = rng.randint(1, 3)
        kink = slope + rng.randint(1, 3)
        g = [0, slope, 2 * slope, 2 * slope + kink, 2 * slope + 2 * kink]
        grid = list(product(range(L + 1), repeat=m))
        tables = tuple(
            {pt: pt[r] + g[pt[1 - r]] for pt in grid} for r in range(m)
        )
    elif kind == "raw":
        m = rng.choice((2, 3))
        L = 4
        grid = list(product(range(L + 1), repeat=m))
        tables = tuple({pt: rng.randint(0, 6) for pt in grid} for _ in range(m))
    elif kind == "sum-nonlinear":
        # c_r(x) = f_r(x_r) + g(sum x): symmetric increments but nonlinear cross
        m = 2
        L = 4
        weight = rng.randint(1, 3)
        g = lambda k: weight * k * k
        grid = list(product(range(L + 1), repeat=m))
        offs = [rng.randint(0, 3) for _ in range(m)]
        tables = tuple(
            {pt: offs[r] * pt[r] + g(sum(pt)) for pt in grid} for r in range(m)
        )
    else:
        # c_r(x) = x_r + alpha * prod of the other coordinates
        m = 3
        L = 4
        alpha = rng.randint(1, 3)
        grid = list(product(range(L + 1), repeat=m))
        tables = tuple(
            {
                pt: pt[r] + alpha * pt[(r + 1) % 3] * pt[(r + 2) % 3]
                for pt in grid
            }
            for r in range(m)
        )
    hoods = tuple(tuple(range(m)) for _ in range(m))
    return Tabulated(m=m, neighborhoods=hoods, tables=tables, max_load=L)


def test_criterion_03_necessity_pipeline():
    started = time.monotonic()
    rng = random.Random(SEED + 3)
    done = 0
    seen_lemmas = set()
    while done < 50:
        cost = random_violating_cost(rng)
        reportv = analyze_unweighted(cost, 1)
        if not isinstance(reportv, Violation):
            continue  # a random table can be consistent by luck; draw again
        game, cert = violation_to_counterexample(cost, reportv)
        assert isinstance(cert, NoPNEExists)
        witness = check_AB_symmetry(game, 0, 1)
        assert isinstance(witness, SymmetryWitness), f"symmetry broken: {witness}"
        assert witness.A_value != witness.B_value
        seen_lemmas.add(reportv.lemma)
        done += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"criterion 3 took {elapsed:.1f}s"
    assert len(seen_lemmas) >= 2, f"corpus only exercised {seen_lemmas}"
    report(3, f"{done} violating costs ({', '.join(sorted(seen_lemmas))}) all "
              f"mapped to certified no-equilibrium gadgets in {elapsed:.1f}s")


def test_criterion_04_decomposition_round_trip(consistent_corpus):
    L = 2
    for game in consistent_corpus[:60]:
        source = game.cost_model
        tab = as_tabulated(source, max_load=L + 2)
        result = decompose_unweighted(tab, L)
        assert isinstance(result, UnweightedConsistent)
        m = tab.m
        for r in range(m):
            assert result.A[r][r] == 0
            for s in range(m):
                assert result.A[r][s] == result.A[s][r]
        for x in product(range(L + 1), repeat=m):
            for r in range(m):
                if x[r] == 0:
                    continue
                rebuilt = result.f[r][x[r]] + sum(
                    result.A[r][s] * x[s] for s in range(m)
                )
                assert rebuilt == eval_cost(source, x)[r]
    report(4, "decomposition reproduced 60 structured costs exactly on the "
              "whole bounded domain with symmetric zero-diagonal A")


# --------------------------------------------------------- weighted classes


def random_weighted_affine_game(rng: random.Random):
    m = rng.randint(1, 3)
    n = rng.randint(1, 3)
    A = [[Fraction(0)] * m for _ in range(m)]
    for r in range(m):
        for s in range(r, m):
            A[r][s] = A[s][r] = Fraction(rng.randint(-2, 3), rng.randint(1, 2))
    b = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m))
    cost = Affine(A=tuple(tuple(row) for row in A), b=b)
    all_vectors = list(product((0, 1), repeat=m))
    players = []
    for _ in range(n):
        weight = Fraction(rng.randint(1, 5), rng.randint(1, 3))
        size = rng.randint(1, min(4, len(all_vectors)))
        vectors = tuple(rng.sample(all_vectors, size))
        players.append(Player(weight=weight, strategy_space=Explicit(vectors=vectors)))
    return Game(n_resources=m, players=tuple(players), cost_model=cost)


def test_criterion_05_weighted_dichotomy():
    rng = random.Random(SEED + 5)
    # classification of the three canonical shapes
    sym = Affine(A=((Fraction(1), Fraction(2)), (Fraction(2), Fraction(0))),
                 b=(Fraction(1), Fraction(-1)))
    assert isinstance(classify_weighted(sym), WeightedAffine)
    for phi in (0.5, 1.0, 2.25):
        model = Exponential(a=(2.0, 3.0), phi=phi, b=(1.0, 0.0))
        tab = as_tabulated(model, max_load=3, allow_float=True)
        got = classify_weighted(tab)
        assert isinstance(got, WeightedExponential)
        assert abs(got.phi - phi) <= 1e-9
    quad_tables = tuple(
        {pt: Fraction(pt[r] ** 2) for pt in product(range(4), repeat=2)} for r in range(2)
    )
    quad = Tabulated(m=2, neighborhoods=((0, 1), (0, 1)), tables=quad_tables, max_load=3)
    assert isinstance(classify_weighted(quad), Violation)
    asym = Affine(A=((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))),
                  b=(Fraction(0), Fraction(0)))
    assert isinstance(classify_weighted(asym), Violation)

    games = [random_weighted_affine_game(rng) for _ in range(100)]
    for game in games:
        result = check_exact_potential(
            game, lambda x, g=game: potential_weighted_affine(g, x)
        )
        assert result.ok, f"weighted potential failed at {result.witness}"
    report(5, "dichotomy classified affine/exponential/neither correctly; "
              f"weighted potential exact on {len(games)} random weighted games")


# ---------------------------------------------------------------- bilevel


BILEVEL_DESCS = [
    Uniform(2, 1),
    Uniform(2, 2),
    Uniform(3, 1),
    Uniform(3, 2),
    Partition(m=3, blocks=((0, 1), (2,)), quotas=(1, 1)),
    Graphic(n_vertices=3, edges=((0, 1), (1, 2), (0, 2))),
    Uniform(4, 1),
    Uniform(4, 2),
    Partition(m=4, blocks=((0, 1), (2, 3)), quotas=(1, 1)),
    Graphic(n_vertices=4, edges=((0, 1), (1, 2), (2, 3), (3, 0))),
]
BUDGETS = (Fraction(1), Fraction(2), Fraction(3), Fraction(7, 2))


def test_criterion_06_bilevel_pipeline():
    started = time.monotonic()
    games = 0
    for desc in BILEVEL_DESCS:
        for n in range(1, 5):
            for budget in BUDGETS:
                game = make_bilevel_game(desc.m, [desc] * n, budget)
                profile, cert = solve_bilevel(game)
                assert isinstance(cert, IsPNE), "lifted profile failed verification"
                assert isinstance(brute_force_pne(game), PNEFound)
                games += 1
    # mixed-type rosters on a shared resource set
    for budget in BUDGETS:
        mixed = make_bilevel_game(
            3,
            [Uniform(3, 1), Partition(m=3, blocks=((0, 1), (2,)), quotas=(1, 1)),
             Graphic(n_vertices=3, edges=((0, 1), (1, 2), (0, 2)))],
            budget,
        )
        profile, cert = solve_bilevel(mixed)
        assert isinstance(cert, IsPNE)
        assert isinstance(brute_force_pne(mixed), PNEFound)
        games += 1
    # conservation on every load vector of the full evaluation grid
    for m in range(1, 5):
        for budget in BUDGETS:
            for loads in product(range(5), repeat=m):
                assert sum(kappa_star(loads, budget)) == budget
    elapsed = time.monotonic() - started
    assert elapsed < 60, f"criterion 6 took {elapsed:.1f}s"
    report(6, f"{games} bilevel games solved via the separable lift and "
              f"confirmed by brute force, budget conserved, in {elapsed:.1f}s")


def test_criterion_07_local_monotonicity():
    identity_nu = lambda desc, r, load: load  # noqa: E731
    types = [
        [Uniform(1, 1)],
        [Uniform(2, 1), Uniform(2, 2)],
        [Uniform(3, 1), Uniform(3, 2), Uniform(3, 3)],
        [Partition(m=2, blocks=((0,), (1,)), quotas=(1, 1))],
        [Partition(m=3, blocks=((0, 1), (2,)), quotas=(1, 1)),
         Partition(m=3, blocks=((0, 1, 2),), quotas=(2,))],
    ]
    for descs in types:
        m = descs[0].m
        cost = as_tabulated(Bilevel(m=m, budget=Fraction(5, 2)), max_load=6)
        witness = check_local_monotonicity(cost, descs, 4, identity_nu)
        assert witness is None, f"monotonicity broke at {witness}"
    # negative control: a decreasing cross effect must be caught
    control = Tabulated(
        m=2,
        neighborhoods=((1,), (0,)),
        tables=({(k,): Fraction(-k) for k in range(7)},
                {(k,): Fraction(0) for k in range(7)}),
        max_load=6,
    )
    witness = check_local_monotonicity(control, [Uniform(2, 1)], 4, identity_nu)
    assert witness is not None
    report(7, "identity tables certified monotone for the budget-attack cost "
              "on every tested type; the decreasing control produced a witness")


# ---------------------------------------------------------------- matroids


EXCHANGE_DESCS = (
    [Uniform(m, k) for m in range(2, 7) for k in range(1, m + 1)]
    + [
        Partition(m=6, blocks=((0, 1), (2, 3), (4, 5)), quotas=(1, 1, 1)),
        Partition(m=5, blocks=((0, 1, 2), (3, 4)), quotas=(2, 1)),
        Partition(m=4, blocks=((0, 1, 2, 3),), quotas=(2,)),
    ]
    + [
        Graphic(n_vertices=3, edges=((0, 1), (1, 2), (0, 2))),
        Graphic(n_vertices=4, edges=((0, 1), (1, 2), (2, 3), (3, 0), (0, 2))),
        Graphic(
            n_vertices=5,
            edges=((0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (1, 3)),
        ),
    ]
)


def test_criterion_08_exchange_decomposition():
    started = time.monotonic()
    pairs = 0
    for desc in EXCHANGE_DESCS:
        bases = enumerate_bases(desc)
        for t in bases:
            for u in bases:
                steps = exchange_decompose(desc, t, u)
                assert len(steps) == sum(
                    1 for r in range(desc.m) if t[r] and not u[r]
                )
                removes = [s.remove for s in steps]
                adds = [s.add for s in steps]
                assert len(set(removes)) == len(removes)
                assert len(set(adds)) == len(adds)
                cur = list(t)
                for step in steps:
                    cur[step.remove], cur[step.add] = 0, 1
                    assert is_basis(desc, tuple(cur))
                assert tuple(cur) == u
                pairs += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30, f"criterion 8 took {elapsed:.1f}s"
    report(8, f"{pairs} basis pairs decomposed with valid intermediates and "
              f"distinct swaps in {elapsed:.1f}s")


# --------------------------------------------------------------- reductions


def random_sat_instance(rng: random.Random) -> SatInstance:
    n_vars = rng.randint(1, 6)
    n_clauses = rng.randint(1, 8)
    clauses = tuple(
        tuple((rng.randrange(n_vars), rng.random() < 0.5) for _ in range(3))
        for _ in range(n_clauses)
    )
    return SatInstance(n_vars=n_vars, clauses=clauses)


def random_pairs_instance(rng: random.Random) -> ForbiddenPairsInstance:
    n = rng.randint(3, 8)
    s, t = 0, n - 1
    # a guaranteed backbone path plus random extra edges
    spine = list(range(n))
    edges = {(spine[i], spine[i + 1]) for i in range(n - 1)}
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((u, v))
    edges = tuple(sorted(edges))
    pair_count = rng.randint(0, 3)
    pairs = []
    while len(pairs) < pair_count:
        a, b = rng.randrange(len(edges)), rng.randrange(len(edges))
        if a != b:
            pairs.append((a, b))
    return ForbiddenPairsInstance(n_vertices=n, edges=edges, s=s, t=t, pairs=tuple(pairs))


def test_criterion_09_reductions():
    rng = random.Random(SEED + 9)
    for _ in range(100):
        inst = random_sat_instance(rng)
        assert check_reduction(inst, reduce_sat(inst), sat_oracle(inst))
    for _ in range(50):
        inst = random_pairs_instance(rng)
        game = reduce_forbidden_pairs(inst)
        assert check_reduction(inst, game, forbidden_pairs_oracle(inst))
    report(9, "zero-cost equivalence held on 100 random 3-SAT and 50 random "
              "forbidden-pairs instances against exhaustive oracles")


# ------------------------------------------------------------- determinism


def test_criterion_10_cli_determinism(tmp_path):
    cost = SeparablePlusLinear(
        f=(tuple(Fraction(k) for k in range(5)),) * 2,
        A=((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))),
    )
    players = tuple(
        Player(strategy_space=Explicit(vectors=((1, 0), (0, 1)))) for _ in range(2)
    )
    game = Game(n_resources=2, players=players, cost_model=cost)
    game_path = tmp_path / "game.json"
    game_path.write_text(json.dumps({**game_to_json(game), "bounds": {"L": 2}}))
    profile_path = tmp_path / "profile.json"
    profile_path.write_text(json.dumps({"choices": [[0], [1]]}))
    asym = Affine(A=((Fraction(1), Fraction(1)), (Fraction(3), Fraction(1))),
                  b=(Fraction(0), Fraction(0)))
    cost_path = tmp_path / "cost.json"
    cost_path.write_text(json.dumps({"cost": encode(asym), "m": 2, "bounds": {"L": 2}}))
    cnf_path = tmp_path / "inst.cnf"
    cnf_path.write_text("p cnf 2 2\n1 1 2 0\n-1 -2 -2 0\n")

    commands = [
        ["solve", str(game_path)],
        ["solve", str(game_path), "--method", "dynamics", "--seed", "42"],
        ["verify", str(game_path), "--profile", str(profile_path)],
        ["characterize", str(game_path)],
        ["characterize", str(cost_path), "--weighted"],
        ["gadget", str(cost_path), "--lemma", "L3", "--point", "0,0",
         "--resources", "1,2", "--confirm"],
        ["potential", str(game_path), "--profile", str(profile_path)],
        ["reduce", "sat", str(cnf_path)],
    ]
    for argv in commands:
        outputs = []
        for _ in range(3):
            buffer = StringIO()
            with redirect_stdout(buffer):
                main(argv)
            outputs.append(buffer.getvalue())
        assert outputs[0] == outputs[1] == outputs[2], f"nondeterministic: {argv}"
    report(10, f"{len(commands)} commands produced byte-identical output "
               "across repeated seeded runs")
