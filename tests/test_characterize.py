import contextlib
import math
import random
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from operator import mul

import pytest
from hypothesis import given, seed, settings, strategies as st

from rggames.characterize import (
    UnweightedConsistent,
    Violation,
    WeightedAffine,
    WeightedExponential,
    analyze_unweighted,
    check_cross_linearity,
    check_jacobian_symmetry,
    classify_weighted,
    decompose_unweighted,
)
from rggames.cli import encode
from rggames.costs import (
    Affine,
    Bilevel,
    Exponential,
    SeparablePlusLinear,
    Tabulated,
    as_tabulated,
    eval_cost,
    eval_cost_entry,
    first_asymmetry,
)
from rggames.dynamics import FLOAT_TOL
from rggames.errors import GameError, LoadRangeError, UsageError


def tabulate(fn, m, L):
    """Dense tabulation of an arbitrary integer cost function for the checkers."""
    grid = list(product(range(L + 1), repeat=m))
    hoods = tuple(tuple(range(m)) for _ in range(m))
    tables = tuple({pt: Fraction(fn(pt)[r]) for pt in grid} for r in range(m))
    return Tabulated(m=m, neighborhoods=hoods, tables=tables, max_load=L)


class TestJacobianSymmetry:
    def test_symmetric_affine_passes(self):
        c = tabulate(lambda p: (p[0] + 2 * p[1], 2 * p[0] + p[1]), 2, 5)
        assert check_jacobian_symmetry(c, 2) is None

    def test_asymmetric_affine_fails_at_origin(self):
        c = tabulate(lambda p: (p[0] + p[1], 3 * p[0] + p[1]), 2, 5)
        v = check_jacobian_symmetry(c, 2)
        assert v == Violation(lemma="jacobian", r=0, s=1, x=(0, 0))

    def test_separable_passes(self):
        c = tabulate(lambda p: (p[0] ** 2, 7 * p[1]), 2, 5)
        assert check_jacobian_symmetry(c, 2) is None

    def test_insufficient_table_range(self):
        c = tabulate(lambda p: (p[0], p[1]), 2, 2)
        with pytest.raises(LoadRangeError):
            check_jacobian_symmetry(c, 2)


class TestCrossLinearity:
    def test_separable_plus_linear_passes(self):
        c = tabulate(lambda p: (p[0] ** 2 + p[1], p[1] ** 3 + p[0]), 2, 6)
        assert check_cross_linearity(c, 2) is None

    def test_quadratic_cross_effect_fails(self):
        # c1 = x1 + x2^2: second difference in x2 is non-constant
        c = tabulate(lambda p: (p[0] + p[1] ** 2, p[1] + p[0] ** 2), 2, 6)
        v = check_cross_linearity(c, 2)
        assert v is not None and v.lemma in ("cross_a", "cross_b")

    def test_product_cost_fails(self):
        c = tabulate(lambda p: (p[0] * p[1], p[0] * p[1]), 2, 6)
        v = check_cross_linearity(c, 2)
        assert v is not None

    def test_three_resource_product_fails_distinct(self):
        c = tabulate(
            lambda p: (p[0] + p[1] * p[2], p[1] + p[0] * p[2], p[2] + p[0] * p[1]), 3, 5
        )
        v = check_cross_linearity(c, 2)
        assert v is not None and v.lemma == "cross_distinct"


class TestDecompose:
    def test_idempotent_on_structured_form(self):
        f = (tuple(Fraction(k * k) for k in range(6)), tuple(Fraction(3 * k) for k in range(6)))
        A = ((Fraction(0), Fraction(2)), (Fraction(2), Fraction(0)))
        src = SeparablePlusLinear(f=f, A=A)
        tab = as_tabulated(src, max_load=5)
        report = decompose_unweighted(tab, 3)
        assert isinstance(report, UnweightedConsistent)
        assert report.A == A
        for r in range(2):
            for k in range(1, 4):
                assert report.f[r][k] == f[r][k]

    def test_separable_gives_zero_A(self):
        c = tabulate(lambda p: (p[0] ** 2, 5 * p[1]), 2, 5)
        report = decompose_unweighted(c, 3)
        assert isinstance(report, UnweightedConsistent)
        assert all(v == 0 for row in report.A for v in row)

    def test_known_affine_decomposition(self):
        c = tabulate(lambda p: (p[0] + p[1], p[0] + 2 * p[1]), 2, 5)
        report = decompose_unweighted(c, 3)
        assert report.A == ((0, 1), (1, 0))
        assert report.f[0][2] == 2 and report.f[1][2] == 4

    def test_reconstruction_exact_on_domain(self):
        c = tabulate(lambda p: (2 * p[0] ** 2 + 3 * p[1], 3 * p[0] + p[1]), 2, 6)
        report = analyze_unweighted(c, 3)
        assert isinstance(report, UnweightedConsistent)
        for x in product(range(4), repeat=2):
            for r in range(2):
                if x[r] == 0:
                    continue
                rebuilt = report.f[r][x[r]] + sum(report.A[r][s] * x[s] for s in range(2))
                assert rebuilt == eval_cost_entry(c, x, r)

    def test_symmetric_zero_diagonal(self):
        c = tabulate(lambda p: (p[0] + 4 * p[1], 4 * p[0] + p[1] ** 2), 2, 5)
        report = decompose_unweighted(c, 3)
        assert report.A[0][0] == 0 and report.A[1][1] == 0
        assert report.A[0][1] == report.A[1][0] == 4


class TestClassifyWeighted:
    def test_symmetric_affine(self):
        model = Affine(A=((Fraction(1), Fraction(2)), (Fraction(2), Fraction(0))),
                       b=(Fraction(3), Fraction(-1)))
        report = classify_weighted(model)
        assert isinstance(report, WeightedAffine)
        assert report.A == model.A and report.b == model.b

    def test_asymmetric_affine_flagged(self):
        model = Affine(A=((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))),
                       b=(Fraction(0), Fraction(0)))
        report = classify_weighted(model)
        assert isinstance(report, Violation) and report.lemma == "affine_asymmetric"

    def test_exponential_recovered_from_samples(self):
        model = Exponential(a=(2.0, 3.0), phi=1.0, b=(0.0, 1.0))
        tab = as_tabulated(model, max_load=3, allow_float=True)
        report = classify_weighted(tab)
        assert isinstance(report, WeightedExponential)
        assert abs(report.phi - 1.0) <= 1e-9
        assert report.a == pytest.approx((2.0, 3.0))
        assert report.b == pytest.approx((0.0, 1.0))

    def test_phi_mismatch_flagged(self):
        def fn(p):
            import math
            return (math.exp(1.0 * p[0]), math.exp(2.0 * p[1]))

        grid = list(product(range(4), repeat=2))
        hoods = ((0, 1), (0, 1))
        tables = tuple({pt: fn(pt)[r] for pt in grid} for r in range(2))
        tab = Tabulated(m=2, neighborhoods=hoods, tables=tables, max_load=3)
        report = classify_weighted(tab)
        assert isinstance(report, Violation) and report.lemma == "exponential_phi_mismatch"

    def test_quadratic_is_neither(self):
        c = tabulate(lambda p: (p[0] ** 2, 0), 2, 3)
        report = classify_weighted(c)
        assert isinstance(report, Violation)

    def test_curved_separable_is_not_exponential(self):
        # c_r(x) = (x_r - 1)^2: the axis steps -1, then 1, fit no exponential
        f = (tuple(Fraction((k - 1) ** 2) for k in range(4)),) * 2
        zero = (Fraction(0),) * 2
        report = classify_weighted(SeparablePlusLinear(f=f, A=(zero, zero)))
        assert report == Violation(lemma="not_affine", r=0, s=0, x=(1, 0))

    @pytest.mark.parametrize("axis", [(0, 0, 0, 5), (0, 1, 2, 5)])
    def test_axis_that_bends_after_two_equal_steps_is_not_affine(self, axis):
        # flat, then a jump: once read as constant; straight, then a jump: an exponent of 0
        model = SeparablePlusLinear(f=(tuple(map(Fraction, axis)),), A=((Fraction(0),),))
        assert classify_weighted(model) == Violation(lemma="not_affine", r=0, s=0, x=(2,))

    def test_bent_axis_beside_an_exponential_one_is_not_exponential(self):
        grid = list(product(range(4), repeat=2))
        tables = ({pt: 2.0 ** pt[0] for pt in grid},
                  {pt: (0.0, 0.0, 0.0, 5.0)[pt[1]] for pt in grid})
        tab = Tabulated(m=2, neighborhoods=((0, 1), (0, 1)), tables=tables, max_load=3)
        report = classify_weighted(tab)
        assert isinstance(report, Violation) and report.lemma == "not_affine"

    def test_tiny_bend_on_a_flat_axis_is_not_affine(self):
        # separable and constant to within FLOAT_TOL, yet c_0(1) != c_0(0): no affine certificate
        c = tabulate(lambda p: [(0, Fraction(1, 10 ** 10), 0, 0)[p[0]]], 1, 3)
        assert classify_weighted(c) == Violation(lemma="not_affine", r=0, s=0, x=(1,))

    def test_constant_cost_reads_as_affine(self):
        c = tabulate(lambda p: (5, 7), 2, 3)
        report = classify_weighted(c)
        assert isinstance(report, WeightedAffine)
        assert all(v == 0 for row in report.A for v in row)
        assert report.b == (5, 7)


class TestPipeline:
    def test_violation_witness_reverifies(self):
        c = tabulate(lambda p: (p[0] + p[1], 3 * p[0] + p[1]), 2, 5)
        v = analyze_unweighted(c, 2)
        assert isinstance(v, Violation) and v.lemma == "jacobian"
        r, s, x = v.r, v.s, v.x
        bump = lambda pt, *idx: tuple(
            e + sum(1 for i in idx if i == g) for g, e in enumerate(pt)
        )
        lhs = eval_cost_entry(c, bump(x, r, s), r) - eval_cost_entry(c, bump(x, r), r)
        rhs = eval_cost_entry(c, bump(x, r, s), s) - eval_cost_entry(c, bump(x, s), s)
        assert lhs != rhs

    def test_models_without_a_table_bound_are_read_directly(self):
        affine = Affine(A=((Fraction(1), Fraction(2)), (Fraction(2), Fraction(1, 3))),
                        b=(Fraction(0), Fraction(1, 2)))
        report = analyze_unweighted(affine, 4)
        assert report == UnweightedConsistent(
            f=tuple(tuple(affine.A[r][r] * k + affine.b[r] for k in range(5)) for r in range(2)),
            A=((0, 2), (2, 0)), L=4)
        assert analyze_unweighted(Bilevel(m=2, budget=Fraction(1)), 2) == Violation(
            lemma="jacobian", r=0, s=1, x=(0, 1))

    def test_short_separable_plus_linear_table_keeps_the_order_of_the_checks(self):
        # max_load = L + 1: the Jacobian check has its entries, cross-linearity does not
        f = tuple(tuple(Fraction(k * k + r) for k in range(4)) for r in range(2))
        asymmetric = SeparablePlusLinear(f=f, A=((Fraction(0), Fraction(1)),
                                                 (Fraction(2), Fraction(0))))
        assert analyze_unweighted(asymmetric, 2) == Violation(lemma="jacobian", r=0, s=1,
                                                              x=(0, 0))
        symmetric = SeparablePlusLinear(f=f, A=((Fraction(1), Fraction(1)),
                                                (Fraction(1), Fraction(0))))
        with pytest.raises(LoadRangeError) as info:
            analyze_unweighted(symmetric, 2)
        assert str(info.value) == ("cross-linearity check at bound 2 needs table entries up "
                                   "to 4, model is bounded by 3")

    @pytest.mark.parametrize("check", [
        check_jacobian_symmetry, check_cross_linearity, decompose_unweighted, analyze_unweighted])
    def test_float_costs_refused(self, check):
        model = Exponential(a=(1.0, 0.5), phi=0.25, b=(1.0, 0.0))
        with pytest.raises(UsageError, match="^unweighted characterization needs exact costs"):
            check(model, 2)


@dataclass(frozen=True, eq=False)
class CountingTable(Tabulated):
    """A Tabulated that counts its entry reads per (x, r)."""

    reads: Counter = field(default_factory=Counter, repr=False)

    def entry(self, loads, r, player=None):
        self.reads[tuple(loads), r] += 1
        return super().entry(loads, r, player)


def counting(c, drop=()):
    """A fresh counting copy of c without the (key, r) table entries in drop."""
    tables = tuple({k: v for k, v in table.items() if (k, r) not in drop}
                   for r, table in enumerate(c.tables))
    return CountingTable(m=c.m, neighborhoods=c.neighborhoods, tables=tables,
                         max_load=c.max_load)


class TestReadOnce:
    SPL = SeparablePlusLinear(
        f=tuple(tuple(Fraction(k * k + r) for k in range(5)) for r in range(3)),
        A=((Fraction(0), Fraction(2), Fraction(-1)), (Fraction(2), Fraction(0), Fraction(3)),
           (Fraction(-1), Fraction(3), Fraction(0))),
    )
    TABLES = (
        as_tabulated(SPL, max_load=4),
        tabulate(lambda p: (p[0] + p[1] * p[2], p[1] + p[0] * p[2], p[2] + p[0] * p[1]), 3, 4),
        tabulate(lambda p: (p[0] ** 2 + 2 * p[1], 3 * p[1] + 2 * p[0]), 2, 4),
    )

    @pytest.mark.parametrize(
        "check", [check_jacobian_symmetry, check_cross_linearity, decompose_unweighted])
    def test_each_check_reads_every_entry_at_most_once(self, check):
        for table in self.TABLES:
            c = counting(table)
            with contextlib.suppress(GameError):  # decomposing the product table fails
                check(c, 2)
            assert c.reads and max(c.reads.values()) == 1, check.__name__

    def test_missing_entry_that_is_read_raises(self):
        full = tabulate(lambda p: (p[0] ** 2 + 2 * p[1], 3 * p[1] + 2 * p[0]), 2, 4)
        c = counting(full, drop={((1, 1), 0)})
        for check in (check_jacobian_symmetry, decompose_unweighted, analyze_unweighted):
            with pytest.raises(LoadRangeError) as info:
                check(c, 2)
            assert str(info.value) == "no table entry for resource 0 at (1, 1)"

    def test_unread_corner_entries_may_be_missing(self):
        full = tabulate(lambda p: (p[0] ** 2 + 2 * p[1], 3 * p[1] + 2 * p[0]), 2, 4)
        corner = {(k, r) for k in ((4, 4), (4, 3), (3, 4)) for r in range(2)}
        report = analyze_unweighted(counting(full, drop=corner), 2)
        assert isinstance(report, UnweightedConsistent)
        assert report == analyze_unweighted(full, 2)


# --- frozen reference: the entry-by-entry checks, linearity pass included -----------------

_RefViolation = namedtuple("_RefViolation", "lemma r s t x y", defaults=(None,) * 5)


def _ref_bump(x, *indices):
    out = list(x)
    for idx in indices:
        out[idx] += 1
    return tuple(out)


def _ref_require_range(c, L, extra, what):
    if L + extra > c.max_load:
        raise LoadRangeError(
            f"{what} at bound {L} needs table entries up to {L + extra}, "
            f"model is bounded by {c.max_load}"
        )


def _ref_jacobian(c, L):
    _ref_require_range(c, L, 1, "Jacobian symmetry check")
    m = c.m
    for x in product(range(L + 1), repeat=m):
        for r in range(m):
            for s in range(r + 1, m):
                lhs = eval_cost_entry(c, _ref_bump(x, r, s), r) - eval_cost_entry(c, _ref_bump(x, r), r)
                rhs = eval_cost_entry(c, _ref_bump(x, r, s), s) - eval_cost_entry(c, _ref_bump(x, s), s)
                if lhs != rhs:
                    return _RefViolation(lemma="jacobian", r=r, s=s, x=x)
    return None


def _ref_linearity(c, L):
    """The consolidated linearity pass: every base point against the axis reference."""
    m = c.m
    for r in range(m):
        ref = tuple(1 if u == r else 0 for u in range(m))
        for s in range(m):
            if s == r:
                continue
            dref = eval_cost_entry(c, _ref_bump(ref, s), r) - eval_cost_entry(c, ref, r)
            for x in product(range(L + 1), repeat=m):
                if x[r] == 0:
                    continue
                d = eval_cost_entry(c, _ref_bump(x, s), r) - eval_cost_entry(c, x, r)
                if d != dref:
                    return _RefViolation(lemma="linearity", r=r, s=s, x=x, y=ref)
    return None


def _ref_cross(c, L):
    _ref_require_range(c, L, 2, "cross-linearity check")
    m = c.m
    for x in product(range(L + 1), repeat=m):
        for r in range(m):
            if x[r] == 0:
                continue
            for s in range(m):
                if s == r:
                    continue
                d0 = eval_cost_entry(c, _ref_bump(x, s), r) - eval_cost_entry(c, x, r)
                if d0 != eval_cost_entry(c, _ref_bump(x, r, s), r) - eval_cost_entry(c, _ref_bump(x, r), r):
                    return _RefViolation(lemma="cross_a", r=r, s=s, x=x)
                if eval_cost_entry(c, _ref_bump(x, s, s), r) - eval_cost_entry(c, _ref_bump(x, s), r) != d0:
                    return _RefViolation(lemma="cross_b", r=r, s=s, x=x)
                for t in range(m):
                    if t == r or t == s:
                        continue
                    if d0 != eval_cost_entry(c, _ref_bump(x, s, t), r) - eval_cost_entry(c, _ref_bump(x, t), r):
                        return _RefViolation(lemma="cross_distinct", r=r, s=s, t=t, x=x)
    return _ref_linearity(c, L)


def _ref_decompose(c, L):
    _ref_require_range(c, L, 1, "decomposition")
    m = c.m
    f = []
    for r in range(m):
        axis = []
        for k in range(L + 1):
            pt = tuple(k if u == r else 0 for u in range(m))
            axis.append(eval_cost_entry(c, pt, r))
        f.append(tuple(axis))
    A = [[Fraction(0)] * m for _ in range(m)]
    for r in range(m):
        unit_r = tuple(1 if u == r else 0 for u in range(m))
        for s in range(m):
            if s == r:
                continue
            A[r][s] = eval_cost_entry(c, _ref_bump(unit_r, s), r) - eval_cost_entry(c, unit_r, r)
    for r in range(m):
        for s in range(r + 1, m):
            if A[r][s] != A[s][r]:
                return _RefViolation(lemma="jacobian", r=r, s=s, x=tuple([0] * m))
    for x in product(range(L + 1), repeat=m):
        for r in range(m):
            if x[r] == 0:
                continue
            rebuilt = f[r][x[r]] + sum(A[r][s] * x[s] for s in range(m) if x[s])
            if rebuilt != eval_cost_entry(c, x, r):
                raise GameError(
                    f"decomposition failed to reconstruct c_{r} at {x}; "
                    "run the consistency checks first or increase L"
                )
    return UnweightedConsistent(f=tuple(f), A=tuple(tuple(row) for row in A), L=L)


def _ref_analyze(c, L):
    return _ref_jacobian(c, L) or _ref_cross(c, L) or _ref_decompose(c, L)


def _outcome(check, c, L):
    """A comparable summary: the report's fields, or the error's type and message."""
    try:
        report = check(c, L)
    except (LoadRangeError, GameError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(report, UnweightedConsistent):
        return "consistent", report.f, report.A, report.L
    if report is None:
        return None
    return "violation", report.lemma, report.r, report.s, report.t, report.x


def _symmetric(rng, m, lo=-2, hi=3):
    A = [[Fraction(0)] * m for _ in range(m)]
    for r in range(m):
        A[r][r] = Fraction(rng.randint(lo, hi))
        for s in range(r + 1, m):
            A[r][s] = A[s][r] = Fraction(rng.randint(lo, hi))
    return A


def _reference_corpus():
    """(label, table, L) triples from a fixed seed; every table is boxed at L + 2."""
    rng = random.Random(20200717)
    cases = []
    for m, L in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)):
        top = L + 2
        for _ in range(2):
            f = tuple(
                tuple(Fraction(rng.randint(-3, 9)) for _ in range(top + 1)) for _ in range(m)
            )
            A = _symmetric(rng, m)
            for r in range(m):
                A[r][r] = Fraction(0)
            spl = as_tabulated(SeparablePlusLinear(f=f, A=tuple(map(tuple, A))), max_load=top)
            cases.append(("separable_plus_linear", spl, L))
            b = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m))
            affine = as_tabulated(Affine(A=tuple(map(tuple, _symmetric(rng, m))), b=b),
                                  max_load=top)
            cases.append(("affine", affine, L))
            # one entry of a consistent table moved by one
            base = {pt: [spl.entry(pt, r) for r in range(m)]
                    for pt in product(range(top + 1), repeat=m)}
            pt, r = rng.choice(list(base)), rng.randrange(m)
            base[pt][r] += 1
            cases.append(("perturbed", tabulate(lambda p: base[p], m, top), L))
            # a consistent table with a few entries missing
            drop = {(rng.choice(list(base)), rng.randrange(m)) for _ in range(3)}
            cases.append(("partial", counting(tabulate(lambda p: base[p], m, top), drop), L))
        raw = {pt: [rng.randint(0, 1) for _ in range(m)]
               for pt in product(range(top + 1), repeat=m)}
        cases.append(("raw", tabulate(lambda p: raw[p], m, top), L))
        kink = rng.randint(1, L + 1)
        g = lambda v, k=kink: v if v <= k else 2 * v - k
        cases.append(("kinked_cross", tabulate(
            lambda p: [p[r] ** 2 + sum(g(p[s]) for s in range(m) if s != r) for r in range(m)],
            m, top), L))
        cases.append(("sum_of_others", tabulate(
            lambda p: [p[r] + (sum(p) - p[r]) ** 2 for r in range(m)], m, top), L))
        cases.append(("square_of_total", tabulate(
            lambda p: [p[r] + sum(p) ** 2 for r in range(m)], m, top), L))
        cases.append(("product_of_others", tabulate(
            lambda p: [p[r] + math.prod(p[s] for s in range(m) if s != r) for r in range(m)],
            m, top), L))
        for _ in range(3):
            # affine in the other loads where x_r >= 1 and x <= L, arbitrary elsewhere
            A = _symmetric(rng, m) if rng.random() < 0.7 else [
                [Fraction(rng.randint(-2, 3)) for _ in range(m)] for _ in range(m)]
            f = [[rng.randint(-3, 9) for _ in range(top + 1)] for _ in range(m)]
            noise = {pt: [rng.randint(-2, 2) for _ in range(m)]
                     for pt in product(range(top + 1), repeat=m)}

            def local(p, A=A, f=f, noise=noise):
                return [
                    f[r][p[r]] + sum(A[r][s] * p[s] for s in range(m) if s != r)
                    if p[r] >= 1 and max(p) <= L else noise[p][r]
                    for r in range(m)
                ]

            cases.append(("locally_linear", tabulate(local, m, top), L))
    return cases


def _model_corpus():
    """(label, model, L) triples from a fixed seed: exact models that are not tabulated."""
    rng = random.Random(20201018)

    def ratio(dens):
        return Fraction(rng.randint(-6, 6), rng.choice(dens))

    def matrix(m, dens):
        if rng.random() < 0.7:
            A = [[ratio(dens) for _ in range(m)] for _ in range(m)]
            return tuple(tuple(A[min(r, s)][max(r, s)] for s in range(m)) for r in range(m))
        return tuple(tuple(ratio(dens) for _ in range(m)) for _ in range(m))

    cases = []
    for m, L in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2)):
        for _ in range(3):
            top = L + rng.choice((1, 2, 2, 3))  # a table one short of L + 2 fails the range rule
            f = tuple(tuple(ratio((1, 2)) for _ in range(top + 1)) for _ in range(m))
            cases.append(("separable_plus_linear", SeparablePlusLinear(f=f, A=matrix(m, (1,))), L))
            cases.append(("affine D = 1", Affine(A=matrix(m, (1,)), b=tuple(
                ratio((1,)) for _ in range(m))), L))
            cases.append(("affine D > 1", Affine(A=matrix(m, (1, 2, 3, 5)), b=tuple(
                ratio((1, 4)) + Fraction(1, 3) for _ in range(m))), L))
            cases.append(("bilevel", Bilevel(m=m, budget=Fraction(rng.randint(1, 9),
                                                                  rng.randint(1, 4))), L))
    return cases


def _kind(outcome):
    return outcome[1] if outcome[0] == "violation" else outcome[0]


class TestMatchesReference:
    """The checks give the reports and first witnesses of the entry-by-entry reference.

    A table is checked as it is; a model that is not tabulated is checked as it is and
    compared with the reference on its tabulation up to L + 2, or up to its own bound.
    """

    CORPUS = _reference_corpus()
    MODELS = _model_corpus()
    CASES = [(label, c, c, L) for label, c, L in CORPUS] + [
        (label, model, as_tabulated(model, min(L + 2, getattr(model, "max_load", L + 2))), L)
        for label, model, L in MODELS]

    def test_pipeline_matches_reference(self):
        for label, c, table, L in self.CASES:
            assert _outcome(analyze_unweighted, c, L) == _outcome(_ref_analyze, table, L), label

    def test_each_check_matches_reference(self):
        pairs = ((check_jacobian_symmetry, _ref_jacobian), (check_cross_linearity, _ref_cross),
                 (decompose_unweighted, _ref_decompose))
        for label, c, table, L in self.CASES:
            for check, ref in pairs:
                assert _outcome(check, c, L) == _outcome(ref, table, L), (label, check.__name__)

    def test_model_corpus_reaches_every_shape(self):
        kinds = {(label, _kind(_outcome(_ref_analyze, table, L)))
                 for label, _model, table, L in self.CASES[len(self.CORPUS):]}
        assert {(label, kind) for label in ("separable_plus_linear", "affine D = 1", "affine D > 1")
                for kind in ("consistent", "jacobian")} <= kinds
        assert {("separable_plus_linear", "LoadRangeError"), ("bilevel", "jacobian")} <= kinds
        assert all(model.kernel[0] > 1
                   for label, model, _L in self.MODELS if label == "affine D > 1")

    def test_corpus_reaches_every_outcome(self):
        kinds = {_kind(_outcome(_ref_analyze, c, L)) for _label, c, L in self.CORPUS}
        assert {"jacobian", "cross_a", "cross_b", "cross_distinct", "consistent",
                "LoadRangeError"} <= kinds

    def test_linearity_pass_never_fires(self):
        for label, c, L in self.CORPUS:
            try:
                report = _ref_cross(c, L)
            except LoadRangeError:
                continue
            assert report is None or report.lemma != "linearity", label


# --- the one-pass accept -------------------------------------------------------------------


def _read_set(m, L):
    """The (x, r) entries the ordered checks read on a consistent model, by brute force."""
    if m == 1:
        return {((k,), 0) for k in range(L + 1)}
    return {((0,) * m, r) for r in range(m)} | {
        (y, r) for y in product(range(L + 3), repeat=m) for r in range(m)
        if 1 <= y[r] <= L + 1 and sum(max(0, v - L) for v in y) <= 2}


def _consistent_corpus():
    """(m, L, dense table) triples from a fixed seed, boxed at L + 2, every one consistent."""
    rng = random.Random(20201118)
    cases = []
    for m, L in ((2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)):
        top = L + 2
        A = _symmetric(rng, m)
        for r in range(m):
            A[r][r] = Fraction(0)
        f = tuple(tuple(Fraction(rng.randint(-3, 9), rng.choice((1, 2))) for _ in range(top + 1))
                  for _ in range(m))
        spl = SeparablePlusLinear(f=f, A=tuple(map(tuple, A)))
        cases.append((m, L, tabulate(lambda p: [spl.entry(p, r) for r in range(m)], m, top)))
    return cases


def _moved(table, key, r, by=Fraction(1, 3)):
    """A copy of table with its resource-r entry at `key` moved by `by`."""
    tables = tuple(dict(t) for t in table.tables)
    tables[r][key] += by
    return Tabulated(m=table.m, neighborhoods=table.neighborhoods, tables=tables,
                     max_load=table.max_load)


class TestOnePassAccept:
    """The one-pass accept returns the ordered checks' report and reads each entry once."""

    CONSISTENT = _consistent_corpus()

    def test_each_read_entry_moved_matches_reference(self):
        seen = Counter()
        for m, L, table in self.CONSISTENT:
            for y, r in sorted(_read_set(m, L)):
                if m * L > 6 and r != sum(y) % m:
                    continue  # m = 4, L = 2: one resource per point, a quarter of the 940
                c = _moved(table, y, r)
                outcome = _outcome(analyze_unweighted, c, L)
                assert outcome == _outcome(_ref_analyze, c, L), (m, L, y, r)
                seen[_kind(outcome)] += 1
        # a moved f_r(0) is still consistent; every other move is caught by some check
        assert {"consistent", "jacobian", "cross_b", "cross_distinct"} <= set(seen)

    @pytest.mark.parametrize("m, L", [(1, 1), (1, 3), (2, 1), (2, 3), (3, 2), (4, 1), (4, 2)])
    def test_consistent_table_read_once_on_the_read_set(self, m, L):
        spl = SeparablePlusLinear(
            f=tuple(tuple(Fraction(k * k - r, 1 + k % 2) for k in range(L + 3)) for r in range(m)),
            A=tuple(tuple(Fraction(0) if r == s else Fraction(r + s - 2) for s in range(m))
                    for r in range(m)))
        c = counting(tabulate(lambda p: [spl.entry(p, r) for r in range(m)], m, L + 2))
        report = analyze_unweighted(c, L)
        assert isinstance(report, UnweightedConsistent)
        assert report == _ref_analyze(c, L)
        c.reads.clear()
        analyze_unweighted(c, L)
        assert set(c.reads) == _read_set(m, L)
        assert set(c.reads.values()) == {1}

    def test_read_set_is_that_of_the_ordered_checks(self):
        for m, L, table in self.CONSISTENT:
            c = counting(table)
            for check in (check_jacobian_symmetry, check_cross_linearity, decompose_unweighted):
                check(c, L)
            assert set(c.reads) == _read_set(m, L), (m, L)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_models_match_reference(self, data):
        m = data.draw(st.integers(min_value=1, max_value=4), label="m")
        L = data.draw(st.integers(min_value=1, max_value=2), label="L")
        ratio = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
        upper = data.draw(st.lists(ratio, min_size=m * m, max_size=m * m), label="A")
        A = tuple(tuple(upper[min(r, s) * m + max(r, s)] for s in range(m)) for r in range(m))
        if data.draw(st.booleans(), label="affine"):
            model = Affine(A=A, b=tuple(data.draw(st.lists(ratio, min_size=m, max_size=m))))
        else:
            A = tuple(tuple(Fraction(0) if r == s else a for s, a in enumerate(row))
                      for r, row in enumerate(A))
            f = tuple(tuple(data.draw(st.lists(ratio, min_size=L + 3, max_size=L + 3)))
                      for _ in range(m))
            model = SeparablePlusLinear(f=f, A=A)
        # both halves are tables, so that every example reaches the one-pass accept
        # and none the closed form of the model itself
        table = as_tabulated(model, max_load=L + 2)
        if data.draw(st.booleans(), label="perturbed"):
            r = data.draw(st.integers(0, m - 1), label="r")
            key = data.draw(st.sampled_from(sorted(table.tables[r])), label="key")
            table = _moved(table, key, r,
                           data.draw(st.sampled_from((Fraction(1), Fraction(-1, 2)))))
        assert _outcome(analyze_unweighted, table, L) == _outcome(_ref_analyze, table, L)


class TestAsymmetricAxes:
    """Axes that give an asymmetric A answer from the axis reads alone, each read once."""

    @pytest.mark.parametrize("m, L", [(2, 1), (2, 3), (3, 2), (4, 1)])
    def test_read_once_on_the_axes(self, m, L):
        # symmetric but for the last pair, so that every a_rs is compared before the witness
        A = tuple(tuple(Fraction(0) if r == s else Fraction(r + s + (r == m - 1 and s == m - 2))
                        for s in range(m)) for r in range(m))
        spl = SeparablePlusLinear(
            f=tuple(tuple(Fraction(k * k - r, 1 + k % 2) for k in range(L + 3)) for r in range(m)),
            A=A)
        c = counting(tabulate(lambda p: [spl.entry(p, r) for r in range(m)], m, L + 2))
        report = analyze_unweighted(c, L)
        unit = [tuple(int(u == r) for u in range(m)) for r in range(m)]
        assert set(c.reads) == {(tuple(k * v for v in unit[r]), r)
                                for r in range(m) for k in range(L + 2)} | {
            (_ref_bump(unit[r], s), r) for r in range(m) for s in range(m) if s != r}
        assert set(c.reads.values()) == {1}
        ref = _ref_analyze(c, L)
        assert report == Violation(lemma=ref.lemma, r=ref.r, s=ref.s, t=ref.t, x=ref.x) \
            == Violation(lemma="jacobian", r=m - 2, s=m - 1, x=(0,) * m)


# --- the closed form for separable-plus-linear and affine models ----------------------------


class Unreadable(SeparablePlusLinear):
    """A separable-plus-linear model whose entries must not be read."""

    def entry(self, loads, r, player=None):
        raise AssertionError(f"entry read at {loads}, resource {r}")


class TestClosedForm:
    """SPL and Affine reports come from their coefficients, as the entry-by-entry checks
    would give them on the model's tabulation up to L + 2."""

    @seed(21)
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_reference_on_the_tabulation(self, data):
        m = data.draw(st.integers(min_value=1, max_value=5), label="m")
        L = data.draw(st.integers(min_value=0, max_value=3), label="L")
        ratio = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
        A = data.draw(st.lists(ratio, min_size=m * m, max_size=m * m), label="A")
        if data.draw(st.booleans(), label="symmetric"):
            A = [A[min(r, s) * m + max(r, s)] for r in range(m) for s in range(m)]
        A = tuple(tuple(A[r * m:(r + 1) * m]) for r in range(m))
        if data.draw(st.booleans(), label="affine"):
            model = Affine(A=A, b=tuple(data.draw(st.lists(ratio, min_size=m, max_size=m))))
        else:
            top = data.draw(st.integers(L + 2, L + 3), label="max_load")
            f = tuple(tuple(data.draw(st.lists(ratio, min_size=top + 1, max_size=top + 1)))
                      for _ in range(m))
            model = SeparablePlusLinear(f=f, A=A)
        assert model.decomposition(L) is not None
        report = analyze_unweighted(model, L)
        ref = _ref_analyze(as_tabulated(model, max_load=L + 2), L)
        if isinstance(ref, _RefViolation):
            ref = Violation(lemma=ref.lemma, r=ref.r, s=ref.s, t=ref.t, x=ref.x)
        assert report == ref
        assert encode(report) == encode(ref)

    def test_reads_no_entry(self):
        f = tuple(tuple(Fraction(k * k + r) for k in range(5)) for r in range(2))
        spl = Unreadable(f=f, A=((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1))))
        assert analyze_unweighted(spl, 2) == UnweightedConsistent(
            f=(tuple(Fraction(k * k + k) for k in range(3)),
               tuple(Fraction(k * k + 1 - k) for k in range(3))),
            A=((0, Fraction(1, 2)), (Fraction(1, 2), 0)), L=2)
        spl = Unreadable(f=f, A=((Fraction(0), Fraction(1)), (Fraction(2), Fraction(0))))
        assert analyze_unweighted(spl, 2) == Violation(lemma="jacobian", r=0, s=1, x=(0, 0))


# --- the weighted classifier against a frozen copy --------------------------------------------


def frozen_classify_weighted(model):
    """`classify_weighted` as it was before its sampled branch became one affine fit and
    one per-axis exponential fit, frozen: (its report, its `not_affine` witness or None)."""
    if isinstance(model, Affine):
        at = first_asymmetry(model.A)
        if at is not None:
            return Violation(lemma="affine_asymmetric", r=at[0], s=at[1]), None
        return WeightedAffine(A=model.A, b=model.b), None
    if isinstance(model, Exponential):
        return WeightedExponential(a=model.a, phi=model.phi, b=model.b), None

    def close(a, b):
        if isinstance(a, float) or isinstance(b, float):
            return abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))
        return a == b

    dim = model.m
    points = list(product((0, 1, 2, 3), repeat=dim))
    values = {pt: eval_cost(model, pt) for pt in points}
    top = 3

    affine_witness = None
    diffs = {}
    for r in range(dim):
        for s in range(dim):
            base = None
            for pt in points:
                if pt[s] == top:
                    continue
                nxt = pt[:s] + (pt[s] + 1,) + pt[s + 1:]
                d = values[nxt][r] - values[pt][r]
                if base is None:
                    base = d
                elif not close(d, base):
                    affine_witness = Violation(lemma="not_affine", r=r, s=s, x=pt)
                    break
            diffs[(r, s)] = base
        if affine_witness:
            break

    if affine_witness is None:
        A = tuple(
            tuple(Fraction(diffs[(r, s)]) for s in range(dim)) for r in range(dim)
        )
        for r in range(dim):
            for s in range(r + 1, dim):
                if not close(A[r][s], A[s][r]):
                    return Violation(lemma="affine_asymmetric", r=r, s=s), None
        b = values[tuple([0] * dim)]
        return WeightedAffine(A=A, b=tuple(b)), None

    zero = tuple([0] * dim)
    for r in range(dim):
        for pt in points:
            axis = tuple(pt[r] if u == r else 0 for u in range(dim))
            if not close(values[pt][r], values[axis][r]):
                return (Violation(lemma="not_affine_or_exponential", r=r, s=None, x=pt),
                        affine_witness)
    a_out, b_out, phis = [], [], []
    for r in range(dim):
        axis_val = lambda k: float(values[tuple(k if u == r else 0 for u in range(dim))][r])  # noqa: E731,B023
        v0, v1, v2 = axis_val(0), axis_val(1), axis_val(2)
        d1, d2 = v1 - v0, v2 - v1
        constant = abs(d1) <= FLOAT_TOL and abs(d2) <= FLOAT_TOL
        if constant:
            a_r = phi_r = 0.0
        elif d1 == 0 or (d2 / d1) <= 0 or close(d1, d2):
            return affine_witness, affine_witness
        else:
            phi_r = math.log(d2 / d1)
            a_r = d1 / (math.exp(phi_r) - 1.0)
        b_r = v0 - a_r
        for k in (0, 1, 2, 3):
            fitted = a_r * math.exp(phi_r * float(k)) + b_r
            if not close(fitted, axis_val(k)):
                return affine_witness, affine_witness
        a_out.append(a_r)
        b_out.append(b_r)
        if not constant:
            phis.append(phi_r)
    if not phis:
        return WeightedAffine(
            A=tuple(tuple(Fraction(0) for _ in range(dim)) for _ in range(dim)),
            b=values[zero],
        ), affine_witness
    if any(abs(p - phis[0]) > FLOAT_TOL for p in phis[1:]):
        return Violation(lemma="exponential_phi_mismatch"), affine_witness
    return WeightedExponential(a=tuple(a_out), phi=phis[0], b=tuple(b_out)), affine_witness


def _dense(values, drop=None):
    """A Tabulated of {x: [c_0(x), ..]} on {0..3}^m with full neighborhoods, values kept
    as given (Fraction or float), without the (x, r) entry in drop."""
    m = len(next(iter(values)))
    tables = tuple({x: v[r] for x, v in values.items() if (x, r) != drop} for r in range(m))
    return Tabulated(m=m, neighborhoods=(tuple(range(m)),) * m, tables=tables, max_load=3)


def _weighted_corpus():
    """(label, model) pairs from a fixed seed: exact and float tables, SPL, Bilevel and
    structured models, some of them bent by a single entry or missing one."""
    rng = random.Random(20201019)
    tiny = Fraction(1, 10 ** 10)

    def ratio():
        return Fraction(rng.randint(-4, 4), rng.choice((1, 2)))

    def matrix(m, symmetric):
        A = [[ratio() for _ in range(m)] for _ in range(m)]
        if symmetric:
            A = [[A[min(r, s)][max(r, s)] for s in range(m)] for r in range(m)]
        return tuple(map(tuple, A))

    def bumped(values, by):
        """values with one entry moved by `by`; half the time on the axis of its resource."""
        m = len(next(iter(values)))
        at, r = tuple(rng.randint(0, 3) for _ in range(m)), rng.randrange(m)
        if rng.random() < 0.5:
            at = tuple(v if u == r else 0 for u, v in enumerate(at))
        out = dict(values)
        out[at] = [v + by if u == r else v for u, v in enumerate(values[at])]
        return out

    cases = [("tiny bend", _dense({(k,): [v] for k, v in enumerate((0, tiny, 0, 0))}))]
    for m in (1, 1, 2, 2, 3, 3, 4):
        grid = list(product(range(4), repeat=m))
        for _ in range(25 if m < 4 else 3):
            q = [rng.choice((2, 3))] * m if rng.random() < 0.7 else [
                rng.choice((2, 3)) for _ in range(m)]
            a = [ratio() if rng.random() < 0.8 else Fraction(0) for _ in range(m)]
            b = [ratio() for _ in range(m)]
            exp = {x: [a[r] * q[r] ** x[r] + b[r] for r in range(m)] for x in grid}
            cases.append(("exact exponential", _dense(exp)))
            cases.append(("exact exponential bumped", _dense(bumped(exp, ratio()))))
            phis = [rng.choice((0.5, 1.0, -0.7))] * m if rng.random() < 0.7 else [
                rng.choice((0.5, 1.0, -0.7)) for _ in range(m)]
            fa = [rng.uniform(-3, 3) for _ in range(m)]
            fb = [rng.uniform(-3, 3) for _ in range(m)]
            cases.append(("float exponential", _dense(
                {x: [fa[r] * math.exp(phis[r] * x[r]) + fb[r] for r in range(m)] for x in grid})))
            cases.append(("tabulated Exponential", as_tabulated(
                Exponential(a=tuple(fa), phi=phis[0], b=tuple(fb)), 3, allow_float=True)))
            coef = [[ratio() for _ in range(3)] for _ in range(m)]
            C = matrix(m, rng.random() < 0.5)
            cross = rng.random() < 0.5
            cases.append(("polynomial", _dense({x: [
                sum(c * x[r] ** k for k, c in enumerate(coef[r]))
                + (sum(C[r][s] * x[r] * x[s] for s in range(m)) if cross else 0)
                for r in range(m)] for x in grid})))
            A, b0 = matrix(m, rng.random() < 0.7), [ratio() for _ in range(m)]
            if rng.random() < 0.3:
                A = tuple(tuple(v if r == s else Fraction(0) for s, v in enumerate(row))
                          for r, row in enumerate(A))
            aff = {x: [sum(map(mul, A[r], x)) + b0[r] for r in range(m)] for x in grid}
            cases.append(("affine", _dense(aff)))
            cases.append(("affine bumped", _dense(bumped(aff, rng.choice(
                (Fraction(1), Fraction(-1, 2), tiny))))))
            cases.append(("affine bumped by a float", _dense(bumped(aff, 1e-10))))
            cases.append(("non-separable", _dense(
                {x: [Fraction(rng.randint(0, 2)) for _ in range(m)] for x in grid})))
            const = {x: [b[r] for r in range(m)] for x in grid}
            cases.append(("constant", _dense(const)))
            cases.append(("constant with tiny noise", _dense(bumped(const, tiny))))
            top = rng.choice((2, 3, 3, 4))
            f = tuple(tuple(ratio() * (2 ** k if rng.random() < 0.3 else k) for k in range(top + 1))
                      for _ in range(m))
            cases.append(("separable_plus_linear", SeparablePlusLinear(
                f=f, A=matrix(m, rng.random() < 0.7))))
            cases.append(("bilevel", Bilevel(m=m, budget=Fraction(rng.randint(1, 9),
                                                                  rng.randint(1, 4)))))
            cases.append(("Affine", Affine(A=matrix(m, rng.random() < 0.7), b=tuple(b0))))
            cases.append(("Exponential", Exponential(a=tuple(fa), phi=phis[0], b=tuple(fb))))
            drop = (rng.choice(grid), rng.randrange(m))
            cases.append(("affine with an entry missing", _dense(aff, drop=drop)))
    return cases

def _weighted_outcome(classify, model):
    try:
        return classify(model)
    except GameError as exc:
        return type(exc).__name__, str(exc)


def _weighted_kind(outcome):
    if isinstance(outcome, Violation):
        return outcome.lemma
    return outcome[0] if isinstance(outcome, tuple) else type(outcome).__name__


class TestClassifyWeightedMatchesFrozen:
    """The weighted classifier gives the frozen copy's report, witness or error, except
    where the frozen copy read separable samples that are constant on every axis, yet not
    affine, as `WeightedAffine`: there it gives the frozen copy's own `not_affine` witness.
    A model whose max_load is below 3 is refused before sampling, with a message that
    names the sample grid and the bound, where the frozen copy failed on its first read
    of load 3."""

    CORPUS = _weighted_corpus()

    def test_reports_and_errors_as_before(self):
        kinds, false_affine, short = set(), 0, 0
        for label, model in self.CORPUS:
            got = _weighted_outcome(classify_weighted, model)
            try:
                want, witness = frozen_classify_weighted(model)
            except GameError as exc:
                want, witness = (type(exc).__name__, str(exc)), None
            kinds.add(_weighted_kind(want))
            if getattr(model, "max_load", 3) < 3:
                assert want[0] == "LoadRangeError" and "outside 0.." in want[1], label
                assert got == ("LoadRangeError", "--weighted samples every resource at loads "
                               f"0..3; the cost's max_load is {model.max_load}"), label
                short += 1
            elif isinstance(want, WeightedAffine) and witness is not None:
                false_affine += 1
                assert got == witness, label
            else:
                assert got == want, label
        assert {"WeightedAffine", "WeightedExponential", "not_affine", "not_affine_or_exponential",
                "affine_asymmetric", "exponential_phi_mismatch", "LoadRangeError"} <= kinds
        assert false_affine >= 10 and short >= 10 and len(self.CORPUS) >= 2000
