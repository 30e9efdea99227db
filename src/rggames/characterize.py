"""Consistency tests for cost functions: decomposition or violation witness.

The unweighted checks are exact functional equations on bounded integer
domains; a pass certifies consistency only up to the tested bound, which the
report states explicitly.  They read any exact model through `entry`, up to
its `max_load` if any (Affine and Bilevel have none); Exponential costs are
floats and raise UsageError.  Entries are read lazily, once per check: each
check keeps a value table that evaluates c_r(x) on its first read, so a
table may omit entries that no check reads, and a missing entry fails at the
same first read as entry-by-entry evaluation would.

`analyze_unweighted` runs two stages.

1. One candidate (f, A) and its report.  A SeparablePlusLinear or Affine
   model is already in the form c_r(x) = f_r(x_r) + sum_{s != r} a_rs x_s,
   so its candidate is its coefficients up to L (`decomposition(L)`); every
   other model's candidate is read off the axes (`_axis_form`).  On a
   consistent model (m >= 2) the ordered checks read c_r exactly on
   f_r(0) = c_r(0) and on

       S_r = {y : 1 <= y_r <= L+1, sum_u max(0, y_u - L) <= 2},

   and nothing else (for m = 1 only on k*1_r, k = 0..L); the axis reader
   checks c_r(y) = f_r(y_r) + sum_{s != r} a_rs y_s once on every y in S_r,
   and a misfit gives no candidate.  The report is the Jacobian violation
   at x = 0 on the first r < s with a_rs != a_sr, where the Jacobian check
   compares exactly a_rs and a_sr, else (f, A).
2. The ordered checks: Jacobian symmetry, cross-linearity, decomposition.
   They run only where there is no candidate (an SPL whose tables stop
   before L + 2, a misfit on S_r, or an error of the axis reader), from
   fresh value tables, so witnesses and errors are theirs.

The weighted classifier implements the affine-or-exponential dichotomy on
the sample grid GRID^m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product
from operator import mul
from typing import Optional, Union

from .costs import (
    Affine,
    CostModel,
    Exponential,
    SeparablePlusLinear,
    Tabulated,
    eval_cost,
    eval_cost_entry,
    first_asymmetry,
)
from .dynamics import FLOAT_TOL
from .errors import GameError, LoadRangeError, UsageError

GRID = (0, 1, 2, 3)  # per-resource sample loads of the weighted classifier


@dataclass(frozen=True)
class UnweightedConsistent:
    f: tuple  # f[r][k] for k = 0..L
    A: tuple  # symmetric, zero diagonal
    L: int


@dataclass(frozen=True)
class WeightedAffine:
    A: tuple
    b: tuple


@dataclass(frozen=True)
class WeightedExponential:
    a: tuple
    phi: float
    b: tuple


@dataclass(frozen=True)
class Violation:
    lemma: str  # jacobian | cross_a | cross_b | cross_distinct | weighted labels
    r: Optional[int] = None
    s: Optional[int] = None
    t: Optional[int] = None
    x: Optional[tuple] = None


ConsistencyReport = Union[UnweightedConsistent, WeightedAffine, WeightedExponential, Violation]


def _bump(x: tuple, *indices: int) -> tuple:
    out = list(x)
    for idx in indices:
        out[idx] += 1
    return tuple(out)


def _require_range(c: CostModel, L: int, extra: int, what: str) -> None:
    if isinstance(c, Exponential):
        raise UsageError("unweighted characterization needs exact costs; use --weighted for floats")
    if L + extra > getattr(c, "max_load", math.inf):
        raise LoadRangeError(
            f"{what} at bound {L} needs table entries up to {L + extra}, "
            f"model is bounded by {c.max_load}"
        )


def _values(c: CostModel):
    """The value table of c: value(x, r) is c_r(x), evaluated on first read and kept."""
    seen = {}

    def value(x: tuple, r: int):
        if (x, r) not in seen:
            seen[x, r] = eval_cost_entry(c, x, r)
        return seen[x, r]

    return value


def _diff(value, x: tuple, r: int, s: int):
    """c_r(x+1_s) - c_r(x), reading the bumped point first."""
    return value(_bump(x, s), r) - value(x, r)


def check_jacobian_symmetry(c: CostModel, L: int) -> Optional[Violation]:
    """Unit-increment symmetry: the discrete Jacobian of c must be symmetric.

    Checks c_r(x+1_{rs}) - c_r(x+1_r) = c_s(x+1_{rs}) - c_s(x+1_s) for all
    r < s and all x with entries <= L.  Returns the first violation or None.
    """
    _require_range(c, L, 1, "Jacobian symmetry check")
    value = _values(c)
    m = c.m
    for x in product(range(L + 1), repeat=m):
        for r in range(m):
            for s in range(r + 1, m):
                if _diff(value, _bump(x, r), r, s) != _diff(value, _bump(x, s), s, r):
                    return Violation(lemma="jacobian", r=r, s=s, x=x)
    return None


def check_cross_linearity(c: CostModel, L: int) -> Optional[Violation]:
    """Cross effects must be linear: discrete Hessian diagonal in every off direction.

    With d(x) = c_r(x+1_s) - c_r(x), three conditions over all x with
    entries <= L and x_r > 0, for all s != r:
      cross_a:        d(x) = d(x+1_r)
      cross_b:        d(x) = d(x+1_s)
      cross_distinct: d(x) = d(x+1_t)   (r, s, t distinct)
    Together they make d constant on B = {x <= L : x_r > 0}, so c_r is
    linear in every other load there: any two points of B are joined by unit
    steps inside B, and the step from y to y+1_t is cross_a (t = r), cross_b
    (t = s) or cross_distinct at the base point y in B, which the loop
    checks.  Returns the first violation or None.
    """
    _require_range(c, L, 2, "cross-linearity check")
    value = _values(c)
    m = c.m
    for x in product(range(L + 1), repeat=m):
        for r in range(m):
            if x[r] == 0:
                continue
            for s in range(m):
                if s == r:
                    continue
                d0 = _diff(value, x, r, s)
                if _diff(value, _bump(x, r), r, s) != d0:
                    return Violation(lemma="cross_a", r=r, s=s, x=x)
                if _diff(value, _bump(x, s), r, s) != d0:
                    return Violation(lemma="cross_b", r=r, s=s, x=x)
                for t in range(m):
                    if t == r or t == s:
                        continue
                    if _diff(value, _bump(x, t), r, s) != d0:
                        return Violation(lemma="cross_distinct", r=r, s=s, t=t, x=x)
    return None


def _axes(value, m: int, top: int) -> tuple:
    """(f, A) off the axes: f_r(k) = c_r(k*1_r) for k = 0..top, a_rs = c_r(1_{rs}) - c_r(1_r)."""
    zero = (0,) * m
    f = tuple(
        tuple(value(tuple(k if u == r else 0 for u in range(m)), r) for k in range(top + 1))
        for r in range(m)
    )
    A = tuple(tuple(Fraction(0) if s == r else _diff(value, _bump(zero, r), r, s) for s in range(m))
              for r in range(m))
    return f, A


def _asymmetry(A) -> Optional[Violation]:
    """The Jacobian violation at x = 0 on the first r < s with a_rs != a_sr, or None."""
    at = first_asymmetry(A)
    return None if at is None else Violation(lemma="jacobian", r=at[0], s=at[1], x=(0,) * len(A))


def decompose_unweighted(c: CostModel, L: int) -> ConsistencyReport:
    """Recover (f, A) with f_r(k) = c_r(k*1_r), a_rs = c_r(1_{rs}) - c_r(1_r), a_rr = 0.

    Preconditions: the Jacobian and cross-linearity checks passed at bound L.
    The reconstruction c_r(x) = f_r(x_r) + (A x)_r is re-verified exactly on
    every x <= L with x_r > 0; a mismatch means a bug or an insufficient L.
    """
    _require_range(c, L, 1, "decomposition")
    value = _values(c)
    m = c.m
    f, A = _axes(value, m, L)
    violation = _asymmetry(A)
    if violation is not None:
        return violation
    for x in product(range(L + 1), repeat=m):
        for r in range(m):
            if x[r] == 0:
                continue
            rebuilt = f[r][x[r]] + sum(A[r][s] * x[s] for s in range(m) if x[s])
            if rebuilt != value(x, r):
                raise GameError(
                    f"decomposition failed to reconstruct c_{r} at {x}; "
                    "run the consistency checks first or increase L"
                )
    return UnweightedConsistent(f=f, A=A, L=L)


def _overshot(m: int, L: int):
    """Every y in {0..L+2}^m with sum_u max(0, y_u - L) <= 2, each once."""
    box = range(L + 1)
    yield from product(box, repeat=m)
    for u in range(m):
        for top in (L + 1, L + 2):
            yield from product(*((top,) if w == u else box for w in range(m)))
    for u, v in combinations(range(m), 2):
        yield from product(*((L + 1,) if w in (u, v) else box for w in range(m)))


def _axis_form(c: CostModel, L: int) -> Optional[tuple]:
    """(f, A) off the axes, as `decompose_unweighted` reads them, if A is asymmetric
    or c_r(y) = f_r(y_r) + sum_{s != r} a_rs y_s on S_r; None on a misfit.

    f_r is read up to L+1 when m >= 2 (S_r reaches y_r = L+1) and returned up
    to L.  An asymmetric A is returned at once: the ordered checks' first
    comparisons, at x = 0, are a_rs against a_sr in `first_asymmetry` order,
    on entries read here without error.  Otherwise the identity is checked
    once per (y, r) with y in S_r; the axis points k*1_r and the points 1_{rs}
    that define f and A satisfy it by construction and are not read again.
    The comparison runs in int: over a common denominator D of f and A,
    c_r(y) = n/d equals the right side iff n*D = (D*rhs)*d.

    Soundness: if the identity holds on S_r and A is symmetric, then every
    difference the checks compare, c_r(y+1_s) - c_r(y) with y and y+1_s in
    S_r, equals a_rs (f_r(y_r) cancels), so Jacobian symmetry, cross_a,
    cross_b and cross_distinct all pass, the axis reads give the same (f, A),
    and the reconstruction on x <= L, x_r > 0 holds.  Errors propagate.
    """
    _require_range(c, L, 2, "cross-linearity check")
    m = c.m
    f, A = _axes(_values(c), m, L + 1 if m > 1 else L)
    form = tuple(row[:L + 1] for row in f), A
    if first_asymmetry(A) is not None:
        return form
    D = math.lcm(*(v.denominator for row in chain(f, A) for v in row))
    Df = [[v.numerator * (D // v.denominator) for v in row] for row in f]
    DA = [[v.numerator * (D // v.denominator) for v in row] for row in A]
    for y in _overshot(m, L):
        total = sum(y)
        for r, yr in enumerate(y):
            if not 1 <= yr <= L + 1 or yr == total or (yr == 1 and total == 2):
                continue  # outside S_r, or on the axes read above
            v = eval_cost_entry(c, y, r)
            if v.numerator * D != (Df[r][yr] + sum(map(mul, DA[r], y))) * v.denominator:
                return None
    return form


def analyze_unweighted(c: CostModel, L: int) -> ConsistencyReport:
    """Full necessity pipeline: Jacobian, cross-linearity, then decomposition.

    Two stages (module docstring): the report of one candidate (f, A), and
    the ordered checks only where there is none.
    """
    if isinstance(c, (SeparablePlusLinear, Affine)):
        form = c.decomposition(L)
    else:
        try:
            form = _axis_form(c, L)
        except Exception:  # the ordered checks raise it again, as their own error
            form = None
    if form is not None:
        return _asymmetry(form[1]) or UnweightedConsistent(*form, L)
    return (check_jacobian_symmetry(c, L) or check_cross_linearity(c, L)
            or decompose_unweighted(c, L))


def _close(a, b) -> bool:
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))
    return a == b


def classify_weighted(model: CostModel) -> ConsistencyReport:
    """Affine/exponential dichotomy on the sample grid GRID^m.

    Structured Affine and Exponential models are classified directly (only
    the symmetry of A needs checking).  Any other model is sampled: it is
    affine if every step c_r(x+1_s) - c_r(x) equals a_rs = c_r(1_s) - c_r(0).
    The first step that does not, in (r, s, x) order, is the `not_affine`
    witness, returned unless `_exponential_fit` fits the samples.  A table-backed
    model whose `max_load` is below the grid's top is refused before any sample
    is read.
    """
    if isinstance(model, Affine):
        A, b = model.A, model.b
    elif isinstance(model, Exponential):
        return WeightedExponential(a=model.a, phi=model.phi, b=model.b)
    else:
        if isinstance(model, (Tabulated, SeparablePlusLinear)) and model.max_load < GRID[-1]:
            raise LoadRangeError(f"--weighted samples every resource at loads {GRID[0]}.."
                                 f"{GRID[-1]}; the cost's max_load is {model.max_load}")
        points = list(product(GRID, repeat=model.m))
        values = {x: eval_cost(model, x) for x in points}
        zero = points[0]
        d0 = [[values[_bump(zero, s)][r] - values[zero][r] for s in range(model.m)]
              for r in range(model.m)]
        bend = next((Violation(lemma="not_affine", r=r, s=s, x=x)
                     for r in range(model.m) for s in range(model.m) for x in points[1:]
                     if x[s] < GRID[-1]
                     and not _close(values[_bump(x, s)][r] - values[x][r], d0[r][s])), None)
        if bend is not None:
            return _exponential_fit(values, model.m, bend)
        A, b = tuple(tuple(map(Fraction, row)) for row in d0), values[zero]
    at = first_asymmetry(A)
    if at is not None:
        return Violation(lemma="affine_asymmetric", r=at[0], s=at[1])
    return WeightedAffine(A=A, b=b)


def _exponential_fit(values: dict, dim: int, bend: Violation) -> ConsistencyReport:
    """c_r(x) = a_r e^{phi x_r} + b_r with one phi, fitted to the samples `values`.

    Each c_r must read x_r alone (else `not_affine_or_exponential`) and fit on
    its axis an exponential, rate read off the first three loads, or a constant
    (but not on every axis); otherwise `bend`, where affinity broke, is returned.
    """
    for r in range(dim):
        for x in values:
            axis = tuple(v if u == r else 0 for u, v in enumerate(x))
            if not _close(values[x][r], values[axis][r]):
                return Violation(lemma="not_affine_or_exponential", r=r, x=x)
    a, b, phis = [], [], []
    for r in range(dim):
        v = [float(values[tuple(k if u == r else 0 for u in range(dim))][r]) for k in GRID]
        d1, d2 = v[1] - v[0], v[2] - v[1]
        if abs(d1) <= FLOAT_TOL and abs(d2) <= FLOAT_TOL:
            a_r = phi_r = 0.0
        elif d1 == 0 or d2 / d1 <= 0 or _close(d1, d2):  # equal steps would give phi = 0
            return bend
        else:
            phi_r = math.log(d2 / d1)
            a_r = d1 / (math.exp(phi_r) - 1.0)
            phis.append(phi_r)
        b_r = v[0] - a_r
        if not all(_close(a_r * math.exp(phi_r * k) + b_r, v_k) for k, v_k in zip(GRID, v)):
            return bend
        a.append(a_r)
        b.append(b_r)
    if not phis:  # separable and constant on every axis, yet not affine
        return bend
    if any(abs(p - phis[0]) > FLOAT_TOL for p in phis[1:]):
        return Violation(lemma="exponential_phi_mismatch")
    return WeightedExponential(a=tuple(a), phi=phis[0], b=tuple(b))
