"""Cost models for resource graph games.

A cost model maps a load vector to a per-resource cost vector.  Every model
class carries its resource count `m`, evaluates one entry c_r(x) with
`entry(loads, r, player)`, and prices a player's choices with
`pricer(base, player, weight)`, which returns (scale, price): price(y) / scale is
sum_r y_r * c_r(base + y), the private cost of y against the other players' loads
`base`.  Only PlayerSpecificSeparable reads the player index, and only Affine the
weight.  All models except Exponential evaluate in exact rational arithmetic;
Exponential refuses an entry or a price past the float range with LoadRangeError.

One pricer per model, one scale per pricer, stated when it is made.  The rational
models price in int over it, so callers compare and subtract ints and build a
Fraction (`unscaled`) only for a value that leaves the engine:
- SeparablePlusLinear: D, the common denominator of its coefficients;
- Affine: D*E*q*q, where E is the common denominator of base and q that of the
  weight; every y must be a multiple of 1/q, as a player of that weight plays;
- Tabulated: the common denominator of its table values (`scale`), read once per
  distinct table, each value scaled as it is looked up;
- 1 for the models without an integer form (Bilevel, PlayerSpecificSeparable,
  Exponential) and where an integer pricer cannot take its input (a base that
  breaks the load rule, or a table that holds a float, which the JSON decoder
  never builds); these price entry by entry, in the type of the entries.

SeparablePlusLinear and Affine price through an exact kernel built once per
model: A kept as sparse columns and scaled, with the model's other
coefficients, by D.  Their pricer computes A*base once; each y then costs
O(|supp y|^2).  Affine also takes rational loads (weighted players, integral
Fractions included) to ints over their common denominator, so its sums stay in
int.  The other models price entry by entry at the full vector base + y (Bilevel
splits the budget once per vector).

The two kernel models also give `bound(base, weight)`: (u, c, pairs) in the pricer's
units, such that a player of that weight pays sum_{r in S} u[r] + c * sum_{r < s in S}
sym[r][s] for the strategy weight*1_S, where pairs = (sym, neg_pairs, neg_rows) is the
model's `pair_bounds` (`_pair_bounds`), built on its first bound and kept.  The
deviation search (`dynamics`) bounds a subtree of a player's strategy trie with it, and
`dynamics.prices` prices a whole space with it; `pricer` alone pays for neither.
SeparablePlusLinear gives None where a deviation could raise (a fractional base or
weight, or a base + weight outside 0..max_load), and so do the models without a
kernel, which have nothing to bound a subtree with; the caller then prices every
deviation.

Load-range rule.  Table-backed models (Tabulated, SeparablePlusLinear,
PlayerSpecificSeparable) accept integer loads only: a fractional load
anywhere in the vector raises LoadRangeError, even at a coordinate no entry
reads.  Tabulated also rejects any load outside 0..max_load anywhere in the
vector; the other two reject a load beyond their table only where an entry
reads it.  The rule applies whenever an entry is evaluated; pricing an empty
y evaluates none and costs 0.  The pricers of Tabulated and SeparablePlusLinear
check it once per base vector and then on supp y per deviation, and an invalid
vector is handed to `entry`, so the errors and their messages are those of
`entry`; PlayerSpecificSeparable prices entry by entry.

Affine's `reads()` gives the pairs (r, s) such that c_r reads the load on s,
the non-zero a_rs; exhaustive search splits an affine game by them.
SeparablePlusLinear's and Affine's `decomposition(L)` read the form
c_r(x) = f_r(x_r) + sum_{s != r} a_rs x_s off their coefficients, for the
unweighted characterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product
from operator import add
from typing import Optional, Sequence, Union

from .errors import IncompatibleModelsError, LoadRangeError, StructureError, UsageError

Number = Union[int, Fraction, float]
Loads = Sequence[Number]


def _weighted_sum(y: Loads, cost) -> Number:
    """sum of y_r * cost(r) over supp y in resource order; the integer 0 for an empty y."""
    total = 0
    for r, e in enumerate(y):
        if e:
            total += e * cost(r)
    return total


def unscaled(price: Number, scale: int) -> Number:
    """A price over its pricer's scale as a number: Fraction(price, scale) for an
    int, and a price at scale 1 that is not an int (Fraction, float) as it is."""
    return Fraction(price, scale) if type(price) is int else price


def _entry_pricer(model, base: Loads, player: Optional[int] = None):
    """Entry-by-entry pricing at scale 1: y is priced with `entry` at the full vector
    base + y, in the type the entries have."""

    def price(y: Loads) -> Number:
        loads = tuple(map(add, base, y))
        return _weighted_sum(y, lambda r: model.entry(loads, r, player))

    return price


class _NoKernel:
    """Mixin for models without a kernel: the pricer evaluates entry by entry at
    scale 1, and there is no bound, so every deviation is priced."""

    def pricer(self, base: Loads, player: Optional[int] = None, weight: Number = 1):
        return 1, _entry_pricer(self, base, player)

    def bound(self, base: Loads, weight: Number) -> None:
        return None


def first_asymmetry(A) -> Optional[tuple]:
    """The first (r, s) in row order with r < s and a_rs != a_sr, compared exactly;
    None if A is symmetric."""
    m = len(A)
    for r in range(m):
        for s in range(r + 1, m):
            if A[r][s] != A[s][r]:
                return r, s
    return None


def _folded(f, A, L: int) -> tuple:
    """(f', A') with c_r(x) = f'_r(x_r) + sum_{s != r} a'_rs x_s, for c_r(x) = f_r(x_r) + (A x)_r:
    f'_r(k) = f_r(k) + a_rr*k for k = 0..L and A' = A off the diagonal, all Fractions."""
    return (tuple(tuple(Fraction(f[r][k] + row[r] * k) for k in range(L + 1))
                  for r, row in enumerate(A)),
            tuple(tuple(Fraction(0) if s == r else Fraction(a) for s, a in enumerate(row))
                  for r, row in enumerate(A)))


def _linear_kernel(A, others) -> tuple:
    """(D, cols, scaled): D is the common denominator of A and the model's other
    coefficients (exact rationals); cols[s] maps r to D*a_rs for every non-zero
    a_rs, the one copy of A the kernel keeps; scaled(v) is D*v as an int."""
    D = math.lcm(*{v.denominator for v in chain(chain.from_iterable(A), others)})

    def scaled(v):
        return v.numerator * (D // v.denominator)

    m = len(A)
    return D, tuple({r: scaled(A[r][s]) for r in range(m) if A[r][s]} for s in range(m)), scaled


def _times(cols, loads: Loads) -> list:
    """The kernel's D*A times a load vector, from the columns of the non-zero loads."""
    out = [0] * len(cols)
    for s, v in enumerate(loads):
        if v:
            for r, a in cols[s].items():
                out[r] += a * v
    return out


_INT = {int}


def _over_common_denominator(values: Sequence) -> tuple:
    """(q, ints): rational values as ints over their common denominator q.

    All-int values come back as they are; any Fraction, integral ones included,
    is turned into an int numerator.
    """
    if set(map(type, values)) <= _INT:
        return 1, values
    q = math.lcm(*{v.denominator for v in values})
    return q, [v.numerator * (q // v.denominator) for v in values]


def _over(q: int, values: Sequence) -> list:
    """Rational values as ints over q, each a multiple of 1/q."""
    out = []
    for v in values:
        n, d = v.numerator, v.denominator
        if q % d:
            raise UsageError(f"load {v} is not a multiple of 1/{q}, the player weight's unit")
        out.append(n * (q // d))
    return out


def _quadratic(cols, supp, ys) -> Number:
    """sum over r, s in supp of y_r * (D*a_rs) * y_s, where ys lists y on supp."""
    total = 0
    for s, ys_s in zip(supp, ys):
        col = cols[s]
        acc = 0
        for r, yr in zip(supp, ys):
            a = col.get(r)
            if a:
                acc += a * yr
        total += ys_s * acc
    return total


def _pair_bounds(cols) -> tuple:
    """(sym, neg_pairs, neg_rows) for `bound`, from the kernel's D*A columns:
    sym[r][s] = D*(a_rs + a_sr) for r != s; neg_pairs[d] sums the negative sym[r][s]
    over d <= r < s, and neg_rows[s][d] the negative sym[s][r] over r >= d.  sym is
    None when A has no off-diagonal entry, and the sums are None when none is negative."""
    m = len(cols)
    sym = [[0 if r == s else cols[s].get(r, 0) + cols[r].get(s, 0) for s in range(m)]
           for r in range(m)]
    if not any(map(any, sym)):
        return None, None, None
    if min(map(min, sym)) >= 0:
        return sym, None, None
    neg_pairs = [0] * (m + 1)
    for r in range(m - 1, -1, -1):
        neg_pairs[r] = neg_pairs[r + 1] + sum(min(0, a) for a in sym[r][r + 1:])
    neg_rows = []
    for row in sym:
        suffix = [0] * (m + 1)
        for r in range(m - 1, -1, -1):
            suffix[r] = suffix[r + 1] + min(0, row[r])
        neg_rows.append(suffix)
    return sym, neg_pairs, neg_rows


class _Kernel:
    """Mixin for the two kernel models, whose `kernel` is (D, cols, ...)."""

    @cached_property
    def pair_bounds(self) -> tuple:
        """`_pair_bounds` of the kernel, built on the first bound and kept."""
        return _pair_bounds(self.kernel[1])

    @cached_property
    def asymmetry(self) -> Optional[tuple]:
        """`first_asymmetry(A)`, found on first use and kept."""
        return first_asymmetry(self.A)


def _as_int_loads(loads: Loads) -> tuple:
    out = []
    for v in loads:
        iv = int(v)
        if iv != v:
            raise LoadRangeError(f"integer-load model evaluated at fractional load {v!r}")
        out.append(iv)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class Tabulated(_NoKernel):
    """Finite tables c_r keyed by the load restricted to the neighborhood B_r.

    neighborhoods[r] is a sorted tuple of distinct coordinate indices; tables[r] maps
    the restriction of an integer load vector to those coordinates (each
    entry in 0..max_load) to a rational cost.
    """

    m: int
    neighborhoods: tuple
    tables: tuple
    max_load: int

    def __post_init__(self):
        if len(self.neighborhoods) != self.m or len(self.tables) != self.m:
            raise StructureError("tabulated model needs one neighborhood and table per resource")
        if self.max_load < 0:
            raise StructureError("max_load must be non-negative")
        for r, hood in enumerate(self.neighborhoods):
            if any(s < 0 or s >= self.m for s in hood):
                raise StructureError(f"neighborhood of resource {r} out of range")
            if tuple(sorted(hood)) != tuple(hood):
                raise StructureError(f"neighborhood of resource {r} must be sorted")
            if len(set(hood)) < len(hood):
                raise StructureError(f"neighborhood of resource {r} names a resource twice")

    def entry(self, loads: Loads, r: int, player: Optional[int] = None) -> Number:
        il = _as_int_loads(loads)
        if len(il) != self.m:
            raise StructureError("load vector has wrong dimension")
        if any(v < 0 or v > self.max_load for v in il):
            raise LoadRangeError(f"load {il} outside 0..{self.max_load}")
        key = tuple(il[s] for s in self.neighborhoods[r])
        try:
            return self.tables[r][key]
        except KeyError:
            raise LoadRangeError(f"no table entry for resource {r} at {key}") from None

    @cached_property
    def scale(self) -> Optional[int]:
        """The common denominator of the table values, read once per distinct table
        object (`compose` repeats one table); None when a value is a float."""
        distinct = {id(table): table for table in self.tables}.values()
        try:
            return math.lcm(*{v.denominator for table in distinct for v in table.values()})
        except AttributeError:  # a float has no denominator
            return None

    def pricer(self, base: Loads, player: Optional[int] = None, weight: Number = 1):
        """Prices in int over `scale`, each value scaled as it is read; at scale 1,
        entry by entry, for a float table and an invalid base.  The load rule is checked
        on base once and then on supp y per y."""
        try:
            ib = _as_int_loads(base)
        except LoadRangeError:
            return 1, _entry_pricer(self, base, player)
        hoods, tables, q, top = self.neighborhoods, self.tables, self.scale, self.max_load
        if q is None or len(ib) != self.m or any(v < 0 or v > top for v in ib):
            return 1, _entry_pricer(self, base, player)

        def price(y: Loads) -> Number:
            supp = [r for r, e in enumerate(y) if e]
            loads = list(ib)
            for r in supp:
                x = ib[r] + y[r]
                ix = int(x)
                if ix != x or not 0 <= ix <= top:  # entry raises the LoadRangeError
                    return _entry_pricer(self, base, player)(y)
                loads[r] = ix
            total = 0
            for r in supp:
                v = tables[r].get(tuple(loads[s] for s in hoods[r]))
                if v is None:  # entry raises the missing entry
                    return _entry_pricer(self, base, player)(y)
                total += (loads[r] - ib[r]) * (v.numerator * (q // v.denominator))
            return total

        return q, price


@dataclass(frozen=True, eq=False)
class SeparablePlusLinear(_Kernel):
    """c_r(x) = f_r(x_r) + (A x)_r with f_r tabulated on 0..max_load."""

    f: tuple
    A: tuple

    def __post_init__(self):
        m = len(self.A)
        if len(self.f) != m or any(len(row) != m for row in self.A):
            raise StructureError("f and A must agree on the resource count")
        if len({len(t) for t in self.f}) > 1:
            raise StructureError("all f tables must share the same load bound")

    @property
    def m(self) -> int:
        return len(self.A)

    @property
    def max_load(self) -> Union[int, float]:
        """The top load of the f tables; over no resources no table bounds a load."""
        return len(self.f[0]) - 1 if self.f else math.inf

    @cached_property
    def kernel(self) -> tuple:
        """(D, cols, F): sparse D*A columns and the D*f tables, built on first use and kept."""
        D, cols, scaled = _linear_kernel(self.A, chain.from_iterable(self.f))
        return D, cols, tuple(tuple(map(scaled, table)) for table in self.f)

    def decomposition(self, L: int) -> Optional[tuple]:
        """(f, A) up to L with a_rr folded into f (`_folded`); None if f stops before L + 2,
        the reach of the ordered characterize checks, which then own the range error."""
        return None if self.max_load < L + 2 else _folded(self.f, self.A, L)

    def entry(self, loads: Loads, r: int, player: Optional[int] = None) -> Number:
        il = _as_int_loads(loads)
        if len(il) != self.m:
            raise StructureError("load vector has wrong dimension")
        xr = il[r]
        if xr < 0 or xr > self.max_load:
            raise LoadRangeError(f"load {xr} outside 0..{self.max_load}")
        D, cols, F = self.kernel
        interaction = sum(col[r] * v for col, v in zip(cols, il) if v and r in col)
        return Fraction(F[r][xr] + interaction, D)

    def pricer(self, base: Loads, player: Optional[int] = None, weight: Number = 1):
        """Prices over D at an integral base; at scale 1, entry by entry, otherwise."""
        try:
            ib = _as_int_loads(base)
        except LoadRangeError:  # a fractional load that only some y may cancel: entry decides
            return 1, _entry_pricer(self, base, player)
        D, cols, F = self.kernel
        a_base = _times(cols, ib)
        top = self.max_load

        def price(y: Loads) -> int:
            supp = [r for r, e in enumerate(y) if e]
            ys = []
            linear = 0
            for r in supp:
                x = ib[r] + y[r]
                ix = int(x)
                if ix != x or not 0 <= ix <= top:  # entry raises the LoadRangeError
                    return _entry_pricer(self, base, player)(y)
                yr = ix - ib[r]
                ys.append(yr)
                linear += yr * (F[r][ix] + a_base[r])
            return linear + _quadratic(cols, supp, ys)

        return D, price

    def bound(self, base: Loads, weight: Number) -> Optional[tuple]:
        """(u, w*w, pair_bounds) over D, the pricer's units: a player of weight w pays
        sum_{r in S} u[r] + w*w * sum_{r < s in S} sym[r][s] for w*1_S at base.  None
        where a deviation could raise, which keeps the full scan: a fractional base or
        weight, or a resource that base + weight takes outside 0..max_load."""
        if int(weight) != weight:
            return None
        try:
            ib = _as_int_loads(base)
        except LoadRangeError:
            return None
        w = int(weight)
        if min(ib, default=0) + w < 0 or max(ib, default=0) + w > self.max_load:
            return None
        D, cols, F = self.kernel
        a_base = _times(cols, ib)
        u = [w * (F[r][x + w] + a_base[r]) + w * w * cols[r].get(r, 0) for r, x in enumerate(ib)]
        return u, w * w, self.pair_bounds


@dataclass(frozen=True, eq=False)
class Affine(_Kernel):
    """c(x) = A x + b, evaluable at rational loads."""

    A: tuple
    b: tuple

    def __post_init__(self):
        if len(self.A) != len(self.b) or any(len(row) != len(self.b) for row in self.A):
            raise StructureError("A must be square with matching b")

    @property
    def m(self) -> int:
        return len(self.b)

    @cached_property
    def kernel(self) -> tuple:
        """(D, cols, B): sparse D*A columns and D*b, built on first use and kept."""
        D, cols, scaled = _linear_kernel(self.A, self.b)
        return D, cols, tuple(map(scaled, self.b))

    def entry(self, loads: Loads, r: int, player: Optional[int] = None) -> Number:
        D, cols, B = self.kernel
        interaction = sum(col[r] * v for col, v in zip(cols, loads) if v and r in col)
        return Fraction(B[r] + interaction, D)

    def decomposition(self, L: int) -> tuple:
        """(f, A) up to L with f_r(k) = b_r + a_rr*k and A off the diagonal (`_folded`)."""
        return _folded(tuple((v,) * (L + 1) for v in self.b), self.A, L)

    def reads(self) -> tuple:
        return tuple((r, s) for s, col in enumerate(self.kernel[1]) for r in col)

    def pricer(self, base: Loads, player: Optional[int] = None, weight: Number = 1):
        """Prices over D*E*q*q, for base = ib / E and the weight's denominator q: every
        y must be a multiple of 1/q, as the vectors of a player of this weight are."""
        D, cols, B = self.kernel
        E, ib = _over_common_denominator(base)
        q = weight.denominator
        a_base = _times(cols, ib)

        def price(y: Loads) -> int:
            supp = [r for r, e in enumerate(y) if e]
            ys = _over(q, [y[r] for r in supp])
            linear = sum(yr * (E * q * B[r] + q * a_base[r]) for r, yr in zip(supp, ys))
            return linear + E * _quadratic(cols, supp, ys)

        return D * E * q * q, price

    def bound(self, base: Loads, weight: Number) -> tuple:
        """(u, E*n*n, pair_bounds) over D*E*q*q, the pricer's units, for base = ib / E
        and weight = n / q: a player of this weight pays sum_{r in S} u[r] +
        E*n*n * sum_{r < s in S} sym[r][s] for weight*1_S at base."""
        D, cols, B = self.kernel
        E, ib = _over_common_denominator(base)
        a_base = _times(cols, ib)
        n, q = weight.numerator, weight.denominator
        u = [n * (E * q * B[r] + q * a_base[r]) + E * n * n * cols[r].get(r, 0)
             for r in range(len(B))]
        return u, E * n * n, self.pair_bounds


@dataclass(frozen=True, eq=False)
class Exponential(_NoKernel):
    """c_r(x) = a_r * exp(phi * x_r) + b_r; the only float-valued model."""

    a: tuple
    phi: float
    b: tuple

    def __post_init__(self):
        if len(self.a) != len(self.b):
            raise StructureError("a and b must have the same length")
        for name, values in (("a", self.a), ("b", self.b)):
            for r, value in enumerate(values):
                if not math.isfinite(value):
                    raise StructureError(f"{name}[{r}] must be finite, got {value!r}")
        if not math.isfinite(self.phi):
            raise StructureError(f"phi must be finite, got {self.phi!r}")

    @property
    def m(self) -> int:
        return len(self.a)

    def entry(self, loads: Loads, r: int, player: Optional[int] = None) -> Number:
        a = self.a[r]
        try:  # a_r = 0 never reads the exponential, which may overflow where c_r = b_r
            value = a * (math.exp(self.phi * float(loads[r])) if a else 1.0) + self.b[r]
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise LoadRangeError(f"exponential cost of resource {r} overflows a float "
                                 f"at load {loads[r]}")
        return value

    def pricer(self, base: Loads, player: Optional[int] = None, weight: Number = 1):
        """Entry by entry at scale 1; a price past the float range raises LoadRangeError."""
        price = _entry_pricer(self, base, player)

        def finite(y: Loads) -> Number:
            total = price(y)
            if not math.isfinite(total):
                raise LoadRangeError(f"exponential price of the choice "
                                     f"({', '.join(map(str, y))}) overflows a float")
            return total

        return 1, finite


@dataclass(frozen=True, eq=False)
class Bilevel(_NoKernel):
    """c_r(x) = x_r + kappa*_r(x): an attacker budget split over the argmax loads."""

    m: int
    budget: Fraction

    def __post_init__(self):
        if not isinstance(self.m, int) or self.m < 1:
            raise StructureError(f"bilevel cost needs a positive resource count m, got {self.m!r}")
        if self.budget <= 0:
            raise StructureError("attacker budget must be positive")

    def entry(self, loads: Loads, r: int, player: Optional[int] = None) -> Number:
        return loads[r] + kappa_star(loads, self.budget)[r]

    def pricer(self, base: Loads, player: Optional[int] = None, weight: Number = 1):
        """Entry by entry at scale 1, with the attack split once per load vector."""

        def price(y: Loads) -> Number:
            loads = tuple(map(add, base, y))
            kappa = kappa_star(loads, self.budget)
            return _weighted_sum(y, lambda r: loads[r] + kappa[r])

        return 1, price


@dataclass(frozen=True, eq=False)
class PlayerSpecificSeparable(_NoKernel):
    """Per-player, per-resource non-decreasing tables nu[i][r][load]."""

    nu: tuple

    def __post_init__(self):
        if not self.nu:
            raise StructureError("need at least one player table")
        m = len(self.nu[0])
        for i, per_res in enumerate(self.nu):
            if len(per_res) != m:
                raise StructureError(f"player {i} table has wrong resource count")
            for r, table in enumerate(per_res):
                for k in range(1, len(table)):
                    if table[k] < table[k - 1]:
                        raise StructureError(f"nu[{i}][{r}] is not non-decreasing")

    @property
    def m(self) -> int:
        return len(self.nu[0])

    @property
    def max_load(self) -> Union[int, float]:
        """The top load of the first table; over no resources no table bounds a load."""
        return len(self.nu[0][0]) - 1 if self.nu[0] else math.inf

    def entry(self, loads: Loads, r: int, player: Optional[int] = None) -> Number:
        if player is None:
            raise UsageError("player-specific model needs a player index")
        il = _as_int_loads(loads)
        table = self.nu[player][r]
        if il[r] < 0 or il[r] >= len(table):
            raise LoadRangeError(f"load {il[r]} outside table for player {player}, resource {r}")
        return table[il[r]]


CostModel = Union[
    Tabulated, SeparablePlusLinear, Affine, Exponential, Bilevel, PlayerSpecificSeparable
]


def kappa_star(loads: Loads, budget: Number) -> tuple:
    """Even split of the budget over the resources of maximal load (the argmax set)."""
    if budget <= 0:
        raise StructureError("budget must be positive")
    if not loads:
        raise StructureError("argmax of an empty load vector")
    top = max(loads)
    at_top = [v == top for v in loads]
    share = Fraction(budget) / sum(at_top)
    return tuple(share if hit else Fraction(0) for hit in at_top)


def eval_cost_entry(model: CostModel, loads: Loads, r: int, player: Optional[int] = None) -> Number:
    """Cost of resource r under the given loads (player index for player-specific models)."""
    return model.entry(loads, r, player)


def eval_cost(model: CostModel, loads: Loads, player: Optional[int] = None) -> tuple:
    """Full cost vector c(x) (or c_i(x) for player-specific models)."""
    return tuple(eval_cost_entry(model, loads, r, player) for r in range(model.m))


def compose(model: CostModel, copies: int) -> CostModel:
    """`copies` disjoint copies of one model: copy k acts on resources k*m .. k*m + m - 1.

    The gadgets run on four copies of their base cost.  Tables are shared
    between copies, since no code mutates them.
    """
    kind, m = type(model), model.m
    if kind is Tabulated:
        hoods = tuple(tuple(s + k * m for s in hood)
                      for k in range(copies) for hood in model.neighborhoods)
        return Tabulated(m=m * copies, neighborhoods=hoods, tables=model.tables * copies,
                         max_load=model.max_load)
    if kind is SeparablePlusLinear:
        return SeparablePlusLinear(f=model.f * copies, A=_blockdiag(model.A, copies))
    if kind is Affine:
        return Affine(A=_blockdiag(model.A, copies), b=model.b * copies)
    if kind is Exponential:
        return Exponential(a=model.a * copies, phi=model.phi, b=model.b * copies)
    raise IncompatibleModelsError(
        f"{kind.__name__} has no structural composition; normalize with as_tabulated first"
    )


def _blockdiag(A: Sequence[Sequence[Number]], copies: int) -> tuple:
    """The block-diagonal matrix of `copies` copies of the square matrix A."""
    zeros = (Fraction(0),) * len(A)
    return tuple(zeros * k + tuple(row) + zeros * (copies - 1 - k)
                 for k in range(copies) for row in A)


def as_tabulated(model: CostModel, max_load: int, allow_float: bool = False) -> Tabulated:
    """Exhaustive tabulation on integer loads <= max_load with minimized neighborhoods."""
    if max_load < 1:
        raise UsageError("max_load must be at least 1")
    if isinstance(model, Exponential) and not allow_float:
        raise UsageError("exponential models tabulate to floats; pass allow_float=True")
    if isinstance(model, Tabulated) and max_load > model.max_load:
        raise LoadRangeError("cannot extend a tabulated model beyond its bound")
    dim = model.m
    grid = list(product(range(max_load + 1), repeat=dim))
    values = {pt: eval_cost(model, pt) for pt in grid}
    hoods, tables = [], []
    for r in range(dim):
        deps = []
        for s in range(dim):
            if _depends_on(values, dim, r, s, max_load):
                deps.append(s)
        hood = tuple(deps)
        table = {}
        for pt, costs in values.items():
            key = tuple(pt[s] for s in hood)
            table[key] = costs[r]
        hoods.append(hood)
        tables.append(table)
    return Tabulated(m=dim, neighborhoods=tuple(hoods), tables=tuple(tables), max_load=max_load)


def _depends_on(values, dim, r, s, max_load):
    for pt, costs in values.items():
        if pt[s] == max_load:
            continue
        bumped = pt[:s] + (pt[s] + 1,) + pt[s + 1 :]
        if values[bumped][r] != costs[r]:
            return True
    return False
