"""Exact potentials for the two consistent cost classes, plus the property tester.

Both potentials are one sequential sum (Monderer and Shapley 1996):
P(x) = sum_i pi_i(x_1, ..., x_i), each player's private cost among the
players before it, priced by the cost model's own `pricer`.  For
separable-plus-linear costs with unit weights and for affine costs with any
weights, a symmetric A makes it satisfy the exact-potential identity
P(y, x_{-i}) - P(x) = pi_i(y, x_{-i}) - pi_i(x) in exact rational arithmetic.
A load beyond an f table raises the model's LoadRangeError.

The prices are ints over their pricer's scale (`costs`); `_sequential` sums them
over the lcm of the scales and builds one Fraction per potential value.

`check_exact_potential` tests that identity on every unilateral deviation.  The
identity is antisymmetric in the pair {x, (y, x_{-i})}, so it checks each pair once,
from its end that comes first in `product` order, and it prices each of player i's
strategies once per profile x_{-i} of the others, since the price depends on x_{-i}
alone.  With tol = 0 and exact values a pair costs one Fraction subtraction, dP, and
one int cross-multiplication against the row's scale.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from .core import Game, Profile, deviate, load_of, pricer
from .costs import Affine, SeparablePlusLinear, unscaled
from .dynamics import _spaces, _sweep
from .errors import UsageError


def _require_symmetric(model) -> None:
    at = model.asymmetry
    if at is not None:
        raise UsageError("interaction matrix is asymmetric at ({},{})".format(*at))


def _sequential(game: Game, profile: Profile) -> Fraction:
    """sum_i pi_i(x_1, ..., x_i): player i priced against the loads of players 0..i-1.
    The int prices are summed over the lcm of their scales, and divided once."""
    load_of(game, profile)  # checks the player count and every vector's dimension
    prefix = [0] * game.n_resources
    total, den = 0, 1
    for i, (v, player) in enumerate(zip(profile, game.players)):
        scale, price = game.cost_model.pricer(tuple(prefix), i, player.weight)
        if scale != den:
            common = math.lcm(den, scale)
            total, den = total * (common // den), common
        total += price(v) * (den // scale)
        for r, e in enumerate(v):
            if e:
                prefix[r] += e
    return Fraction(total, den)


def potential_unweighted(game: Game, profile: Profile):
    """sum_r sum_{k<=x_r} f_r(k) + 1/2 x^T A x + 1/2 sum_i x_i^T A x_i, as the sequential sum."""
    model = game.cost_model
    if not isinstance(model, SeparablePlusLinear):
        raise UsageError("unweighted potential needs a separable-plus-linear cost model")
    if not game.unweighted:
        raise UsageError("unweighted potential requires unit weights")
    _require_symmetric(model)
    return _sequential(game, profile)


def potential_weighted_affine(game: Game, profile: Profile):
    """sum_i x_i^T (A x_{<=i} + b), the sequential sum; order-invariant for symmetric A."""
    model = game.cost_model
    if not isinstance(model, Affine):
        raise UsageError("weighted potential needs an affine cost model")
    _require_symmetric(model)
    return _sequential(game, profile)


class PotentialCheck(NamedTuple):
    ok: bool
    witness: Optional[tuple]  # (profile, player, deviation) on failure


def check_exact_potential(
    game: Game, P: Callable[[Profile], object], tol: float = 0.0
) -> PotentialCheck:
    """Verify dP = dpi_i over all profiles, players, and unilateral deviations.

    P must be a function of the profile alone: it is evaluated once per
    distinct profile and the value reused for every deviation reaching it.

    At x it checks the deviations k > idx[i] only; each k < idx[i] was checked from
    (k, x_-i) with the same four values, and IEEE subtraction is antisymmetric, so
    its diff there was exactly the negation of this one.  Player i's prices are kept
    as one row per others' profile x_-i: filled lazily in space order by one pricer
    at the group's first profile (idx[i] = 0), read at the later ones, dropped at the
    last.  The rows alive at once hold at most n prices per profile, beside the one
    P value per profile that `values` keeps.  Every price and P value is computed
    where a scan of every deviation from both ends first needs it, so the witness,
    the order of the P calls and the first error are that scan's.

    A row keeps its pricer's scale beside its prices.  With tol = 0 and no float on
    either side, dP = P(y, x_-i) - P(x) is tested against the int dpi of the row as
    dP.numerator * scale == dpi * dP.denominator, which is exact; otherwise the
    difference dP - dpi / scale is tested as before.
    """
    spaces = _spaces(game)
    values: dict = {}  # P by the strategy indices of its profile
    rows: list = [{} for _ in spaces]  # player i's prices by the others' indices

    for idx, x, loads in _sweep(game, spaces):
        if idx not in values:
            values[idx] = P(x)
        px = values[idx]
        for i, space in enumerate(spaces):
            j, others = idx[i], idx[:i] + idx[i + 1 :]
            if j == 0:
                scale, price = pricer(game, x, i, loads)
                row = [price(x[i])]
                if len(space) > 1:
                    rows[i][others] = scale, row
            elif j == len(space) - 1:
                scale, row = rows[i].pop(others)
            else:
                scale, row = rows[i][others]
            pi_x = row[j]
            for k in range(j + 1, len(space)):
                if j == 0:
                    row.append(price(space[k]))
                key = idx[:i] + (k,) + idx[i + 1 :]
                if key not in values:
                    values[key] = P(deviate(x, i, space[k]))
                dP, dpi = values[key] - px, row[k] - pi_x
                if tol or isinstance(dP, float) or isinstance(dpi, float):
                    diff = dP - unscaled(dpi, scale)
                    wrong = (abs(diff) > tol) if tol else (diff != 0)
                else:  # dP = dpi / scale, exactly
                    wrong = dP.numerator * scale != dpi * dP.denominator
                if wrong:
                    return PotentialCheck(False, (x, i, space[k]))
    return PotentialCheck(True, None)
