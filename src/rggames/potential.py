"""Exact potentials for the two consistent cost classes, plus the property tester.

The normative contract is the exact-potential identity
P(y, x_{-i}) - P(x) = pi_i(y, x_{-i}) - pi_i(x); both potentials below
satisfy it in exact rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Callable, NamedTuple, Optional

from .core import Game, Profile, deviate, load_of
from .costs import Affine, SeparablePlusLinear, _over_common_denominator, _times
from .dynamics import _deviations, _spaces, _sweep
from .errors import UsageError


def _require_symmetric(A) -> None:
    m = len(A)
    for r in range(m):
        for s in range(r + 1, m):
            if A[r][s] != A[s][r]:
                raise UsageError(f"interaction matrix is asymmetric at ({r},{s})")


def _quad(model, u, v):
    """u^T A v, exactly, over the sparse columns of the model's kernel; rational
    vectors are scaled to ints first, so the sums run in int."""
    D, cols, _ = model.kernel()
    qu, iu = _over_common_denominator(u)
    qv, iv = _over_common_denominator(v)
    return Fraction(sum(map(mul, iu, _times(cols, iv))), D * qu * qv)


def potential_unweighted(game: Game, profile: Profile):
    """sum_r sum_{k<=x_r} f_r(k) + 1/2 x^T A x + 1/2 sum_i x_i^T A x_i."""
    model = game.cost_model
    if not isinstance(model, SeparablePlusLinear):
        raise UsageError("unweighted potential needs a separable-plus-linear cost model")
    if not game.unweighted:
        raise UsageError("unweighted potential requires unit weights")
    _require_symmetric(model.A)
    loads = load_of(game, profile)
    total = Fraction(0)
    for r, xr in enumerate(loads):
        for k in range(1, int(xr) + 1):
            total += model.f[r][k]
    total += Fraction(1, 2) * _quad(model, loads, loads)
    for v in profile:
        total += Fraction(1, 2) * _quad(model, v, v)
    return total


def potential_weighted_affine(game: Game, profile: Profile):
    """Sequential sum sum_i x_i^T (A x_{<=i} + b); order-invariant for symmetric A."""
    model = game.cost_model
    if not isinstance(model, Affine):
        raise UsageError("weighted potential needs an affine cost model")
    _require_symmetric(model.A)
    prefix = [0] * game.n_resources
    total = Fraction(0)
    for v in profile:
        for r, e in enumerate(v):
            if e:
                prefix[r] += e
        total += _quad(model, v, prefix)
        total += sum(e * model.b[r] for r, e in enumerate(v) if e)
    return total


class PotentialCheck(NamedTuple):
    ok: bool
    witness: Optional[tuple]  # (profile, player, deviation) on failure


def check_exact_potential(
    game: Game, P: Callable[[Profile], object], tol: float = 0.0
) -> PotentialCheck:
    """Verify dP = dpi_i over all profiles, players, and unilateral deviations.

    P must be a function of the profile alone: it is evaluated once per
    distinct profile and the value reused for every deviation reaching it.
    """
    spaces = _spaces(game)
    values: dict = {}  # P by the strategy indices of its profile

    for idx, x, loads in _sweep(game, spaces):
        if idx not in values:
            values[idx] = P(x)
        px = values[idx]
        for i, space in enumerate(spaces):
            pi_x, deviations = _deviations(game, x, i, space, loads)
            # a space holds distinct strategies, so the deviations are the k != idx[i]
            others = (k for k in range(len(space)) if k != idx[i])
            for k, (y, pi_y) in zip(others, deviations):
                key = idx[:i] + (k,) + idx[i + 1 :]
                if key not in values:
                    values[key] = P(deviate(x, i, y))
                diff = (values[key] - px) - (pi_y - pi_x)
                if (abs(diff) > tol) if tol else (diff != 0):
                    return PotentialCheck(False, (x, i, y))
    return PotentialCheck(True, None)
