"""Gadget games on four resource copies that turn characterization violations
into concrete games without a pure Nash equilibrium.

Each gadget runs on four disjoint copies of the base cost, pins a background
load with single-strategy dummy players, and adds two free players whose
payoffs form a constant pair {A, B} in every profile with swap deviations
available.  If A != B, no equilibrium can exist.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple, Union

from .characterize import Violation
from .core import Explicit, Game, Number, Player, Profile, incidence, pricer
from .costs import CostModel, Tabulated, compose, unscaled
from .dynamics import Certificate, NoPNEExists, PNEFound, _spaces, _sweep, brute_force_pne
from .errors import GameError, StructureError, UsageError

# Let Z@k be the set Z of resources on copy k.  Every gadget has two free players:
# player 1 picks X@0 + Y@1 or Y@2 + X@3, player 2 picks Y@0 + X@2 or X@1 + Y@3.
# The lemmas differ only in X and Y, given as positions in `resources` (0 is r,
# 1 is s, 2 is t), and in the background: `point`, or `point - 1_r` when shifted.
PATTERNS = {  # lemma: (X, Y, shifted)
    "L3": ((0,), (1,), False),
    "L4": ((0, 1), (0,), True),
    "L5": ((0,), (1, 2), True),
    "weighted-eps": ((0,), (1,), False),
}


@dataclass(frozen=True)
class GadgetSpec:
    lemma: str
    base_cost: CostModel
    point: tuple  # background load on the original resources
    resources: tuple  # (r, s) or (r, s, t), 0-based
    epsilon: Optional[Fraction] = None  # weighted-eps only, where it defaults to 1

    def __post_init__(self):
        if self.lemma not in PATTERNS:
            raise StructureError(f"unknown gadget lemma {self.lemma!r}")
        X, Y, shifted = PATTERNS[self.lemma]
        count = len(set(X + Y))
        if len(self.resources) != count:
            raise StructureError(f"{self.lemma} needs {('two', 'three')[count - 2]} resources")
        if len(set(self.resources)) != len(self.resources):
            raise StructureError("gadget resources must be distinct")
        m = self.base_cost.m
        if any(not 0 <= r < m for r in self.resources):
            raise StructureError(
                f"gadget resources must be 0-based indices below {m}, got {self.resources}"
            )
        if len(self.point) != m:
            raise StructureError("background point has wrong dimension")
        if any(v < 0 for v in self.point):
            raise StructureError("background load must be non-negative")
        if shifted and self.point[self.resources[0]] <= 0:
            raise StructureError(f"{self.lemma} requires a positive load on resource r")
        if self.lemma == "weighted-eps":
            if self.epsilon is None:
                object.__setattr__(self, "epsilon", Fraction(1))
            if self.epsilon <= 0:
                raise StructureError("epsilon must be positive")
        elif self.epsilon is not None:
            raise StructureError(f"{self.lemma} takes no epsilon; only weighted-eps does")


@dataclass(frozen=True)
class SymmetryWitness:
    A_value: object
    B_value: object
    swap_strategies: tuple  # (y_i, y_j) realizing the swap at the first profile


@dataclass(frozen=True)
class SymmetryFailure:
    profile: Profile
    reason: str


def build_gadget(spec: GadgetSpec) -> Game:
    """Materialize the gadget game on 4m resources."""
    m = spec.base_cost.m
    M = 4 * m
    X, Y, shifted = PATTERNS[spec.lemma]

    def on(*placed: tuple) -> tuple:
        """The 0/1 vector of each (part, copy) pair's resources on that copy."""
        return incidence([k * m + spec.resources[p] for part, k in placed for p in part], M)

    def player(vectors: tuple, weight: Number = 1) -> Player:
        return Player(weight=weight, strategy_space=Explicit(vectors=vectors))

    eps = spec.epsilon or 1  # epsilon is set for weighted-eps only
    free = [
        player((on((X, 0), (Y, 1)), on((Y, 2), (X, 3))), eps),
        player((on((Y, 0), (X, 2)), on((X, 1), (Y, 3))), eps),
    ]
    r = spec.resources[0]
    background = tuple(v - 1 if shifted and u == r else v for u, v in enumerate(spec.point))
    pinned = [(incidence(range(u, M, m), M),) for u in range(m)]  # u on every copy
    if spec.lemma == "weighted-eps":
        dummies = [player(pinned[u], Fraction(v)) for u, v in enumerate(background) if v > 0]
    else:
        dummies = [player(pinned[u]) for u, v in enumerate(background) for _ in range(v)]
    big = compose(spec.base_cost, 4)
    return Game(n_resources=M, players=tuple(free + dummies), cost_model=big)


def check_AB_symmetry(game: Game, i: int, j: int) -> Union[SymmetryWitness, SymmetryFailure]:
    """Verify the constant-pair and swap conditions over all profiles.

    Each profile's two prices are compared as ints over the product of their
    pricers' scales, and across profiles by cross-multiplying with the first pair's."""
    spaces = _spaces(game)
    pair = None
    swap_at_first = None
    for _, x, loads in _sweep(game, spaces):
        (s_i, price_i), (s_j, price_j) = pricer(game, x, i, loads), pricer(game, x, j, loads)
        scale = s_i * s_j
        pi_i, pi_j = price_i(x[i]) * s_j, price_j(x[j]) * s_i  # both over scale
        key = tuple(sorted((pi_i, pi_j)))
        if pair is None:
            pair, first_scale = key, scale
            a_val, b_val = unscaled(pi_i, scale), unscaled(pi_j, scale)
        elif key[0] * first_scale != pair[0] * scale or key[1] * first_scale != pair[1] * scale:
            a, b = unscaled(pi_i, scale), unscaled(pi_j, scale)
            return SymmetryFailure(profile=x, reason=f"payoff pair {{{a}, {b}}} varies")
        y_i = next((y for y in spaces[i] if price_i(y) * s_j == pi_j), None)
        y_j = next((y for y in spaces[j] if price_j(y) * s_i == pi_i), None)
        if y_i is None or y_j is None:
            return SymmetryFailure(profile=x, reason="no swap deviation exists")
        if swap_at_first is None:
            swap_at_first = (y_i, y_j)
    return SymmetryWitness(A_value=a_val, B_value=b_val, swap_strategies=swap_at_first)


def gadget_spec_for(c: Tabulated, violation: Violation) -> GadgetSpec:
    """Map a characterization violation to the gadget that witnesses it."""
    r, s, x = violation.r, violation.s, violation.x
    if violation.lemma == "jacobian":
        return GadgetSpec(lemma="L3", base_cost=c, point=x, resources=(r, s))
    if violation.lemma == "cross_a":
        return GadgetSpec(lemma="L4", base_cost=c, point=x, resources=(r, s))
    if violation.lemma == "cross_b":
        # the two-step derivation reads the identity at the shifted point with r and s swapped
        shifted = tuple(v + (1 if u == s else 0) - (1 if u == r else 0) for u, v in enumerate(x))
        return GadgetSpec(lemma="L4", base_cost=c, point=shifted, resources=(s, r))
    if violation.lemma == "cross_distinct":
        return GadgetSpec(lemma="L5", base_cost=c, point=x, resources=(r, s, violation.t))
    raise UsageError(f"no gadget construction for violation {violation.lemma!r}")


def violation_to_counterexample(c: Tabulated, report: Violation) -> Tuple[Game, Certificate]:
    """Build the gadget for a violation and certify non-existence by brute force."""
    spec = gadget_spec_for(c, report)
    game = build_gadget(spec)
    certificate = brute_force_pne(game)
    if isinstance(certificate, PNEFound):
        raise GameError(
            "gadget unexpectedly admits an equilibrium; the violation mapping is broken"
        )
    assert isinstance(certificate, NoPNEExists)
    return game, certificate
