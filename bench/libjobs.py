"""Library jobs: public pipeline functions the acceptance suite calls directly.

Each job reads its corpus files, builds the objects through the public JSON
codec, and returns a plain value for the corpus check.  Objects are rebuilt
inside every job, so nothing the program caches on them survives to the next.
"""

from __future__ import annotations

import json
import os

from rggames import cli, gadgets, potential, reductions
from rggames.characterize import Violation, analyze_unweighted
from rggames.costs import Affine
from rggames.dynamics import NoPNEExists


def _load(workdir: str, name: str):
    with open(os.path.join(workdir, name), encoding="utf-8") as fh:
        return json.load(fh)


def check_exact_potential(workdir: str, game: str):
    g = cli.game_from_json(_load(workdir, game))
    if isinstance(g.cost_model, Affine):
        P = lambda x: potential.potential_weighted_affine(g, x)  # noqa: E731
    else:
        P = lambda x: potential.potential_unweighted(g, x)  # noqa: E731
    return potential.check_exact_potential(g, P).ok


def _tabulated(workdir: str, name: str):
    return cli.cost_from_json(_load(workdir, name)["cost"])


def violation_to_counterexample(workdir: str, cost: str, L: int):
    c = _tabulated(workdir, cost)
    report = analyze_unweighted(c, L)
    if not isinstance(report, Violation):
        return None
    _game, cert = gadgets.violation_to_counterexample(c, report)
    return cert.profiles_checked if isinstance(cert, NoPNEExists) else None


def check_AB_symmetry(workdir: str, cost: str, lemma: str, point: tuple, resources: tuple):
    spec = gadgets.GadgetSpec(lemma=lemma, base_cost=_tabulated(workdir, cost),
                              point=tuple(point), resources=tuple(resources))
    witness = gadgets.check_AB_symmetry(gadgets.build_gadget(spec), 0, 1)
    return isinstance(witness, gadgets.SymmetryWitness) and witness.A_value != witness.B_value


def check_reduction_sat(workdir: str, cnf: str):
    with open(os.path.join(workdir, cnf), encoding="utf-8") as fh:
        inst = reductions.parse_dimacs(fh.read())
    answer = reductions.sat_oracle(inst)
    return answer, reductions.check_reduction(inst, reductions.reduce_sat(inst), answer)


def check_reduction_pairs(workdir: str, instance: str):
    doc = _load(workdir, instance)
    inst = reductions.ForbiddenPairsInstance(
        n_vertices=doc["vertices"],
        edges=tuple(tuple(e) for e in doc["edges"]),
        s=doc["s"],
        t=doc["t"],
        pairs=tuple(tuple(p) for p in doc["pairs"]),
    )
    answer = reductions.forbidden_pairs_oracle(inst)
    return answer, reductions.check_reduction(inst, reductions.reduce_forbidden_pairs(inst), answer)


LIBRARY = {
    f.__name__: f
    for f in (check_exact_potential, violation_to_counterexample, check_AB_symmetry,
              check_reduction_sat, check_reduction_pairs)
}
