"""Command-line front end and the JSON game format.

Rationals serialize as "p/q" strings (never floats, except in the
exponential cost payload); output is canonical and deterministic, and every
certificate embeds the tool version and the input content hash.

Exit codes: 0 success, 1 negative certificate (NotPNE / NoPNEExists /
Violation / non-convergence), 2 malformed input or internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__
from .bilevel import BilevelGame, solve_bilevel
from .characterize import (
    UnweightedConsistent,
    Violation,
    WeightedAffine,
    WeightedExponential,
    analyze_unweighted,
    classify_weighted,
)
from .core import Explicit, Game, MatroidBases, Player
from .costs import (
    Affine,
    Bilevel,
    Exponential,
    PlayerSpecificSeparable,
    SeparablePlusLinear,
    Tabulated,
    as_tabulated,
)
from .dynamics import (
    IsPNE,
    NoPNEExists,
    NotPNE,
    PNEFound,
    brute_force_pne,
    run_best_response_dynamics,
    verify_pne,
)
from .errors import StructureError, UsageError
from .gadgets import GadgetSpec, build_gadget
from .matroid import Graphic, Partition, Uniform
from .potential import potential_unweighted, potential_weighted_affine
from .reductions import (
    ForbiddenPairsInstance,
    parse_dimacs,
    reduce_forbidden_pairs,
    reduce_sat,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------- rationals


def rat(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise StructureError(f"expected a rational string, got {text!r}")
    return Fraction(text)


def unrat(value) -> str:
    frac = Fraction(value)
    return str(frac)


# ---------------------------------------------------------------- matroids


def matroid_to_json(desc) -> dict:
    if isinstance(desc, Uniform):
        return {"type": "uniform", "m": desc.m, "k": desc.k}
    if isinstance(desc, Partition):
        return {
            "type": "partition",
            "m": desc.m,
            "blocks": [list(b) for b in desc.blocks],
            "quotas": list(desc.quotas),
        }
    if isinstance(desc, Graphic):
        return {
            "type": "graphic",
            "vertices": desc.n_vertices,
            "edges": [list(e) for e in desc.edges],
        }
    raise StructureError(f"unknown matroid descriptor {desc!r}")


def matroid_from_json(obj: dict, path: str):
    kind = _pop(obj, "type", path)
    if kind == "uniform":
        desc = Uniform(m=_pop(obj, "m", path), k=_pop(obj, "k", path))
    elif kind == "partition":
        desc = Partition(
            m=_pop(obj, "m", path),
            blocks=tuple(tuple(b) for b in _pop(obj, "blocks", path)),
            quotas=tuple(_pop(obj, "quotas", path)),
        )
    elif kind == "graphic":
        desc = Graphic(
            n_vertices=_pop(obj, "vertices", path),
            edges=tuple(tuple(e) for e in _pop(obj, "edges", path)),
        )
    else:
        raise StructureError(f"{path}: unknown matroid type {kind!r}")
    _reject_unknown(obj, path)
    return desc


# ---------------------------------------------------------------- costs


def cost_to_json(model) -> dict:
    if isinstance(model, Tabulated):
        return {
            "kind": "tabulated",
            "max_load": model.max_load,
            "neighborhoods": [list(h) for h in model.neighborhoods],
            "tables": [
                {",".join(map(str, key)): unrat(val) for key, val in sorted(table.items())}
                for table in model.tables
            ],
        }
    if isinstance(model, SeparablePlusLinear):
        return {
            "kind": "separable_plus_linear",
            "f": [[unrat(v) for v in row] for row in model.f],
            "A": [[unrat(v) for v in row] for row in model.A],
        }
    if isinstance(model, Affine):
        return {
            "kind": "affine",
            "A": [[unrat(v) for v in row] for row in model.A],
            "b": [unrat(v) for v in model.b],
        }
    if isinstance(model, Exponential):
        return {
            "kind": "exponential",
            "a": list(model.a),
            "phi": model.phi,
            "b": list(model.b),
        }
    if isinstance(model, Bilevel):
        return {"kind": "bilevel", "budget": unrat(model.budget)}
    if isinstance(model, PlayerSpecificSeparable):
        return {
            "kind": "player_specific",
            "nu": [[[unrat(v) for v in table] for table in per_res] for per_res in model.nu],
        }
    raise StructureError(f"unknown cost model {model!r}")


def cost_from_json(obj: dict, path: str = "cost", m=None):
    """Decode a cost model; m is the document's resource count, which only bilevel needs."""
    kind = _pop(obj, "kind", path)
    if kind == "tabulated":
        hoods = tuple(tuple(h) for h in _pop(obj, "neighborhoods", path))
        tables = tuple(
            {
                tuple(int(t) for t in key.split(",") if t != ""): rat(val)
                for key, val in table.items()
            }
            for table in _pop(obj, "tables", path)
        )
        model = Tabulated(
            m=len(hoods), neighborhoods=hoods, tables=tables, max_load=_pop(obj, "max_load", path)
        )
    elif kind == "separable_plus_linear":
        model = SeparablePlusLinear(
            f=tuple(tuple(rat(v) for v in row) for row in _pop(obj, "f", path)),
            A=tuple(tuple(rat(v) for v in row) for row in _pop(obj, "A", path)),
        )
    elif kind == "affine":
        model = Affine(
            A=tuple(tuple(rat(v) for v in row) for row in _pop(obj, "A", path)),
            b=tuple(rat(v) for v in _pop(obj, "b", path)),
        )
    elif kind == "exponential":
        model = Exponential(
            a=tuple(float(v) for v in _pop(obj, "a", path)),
            phi=float(_pop(obj, "phi", path)),
            b=tuple(float(v) for v in _pop(obj, "b", path)),
        )
    elif kind == "bilevel":
        model = Bilevel(m=m, budget=rat(_pop(obj, "budget", path)))
    elif kind == "player_specific":
        model = PlayerSpecificSeparable(
            nu=tuple(
                tuple(tuple(rat(v) for v in table) for table in per_res)
                for per_res in _pop(obj, "nu", path)
            )
        )
    else:
        raise StructureError(f"{path}: unknown cost kind {kind!r}")
    _reject_unknown(obj, path)
    return model


# ---------------------------------------------------------------- games


def _pop(obj: dict, key: str, path: str):
    if key not in obj:
        raise StructureError(f"{path}: missing field {key!r}")
    return obj.pop(key)


def _reject_unknown(obj: dict, path: str) -> None:
    if obj:
        raise StructureError(f"{path}: unknown fields {sorted(obj)}")


def _support(vector) -> list:
    return [r for r, e in enumerate(vector) if e]


def _from_support(support, m: int, value, path: str) -> tuple:
    """The length-m vector with `value` on the support; every index must lie in 0..m-1."""
    chosen = set(support)
    for r in chosen:
        if not isinstance(r, int) or not 0 <= r < m:
            raise StructureError(f"{path}: resource index {r!r} outside 0..{m - 1}")
    return tuple(value if r in chosen else 0 for r in range(m))


def game_to_json(game: Game, bounds=None) -> dict:
    players = []
    for p in game.players:
        if isinstance(p.strategy_space, Explicit):
            strategies = {"explicit": [_support(v) for v in p.strategy_space.vectors]}
        else:
            strategies = {"matroid": matroid_to_json(p.strategy_space.desc)}
        players.append({"weight": unrat(p.weight), "strategies": strategies})
    doc = {
        "version": SCHEMA_VERSION,
        "m": game.n_resources,
        "players": players,
        "cost": cost_to_json(game.cost_model),
    }
    if bounds is not None:
        doc["bounds"] = bounds
    return doc


def game_from_json(doc: dict) -> Game:
    doc = json.loads(json.dumps(doc))  # defensive copy
    version = _pop(doc, "version", "$")
    if version != SCHEMA_VERSION:
        raise StructureError(f"unsupported schema version {version!r}")
    m = _pop(doc, "m", "$")
    players = []
    for i, pd in enumerate(_pop(doc, "players", "$")):
        path = f"players[{i}]"
        weight = rat(_pop(pd, "weight", path))
        sd = _pop(pd, "strategies", path)
        if "explicit" in sd:
            supports = sd.pop("explicit")
            vectors = tuple(
                _from_support(sup, m, 1, f"{path}.strategies.explicit[{k}]")
                for k, sup in enumerate(supports)
            )
            space = Explicit(vectors=vectors)
        elif "matroid" in sd:
            space = MatroidBases(desc=matroid_from_json(sd.pop("matroid"), path + ".matroid"))
        else:
            raise StructureError(f"{path}: strategies must be explicit or matroid")
        _reject_unknown(sd, path + ".strategies")
        _reject_unknown(pd, path)
        players.append(Player(weight=weight, strategy_space=space))
    cost = cost_from_json(_pop(doc, "cost", "$"), m=m)
    doc.pop("bounds", None)
    _reject_unknown(doc, "$")
    return Game(n_resources=m, players=tuple(players), cost_model=cost)


def profile_from_json(doc: dict, game: Game) -> tuple:
    doc = dict(doc)
    choices = _pop(doc, "choices", "profile")
    _reject_unknown(doc, "profile")
    if len(choices) != game.n_players:
        raise StructureError("profile has wrong number of players")
    return tuple(
        _from_support(sup, game.n_resources, p.weight, f"profile.choices[{i}]")
        for i, (p, sup) in enumerate(zip(game.players, choices))
    )


def profile_to_json(profile) -> dict:
    return {"choices": [_support(v) for v in profile]}


# ---------------------------------------------------------------- output


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _stamp(payload: dict, input_bytes: bytes) -> dict:
    payload["tool"] = f"rggames {__version__}"
    payload["input_sha256"] = hashlib.sha256(input_bytes).hexdigest()
    return payload


def certificate_to_json(cert) -> dict:
    if isinstance(cert, IsPNE):
        return {"kind": "is_pne"}
    if isinstance(cert, NotPNE):
        return {
            "kind": "not_pne",
            "player": cert.player,
            "deviation": _support(cert.deviation),
            "delta": unrat(cert.delta) if not isinstance(cert.delta, float) else cert.delta,
        }
    if isinstance(cert, PNEFound):
        return {"kind": "pne_found", "profile": profile_to_json(cert.profile)["choices"]}
    if isinstance(cert, NoPNEExists):
        return {"kind": "no_pne_exists", "profiles_checked": cert.profiles_checked}
    raise StructureError(f"unknown certificate {cert!r}")


def report_to_json(report) -> dict:
    if isinstance(report, UnweightedConsistent):
        return {
            "kind": "unweighted_consistent",
            "L": report.L,
            "f": [[unrat(v) for v in row] for row in report.f],
            "A": [[unrat(v) for v in row] for row in report.A],
        }
    if isinstance(report, WeightedAffine):
        return {
            "kind": "weighted_affine",
            "A": [[unrat(v) for v in row] for row in report.A],
            "b": [unrat(v) if not isinstance(v, float) else v for v in report.b],
        }
    if isinstance(report, WeightedExponential):
        return {"kind": "weighted_exponential", "a": list(report.a), "phi": report.phi,
                "b": list(report.b)}
    if isinstance(report, Violation):
        out = {"kind": "violation", "lemma": report.lemma}
        for field in ("r", "s", "t"):
            val = getattr(report, field)
            if val is not None:
                out[field] = val
        if report.x is not None:
            out["x"] = list(report.x)
        if report.y is not None:
            out["y"] = list(report.y)
        return out
    raise StructureError(f"unknown report {report!r}")


NEGATIVE_KINDS = {"not_pne", "no_pne_exists", "violation", "no_convergence"}


# ---------------------------------------------------------------- commands


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_json(path: str) -> dict:
    try:
        return json.loads(_read(path).decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise StructureError(f"{path}: not valid JSON ({exc})") from None


def cmd_solve(args) -> int:
    raw = _read(args.file)
    game = game_from_json(json.loads(raw))
    if args.method == "bruteforce":
        cert = brute_force_pne(game)
        payload = certificate_to_json(cert)
    elif args.method == "dynamics":
        start = tuple(p.strategies()[0] for p in game.players)
        trace = run_best_response_dynamics(
            game, start, max_iters=args.max_iters,
            schedule="random" if args.seed is not None else "round-robin", seed=args.seed,
        )
        if trace.converged:
            payload = {
                "kind": "pne_found",
                "profile": profile_to_json(trace.terminal)["choices"],
                "iterations": trace.iterations,
            }
        else:
            payload = {"kind": "no_convergence", "iterations": trace.iterations}
    elif args.method == "theorem3":
        bilevel = BilevelGame(base=game)
        profile, _cert = solve_bilevel(bilevel, max_iters=args.max_iters)
        payload = {"kind": "pne_found", "profile": profile_to_json(profile)["choices"]}
    else:
        raise StructureError(f"unknown method {args.method!r}")
    print(_dump(_stamp(payload, raw)))
    return 1 if payload["kind"] in NEGATIVE_KINDS else 0


def cmd_verify(args) -> int:
    raw = _read(args.file)
    game = game_from_json(json.loads(raw))
    profile = profile_from_json(_load_json(args.profile), game)
    cert = verify_pne(game, profile)
    payload = certificate_to_json(cert)
    print(_dump(_stamp(payload, raw)))
    return 1 if payload["kind"] in NEGATIVE_KINDS else 0


def _cost_and_bounds(doc: dict):
    if "players" in doc:
        game = game_from_json(doc)
        return game.cost_model, doc.get("bounds", {})
    doc = dict(doc)
    cost = cost_from_json(_pop(doc, "cost", "$"), m=doc.pop("m", None))
    bounds = doc.pop("bounds", {})
    _reject_unknown(doc, "$")
    return cost, bounds


def cmd_characterize(args) -> int:
    raw = _read(args.file)
    cost, bounds = _cost_and_bounds(json.loads(raw))
    L = args.L if args.L is not None else bounds.get("L", 2)
    if args.weighted:
        report = classify_weighted(cost)
    else:
        available = getattr(cost, "max_load", None)
        if available is not None:
            L = min(L, available - 2)
        if L < 1:
            # at L = 0 the cross-linearity checks test nothing
            raise UsageError(f"characterize needs L >= 1 (and L <= max_load - 2), got L = {L}")
        if not isinstance(cost, Tabulated):
            cost = as_tabulated(cost, max_load=L + 2)
        report = analyze_unweighted(cost, L)
    payload = report_to_json(report)
    print(_dump(_stamp(payload, raw)))
    return 1 if payload["kind"] in NEGATIVE_KINDS else 0


def cmd_gadget(args) -> int:
    raw = _read(args.file)
    cost, _bounds = _cost_and_bounds(json.loads(raw))
    point = tuple(int(v) for v in args.point.split(","))
    resources = tuple(int(v) - 1 for v in args.resources.split(","))
    spec = GadgetSpec(
        lemma=args.lemma,
        base_cost=cost,
        point=point,
        resources=resources,
        epsilon=rat(args.epsilon) if args.epsilon else None,
    )
    game = build_gadget(spec)
    payload = {"game": game_to_json(game)}
    code = 0
    if args.confirm:
        cert = brute_force_pne(game)
        payload["certificate"] = certificate_to_json(cert)
        if payload["certificate"]["kind"] in NEGATIVE_KINDS:
            code = 1
    print(_dump(_stamp(payload, raw)))
    return code


def cmd_potential(args) -> int:
    raw = _read(args.file)
    game = game_from_json(json.loads(raw))
    profile = profile_from_json(_load_json(args.profile), game)
    if isinstance(game.cost_model, Affine):
        value = potential_weighted_affine(game, profile)
    else:
        value = potential_unweighted(game, profile)
    print(f"{Fraction(value).numerator}/{Fraction(value).denominator}")
    return 0


def cmd_reduce(args) -> int:
    raw = _read(args.instance)
    if args.kind == "sat":
        inst = parse_dimacs(raw.decode("utf-8"))
        game = reduce_sat(inst)
    else:
        doc = json.loads(raw)
        inst = ForbiddenPairsInstance(
            n_vertices=_pop(doc, "vertices", "$"),
            edges=tuple(tuple(e) for e in _pop(doc, "edges", "$")),
            s=_pop(doc, "s", "$"),
            t=_pop(doc, "t", "$"),
            pairs=tuple(tuple(p) for p in _pop(doc, "pairs", "$")),
        )
        _reject_unknown(doc, "$")
        game = reduce_forbidden_pairs(inst)
    print(_dump(_stamp({"game": game_to_json(game)}, raw)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rggames", description="resource graph game engine"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="find an equilibrium or prove none exists")
    p.add_argument("file")
    p.add_argument("--method", choices=("bruteforce", "dynamics", "theorem3"),
                   default="bruteforce")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-iters", type=int, default=1000)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("verify", help="check whether a profile is an equilibrium")
    p.add_argument("file")
    p.add_argument("--profile", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("characterize", help="consistency analysis of a cost function")
    p.add_argument("file")
    p.add_argument("--weighted", action="store_true")
    p.add_argument("--L", type=int, default=None)
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("gadget", help="build a counterexample gadget game")
    p.add_argument("file")
    p.add_argument("--lemma", required=True, choices=("L3", "L4", "L5", "weighted-eps"))
    p.add_argument("--point", required=True, help="comma-separated background load")
    p.add_argument("--resources", required=True, help="comma-separated 1-based resources")
    p.add_argument("--epsilon", default=None)
    p.add_argument("--confirm", action="store_true")
    p.set_defaults(func=cmd_gadget)

    p = sub.add_parser("potential", help="evaluate the exact potential at a profile")
    p.add_argument("file")
    p.add_argument("--profile", required=True)
    p.set_defaults(func=cmd_potential)

    p = sub.add_parser("reduce", help="generate a hardness-construction game")
    p.add_argument("kind", choices=("sat", "pairs"))
    p.add_argument("instance")
    p.set_defaults(func=cmd_reduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
