"""Command-line front end and the JSON game format.

The spec table `SPECS` is the single definition of the JSON form of every
tagged type (matroids, cost models, certificates, reports); `encode` and
`decode` read it.  Untagged game and profile documents are built around them.

Rationals serialize as "p/q" strings (never floats, except in the
exponential cost payload); output is canonical and deterministic.  A table key
is read only in the canonical "x1,x2,..." spelling that is written, and no JSON
object may repeat a key.

Each `cmd_*` returns (raw, payload): the input bytes and the JSON payload.
`main` is the one place that stamps the payload with the tool version and the
SHA-256 of raw, prints it, and picks the exit code: 0 success, 1 negative
certificate (NotPNE / NoPNEExists / Violation / non-convergence, also nested
as a gadget's `certificate`), 2 malformed input or internal error.

The parser is built once per process, on the first `main` call, and reused by
every later call.  It holds each `cmd_*` function itself, so a `cmd_*` replaced
after that first call is not seen; replace a name a command calls instead.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from . import __version__
from .bilevel import solve_bilevel
from .characterize import (
    UnweightedConsistent,
    Violation,
    WeightedAffine,
    WeightedExponential,
    analyze_unweighted,
    classify_weighted,
)
from .core import Explicit, Game, Player, support, validate_profile
from .costs import (
    Affine,
    Bilevel,
    Exponential,
    PlayerSpecificSeparable,
    SeparablePlusLinear,
    Tabulated,
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
from .gadgets import PATTERNS, GadgetSpec, build_gadget
from .matroid import Graphic, Partition, Uniform
from .potential import potential_unweighted, potential_weighted_affine
from .reductions import (
    ForbiddenPairsInstance,
    parse_dimacs,
    reduce_forbidden_pairs,
    reduce_sat,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------- codecs


def rat(text) -> Fraction:
    """`Fraction(text)` of a JSON string or integer.  An ASCII "p" or "p/q" (p an
    optionally negative run of digits, q a run of digits) is parsed by int() alone;
    every other spelling goes through `Fraction`'s own parser, with the same value
    or the same refusal."""
    try:
        if type(text) is str and text.isascii():
            num, slash, den = text.partition("/")
            if num.removeprefix("-").isdigit() and (den.isdigit() or not slash):
                return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        if not isinstance(text, bool) and isinstance(text, (int, str)):
            return Fraction(text)
    except (ValueError, ZeroDivisionError):
        pass
    raise StructureError(f"expected a rational string, got {text!r}")


def real(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise StructureError(f"expected a number, got {value!r}")
    return float(value)


def integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise StructureError(f"expected an integer, got {value!r}")
    return value


def unrat(value) -> str:
    return str(value) if type(value) is Fraction else str(Fraction(value))


class Codec(NamedTuple):
    """How one field value maps from JSON (decode) and to JSON (encode)."""

    decode: Optional[Callable]  # None for fields of encode-only types
    encode: Callable


def _same(value):
    return value


def _list(value, path: Optional[str] = None) -> list:
    if not isinstance(value, list):
        where = f"{path}: " if path else ""
        raise StructureError(f"{where}expected a list, got {value!r}")
    return value


def _object(value, path: Optional[str] = None) -> dict:
    if not isinstance(value, dict):
        where = f"{path}: " if path else ""
        raise StructureError(f"{where}expected an object, got {value!r}")
    return value


_LOADS_KEY = re.compile(r"(?:0|[1-9][0-9]*)(?:,(?:0|[1-9][0-9]*))*")


def _loads(key) -> tuple:
    """The loads that a table key names: "" or unsigned decimal integers joined by
    ",", without leading zeros or spaces, which is how `TABLE` encodes them; any other
    spelling is refused, so two different keys never name the same loads."""
    if not isinstance(key, str):
        raise StructureError(f"expected a string key, got {key!r}")
    if _LOADS_KEY.fullmatch(key):
        return tuple(map(int, key.split(",")))
    if key == "":
        return ()
    raise StructureError("expected a key of unsigned integers joined by ',', without spaces "
                         f"or leading zeros, got {key!r}")


def nested(codec: Codec, depth: int = 1) -> Codec:
    """Lists of `codec` values, `depth` levels deep; tuples on the Python side."""
    for _ in range(depth):
        codec = Codec(
            lambda v, c=codec: tuple(c.decode(e) for e in _list(v)),
            lambda v, c=codec: [c.encode(e) for e in v],
        )
    return codec


PLAIN = Codec(_same, _same)
INT = Codec(integer, _same)
RAT = Codec(rat, unrat)
FLOAT = Codec(real, _same)
NUMBER = Codec(None, lambda v: v if isinstance(v, float) else unrat(v))  # exact or float value
SUPPORT = Codec(None, support)  # a strategy vector as the list of its resources
TABLE = Codec(  # a tabulated cost table keyed by "x1,x2,..." neighborhood loads
    lambda t: {_loads(key): rat(v) for key, v in _object(t).items()},
    lambda t: {",".join(map(str, key)): unrat(v) for key, v in sorted(t.items())},
)


class Spec(NamedTuple):
    """The JSON form of one tagged type: `{tag_key: tag, key: codec(attribute), ...}`."""

    cls: type
    tag_key: str
    tag: str
    fields: tuple  # (JSON key, attribute, codec)
    m: Optional[Callable] = None  # set when cls takes the document's m: its default


SPECS = {
    "matroid": (
        Spec(Uniform, "type", "uniform", (("m", "m", INT), ("k", "k", INT))),
        Spec(Partition, "type", "partition", (
            ("m", "m", INT), ("blocks", "blocks", nested(INT, 2)),
            ("quotas", "quotas", nested(INT)))),
        Spec(Graphic, "type", "graphic", (
            ("vertices", "n_vertices", INT), ("edges", "edges", nested(INT, 2)))),
    ),
    "cost": (
        Spec(Tabulated, "kind", "tabulated", (
            ("max_load", "max_load", INT), ("neighborhoods", "neighborhoods", nested(INT, 2)),
            ("tables", "tables", nested(TABLE))), m=lambda kw: len(kw["neighborhoods"])),
        Spec(SeparablePlusLinear, "kind", "separable_plus_linear", (
            ("f", "f", nested(RAT, 2)), ("A", "A", nested(RAT, 2)))),
        Spec(Affine, "kind", "affine", (("A", "A", nested(RAT, 2)), ("b", "b", nested(RAT)))),
        Spec(Exponential, "kind", "exponential", (
            ("a", "a", nested(FLOAT)), ("phi", "phi", FLOAT), ("b", "b", nested(FLOAT)))),
        Spec(Bilevel, "kind", "bilevel", (("budget", "budget", RAT),), m=lambda kw: None),
        Spec(PlayerSpecificSeparable, "kind", "player_specific", (("nu", "nu", nested(RAT, 3)),)),
    ),
    "result": (
        Spec(IsPNE, "kind", "is_pne", ()),
        Spec(NotPNE, "kind", "not_pne", (
            ("player", "player", PLAIN), ("deviation", "deviation", SUPPORT),
            ("delta", "delta", NUMBER))),
        Spec(PNEFound, "kind", "pne_found", (("profile", "profile", nested(SUPPORT)),)),
        Spec(NoPNEExists, "kind", "no_pne_exists", (
            ("profiles_checked", "profiles_checked", PLAIN),)),
        Spec(UnweightedConsistent, "kind", "unweighted_consistent", (
            ("L", "L", PLAIN), ("f", "f", nested(RAT, 2)), ("A", "A", nested(RAT, 2)))),
        Spec(WeightedAffine, "kind", "weighted_affine", (
            ("A", "A", nested(RAT, 2)), ("b", "b", nested(NUMBER)))),
        Spec(WeightedExponential, "kind", "weighted_exponential", (
            ("a", "a", nested(FLOAT)), ("phi", "phi", FLOAT), ("b", "b", nested(FLOAT)))),
        Spec(Violation, "kind", "violation", (  # fields left unset (None) are omitted
            ("lemma", "lemma", PLAIN), ("r", "r", PLAIN), ("s", "s", PLAIN), ("t", "t", PLAIN),
            ("x", "x", nested(PLAIN)))),
    ),
}
_BY_CLASS = {spec.cls: spec for specs in SPECS.values() for spec in specs}
_BY_TAG = {(family, spec.tag): spec for family, specs in SPECS.items() for spec in specs}


def encode(obj) -> dict:
    """The JSON form of any object with a spec; fields whose value is None are left out."""
    spec = _BY_CLASS[type(obj)]
    out = {spec.tag_key: spec.tag}
    for key, attr, codec in spec.fields:
        value = getattr(obj, attr)
        if value is not None:
            out[key] = codec.encode(value)
    return out


def _pop(obj: dict, key: str, path: str):
    if key not in obj:
        raise StructureError(f"{path}: missing field {key!r}")
    return obj.pop(key)


def _reject_unknown(obj: dict, path: str) -> None:
    if obj:
        raise StructureError(f"{path}: unknown fields {sorted(obj, key=str)}")


def _field(codec: Codec, value, path: str, key: str):
    """`codec.decode(value)`; a value that does not decode is named as `path.key`,
    which is formatted only then, so decoding a large matrix formats no string."""
    try:
        return codec.decode(value)
    except (StructureError, ValueError, OverflowError) as exc:
        raise StructureError(f"{path}.{key}: {exc}") from None


def decode(family: str, obj, path: str, m: Optional[int] = None):
    """Build the matroid or cost model that `obj` describes; `path` names it in errors.

    m is the document's resource count: the classes that take one (Tabulated,
    Bilevel) get it, and every decoded model must then cover exactly m resources.
    """
    obj = dict(_object(obj, path))
    tag_key = SPECS[family][0].tag_key
    tag = _pop(obj, tag_key, path)
    spec = _BY_TAG.get((family, tag))
    if spec is None:
        raise StructureError(f"{path}: unknown {family} {tag_key} {tag!r}")
    kwargs = {
        attr: _field(codec, _pop(obj, key, path), path, key) for key, attr, codec in spec.fields
    }
    _reject_unknown(obj, path)
    if spec.m is not None:
        kwargs["m"] = spec.m(kwargs) if m is None else m
    model = spec.cls(**kwargs)
    if m is not None and model.m != m:
        raise StructureError(f"{path}: {tag} {family} covers {model.m} resources, not m = {m}")
    return model


def cost_from_json(obj: dict):
    """A cost model from its JSON form alone (no document m)."""
    return decode("cost", obj, "cost")


# ---------------------------------------------------------------- games


def _from_support(indices, m: int, value, path: str) -> tuple:
    """The length-m vector with `value` on the indices; every index must lie in 0..m-1."""
    for r in _list(indices, path):
        if isinstance(r, bool) or not isinstance(r, int) or not 0 <= r < m:
            raise StructureError(f"{path}: resource index {r!r} outside 0..{m - 1}")
    chosen = set(indices)
    return tuple(value if r in chosen else 0 for r in range(m))


def game_to_json(game: Game) -> dict:
    players = []
    for p in game.players:
        if isinstance(p.strategy_space, Explicit):
            strategies = {"explicit": [support(v) for v in p.strategy_space.vectors]}
        else:
            strategies = {"matroid": encode(p.strategy_space)}
        players.append({"weight": unrat(p.weight), "strategies": strategies})
    return {
        "version": SCHEMA_VERSION,
        "m": game.n_resources,
        "players": players,
        "cost": encode(game.cost_model),
    }


def _bound(doc: dict) -> int:
    """Pop the document's optional `bounds` object and return its integer L (default 2)."""
    bounds = dict(_object(doc.pop("bounds", {}), "bounds"))
    L = _field(INT, bounds.pop("L"), "bounds", "L") if "L" in bounds else 2
    _reject_unknown(bounds, "bounds")
    return L


def game_from_json(doc: dict) -> Game:
    doc = dict(_object(doc, "$"))
    version = _pop(doc, "version", "$")
    if type(version) is not int or version != SCHEMA_VERSION:
        raise StructureError(f"unsupported schema version {version!r}")
    m = _field(INT, _pop(doc, "m", "$"), "$", "m")
    players = []
    for i, pd in enumerate(_list(_pop(doc, "players", "$"), "players")):
        path = f"players[{i}]"
        pd = dict(_object(pd, path))
        weight = _field(RAT, _pop(pd, "weight", path), path, "weight")
        sd = dict(_object(_pop(pd, "strategies", path), path + ".strategies"))
        if "explicit" in sd:
            supports = _list(sd.pop("explicit"), path + ".strategies.explicit")
            vectors = tuple(
                _from_support(sup, m, 1, f"{path}.strategies.explicit[{k}]")
                for k, sup in enumerate(supports)
            )
            space = Explicit(vectors=vectors)
        elif "matroid" in sd:
            space = decode("matroid", sd.pop("matroid"), path + ".strategies.matroid", m)
        else:
            raise StructureError(f"{path}: strategies must be explicit or matroid")
        _reject_unknown(sd, path + ".strategies")
        _reject_unknown(pd, path)
        players.append(Player(weight=weight, strategy_space=space))
    cost = decode("cost", _pop(doc, "cost", "$"), "cost", m)
    if isinstance(cost, PlayerSpecificSeparable) and len(cost.nu) != len(players):
        raise StructureError(f"cost.nu: {len(cost.nu)} player tables for {len(players)} "
                             "players; need one per player")
    _bound(doc)
    _reject_unknown(doc, "$")
    return Game(n_resources=m, players=tuple(players), cost_model=cost)


def profile_from_json(doc: dict, game: Game) -> tuple:
    doc = dict(_object(doc, "profile"))
    choices = _list(_pop(doc, "choices", "profile"), "profile.choices")
    _reject_unknown(doc, "profile")
    if len(choices) != game.n_players:
        raise StructureError("profile has wrong number of players")
    return tuple(
        _from_support(sup, game.n_resources, p.weight, f"profile.choices[{i}]")
        for i, (p, sup) in enumerate(zip(game.players, choices))
    )


# ---------------------------------------------------------------- commands


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_json(path: str) -> tuple:
    """The file's bytes, which the certificate stamp hashes, and the JSON document; a key
    repeated in one object is refused, where `json` would keep its last value."""
    raw = _read(path)

    def unique(pairs: list) -> dict:
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            key = next(k for k, _ in pairs if k in seen or seen.add(k))
            raise StructureError(f"{path}: repeated key {key!r}")
        return obj

    try:
        return raw, json.loads(raw, object_pairs_hook=unique)
    except ValueError as exc:  # invalid JSON or invalid UTF-8
        raise StructureError(f"{path}: not valid JSON ({exc})") from None


def cmd_solve(args) -> tuple:
    if args.max_iters < 0:
        raise UsageError(f"--max-iters: expected a non-negative integer, got {args.max_iters}")
    raw, doc = _load_json(args.file)
    game = game_from_json(doc)
    if args.method == "bruteforce":
        return raw, encode(brute_force_pne(game))
    if args.method == "theorem3":
        return raw, encode(PNEFound(solve_bilevel(game, max_iters=args.max_iters)[0]))
    start = tuple(p.strategies()[0] for p in game.players)
    trace = run_best_response_dynamics(game, start, max_iters=args.max_iters, seed=args.seed)
    found = encode(PNEFound(trace.terminal)) if trace.converged else {"kind": "no_convergence"}
    return raw, {**found, "iterations": trace.iterations}


def cmd_verify(args) -> tuple:
    raw, doc = _load_json(args.file)
    game = game_from_json(doc)
    profile = profile_from_json(_load_json(args.profile)[1], game)
    return raw, encode(verify_pne(game, profile))


def _cost_and_bound(doc) -> tuple:
    """The cost model and the `bounds.L` of a game or standalone cost document."""
    doc = dict(_object(doc, "$"))
    if "players" in doc:
        return game_from_json(doc).cost_model, _bound(doc)
    m = doc.pop("m", None)
    cost = decode("cost", _pop(doc, "cost", "$"), "cost",
                  None if m is None else _field(INT, m, "$", "m"))
    L = _bound(doc)
    _reject_unknown(doc, "$")
    return cost, L


def cmd_characterize(args) -> tuple:
    if args.weighted and args.L is not None:
        raise UsageError("--weighted takes no --L; only unweighted characterize does")
    raw, doc = _load_json(args.file)
    cost, bound = _cost_and_bound(doc)
    if args.weighted:
        report = classify_weighted(cost)
    else:
        L = args.L if args.L is not None else bound
        available = getattr(cost, "max_load", None)
        usable = L if available is None else min(L, available - 2)
        if usable < 1:
            # at L = 0 the cross-linearity checks test nothing
            bounded = "" if available is None else f" and max_load = {available}"
            raise UsageError("characterize needs L >= 1 (and L <= max_load - 2), "
                             f"got L = {L}{bounded}")
        report = analyze_unweighted(cost, usable)
    return raw, encode(report)


def _integers(text: str, flag: str) -> tuple:
    """The comma-separated integers of a command-line flag; a bad one is named with the flag."""
    values = []
    for v in text.split(","):
        try:
            values.append(int(v))
        except ValueError:
            raise UsageError(f"{flag}: expected an integer, got {v!r}") from None
    return tuple(values)


def cmd_gadget(args) -> tuple:
    raw, doc = _load_json(args.file)
    cost = _cost_and_bound(doc)[0]
    point = _integers(args.point, "--point")
    resources = tuple(v - 1 for v in _integers(args.resources, "--resources"))
    epsilon = None
    if args.epsilon is not None:
        try:
            epsilon = rat(args.epsilon)
        except StructureError as exc:
            raise UsageError(f"--epsilon: {exc}") from None
    spec = GadgetSpec(
        lemma=args.lemma, base_cost=cost, point=point, resources=resources, epsilon=epsilon
    )
    game = build_gadget(spec)
    payload = {"game": game_to_json(game)}
    if args.confirm:
        payload["certificate"] = encode(brute_force_pne(game))
    return raw, payload


def cmd_potential(args) -> tuple:
    """The bare "p/q" of the potential, with no input to stamp: not yet a certificate."""
    game = game_from_json(_load_json(args.file)[1])
    profile = profile_from_json(_load_json(args.profile)[1], game)
    validate_profile(game, profile)
    if isinstance(game.cost_model, Affine):
        value = potential_weighted_affine(game, profile)
    else:
        value = potential_unweighted(game, profile)
    return None, f"{Fraction(value).numerator}/{Fraction(value).denominator}"


def cmd_reduce(args) -> tuple:
    if args.kind == "sat":
        raw = _read(args.instance)
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise StructureError(f"{args.instance}: not valid UTF-8 ({exc})") from None
        game = reduce_sat(parse_dimacs(text))
    else:
        raw, doc = _load_json(args.instance)
        doc = _object(doc, "$")
        inst = ForbiddenPairsInstance(
            n_vertices=_field(INT, _pop(doc, "vertices", "$"), "$", "vertices"),
            edges=_field(nested(INT, 2), _pop(doc, "edges", "$"), "$", "edges"),
            s=_field(INT, _pop(doc, "s", "$"), "$", "s"),
            t=_field(INT, _pop(doc, "t", "$"), "$", "t"),
            pairs=_field(nested(INT, 2), _pop(doc, "pairs", "$"), "$", "pairs"),
        )
        _reject_unknown(doc, "$")
        game = reduce_forbidden_pairs(inst)
    return raw, {"game": game_to_json(game)}


@functools.cache
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
    p.add_argument("--max-iters", type=int, default=1000, help="limit on improving steps")
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
    p.add_argument("--lemma", required=True, choices=tuple(PATTERNS))
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


NEGATIVE_KINDS = {"not_pne", "no_pne_exists", "violation", "no_convergence"}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        raw, payload = args.func(args)
        if raw is None:  # potential's bare value
            print(payload)
            return 0
        payload["tool"] = f"rggames {__version__}"
        payload["input_sha256"] = hashlib.sha256(raw).hexdigest()
        print(json.dumps(payload, sort_keys=True, indent=2, allow_nan=False))
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if payload.get("certificate", payload).get("kind") in NEGATIVE_KINDS else 0


if __name__ == "__main__":
    sys.exit(main())
