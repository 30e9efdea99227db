import argparse
import copy
import importlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rggames import cli, costs
from rggames.cli import (
    cost_from_json,
    decode,
    encode,
    game_from_json,
    game_to_json,
    main,
    profile_from_json,
)
from rggames.core import Explicit, Game, Player
from rggames.costs import Affine, SeparablePlusLinear
from rggames.errors import StructureError
from rggames.matroid import Partition, Uniform

GOLDEN = Path(__file__).parent / "golden"


def sample_game():
    cost = SeparablePlusLinear(
        f=(tuple(Fraction(k) for k in range(4)),) * 2,
        A=((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),
    )
    players = (
        Player(strategy_space=Explicit(vectors=((1, 0), (0, 1)))),
        Player(weight=Fraction(1), strategy_space=Uniform(2, 1)),
    )
    return Game(n_resources=2, players=players, cost_model=cost)


@pytest.fixture
def game_file(tmp_path):
    doc = {**game_to_json(sample_game()), "bounds": {"L": 2}}
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def asym_cost_file(tmp_path):
    cost = Affine(
        A=((Fraction(1), Fraction(1)), (Fraction(3), Fraction(1))),
        b=(Fraction(0), Fraction(0)),
    )
    path = tmp_path / "cost.json"
    path.write_text(json.dumps({"cost": encode(cost), "m": 2, "bounds": {"L": 2}}))
    return str(path)


class TestGameFormat:
    def test_round_trip(self):
        doc = {**game_to_json(sample_game()), "bounds": {"L": 2}}
        rebuilt = game_from_json(doc)
        assert {**game_to_json(rebuilt), "bounds": {"L": 2}} == doc

    def test_canonical_reserialization_is_byte_identical(self):
        doc = game_to_json(sample_game())
        once = json.dumps(game_to_json(game_from_json(doc)), sort_keys=True)
        twice = json.dumps(game_to_json(game_from_json(json.loads(once))), sort_keys=True)
        assert once == twice

    def test_unknown_fields_rejected(self):
        doc = game_to_json(sample_game())
        doc["extra"] = 1
        with pytest.raises(StructureError):
            game_from_json(doc)
        doc = game_to_json(sample_game())
        doc["players"][0]["color"] = "red"
        with pytest.raises(StructureError):
            game_from_json(doc)

    def test_rationals_serialize_as_strings(self):
        doc = game_to_json(sample_game())
        assert doc["players"][0]["weight"] == "1"
        assert doc["cost"]["f"][0][2] == "2"

    def test_decoders_leave_the_document_unchanged(self):
        doc, profile = golden_doc("readme_game.json"), golden_doc("readme_profile.json")
        before = copy.deepcopy((doc, profile))
        game = game_from_json(doc)
        profile_from_json(profile, game)
        cost_from_json(doc["cost"])
        assert (doc, profile) == before

    def test_values_json_cannot_hold_refused_with_the_path(self):
        doc = game_to_json(sample_game())
        doc["players"][0]["strategies"]["explicit"] = ((0,), (1,))
        with pytest.raises(StructureError,
                           match=r"^players\[0\]\.strategies\.explicit: expected a list"):
            game_from_json(doc)
        doc = golden_doc("tabulated_game.json")
        doc["cost"]["tables"][0] = {0: "0", 1: "2", 2: "5"}
        with pytest.raises(StructureError, match=r"^cost\.tables: expected a string key, got 0$"):
            game_from_json(doc)
        doc = {**game_to_json(sample_game()), 1: "one", "z": "zed"}
        with pytest.raises(StructureError, match=r"^\$: unknown fields \[1, 'z'\]$"):
            game_from_json(doc)

    def test_matroid_encoding(self):
        desc = Partition(m=3, blocks=((0, 1), (2,)), quotas=(1, 1))
        game = Game(
            n_resources=3,
            players=(Player(strategy_space=desc),),
            cost_model=Affine(
                A=tuple(tuple(Fraction(0) for _ in range(3)) for _ in range(3)),
                b=(Fraction(0),) * 3,
            ),
        )
        rebuilt = game_from_json(game_to_json(game))
        assert rebuilt.players[0].strategy_space == desc


class TestCommands:
    def test_solve_bruteforce(self, game_file, capsys):
        assert main(["solve", game_file]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "pne_found"
        assert payload["tool"].startswith("rggames ")
        assert len(payload["input_sha256"]) == 64

    def test_solve_no_pne_exits_one(self, asym_cost_file, tmp_path, capsys):
        assert main(
            ["gadget", asym_cost_file, "--lemma", "L3", "--point", "0,0",
             "--resources", "1,2", "--confirm"]
        ) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["certificate"]["kind"] == "no_pne_exists"
        gadget_path = tmp_path / "gadget.json"
        gadget_path.write_text(json.dumps(payload["game"]))
        assert main(["solve", str(gadget_path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "no_pne_exists"

    def test_verify_accepts_solve_output(self, game_file, tmp_path, capsys):
        main(["solve", game_file])
        solved = json.loads(capsys.readouterr().out)
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps({"choices": solved["profile"]}))
        assert main(["verify", game_file, "--profile", str(profile_path)]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "is_pne"

    def test_verify_rejects_bad_profile(self, game_file, tmp_path, capsys):
        profile_path = tmp_path / "profile.json"
        profile_path.write_text(json.dumps({"choices": [[0], [0]]}))
        assert main(["verify", game_file, "--profile", str(profile_path)]) == 1
        assert json.loads(capsys.readouterr().out)["kind"] == "not_pne"

    def test_characterize_consistent(self, game_file, capsys):
        assert main(["characterize", game_file]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "unweighted_consistent"

    def test_characterize_weighted_flags_asymmetry(self, asym_cost_file, capsys):
        assert main(["characterize", asym_cost_file, "--weighted"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "violation"

    @pytest.mark.parametrize("axis", [["0", "0", "0", "5"], ["0", "1", "2", "5"]])
    def test_characterize_weighted_bent_axis_is_not_affine(self, axis, tmp_path, capsys):
        doc = {"cost": {"kind": "separable_plus_linear", "f": [axis], "A": [["0"]]}}
        assert main(["characterize", write_json(tmp_path, "c.json", doc), "--weighted"]) == 1
        out, err = capsys.readouterr()
        payload = json.loads(out)
        assert err == "" and (payload["kind"], payload["lemma"]) == ("violation", "not_affine")
        assert (payload["r"], payload["s"], payload["x"]) == (0, 0, [2])

    def test_potential_empty_game(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "m": 1,
            "players": [],
            "cost": {
                "kind": "separable_plus_linear",
                "f": [["0", "1"]],
                "A": [["0"]],
            },
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({"choices": []}))
        assert main(["potential", str(path), "--profile", str(profile)]) == 0
        assert capsys.readouterr().out.strip() == "0/1"

    def test_reduce_sat(self, tmp_path, capsys):
        cnf = tmp_path / "inst.cnf"
        cnf.write_text("p cnf 2 2\n1 1 1 0\n-1 -1 2 0\n")
        assert main(["reduce", "sat", str(cnf)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["game"]["m"] == 6

    def test_reduce_pairs(self, tmp_path, capsys):
        doc = {
            "vertices": 4,
            "edges": [[0, 1], [1, 3], [0, 2], [2, 3]],
            "s": 0,
            "t": 3,
            "pairs": [[0, 2]],
        }
        path = tmp_path / "pairs.json"
        path.write_text(json.dumps(doc))
        assert main(["reduce", "pairs", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["game"]["m"] == 4

    def test_malformed_input_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["solve", str(path)]) == 2
        path.write_text(json.dumps({"version": 1, "m": 1, "players": [], "cost": {}, "bogus": 1}))
        assert main(["solve", str(path)]) == 2


def write_json(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def tabulated_cost_doc(max_load):
    table = {str(k): str(k) for k in range(max_load + 1)}
    return {"m": 1, "cost": {"kind": "tabulated", "max_load": max_load,
                             "neighborhoods": [[0]], "tables": [table]}}


def one_resource_game(strategies, cost=None):
    return {"version": 1, "m": 1, "players": [{"weight": "1", "strategies": strategies}],
            "cost": cost or {"kind": "affine", "A": [["1"]], "b": ["0"]}}


def golden_doc(name):
    return json.loads((GOLDEN / name).read_text())


def set_matroid_field(player, key, value):
    return lambda doc: doc["players"][player]["strategies"]["matroid"].__setitem__(key, value)


def set_cost_field(key, value):
    return lambda doc: doc["cost"].__setitem__(key, value)


# Each mutation puts a JSON boolean (or float) that Python would take for the integer
# into one integer field of a document that solves with exit 0.
NON_INTEGER_FIELDS = {
    "version": (lambda: golden_doc("bilevel_game.json"),
                lambda doc: doc.__setitem__("version", True)),
    "version 1.0": (lambda: golden_doc("bilevel_game.json"),
                    lambda doc: doc.__setitem__("version", 1.0)),
    "document m": (lambda: one_resource_game({"matroid": {"type": "uniform", "m": 1, "k": 1}}),
                   lambda doc: doc.__setitem__("m", True)),
    "m": (lambda: one_resource_game({"matroid": {"type": "uniform", "m": 1, "k": 1}}),
          set_matroid_field(0, "m", True)),
    "k": (lambda: golden_doc("bilevel_game.json"), set_matroid_field(2, "k", True)),
    "blocks": (lambda: golden_doc("bilevel_game.json"),
               set_matroid_field(1, "blocks", [[0, True], [2, 3]])),
    "quotas": (lambda: golden_doc("bilevel_game.json"), set_matroid_field(1, "quotas", [True, 1])),
    "vertices": (lambda: {**one_resource_game({"matroid": {"type": "graphic", "vertices": 1,
                                                           "edges": []}},
                                              {"kind": "affine", "A": [], "b": []}), "m": 0},
                 set_matroid_field(0, "vertices", True)),
    "edges": (lambda: one_resource_game({"matroid": {"type": "graphic", "vertices": 2,
                                                     "edges": [[0, 1]]}}),
              set_matroid_field(0, "edges", [[0, True]])),
    "max_load": (lambda: one_resource_game({"explicit": [[0]]}, {
        "kind": "tabulated", "max_load": 1, "neighborhoods": [[0]],
        "tables": [{"0": "0", "1": "1"}]}), set_cost_field("max_load", True)),
    "neighborhoods": (lambda: golden_doc("tabulated_game.json"),
                      set_cost_field("neighborhoods", [[0], [0, True]])),
}

# The same for each integer field of the forbidden-pairs document of `reduce pairs`.
PAIRS_NON_INTEGER_FIELDS = {
    "vertices": (lambda doc: doc.__setitem__("vertices", 5.0), 5.0),
    "s": (lambda doc: doc.__setitem__("s", True), True),
    "t": (lambda doc: doc.__setitem__("t", 1.0), 1.0),
    "edges": (lambda doc: doc["edges"].__setitem__(0, [0, True]), True),
    "pairs": (lambda doc: doc["pairs"].__setitem__(0, [0, 1.0]), 1.0),
}


def edited(name, edit):
    doc = golden_doc(name)
    edit(doc)
    return doc


def spl_partition(**fields):
    """spl_game.json with fields of player 1's partition matroid replaced."""
    return edited("spl_game.json",
                  lambda doc: doc["players"][1]["strategies"]["matroid"].update(fields))


def bilevel_player0(**fields):
    """bilevel_game.json with fields of player 0 replaced."""
    return edited("bilevel_game.json", lambda doc: doc["players"][0].update(fields))


def with_cost(name, **fields):
    return edited(name, lambda doc: doc["cost"].update(fields))


def golden(name):
    return str(GOLDEN / name)


def gadget(cost, lemma, point, resources):
    return ["gadget", golden(cost), "--lemma", lemma, f"--point={point}", "--resources", resources]


def as_files(argv, tmp_path) -> list:
    """argv with each dict written as a JSON file and each bytes value as a raw file."""
    args = []
    for k, arg in enumerate(argv):
        if isinstance(arg, bytes):
            path = tmp_path / f"input{k}"
            path.write_bytes(arg)
            arg = str(path)
        elif isinstance(arg, dict):
            arg = write_json(tmp_path, f"input{k}.json", arg)
        args.append(arg)
    return args


# Documents that repeat a key in one object; read with the last value kept, each is a
# valid input (the table answers characterize with f = [0, 9]).
REPEATED_TABLE_KEY = (b'{"m": 1, "cost": {"kind": "tabulated", "max_load": 3, "neighborhoods": [[0]], '
                      b'"tables": [{"0": "0", "1": "1", "2": "2", "3": "3", "1": "9"}]}}')
REPEATED_M = b'{"m": 1, ' + (GOLDEN / "readme_game.json").read_bytes()[1:]
REPEATED_CHOICES = b'{"choices": [[0], [0]], "choices": [[1], [0]]}'


def weight_2_at_1e308(doc):
    """Every cost 1e308, within the float range, and every player of weight 2."""
    doc["cost"].update(a=[1e308, 1e308], phi=0.0)
    for player in doc["players"]:
        player["weight"] = "2"


# Input checks that only the model and instance constructors make, each reached from
# the command line.  In an argv a dict is written as a JSON file and bytes as a raw file.
INPUT_CHECKS = {
    "partition overlapping blocks": (
        ["solve", spl_partition(blocks=[[0, 1], [1, 2]])],
        "blocks must be disjoint subsets of the resources"),
    "partition quota count": (
        ["solve", spl_partition(quotas=[1])], "one quota per block required"),
    "partition quota above block": (
        ["solve", spl_partition(quotas=[3, 1])], "quota 3 exceeds block size 2"),
    "tabulated max_load": (
        ["solve", with_cost("tabulated_game.json", max_load=-1)],
        "max_load must be non-negative"),
    "tabulated neighborhood": (
        ["solve", with_cost("tabulated_game.json", neighborhoods=[[0], [0, 2]])],
        "neighborhood of resource 1 out of range"),
    "tabulated neighborhood naming a resource twice": (
        ["characterize", {"m": 1, "cost": {
            "kind": "tabulated", "max_load": 3, "neighborhoods": [[0, 0]],
            "tables": [{f"{x},{x}": str(x) for x in range(4)}]}}, "--L", "1"],
        "neighborhood of resource 0 names a resource twice"),
    "strategies neither explicit nor matroid": (
        ["solve", edited("readme_game.json",
                         lambda doc: doc["players"][0].update(strategies={"bases": [[0]]}))],
        "players[0]: strategies must be explicit or matroid"),
    "exponential a and b": (
        ["solve", with_cost("exponential_game.json", a=[1.0])],
        "a and b must have the same length"),
    "exponential NaN b": (
        ["solve", with_cost("exponential_game.json", b=[float("nan")] * 2)],
        "b[0] must be finite, got nan"),
    "exponential string nan a": (
        ["solve", with_cost("exponential_game.json", a=[1.0, "nan"])],
        "a[1] must be finite, got nan"),
    "exponential infinite a": (
        ["solve", with_cost("exponential_game.json", a=[float("inf"), 2.0])],
        "a[0] must be finite, got inf"),
    "exponential infinite b": (
        ["solve", with_cost("exponential_game.json", b=[0.0, float("-inf")])],
        "b[1] must be finite, got -inf"),
    "exponential NaN phi": (
        ["solve", with_cost("exponential_game.json", phi=float("nan"))],
        "phi must be finite, got nan"),
    "exponential cost past the float range": (
        ["solve", with_cost("exponential_game.json", phi=1000.0)],
        "exponential cost of resource 1 overflows a float at load 3"),
    "exponential costs past the float range, verified": (
        ["verify", with_cost("exponential_game.json", a=[1e308, 1.7e308], phi=1.0),
         "--profile", golden("exponential_profile.json")],
        "exponential cost of resource 0 overflows a float at load 3"),
    "exponential costs past the float range, solved": (
        ["solve", with_cost("exponential_game.json", a=[1e308, 1.7e308], phi=1.0)],
        "exponential cost of resource 1 overflows a float at load 3"),
    "exponential a + b past the float range": (
        ["verify", with_cost("exponential_game.json", a=[1e308, 1e308], phi=0.0, b=[1e308, 0.0]),
         "--profile", golden("exponential_profile.json")],
        "exponential cost of resource 0 overflows a float at load 3"),
    "exponential price past the float range": (
        ["verify", edited("exponential_game.json", weight_2_at_1e308),
         "--profile", golden("exponential_profile.json")],
        "exponential price of the choice (2, 0) overflows a float"),
    "exponential infinite phi": (
        ["characterize", with_cost("exponential_cost.json", phi="-inf"), "--weighted"],
        "phi must be finite, got -inf"),
    "player_specific empty nu": (
        ["solve", with_cost("player_specific_game.json", nu=[])],
        "need at least one player table"),
    "player_specific nu per player": (
        ["solve", edited("player_specific_game.json",
                         lambda doc: doc["players"].append(doc["players"][0]))],
        "cost.nu: 2 player tables for 3 players; need one per player"),
    "player_specific ragged nu": (
        ["solve", with_cost("player_specific_game.json",
                            nu=[[["0", "1", "4"]] * 3, [["0", "2", "2"]] * 2])],
        "player 1 table has wrong resource count"),
    "gadget L5 with two resources": (
        gadget("triple_cost.json", "L5", "0,0,1", "3,1"), "L5 needs three resources"),
    "gadget repeated resource": (
        gadget("asym_affine_cost.json", "L3", "0,0", "1,1"), "gadget resources must be distinct"),
    "gadget point dimension": (
        gadget("asym_affine_cost.json", "L3", "0", "1,2"),
        "background point has wrong dimension"),
    "gadget negative point": (
        gadget("asym_affine_cost.json", "L3", "-1,0", "1,2"),
        "background load must be non-negative"),
    "gadget epsilon on L3": (
        gadget("asym_affine_cost.json", "L3", "0,0", "1,2") + ["--epsilon", "5"],
        "L3 takes no epsilon; only weighted-eps does"),
    "gadget zero epsilon on L3": (
        gadget("asym_affine_cost.json", "L3", "0,0", "1,2") + ["--epsilon", "0"],
        "L3 takes no epsilon; only weighted-eps does"),
    "gadget bilevel cost": (
        gadget("bilevel_cost.json", "L3", "0,0", "1,2"),
        "Bilevel has no structural composition; normalize with as_tabulated first"),
    "gadget player_specific cost": (
        gadget("player_specific_game.json", "L3", "0,0,0", "1,2"),
        "PlayerSpecificSeparable has no structural composition; "
        "normalize with as_tabulated first"),
    "potential tabulated": (
        ["potential", golden("tabulated_game.json"), "--profile", {"choices": [[0], [0]]}],
        "unweighted potential needs a separable-plus-linear cost model"),
    "potential weighted spl": (
        ["potential", edited("spl_game.json", lambda doc: doc["players"][0].update(weight="2")),
         "--profile", golden("spl_profile.json")],
        "unweighted potential requires unit weights"),
    "potential short f": (
        ["potential", with_cost("spl_game.json", f=[["0", "1"]] * 4),
         "--profile", golden("spl_profile.json")],
        "load 2 outside 0..1"),
    "dimacs header": (
        ["reduce", "sat", b"p dnf 3 1\n1 -2 3 0\n"], "bad DIMACS header: 'p dnf 3 1'"),
    "dimacs header variable count": (
        ["reduce", "sat", b"p cnf x 1\n1 -2 3 0\n"], "bad DIMACS header: 'p cnf x 1'"),
    "dimacs header clause count": (
        ["reduce", "sat", b"p cnf 3 x\n1 -2 3 0\n"], "bad DIMACS header: 'p cnf 3 x'"),
    "dimacs negative clause count": (
        ["reduce", "sat", b"p cnf 3 -1\n"], "bad DIMACS header: 'p cnf 3 -1'"),
    "dimacs more clauses than declared": (
        ["reduce", "sat", b"p cnf 3 1\n1 -2 3 0\n-1 2 -3 0\n"],
        "DIMACS header declares a clause count of 1, found 2"),
    "dimacs fewer clauses than declared": (
        ["reduce", "sat", b"p cnf 3 2\n1 -2 3 0\n"],
        "DIMACS header declares a clause count of 2, found 1"),
    "dimacs clause token": (
        ["reduce", "sat", b"p cnf 3 1\n1 x 3 0\n"], "line 2: expected an integer literal, got 'x'"),
    "dimacs variable": (
        ["reduce", "sat", b"p cnf 3 1\n1 -2 4 0\n"], "variable 3 out of range"),
    "dimacs second header": (
        ["reduce", "sat", b"p cnf 3 1\n1 -2 3 0\np cnf 3 0\n"], "line 3: a second DIMACS header"),
    "dimacs zero inside a clause": (
        ["reduce", "sat", b"p cnf 3 1\n1 0 2 0\n"], "line 2: 0 may only end a clause"),
    "dimacs clause before the header": (
        ["reduce", "sat", b"1 -2 3 0\np cnf 3 1\n"], "line 1: clause before the DIMACS header"),
    "dimacs clause without its 0": (
        ["reduce", "sat", b"p cnf 3 1\n1 -2 3\n"], "line 2: a clause must end with 0 on its line"),
    "dimacs clause over two lines": (
        ["reduce", "sat", b"p cnf 3 1\n1 -2\n3 0\n"],
        "line 2: a clause must end with 0 on its line"),
    "dimacs two literals": (
        ["reduce", "sat", b"p cnf 3 1\n1 -2 0\n"], "line 2: every clause must have exactly 3 literals"),
    "characterize weighted below the sample grid": (
        ["characterize", {"cost": {"kind": "tabulated", "max_load": 2, "neighborhoods": [[0]],
                                   "tables": [{"0": "0", "1": "1", "2": "2"}]}}, "--weighted"],
        "--weighted samples every resource at loads 0..3; the cost's max_load is 2"),
    "characterize L beyond the table": (
        ["characterize", tabulated_cost_doc(2), "--L", "5"],
        "characterize needs L >= 1 (and L <= max_load - 2), got L = 5 and max_load = 2"),
    "characterize weighted with L": (
        ["characterize", golden("spl_cost.json"), "--weighted", "--L", "-7"],
        "--weighted takes no --L; only unweighted characterize does"),
    "pairs s equals t": (
        ["reduce", "pairs", edited("pairs.json", lambda doc: doc.update(t=0))],
        "source and target must differ"),
    "dynamics negative max-iters": (
        ["solve", golden("readme_game.json"), "--method", "dynamics", "--max-iters", "-1"],
        "--max-iters: expected a non-negative integer, got -1"),
    "theorem3 negative max-iters": (
        ["solve", golden("bilevel_game.json"), "--method", "theorem3", "--max-iters", "-1"],
        "--max-iters: expected a non-negative integer, got -1"),
    "theorem3 affine cost": (
        ["solve", golden("readme_game.json"), "--method", "theorem3"],
        "bilevel games need the budget-attack cost model"),
    "theorem3 explicit space": (
        ["solve", bilevel_player0(strategies={"explicit": [[0]]}), "--method", "theorem3"],
        "player 0 needs a matroid strategy space"),
    "theorem3 weighted player": (
        ["solve", bilevel_player0(weight="2"), "--method", "theorem3"],
        "player 0 needs weight 1, got 2"),
}

# Inputs with every cost finite that a check once refused: each is priced and certified.
INPUT_ACCEPTS = {
    "exponential a = 0 with exp past the float range, solved": (
        ["solve", with_cost("exponential_game.json", a=[0.0, 0.0], phi=1000.0)],
        {"kind": "pne_found", "profile": [[0], [0], [0]]}),
    "exponential a = 0 with exp past the float range, verified": (
        ["verify", with_cost("exponential_game.json", a=[0.0, 0.0], phi=1000.0),
         "--profile", golden("exponential_profile.json")],
        {"kind": "is_pne"}),
}


class TestInputHardening:
    @pytest.mark.parametrize("name", sorted(INPUT_CHECKS))
    def test_model_and_instance_checks_reach_the_cli(self, name, tmp_path, capsys):
        argv, message = INPUT_CHECKS[name]
        assert main(as_files(argv, tmp_path)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("name", sorted(INPUT_ACCEPTS))
    def test_finite_inputs_are_certified(self, name, tmp_path, capsys):
        argv, fields = INPUT_ACCEPTS[name]
        assert main(as_files(argv, tmp_path)) == 0
        out, err = capsys.readouterr()
        assert err == "" and fields.items() <= json.loads(out).items()

    @pytest.mark.parametrize("field", sorted(NON_INTEGER_FIELDS))
    def test_non_integer_field_rejected(self, field, tmp_path, capsys):
        build, mutate = NON_INTEGER_FIELDS[field]
        doc = build()
        assert main(["solve", write_json(tmp_path, "game.json", doc)]) == 0
        capsys.readouterr()
        mutate(doc)
        assert main(["solve", write_json(tmp_path, "game.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field", sorted(PAIRS_NON_INTEGER_FIELDS))
    def test_non_integer_pairs_field_rejected(self, field, tmp_path, capsys):
        mutate, bad = PAIRS_NON_INTEGER_FIELDS[field]
        doc = golden_doc("pairs.json")
        mutate(doc)
        assert main(["reduce", "pairs", write_json(tmp_path, "pairs.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: $.{field}: expected an integer, got {bad!r}\n"

    def test_object_for_list_rejected(self, tmp_path, capsys):
        doc = golden_doc("pairs.json")
        doc["pairs"] = {}
        assert main(["reduce", "pairs", write_json(tmp_path, "pairs.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: $.pairs: expected a list, got {}\n"

    def test_graphic_without_vertices_rejected(self, tmp_path, capsys):
        doc = {"version": 1, "m": 0, "players": [{"weight": "1", "strategies": {
            "matroid": {"type": "graphic", "vertices": 0, "edges": []}}}],
            "cost": {"kind": "affine", "A": [], "b": []}}
        assert main(["solve", write_json(tmp_path, "game.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: graphic matroid needs n_vertices >= 1, got 0\n"

    @pytest.mark.parametrize("field, vertex", [("s", 9), ("s", -1), ("t", 5)])
    def test_pairs_endpoint_outside_the_graph_rejected(self, field, vertex, tmp_path, capsys):
        doc = golden_doc("pairs.json")
        doc[field] = vertex
        assert main(["reduce", "pairs", write_json(tmp_path, "pairs.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {field} = {vertex} is not a vertex of 0..4\n"

    @pytest.mark.parametrize("resources", ["0,1", "1,3"])
    def test_gadget_resource_out_of_range_rejected(self, resources, capsys):
        argv = ["gadget", str(GOLDEN / "asym_affine_cost.json"), "--lemma", "L3",
                "--point", "0,0", "--resources", resources, "--confirm"]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: gadget resources must be 0-based indices")
        assert err.count("\n") == 1

    def test_boolean_cost_document_m_rejected(self, tmp_path, capsys):
        doc = {"m": 1, "cost": {"kind": "affine", "A": [["1"]], "b": ["0"]}}
        assert main(["characterize", "--weighted", write_json(tmp_path, "c.json", doc)]) == 0
        capsys.readouterr()
        doc["m"] = True
        assert main(["characterize", "--weighted", write_json(tmp_path, "c.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: $.m: expected an integer, got True\n"

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["players"][0].__setitem__("weight", "x"),
         "players[0].weight: expected a rational string, got 'x'"),
        (lambda d: d["players"][1].__setitem__("weight", True),
         "players[1].weight: expected a rational string, got True"),
        (lambda d: d.__setitem__("m", "2"), "$.m: expected an integer, got '2'"),
    ], ids=["weight string", "weight boolean", "m string"])
    def test_game_weight_and_m_named(self, mutate, message, tmp_path, capsys):
        doc = golden_doc("readme_game.json")
        mutate(doc)
        assert main(["solve", write_json(tmp_path, "game.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, key", [
        (["characterize", REPEATED_TABLE_KEY], "1"),
        (["solve", REPEATED_M], "m"),
        (["verify", golden("readme_game.json"), "--profile", REPEATED_CHOICES], "choices"),
    ], ids=["table key", "game m", "profile choices"])
    def test_repeated_key_rejected(self, argv, key, tmp_path, capsys):
        """`json` would keep the last value of a repeated key; every input refuses it."""
        args = as_files(argv, tmp_path)
        assert main(args) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {args[-1]}: repeated key {key!r}\n"

    @pytest.mark.parametrize("value", ["x", "", "1/0"])
    def test_gadget_bad_epsilon_names_its_flag(self, value, capsys):
        argv = ["gadget", str(GOLDEN / "asym_affine_cost.json"), "--lemma", "weighted-eps",
                "--point", "1,0", "--resources", "1,2", "--epsilon", value]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: --epsilon: expected a rational string, got {value!r}\n"

    @pytest.mark.parametrize("flag, value, bad", [
        ("--point", "a", "a"), ("--point", "1,,2", ""), ("--point", "0,1.5", "1.5"),
        ("--resources", "1,x", "x"), ("--resources", "", ""),
    ])
    def test_gadget_bad_integer_names_its_flag(self, flag, value, bad, capsys):
        args = {"--point": "0,0", "--resources": "1,2", flag: value}
        argv = ["gadget", str(GOLDEN / "asym_affine_cost.json"), "--lemma", "L3",
                "--point", args["--point"], "--resources", args["--resources"]]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {flag}: expected an integer, got {bad!r}\n"

    def test_out_of_range_support_rejected(self, tmp_path, capsys):
        doc = game_to_json(sample_game())
        doc["players"][0]["strategies"]["explicit"] = [[5], [1]]
        with pytest.raises(StructureError, match="outside 0..1"):
            game_from_json(doc)
        assert main(["solve", write_json(tmp_path, "game.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")

    def test_out_of_range_profile_rejected(self, game_file, tmp_path, capsys):
        for choices in ([[0], [2]], [[-1], [0]]):
            profile = write_json(tmp_path, "profile.json", {"choices": choices})
            assert main(["verify", game_file, "--profile", profile]) == 2
            assert capsys.readouterr().out == ""
        with pytest.raises(StructureError):
            profile_from_json({"choices": [[0], [7]]}, sample_game())

    def test_type_malformed_input_exits_two_with_one_line(self, tmp_path, capsys):
        doc = game_to_json(sample_game())
        doc["players"] = 5
        assert main(["solve", write_json(tmp_path, "game.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_failed_lift_exits_two(self, game_file, monkeypatch, capsys):
        def broken_lift(*args, **kwargs):
            raise AssertionError("nu-game equilibrium failed to lift")

        monkeypatch.setattr(cli, "solve_bilevel", broken_lift)
        assert main(["solve", game_file, "--method", "theorem3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: nu-game equilibrium failed to lift\n"

    def test_unplayable_profile_rejected_by_verify(self, game_file, tmp_path, capsys):
        profile = write_json(tmp_path, "profile.json", {"choices": [[0, 1], [0, 1]]})
        assert main(["verify", game_file, "--profile", profile]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: player 0 cannot play resources [0, 1]\n"

    def test_unplayable_profile_rejected_by_potential(self, game_file, tmp_path, capsys):
        profile = write_json(tmp_path, "profile.json", {"choices": [[0, 1], [0, 1]]})
        assert main(["potential", game_file, "--profile", profile]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: player 0 cannot play resources [0, 1]\n"

    def test_boolean_weight_rejected(self, tmp_path, capsys):
        doc = game_to_json(sample_game())
        doc["players"][0]["weight"] = True
        assert main(["solve", write_json(tmp_path, "game.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    def test_boolean_profile_index_rejected(self, game_file, tmp_path, capsys):
        profile = write_json(tmp_path, "profile.json", {"choices": [[True], [0]]})
        assert main(["verify", game_file, "--profile", profile]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("doc, message", [
        ({"choices": 5}, "profile.choices: expected a list, got 5"),
        ({"choices": [5, [1]]}, "profile.choices[0]: expected a list, got 5"),
        ({"choices": {"a": 1}}, "profile.choices: expected a list, got {'a': 1}"),
        ([["choices", [[0], [1]]]], "profile: expected an object, got [['choices', [[0], [1]]]]"),
    ])
    def test_malformed_profile_names_the_path(self, doc, message, tmp_path, capsys):
        profile = write_json(tmp_path, "profile.json", doc)
        assert main(["verify", str(GOLDEN / "readme_game.json"), "--profile", profile]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d.update(players=5), "players: expected a list, got 5"),
        (lambda d: d.update(players=[5]), "players[0]: expected an object, got 5"),
        (lambda d: d["players"][0].update(strategies=5),
         "players[0].strategies: expected an object, got 5"),
        (lambda d: d["players"][0]["strategies"].update(explicit=5),
         "players[0].strategies.explicit: expected a list, got 5"),
        (lambda d: d.update(players=[["weight", "1"]]),
         "players[0]: expected an object, got ['weight', '1']"),
    ], ids=["players", "player", "strategies", "explicit", "player-as-list"])
    def test_malformed_game_names_the_path(self, edit, message, tmp_path, capsys):
        doc = json.loads((GOLDEN / "readme_game.json").read_text())
        edit(doc)
        assert main(["solve", write_json(tmp_path, "game.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    def test_game_document_must_be_an_object(self, tmp_path, capsys):
        assert main(["solve", write_json(tmp_path, "game.json", [1, 2])]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: $: expected an object, got [1, 2]\n"

    @pytest.mark.parametrize("name, edit, message", [
        ("readme_game.json", set_cost_field("A", 5), "cost.A: expected a list, got 5"),
        ("readme_game.json", set_cost_field("A", [[True, "0"], ["0", "1"]]),
         "cost.A: expected a rational string, got True"),
        ("readme_game.json", set_cost_field("A", [["1/0", "0"], ["0", "1"]]),
         "cost.A: expected a rational string, got '1/0'"),
        ("readme_game.json", set_cost_field("b", ["x", "0"]),
         "cost.b: expected a rational string, got 'x'"),
        ("readme_game.json", set_cost_field("b", {}), "cost.b: expected a list, got {}"),
        ("spl_game.json", set_cost_field("f", [5] * 4), "cost.f: expected a list, got 5"),
        ("player_specific_game.json", set_cost_field("nu", 5), "cost.nu: expected a list, got 5"),
        ("tabulated_game.json", set_cost_field("neighborhoods", 5),
         "cost.neighborhoods: expected a list, got 5"),
        ("tabulated_game.json", set_cost_field("tables", 5),
         "cost.tables: expected a list, got 5"),
        ("tabulated_game.json", set_cost_field("tables", [5, {}]),
         "cost.tables: expected an object, got 5"),
        ("tabulated_game.json", set_cost_field("tables", [{"x": "0"}, {}]),
         "cost.tables: expected a key of unsigned integers joined by ',', without spaces or "
         "leading zeros, got 'x'"),
        ("exponential_game.json", set_cost_field("phi", None),
         "cost.phi: expected a number, got None"),
        ("exponential_game.json", set_cost_field("phi", True),
         "cost.phi: expected a number, got True"),
        ("exponential_game.json", set_cost_field("b", [0.0, "x"]),
         "cost.b: could not convert string to float: 'x'"),
        ("exponential_game.json", set_cost_field("a", [10**400, 2.0]),
         "cost.a: int too large to convert to float"),
        ("bilevel_game.json", set_cost_field("budget", True),
         "cost.budget: expected a rational string, got True"),
        ("bilevel_game.json", set_matroid_field(1, "blocks", 5),
         "players[1].strategies.matroid.blocks: expected a list, got 5"),
        ("bilevel_game.json", set_matroid_field(1, "quotas", [True, 1]),
         "players[1].strategies.matroid.quotas: expected an integer, got True"),
        ("spl_game.json", set_matroid_field(2, "edges", 5),
         "players[2].strategies.matroid.edges: expected a list, got 5"),
    ], ids=["A", "A-entry", "A-zero-denominator", "b-entry", "b", "f", "nu", "neighborhoods",
            "tables", "table", "table-key", "phi-null", "phi-boolean", "float-entry",
            "float-overflow", "budget", "blocks", "quotas", "edges"])
    def test_malformed_spec_field_names_the_field(self, name, edit, message, tmp_path, capsys):
        doc = golden_doc(name)
        edit(doc)
        assert main(["solve", write_json(tmp_path, "game.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("bounds, message", [
        (5, "bounds: expected an object, got 5"),
        (None, "bounds: expected an object, got None"),
        ({"L": "x"}, "bounds.L: expected an integer, got 'x'"),
        ({"L": True}, "bounds.L: expected an integer, got True"),
        ({"L": 2, "M": 1}, "bounds: unknown fields ['M']"),
    ], ids=["number", "null", "string-L", "boolean-L", "unknown-field"])
    @pytest.mark.parametrize("name, command", [
        ("readme_game.json", "solve"),
        ("readme_game.json", "characterize"),
        ("asym_affine_cost.json", "characterize"),
    ], ids=["game-solve", "game-characterize", "cost-characterize"])
    def test_malformed_bounds_rejected(self, name, command, bounds, message, tmp_path, capsys):
        doc = golden_doc(name)
        doc["bounds"] = bounds
        assert main([command, write_json(tmp_path, "doc.json", doc)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["characterize", "{doc}"],
        ["gadget", "{doc}", "--lemma", "L3", "--point", "0,0", "--resources", "1,2"],
        ["reduce", "pairs", "{doc}"],
    ], ids=lambda argv: argv[0])
    def test_cost_and_pairs_documents_must_be_objects(self, argv, tmp_path, capsys):
        doc = write_json(tmp_path, "doc.json", 5)
        assert main([arg.format(doc=doc) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: $: expected an object, got 5\n"

    @pytest.mark.parametrize("argv", [
        ["solve", "{bad}"],
        ["verify", "{bad}", "--profile", "{profile}"],
        ["characterize", "{bad}"],
        ["gadget", "{bad}", "--lemma", "L3", "--point", "0,0", "--resources", "1,2"],
        ["potential", "{bad}", "--profile", "{profile}"],
        ["reduce", "pairs", "{bad}"],
    ], ids=lambda argv: argv[0])
    def test_invalid_json_names_the_file(self, argv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        files = {"bad": str(bad), "profile": str(GOLDEN / "readme_profile.json")}
        assert main([arg.format(**files) for arg in argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {bad}: not valid JSON (")
        assert err.count("\n") == 1

    def test_non_utf8_dimacs_names_the_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.cnf"
        bad.write_bytes(b"p cnf 3 1\n1 -2 3 0\n\xff\n")
        assert main(["reduce", "sat", str(bad)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"error: {bad}: not valid UTF-8 (")
        assert err.count("\n") == 1

    def test_argparse_exit_passes_through(self, game_file):
        with pytest.raises(SystemExit):
            main(["solve"])
        with pytest.raises(SystemExit):
            main(["--jobs", "2", "solve", game_file])


class TestCharacterizeBound:
    @pytest.mark.parametrize("max_load", [1, 2])
    def test_small_table_has_no_certificate(self, tmp_path, capsys, max_load):
        path = write_json(tmp_path, "cost.json", tabulated_cost_doc(max_load))
        assert main(["characterize", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "L >= 1" in err

    def test_smallest_useful_table(self, tmp_path, capsys):
        path = write_json(tmp_path, "cost.json", tabulated_cost_doc(3))
        assert main(["characterize", path]) == 0
        assert json.loads(capsys.readouterr().out)["L"] == 1

    def test_explicit_zero_bound_rejected(self, game_file, capsys):
        assert main(["characterize", game_file, "--L", "0"]) == 2
        assert capsys.readouterr().out == ""


class TestNoResources:
    """A game over m = 0 resources: no table bounds a load, so a separable-plus-linear
    or player-specific cost answers every command as the affine cost does."""

    COSTS = {"separable_plus_linear": {"kind": "separable_plus_linear", "f": [], "A": []},
             "player_specific": {"kind": "player_specific", "nu": [[]]},
             "affine": {"kind": "affine", "A": [], "b": []}}

    @pytest.mark.parametrize("command, kind", [
        ("verify", "is_pne"), ("solve", "pne_found"), ("characterize", "unweighted_consistent"),
        ("characterize --weighted", "weighted_affine"),
    ])
    def test_table_costs_answer_as_affine(self, command, kind, tmp_path, capsys):
        profile = write_json(tmp_path, "profile.json", {"choices": [[]]})
        payloads = {}
        for name, cost in self.COSTS.items():
            game = write_json(tmp_path, f"{name}.json", {
                "version": 1, "m": 0, "cost": cost,
                "players": [{"weight": "1", "strategies": {"explicit": [[]]}}]})
            verb, *flags = command.split()
            argv = [verb, game, *flags] + (["--profile", profile] if verb == "verify" else [])
            assert main(argv) == 0, name
            payload = json.loads(capsys.readouterr().out)
            assert payload.pop("input_sha256") and payload["kind"] == kind, name
            payloads[name] = payload
        assert payloads["separable_plus_linear"] == payloads["player_specific"] \
            == payloads["affine"]


class TestCharacterizeReadsTheModel:
    @pytest.mark.parametrize("name, argv, code", [
        ("readme_characterize", ["readme_game.json"], 0),
        ("spl_characterize", ["spl_cost.json", "--L", "2"], 0),
        ("asym_characterize", ["asym_affine_cost.json"], 1),
        ("bilevel_characterize", ["bilevel_cost.json"], 1),
    ])
    def test_golden_output_without_tabulating(self, name, argv, code, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("characterize tabulated the model")

        original = costs.as_tabulated
        for module in list(sys.modules.values()):  # every binding of the name, cli's included
            if module and module.__name__.startswith("rggames") and \
                    getattr(module, "as_tabulated", None) is original:
                monkeypatch.setattr(module, "as_tabulated", refuse)
        assert main(["characterize", str(GOLDEN / argv[0]), *argv[1:]]) == code
        assert capsys.readouterr().out == (GOLDEN / f"{name}.out").read_text()

    def test_exponential_points_to_weighted(self, capsys):
        assert main(["characterize", str(GOLDEN / "exponential_cost.json")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == (
            "error: unweighted characterization needs exact costs; use --weighted for floats\n")


class TestBilevelCostDocument:
    def test_needs_top_level_m(self, tmp_path, capsys):
        cost = {"kind": "bilevel", "budget": "1"}
        path = write_json(tmp_path, "cost.json", {"cost": cost})
        assert main(["characterize", path, "--weighted"]) == 2
        assert capsys.readouterr().out == ""
        path = write_json(tmp_path, "cost.json", {"m": 2, "cost": cost})
        assert main(["characterize", path, "--weighted"]) == 1
        assert json.loads(capsys.readouterr().out)["kind"] == "violation"

    def test_document_m_must_match_cost(self, tmp_path, capsys):
        affine = {"kind": "affine", "A": [["1", "0"], ["0", "1"]], "b": ["0", "0"]}
        path = write_json(tmp_path, "cost.json", {"m": 5, "cost": affine})
        assert main(["characterize", path, "--weighted"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "covers 2 resources, not m = 5" in err
        path = write_json(tmp_path, "cost.json", {"m": 2, "cost": affine})
        assert main(["characterize", path, "--weighted"]) == 0

    def test_game_supplies_m(self):
        doc = game_to_json(sample_game())
        doc["cost"] = {"kind": "bilevel", "budget": "3/2"}
        assert game_from_json(doc).cost_model.m == 2


BILEVEL = {"kind": "bilevel", "budget": "3/2"}
SPEC_DOCS = [  # one document per decodable spec, each over m = 3 resources
    ("matroid", {"type": "uniform", "m": 3, "k": 2}),
    ("matroid", {"type": "partition", "m": 3, "blocks": [[0, 1], [2]], "quotas": [1, 1]}),
    ("matroid", {"type": "graphic", "vertices": 3, "edges": [[0, 1], [1, 2], [0, 2]]}),
    ("cost", {"kind": "tabulated", "max_load": 1, "neighborhoods": [[0], [0, 2], []],
              "tables": [{"0": "0", "1": "1/2"},
                         {"0,0": "0", "0,1": "1", "1,0": "2", "1,1": "7/3"}, {"": "4"}]}),
    ("cost", {"kind": "separable_plus_linear", "f": [["0", "1", "5/2"]] * 3,
              "A": [["0", "1", "0"], ["1", "0", "-1/3"], ["0", "-1/3", "0"]]}),
    ("cost", {"kind": "affine", "A": [["1", "2", "0"], ["2", "1", "0"], ["0", "0", "3/4"]],
              "b": ["0", "1", "-2"]}),
    ("cost", {"kind": "exponential", "a": [1.0, 2.5, 0.5], "phi": 0.25, "b": [0.0, 1.0, -1.0]}),
    ("cost", BILEVEL),
    ("cost", {"kind": "player_specific", "nu": [
        [["0", "1", "2"]] * 3, [["1", "1", "5/2"], ["0", "0", "0"], ["0", "2", "3"]]]}),
]
SPEC_IDS = [doc.get("type", doc.get("kind")) for _family, doc in SPEC_DOCS]


class TestSpecCodec:
    @pytest.mark.parametrize("family, doc", SPEC_DOCS, ids=SPEC_IDS)
    def test_round_trip(self, family, doc):
        model = decode(family, doc, "$.x", m=3)
        assert model.m == 3
        assert encode(model) == doc
        if doc is not BILEVEL:  # every other model implies its own m
            assert decode(family, doc, "$.x").m == 3

    @pytest.mark.parametrize("family, doc", [d for d in SPEC_DOCS if d[1] != BILEVEL],
                             ids=[i for i in SPEC_IDS if i != "bilevel"])  # bilevel takes any m
    def test_document_m_must_match(self, family, doc):
        with pytest.raises(StructureError):
            decode(family, doc, "$.x", m=4)

    @pytest.mark.parametrize("family, doc", SPEC_DOCS, ids=SPEC_IDS)
    def test_malformed_documents_name_the_path(self, family, doc):
        tag_key = "type" if family == "matroid" else "kind"
        bad = [{**doc, tag_key: "bogus"}, {**doc, "extra": 1}]
        bad += [{k: v for k, v in doc.items() if k != key} for key in doc]
        for case in bad:
            with pytest.raises(StructureError, match=r"^\$\.x: "):
                decode(family, case, "$.x", m=3)


RAT_EDGES = ["1/", "/2", "-", "-0", " 1", "+1", "1_0", "1/-2", "1/0", "\u0661", "1.5", "1e3",
             "", "1 ", "--1", "1/2/3", "1/ 2", "-1/00", "007/014", "0/5", "\u00b2", "1" * 5000]


def reference_rat(text):
    """`rat` before its fast path: the type gate, then `Fraction(text)`; None where
    either refuses."""
    if isinstance(text, bool) or not isinstance(text, (int, str)):
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


def rat_corpus(n: int = 3000) -> list:
    """Seeded strings: random runs over digits, signs, separators and non-ASCII digits,
    and "p" or "p/q" forms with stray signs, leading zeros and empty parts."""
    rng = random.Random(23)
    alphabet = "0123456789-/+_.eE \t\u0661\u00b2"

    def digits():
        return "0" * rng.randint(0, 2) + str(rng.randrange(10 ** rng.randint(1, 30)))

    corpus = []
    for _ in range(n):
        corpus.append("".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7))))
        num = rng.choice(["", "", "-", "+", "--"]) + digits()
        if rng.random() < 0.6:
            num += "/" + rng.choice(["", "", "", "-", "+"]) + rng.choice([digits(), "", "0"])
        corpus.append(num)
    return corpus


class TestRationalCodec:
    @pytest.mark.parametrize("values", [RAT_EDGES + [True, False, 1.0, None, 3, -7, 2 ** 80],
                                        rat_corpus()], ids=["edges", "seeded"])
    def test_rat_matches_fraction(self, values):
        for text in values:
            expected = reference_rat(text)
            if expected is None:
                with pytest.raises(StructureError, match="^expected a rational string, got "):
                    cli.rat(text)
            else:
                got = cli.rat(text)
                assert type(got) is Fraction and got == expected, text

    def test_unrat_matches_fraction(self):
        values = [reference_rat(t) for t in rat_corpus(500)]
        values = [v for v in values if v is not None] + [0, 5, -12, 2 ** 70, True, False]
        for value in values:
            assert cli.unrat(value) == str(Fraction(value)), value

    def test_table_round_trip(self):
        rng = random.Random(23)
        for _ in range(200):
            width = rng.randint(0, 4)
            table = {tuple(rng.choice([0, 1, 2, 9, 10, 12345]) for _ in range(width)):
                     Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                     for _ in range(rng.randint(0, 12))}
            decoded = cli.TABLE.decode(cli.TABLE.encode(table))
            assert decoded == table
            assert all(type(v) is Fraction for v in decoded.values())

    @pytest.mark.parametrize("key", ["0, 1", " 0,1", "0,1 ", "01,1", "0,00", "1,,1", ",1", "1,",
                                     ",", "+1,1_0", "\u0661,0", "-1,0", "0,-0", "1.0", "0x1"])
    def test_non_canonical_table_key_refused(self, key):
        doc = {"kind": "tabulated", "max_load": 2, "neighborhoods": [[0, 1], [1]],
               "tables": [{"0,1": "1"}, {"0": "0", "1": "2"}]}
        doc["tables"][0][key] = "5"
        message = ("cost.tables: expected a key of unsigned integers joined by ',', without "
                   f"spaces or leading zeros, got {key!r}")
        with pytest.raises(StructureError, match=f"^{re.escape(message)}$"):
            cost_from_json(doc)

    def test_canonical_table_keys(self):
        for key, loads in [("", ()), ("0", (0,)), ("10", (10,)), ("0,0", (0, 0)),
                           ("12,0,305", (12, 0, 305))]:
            assert cli.TABLE.decode({key: "3/6"}) == {loads: Fraction(1, 2)}


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, game_file, asym_cost_file, capsys):
        commands = [
            ["solve", game_file],
            ["solve", game_file, "--method", "dynamics", "--seed", "11"],
            ["characterize", game_file],
            ["characterize", asym_cost_file, "--weighted"],
            ["gadget", asym_cost_file, "--lemma", "L3", "--point", "0,0",
             "--resources", "1,2", "--confirm"],
        ]
        for argv in commands:
            main(argv)
            first = capsys.readouterr().out
            main(argv)
            second = capsys.readouterr().out
            assert first == second


# One process runs these in turn: each call sets flags that the next leaves at their
# defaults, and an argparse error falls between two good calls.
GADGET_L3 = ["gadget", golden("asym_affine_cost.json"), "--lemma", "L3", "--point", "0,0",
             "--resources", "1,2"]
PARSER_REUSE = [
    ["solve", golden("readme_game.json"), "--method", "dynamics", "--seed", "3",
     "--max-iters", "0"],
    ["solve", golden("readme_game.json")],
    ["characterize", golden("readme_game.json"), "--weighted"],
    ["characterize", golden("readme_game.json")],
    ["solve"],
    GADGET_L3 + ["--confirm"],
    GADGET_L3,
]


def all_parsers(parser):
    """The parser and its subparsers, at any depth."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for subparser in action.choices.values():
                yield from all_parsers(subparser)


class TestSharedParser:
    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_mutable_default(self):
        parsers = list(all_parsers(cli.build_parser()))
        defaults = [action.default for parser in parsers for action in parser._actions]
        defaults += [value for parser in parsers for value in parser._defaults.values()]
        assert not [d for d in defaults if isinstance(d, (list, dict, set))]

    def test_calls_in_one_process_match_fresh_processes(self, capsys):
        fresh = [run_process("rggames", argv) for argv in PARSER_REUSE]
        for _ in range(2):  # the second round follows each call's successor too
            for argv, expected in zip(PARSER_REUSE, fresh):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                assert (code, *capsys.readouterr()) == expected, argv
        assert [code for code, _out, _err in fresh] == [1, 0, 0, 0, 2, 1, 0]


@pytest.mark.skipif(shutil.which("rggames") is None, reason="console script not on PATH")
def test_console_script(game_file):
    proc = subprocess.run(
        ["rggames", "solve", game_file], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["kind"] == "pne_found"


def test_console_script_entry_point():
    """pyproject.toml's `rggames` script names `rggames.cli:main`, and that name resolves."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["rggames"] == "rggames.cli:main"
    module, name = scripts["rggames"].split(":")
    assert getattr(importlib.import_module(module), name) is main


@pytest.mark.parametrize("argv, code", [
    (["solve", golden("readme_game.json")], 0),
    (["verify", golden("spl_game.json"), "--profile", golden("spl_profile.json")], 1),
    (["solve", golden("readme_game.json"), "--method", "dynamics", "--max-iters", "-1"], 2),
    (["solve", golden("readme_game.json"), "--method", "dynamics", "--max-iters", "0"], 1),
    (["characterize", REPEATED_TABLE_KEY], 2),
])
def test_exit_codes_from_a_real_process(argv, code, tmp_path, capsys):
    """`python -m rggames.cli` exits and prints as `main` does in process."""
    run_as_process("rggames.cli", as_files(argv, tmp_path), code, capsys)


@pytest.mark.parametrize("argv, code", [
    (["solve", golden("readme_game.json")], 0),
    (["verify", golden("spl_game.json"), "--profile", golden("spl_profile.json")], 1),
    (["solve", golden("sat.cnf")], 2),
])
def test_python_m_rggames(argv, code, capsys):
    """`python -m rggames` exits and prints as `main` does in process."""
    run_as_process("rggames", argv, code, capsys)


def run_process(module, argv) -> tuple:
    """(exit code, stdout, stderr) of `python -m <module> <argv>` in a fresh process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", module, *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def run_as_process(module, argv, code, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert run_process(module, argv) == (code, out, err)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
    else:
        assert out and err == ""
