"""Fuzz the CLI with mutated documents: exit codes stay honest on any input.

One golden game, profile, cost, tabulated cost or forbidden-pairs document gets
one mutation (a field or list element dropped, a value swapped for one of another
JSON type, a tag renamed, an integer pushed out of range, or an object key
respelled); `solve`, `verify`, `characterize --weighted`, `characterize` of the
tabulated cost and `reduce pairs` then replay through `rggames.cli.main`.  A
respelled key is an unknown field or a table key that is not canonical, so every
command that reads that document must exit 2.  Every field of the forbidden-pairs
document is an integer or a list, so a swapped value there must exit 2.  Every list or object
of the golden game outside its cost, `bounds` included, is also swapped for each
value of another JSON type, and `solve` must exit 2 with an error that names the
swapped field.
"""

import contextlib
import copy
import io
import json
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from rggames.cli import NEGATIVE_KINDS, game_from_json, main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
SOURCES = {"game": "readme_game.json", "profile": "readme_profile.json", "cost": "spl_cost.json",
           "table": "cross_cost.json", "pairs": "pairs.json"}
COMMANDS = [
    ["solve", "{game}"],
    ["verify", "{game}", "--profile", "{profile}"],
    ["characterize", "{cost}", "--weighted"],
    ["characterize", "{table}"],
    ["reduce", "pairs", "{pairs}"],
]
OTHER_TYPES = [None, True, 0, 2.5, "x", [], {}]


def _load(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        return json.load(fh)


DOCS = {role: _load(name) for role, name in SOURCES.items()}


def _locations(node, path=()):
    """Every (parent path, key or index) in the tree, root excluded."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path, key
        yield from _locations(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw):
    role = draw(st.sampled_from(sorted(DOCS)))
    doc = copy.deepcopy(DOCS[role])
    path, key = draw(st.sampled_from(list(_locations(doc))))
    parent = _at(doc, path)
    value = parent[key]
    moves = ["drop", "swap"]
    if key in ("kind", "type"):
        moves.append("tag")
    if isinstance(value, int) and not isinstance(value, bool):
        moves.append("range")
    if isinstance(parent, dict):
        moves.append("rekey")
    move = draw(st.sampled_from(moves))
    if move == "drop":
        del parent[key]
    elif move == "swap":
        parent[key] = draw(st.sampled_from([v for v in OTHER_TYPES if type(v) is not type(value)]))
    elif move == "tag":
        parent[key] = "bogus"
    elif move == "rekey":
        parent[draw(st.sampled_from([f" {key}", f"{key},", f"0{key}"]))] = parent.pop(key)
    else:
        parent[key] = draw(st.sampled_from([-1, value + 3]))
    return role, move, doc


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, deadline=None)
@given(case=mutated())
def test_mutated_documents_exit_honestly(tmp_path_factory, case):
    role, move, doc = case
    workdir = tmp_path_factory.getbasetemp() / "fuzz"
    workdir.mkdir(exist_ok=True)
    files = {}
    for name in SOURCES:
        files[name] = str(workdir / f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            json.dump(doc if name == role else DOCS[name], fh)
    for template in COMMANDS:
        argv = [arg.format(**files) for arg in template]
        code, out, err = _run(argv)
        assert code in (0, 1, 2), argv
        if move == "rekey" and f"{{{role}}}" in template:
            assert code == 2, (argv, doc)
        if code == 2:
            assert out == "", argv
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        elif argv[0] == "reduce":
            assert code == 0 and not (role == "pairs" and move == "swap"), (argv, doc)
            payload = json.loads(out)
            assert payload["tool"] and payload["input_sha256"]
            game_from_json(payload["game"])
        else:
            negative = json.loads(out)["kind"] in NEGATIVE_KINDS
            assert negative == (code == 1), (argv, out)


def _game_structure(node, path=()):
    """Paths of the lists and objects in a game document outside the cost model."""
    if path:
        yield path
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        if key != "cost" and isinstance(child, (dict, list)):
            yield from _game_structure(child, path + (key,))


def _json_path(path):
    out = ""
    for key in path:
        out += f"[{key}]" if isinstance(key, int) else (f".{key}" if out else key)
    return out


def test_swapped_game_structure_names_the_field(tmp_path):
    paths = list(_game_structure(DOCS["game"]))
    assert ("players", 0, "strategies", "explicit", 1) in paths
    assert ("players", 1, "strategies", "matroid") in paths
    assert ("bounds",) in paths
    for path in paths:
        for value in OTHER_TYPES:
            doc = copy.deepcopy(DOCS["game"])
            parent = _at(doc, path[:-1])
            if type(value) is type(parent[path[-1]]):
                continue
            parent[path[-1]] = value
            game = tmp_path / "game.json"
            game.write_text(json.dumps(doc), encoding="utf-8")
            code, out, err = _run(["solve", str(game)])
            assert (code, out) == (2, ""), (path, value)
            assert err.startswith(f"error: {_json_path(path)}: expected "), (path, value, err)
