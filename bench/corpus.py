"""Seeded corpus generator: every input file the benchmark feeds the program.

`build(workload, seed, workdir)` writes game JSON, cost JSON, DIMACS, pairs
JSON and profile files under `workdir` and returns the job list.  Nothing is
downloaded and rggames is not imported: expected outcomes come from how each
input was constructed, and each job's `check` re-derives its claim with the
independent semantics in `reference.py`.

Jobs are interleaved round-robin over strata (job type x input size), so any
prefix of the list is close to the full mix; a timed run that stops part way
through a pass still measures the same workload.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product
from typing import Callable, Optional

import reference as ref

WORKLOADS = ("equilibria", "structure", "hardness")


@dataclass
class Job:
    name: str
    stratum: str
    argv: list = field(default_factory=list)  # CLI job: argv with file names relative to workdir
    lib: Optional[str] = None  # library job: a name in libjobs.LIBRARY
    params: dict = field(default_factory=dict)
    check: Callable = None  # check(exit_code, stdout_text, lib_value) -> error text or None


def q(value) -> str:
    return str(Fraction(value))


class Writer:
    """Writes corpus files and folds their bytes into one corpus digest."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.digest = hashlib.sha256()
        self.names: set = set()
        os.makedirs(workdir, exist_ok=True)

    def put(self, name: str, data) -> tuple:
        raw = data if isinstance(data, str) else json.dumps(data, sort_keys=True)
        raw = raw.encode()
        with open(os.path.join(self.workdir, name), "wb") as fh:
            fh.write(raw)
        self.digest.update(name.encode() + b"\0" + raw + b"\0")
        self.names.add(name)
        return name, raw


# ------------------------------------------------------------------ checks


def _json(out: str):
    try:
        return json.loads(out)
    except ValueError:
        return None


def _stamped(code, out, want_code, kind, raw: bytes):
    """Common envelope checks; returns (doc, error)."""
    if code != want_code:
        return None, f"exit {code}, want {want_code}"
    doc = _json(out)
    if not isinstance(doc, dict):
        return None, "stdout is not one JSON object"
    if doc.get("input_sha256") != hashlib.sha256(raw).hexdigest():
        return None, "input_sha256 does not hash the input file"
    if kind is not None and doc.get("kind") != kind:
        return None, f"kind {doc.get('kind')!r}, want {kind!r}"
    return doc, None


def check_pne_found(game: ref.RefGame, raw: bytes):
    def check(code, out, _value):
        doc, err = _stamped(code, out, 0, "pne_found", raw)
        if err:
            return err
        choices = doc.get("profile")
        if not isinstance(choices, list) or len(choices) != game.n:
            return "profile has the wrong shape"
        profile = game.profile(choices)
        for i, v in enumerate(profile):
            if v not in game.spaces[i]:
                return f"player {i} cannot play {choices[i]}"
        dev = game.improving(profile)
        if dev is not None:
            return f"player {dev[0]} improves by {dev[2]}: not an equilibrium"
        return None

    return check


def check_verify(game: ref.RefGame, raw: bytes, choices):
    profile = game.profile(choices)

    def check(code, out, _value):
        if game.improving(profile) is None:
            return _stamped(code, out, 0, "is_pne", raw)[1]
        doc, err = _stamped(code, out, 1, "not_pne", raw)
        if err:
            return err
        i = doc.get("player")
        if not isinstance(i, int) or not 0 <= i < game.n:
            return "bad deviating player"
        y = game.profile([doc["deviation"] if k == i else [] for k in range(game.n)])[i]
        if y not in game.spaces[i]:
            return "deviation is not a strategy"
        delta = game.cost_of(profile[:i] + (y,) + profile[i + 1 :], i) - game.cost_of(profile, i)
        if delta >= 0 or ref.rat(doc.get("delta")) != delta:
            return f"deviation does not improve by the stated delta ({delta})"
        return None

    return check


def check_no_pne(raw: bytes, profiles: int):
    def check(code, out, _value):
        doc, err = _stamped(code, out, 1, "no_pne_exists", raw)
        if err:
            return err
        if doc.get("profiles_checked") != profiles:
            return f"checked {doc.get('profiles_checked')} profiles, space has {profiles}"
        return None

    return check


def check_potential(game: ref.RefGame, choices):
    want = game.potential(game.profile(choices))

    def check(code, out, _value):
        if code != 0:
            return f"exit {code}, want 0"
        if out.strip() != f"{want.numerator}/{want.denominator}":
            return f"potential {out.strip()!r}, want {want}"
        return None

    return check


def check_value(expected, what: str):
    def check(code, _out, value):
        if value != expected:
            return f"{what}: got {value!r}, want {expected!r}"
        return None

    return check


# ------------------------------------------------------------ game pieces


def random_matroid(rng: random.Random, m: int) -> dict:
    kind = rng.choice(("uniform", "partition", "graphic"))
    if kind == "uniform":
        return {"type": "uniform", "m": m, "k": rng.choice((1, 2))}
    if kind == "partition":
        cut = sorted(rng.sample(range(1, m), rng.choice((1, 2))))
        order = list(range(m))
        rng.shuffle(order)
        bounds = [0] + cut + [m]
        blocks = [sorted(order[a:b]) for a, b in zip(bounds, bounds[1:])]
        return {"type": "partition", "m": m, "blocks": blocks, "quotas": [1] * len(blocks)}
    n = 4 if m <= 6 else 5
    edges = []
    for v in range(1, n):
        edges.append(sorted((v, rng.randrange(v))))
    pool = [[a, b] for a in range(n) for b in range(a + 1, n) if [a, b] not in edges]
    edges += rng.sample(pool, m - len(edges))
    rng.shuffle(edges)
    return {"type": "graphic", "vertices": n, "edges": edges}


def random_explicit(rng: random.Random, m: int, count: int) -> list:
    pool = [v for v in product((0, 1), repeat=m) if any(v)]
    return [[r for r, e in enumerate(v) if e] for v in rng.sample(pool, count)]


def sym_matrix(rng, m, lo, hi) -> list:
    A = [[0] * m for _ in range(m)]
    for r in range(m):
        for s in range(r, m):
            A[r][s] = A[s][r] = rng.randint(lo, hi)
    return A


# -------------------------------------------------------------- equilibria


def _space(rng, m: int, lo: int, hi: int, matroid_only: bool) -> dict:
    """A strategy spec with between lo and hi strategies (matroid 3 times in 4)."""
    while True:
        if matroid_only or rng.random() < 0.75:
            spec = {"matroid": random_matroid(rng, m)}
            size = len(ref.matroid_bases(spec["matroid"]))
        else:
            size = rng.randint(lo, min(hi, 2**m - 1))
            spec = {"explicit": random_explicit(rng, m, size)}
        if lo <= size <= hi:
            return spec


def _eq_game(rng, cost_kind: str, n: int, m: int, per_player: tuple, shared: bool) -> dict:
    """n players with per_player = (lo, hi) strategies each; a shared game gives
    every player one matroid descriptor.  Weighted players only on affine costs."""
    weighted = cost_kind == "affine_sym" and not shared
    if shared:
        while True:
            desc = random_matroid(rng, m)
            if per_player[0] <= len(ref.matroid_bases(desc)) <= per_player[1]:
                break
    players = []
    for _ in range(n):
        spec = {"matroid": desc} if shared else _space(rng, m, *per_player, cost_kind == "bilevel")
        w = Fraction(rng.randint(1, 5), rng.randint(1, 3)) if weighted else 1
        players.append({"weight": q(w), "strategies": spec})
    return {"version": 1, "m": m, "players": players, "cost": _eq_cost(rng, cost_kind, n, m)}


def _eq_cost(rng, cost_kind: str, n: int, m: int) -> dict:
    L = n + 1
    if cost_kind == "spl":
        f = [sorted(rng.randint(0, 8) for _ in range(L + 1)) for _ in range(m)]
        return {"kind": "separable_plus_linear", "f": [[q(v) for v in row] for row in f],
                "A": [[q(v) for v in row] for row in sym_matrix(rng, m, -1, 3)]}
    if cost_kind == "affine_sym":
        A = [[Fraction(v, 2) for v in row] for row in sym_matrix(rng, m, -2, 3)]
        return {"kind": "affine", "A": [[q(v) for v in row] for row in A],
                "b": [q(rng.randint(-3, 3)) for _ in range(m)]}
    if cost_kind == "affine_asym":
        return {"kind": "affine",
                "A": [[q(rng.randint(-2, 3)) for _ in range(m)] for _ in range(m)],
                "b": [q(rng.randint(-3, 3)) for _ in range(m)]}
    if cost_kind == "tabulated":
        tables = [sorted(rng.randint(0, 9) for _ in range(L + 1)) for _ in range(m)]
        return {"kind": "tabulated", "max_load": L, "neighborhoods": [[r] for r in range(m)],
                "tables": [{str(k): q(v) for k, v in enumerate(t)} for t in tables]}
    return {"kind": "bilevel", "budget": q(Fraction(rng.randint(1, 7), rng.randint(1, 2)))}


def _gadget_beside_players(rng) -> tuple:
    """An L3 gadget on an asymmetric 2x2 affine cost, beside independent partition
    players on disjoint resources.  The gadget's two free players see a payoff
    pair {A, B} with A != B in every profile, so no equilibrium exists and the
    search must visit all profiles."""
    a01 = rng.randint(-2, 3)
    a10 = a01 + rng.choice((-2, -1, 1, 2))
    base_A = [[rng.randint(-1, 2), a01], [a10, rng.randint(-1, 2)]]
    base_b = [rng.randint(0, 3), rng.randint(0, 3)]
    extra = 5
    M = 8 + extra
    A = [[0] * M for _ in range(M)]
    b = [0] * M
    for k in range(4):
        for u in range(2):
            b[2 * k + u] = base_b[u]
            for v in range(2):
                A[2 * k + u][2 * k + v] = base_A[u][v]
    EA = sym_matrix(rng, extra, -1, 2)
    for u in range(extra):
        b[8 + u] = rng.randint(0, 3)
        for v in range(extra):
            A[8 + u][8 + v] = EA[u][v]

    def at(copy, res):
        return 2 * copy + res

    r, s = 0, 1
    x1 = [[at(0, r), at(1, s)], [at(2, s), at(3, r)]]
    x2 = [[at(0, s), at(2, r)], [at(1, r), at(3, s)]]
    players = [{"weight": "1", "strategies": {"explicit": sorted(sorted(p) for p in x)}}
               for x in (x1, x2)]
    for u in range(2):
        for _ in range(rng.randint(0, 1)):
            players.append({"weight": "1", "strategies": {"explicit": [[at(k, u) for k in range(4)]]}})
    size = 4
    for cut, quotas in ((2, [1, 1]), (5, [2]), (1, [1, 1])):  # 6, 10, 4 bases: 960 profiles
        ground = list(range(8, M))
        rng.shuffle(ground)
        blocks = [sorted(ground[:cut]), sorted(ground[cut:])] if cut < 5 else [sorted(ground)]
        desc = {"type": "partition", "m": M, "blocks": blocks, "quotas": quotas}
        players.append({"weight": "1", "strategies": {"matroid": desc}})
        size *= len(ref.matroid_bases(desc))
    cost = {"kind": "affine", "A": [[q(v) for v in row] for row in A], "b": [q(v) for v in b]}
    return {"version": 1, "m": M, "players": players, "cost": cost}, size


def _random_choices(rng, game: ref.RefGame) -> list:
    return ref.supports(tuple(rng.choice(space) for space in game.spaces))


# strategies per player: small spaces keep the early-exit searches short, so the
# deterministic exhaustive and potential-identity jobs carry most of the time
# (every window holds uniform(m, 1) for the m it is used with, so matroid-only
# players always fit)
SPACE_SIZES = {2: (5, 10), 3: (4, 8), 4: (3, 6)}
LARGE_SPACES = (8, 20)  # verify-only games: one call, so graphic and C(m,2) spaces fit


def _exact_potential_game(rng, cost_kind: str, shared: bool) -> dict:
    """Two players on m = 5 with exactly ten strategies each (100 profiles), so the
    identity check does the same amount of work at every seed."""
    m = 5
    players = []
    for _ in range(2):
        spec = ({"matroid": {"type": "uniform", "m": m, "k": 2}} if shared
                else {"explicit": random_explicit(rng, m, 10)})
        w = Fraction(rng.randint(1, 5), rng.randint(1, 3)) if cost_kind == "affine_sym" else 1
        players.append({"weight": q(w), "strategies": spec})
    return {"version": 1, "m": m, "players": players, "cost": _eq_cost(rng, cost_kind, 2, m)}


def equilibria(rng: random.Random, w: Writer) -> list:
    jobs = []
    plan = [("spl", 2), ("spl", 3), ("affine_sym", 2), ("affine_sym", 3), ("tabulated", 3),
            ("tabulated", 4), ("bilevel", 2), ("bilevel", 3), ("affine_asym", 2),
            ("affine_asym", 3)]
    for rep in range(4):
        for slot, (cost_kind, n) in enumerate(plan):
            m = 5 + (rep + slot) % (2 if n == 4 else 4)
            sizes = LARGE_SPACES if cost_kind == "affine_asym" else SPACE_SIZES[n]
            doc = _eq_game(rng, cost_kind, n, m, sizes, shared=(rep + slot) % 2 == 0)
            game = ref.RefGame(doc)
            tag = f"eq{rep}-{cost_kind}-{n}"
            gfile, raw = w.put(tag + ".json", doc)
            for k in range(3):
                choices = _random_choices(rng, game)
                pfile, _ = w.put(f"{tag}-p{k}.json", {"choices": choices})
                jobs.append(Job(f"{tag}-verify{k}", f"verify-{cost_kind}",
                                ["verify", gfile, "--profile", pfile],
                                check=check_verify(game, raw, choices)))
            if cost_kind == "affine_asym":
                continue
            if cost_kind == "bilevel":
                jobs.append(Job(f"{tag}-theorem3", "theorem3",
                                ["solve", gfile, "--method", "theorem3"],
                                check=check_pne_found(game, raw)))
            else:
                seed = rng.randrange(1000)
                jobs.append(Job(f"{tag}-dynamics", f"dynamics-{cost_kind}",
                                ["solve", gfile, "--method", "dynamics", "--seed", str(seed)],
                                check=check_pne_found(game, raw)))
            jobs.append(Job(f"{tag}-solve", f"solve-{cost_kind}-{n}", ["solve", gfile],
                            check=check_pne_found(game, raw)))
            if cost_kind in ("spl", "affine_sym"):
                choices = _random_choices(rng, game)
                pfile, _ = w.put(f"{tag}-pot.json", {"choices": choices})
                jobs.append(Job(f"{tag}-potential", f"potential-{cost_kind}",
                                ["potential", gfile, "--profile", pfile],
                                check=check_potential(game, choices)))
        for k, cost_kind in enumerate(("spl", "affine_sym")):
            doc = _exact_potential_game(rng, cost_kind, shared=(rep + k) % 2 == 0)
            gfile, _ = w.put(f"eq{rep}-exact-{cost_kind}.json", doc)
            jobs.append(Job(f"eq{rep}-exact-{cost_kind}", f"exact-potential-{cost_kind}",
                            lib="check_exact_potential", params={"game": gfile},
                            check=check_value(True, "potential identity")))
        for k in range(5):
            doc, size = _gadget_beside_players(rng)
            gfile, raw = w.put(f"eq{rep}-gadget{k}.json", doc)
            jobs.append(Job(f"eq{rep}-gadget{k}-solve", "solve-exhaustive", ["solve", gfile],
                            check=check_no_pne(raw, size)))
    return jobs


# --------------------------------------------------------------- structure


def _tabulated_doc(tables: list, m: int, max_load: int, L: int) -> dict:
    return {
        "m": m,
        "bounds": {"L": L},
        "cost": {
            "kind": "tabulated",
            "max_load": max_load,
            "neighborhoods": [list(range(m))] * m,
            "tables": [{",".join(map(str, pt)): q(v) for pt, v in t.items()} for t in tables],
        },
    }


def violating_table(rng, kind: str, m: int):
    """Tabulated costs with a planted violation; returns (tables, m, gadget args).
    `m` sizes the raw tables; the structured kinds have a fixed dimension."""
    L = 4
    if kind == "raw":
        grid = list(product(range(L + 1), repeat=m))
        tables = [{pt: rng.randint(0, 6) for pt in grid} for _ in range(m)]
        # force c_0(1_01) - c_0(1_0) != c_1(1_01) - c_1(1_1): Jacobian asymmetry at 0
        e01 = tuple(1 if u < 2 else 0 for u in range(m))
        e0 = tuple(1 if u == 0 else 0 for u in range(m))
        e1 = tuple(1 if u == 1 else 0 for u in range(m))
        lhs = tables[0][e01] - tables[0][e0]
        if lhs == tables[1][e01] - tables[1][e1]:
            tables[1][e01] += 1
        return tables, m, ("L3", (0,) * m, (1, 2))
    if kind == "kinked-cross":
        slope = rng.randint(1, 3)
        kink = slope + rng.randint(1, 3)
        g = [0, slope, 2 * slope, 2 * slope + kink, 2 * slope + 2 * kink]
        grid = list(product(range(L + 1), repeat=2))
        tables = [{pt: pt[r] + g[pt[1 - r]] for pt in grid} for r in range(2)]
        return tables, 2, ("L3", (2, 0), (1, 2))
    if kind == "sum-nonlinear":
        weight = rng.randint(1, 3)
        offs = [rng.randint(0, 3) for _ in range(2)]
        grid = list(product(range(L + 1), repeat=2))
        tables = [{pt: offs[r] * pt[r] + weight * sum(pt) ** 2 for pt in grid} for r in range(2)]
        return tables, 2, ("L4", (1, 0), (1, 2))
    alpha = rng.randint(1, 3)
    grid = list(product(range(L + 1), repeat=3))
    tables = [{pt: pt[r] + alpha * pt[(r + 1) % 3] * pt[(r + 2) % 3] for pt in grid}
              for r in range(3)]
    return tables, 3, ("L5", (1, 0, 0), (1, 2, 3))


def check_consistent(doc: dict, raw: bytes, L: int):
    cost = ref.RefCost(doc["cost"], doc["m"])
    f, A = ref.decomposition(cost, L)
    want = {"kind": "unweighted_consistent", "L": L,
            "f": [[q(v) for v in row] for row in f], "A": [[q(v) for v in row] for row in A]}

    def check(code, out, _value):
        got, err = _stamped(code, out, 0, "unweighted_consistent", raw)
        if err:
            return err
        if {k: got.get(k) for k in want} != want:
            return "decomposition differs from the generating (f, A)"
        return None

    return check


def check_violation(doc: dict, raw: bytes):
    cost = ref.RefCost(doc["cost"], doc["m"])

    def check(code, out, _value):
        got, err = _stamped(code, out, 1, "violation", raw)
        if err:
            return err
        try:
            holds = ref.violation_holds(cost, got["lemma"], got.get("r"), got.get("s"),
                                        got.get("t"), tuple(got["x"]), tuple(got.get("y") or ()))
        except (KeyError, IndexError, TypeError) as exc:
            return f"witness cannot be evaluated ({exc!r})"
        return None if holds else f"reported {got['lemma']} witness does not violate its identity"

    return check


def check_weighted(raw: bytes, want: dict, phi=None):
    def check(code, out, _value):
        got, err = _stamped(code, out, 1 if want["kind"] == "violation" else 0, want["kind"], raw)
        if err:
            return err
        if phi is not None:
            return None if abs(got.get("phi", 0.0) - phi) <= 1e-6 else "wrong exponent"
        if any(got.get(k) != v for k, v in want.items()):
            return f"report differs from {want}"
        return None

    return check


def structure(rng: random.Random, w: Writer) -> list:
    jobs = []
    consistent_sizes = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
                        (5, 1), (5, 2), (5, 3)]
    for rep in range(3):
        for m, L in consistent_sizes:
            # m = 5, L = 3 tabulates 7,776 load points: one model per pass keeps it the tail
            if (m, L) == (5, 3) and rep > 0:
                continue
            for kind in ("spl", "affine") if (m, L) != (5, 3) else ("spl",):
                A = sym_matrix(rng, m, -2, 3)
                if kind == "spl":
                    f = [sorted(rng.randint(0, 9) for _ in range(L + 3)) for _ in range(m)]
                    cost = {"kind": "separable_plus_linear",
                            "f": [[q(v) for v in row] for row in f],
                            "A": [[q(v) for v in row] for row in A]}
                else:
                    cost = {"kind": "affine", "A": [[q(Fraction(v, 2)) for v in row] for row in A],
                            "b": [q(rng.randint(-3, 3)) for _ in range(m)]}
                doc = {"cost": cost, "m": m, "bounds": {"L": L}}
                name = f"st{rep}-{kind}-m{m}L{L}"
                cfile, raw = w.put(name + ".json", doc)
                jobs.append(Job(name, f"consistent-m{m}L{L}", ["characterize", cfile],
                                check=check_consistent(doc, raw, L)))
        for k, kind in enumerate(("raw", "raw", "kinked-cross", "sum-nonlinear",
                                  "product-of-others", "raw", "sum-nonlinear",
                                  "product-of-others")):
            tables, m, (lemma, point, res) = violating_table(rng, kind, 2 + k % 2)
            doc = _tabulated_doc(tables, m, 4, rng.randint(1, 2))
            name = f"st{rep}-viol{k}-{kind}"
            cfile, raw = w.put(name + ".json", doc)
            jobs.append(Job(name, f"violation-{kind}", ["characterize", cfile],
                            check=check_violation(doc, raw)))
            jobs.append(Job(name + "-gadget", f"gadget-{lemma}",
                            ["gadget", cfile, "--lemma", lemma, "--point",
                             ",".join(map(str, point)), "--resources", ",".join(map(str, res)),
                             "--confirm"],
                            check=check_gadget(raw, 4)))
            jobs.append(Job(name + "-counterexample", "violation_to_counterexample",
                            lib="violation_to_counterexample", params={"cost": cfile, "L": 1},
                            check=check_value(4, "gadget profiles checked")))
            jobs.append(Job(name + "-ab", "check_AB_symmetry", lib="check_AB_symmetry",
                            params={"cost": cfile, "lemma": lemma, "point": point,
                                    "resources": tuple(r - 1 for r in res)},
                            check=check_value(True, "A != B with swaps")))
        jobs.extend(_weighted_jobs(rng, w, rep))
    return jobs


def check_gadget(raw: bytes, profiles: int):
    def check(code, out, _value):
        doc, err = _stamped(code, out, 1, None, raw)
        if err:
            return err
        cert = doc.get("certificate", {})
        if cert.get("kind") != "no_pne_exists" or cert.get("profiles_checked") != profiles:
            return f"gadget certificate {cert}, want no_pne_exists over {profiles} profiles"
        return None

    return check


def _weighted_jobs(rng, w: Writer, rep: int) -> list:
    jobs = []
    for k in range(4):
        m = 2 + (rep + k) % 3
        name = f"st{rep}-w{k}"
        A = sym_matrix(rng, m, -2, 3)
        b = [q(rng.randint(-3, 3)) for _ in range(m)]
        sym = {"kind": "affine", "A": [[q(v) for v in row] for row in A], "b": b}
        doc = {"cost": sym, "m": m}
        f1, raw1 = w.put(name + "-affine.json", doc)
        jobs.append(Job(name + "-affine", "weighted-affine", ["characterize", f1, "--weighted"],
                        check=check_weighted(raw1, {"kind": "weighted_affine",
                                                    "A": sym["A"], "b": b})))
        A[0][1] += rng.choice((-1, 1))
        asym = {"kind": "affine", "A": [[q(v) for v in row] for row in A], "b": b}
        doc = {"cost": asym, "m": m}
        f2, raw2 = w.put(name + "-asym.json", doc)
        jobs.append(Job(name + "-asym", "weighted-asym", ["characterize", f2, "--weighted"],
                        check=check_weighted(raw2, {"kind": "violation",
                                                    "lemma": "affine_asymmetric",
                                                    "r": 0, "s": 1})))
        eps = Fraction(1, rng.randint(1, 4))
        jobs.append(Job(name + "-eps", "gadget-weighted-eps",
                        ["gadget", f2, "--lemma", "weighted-eps", "--point", ",".join("0" * m),
                         "--resources", "1,2", "--epsilon", q(eps), "--confirm"],
                        check=check_gadget(raw2, 4)))
        # sampled (tabulated) models: exponential with a shared exponent, or neither
        phi = rng.choice((0.5, 0.75, 1.0, 1.25))
        a = [rng.randint(1, 4) for _ in range(m)]
        bb = [rng.randint(0, 2) for _ in range(m)]
        grid = list(product(range(4), repeat=m))
        exp_tables = [{pt: repr(a[r] * math.exp(phi * pt[r]) + bb[r]) for pt in grid}
                      for r in range(m)]
        doc = _tabulated_doc(exp_tables, m, 3, 1)
        del doc["bounds"]
        f3, raw3 = w.put(name + "-exp.json", doc)
        jobs.append(Job(name + "-exp", "weighted-exp", ["characterize", f3, "--weighted"],
                        check=check_weighted(raw3, {"kind": "weighted_exponential"}, phi=phi)))
        lin = [rng.randint(0, 2) for _ in range(m)]
        quad = [{pt: pt[r] ** 2 + lin[r] * pt[r] for pt in grid} for r in range(m)]
        doc = _tabulated_doc(quad, m, 3, 1)
        del doc["bounds"]
        f4, raw4 = w.put(name + "-neither.json", doc)
        jobs.append(Job(name + "-neither", "weighted-neither", ["characterize", f4, "--weighted"],
                        check=check_weighted(raw4, {"kind": "violation", "lemma": "not_affine"})))
    return jobs


# ---------------------------------------------------------------- hardness


def sat_game_doc(n_clauses: int, literals: list) -> dict:
    m = 3 * n_clauses
    A = [["1" if (lv == ls and sr != ss) else "0" for (ls, ss) in literals] for (lv, sr) in literals]
    blocks = [[3 * i, 3 * i + 1, 3 * i + 2] for i in range(n_clauses)]
    return {
        "version": 1,
        "m": m,
        "players": [{"weight": "1", "strategies": {"matroid": {
            "type": "partition", "m": m, "blocks": blocks, "quotas": [1] * n_clauses}}}],
        "cost": {"kind": "separable_plus_linear", "f": [["0"] * 5 for _ in range(m)], "A": A},
    }


def pairs_game_doc(inst: dict) -> dict:
    edges = [tuple(e) for e in inst["edges"]]
    m = len(edges)
    partner = {}
    for a, b in inst["pairs"]:
        partner[a], partner[b] = b, a
    hoods, tables = [], []
    for r in range(m):
        if r in partner:
            hoods.append([partner[r]])
            tables.append({str(k): str(k) for k in range(3)})
        else:
            hoods.append([])
            tables.append({"": "0"})
    paths = ref.simple_paths(inst["vertices"], edges, inst["s"], inst["t"])
    vectors = sorted({tuple(1 if r in p else 0 for r in range(m)) for p in paths})
    return {
        "version": 1,
        "m": m,
        "players": [{"weight": "1", "strategies": {
            "explicit": [[r for r, e in enumerate(v) if e] for v in vectors]}}],
        "cost": {"kind": "tabulated", "max_load": 2, "neighborhoods": hoods, "tables": tables},
    }


def min_cost_assignment(clauses: list) -> list:
    """First literal choice (one slot per clause, canonical order) with the fewest
    complementary pairs: an equilibrium of the SAT game, so `verify` scans every
    strategy and its time depends on the clause count alone."""
    flat = [lit for cl in clauses for lit in cl]
    best = None
    for pick in product(range(3), repeat=len(clauses)):
        slots = [3 * i + p for i, p in enumerate(pick)]
        clash = sum(1 for a in slots for b in slots
                    if flat[a][0] == flat[b][0] and flat[a][1] != flat[b][1])
        if best is None or clash < best[0]:
            best = (clash, sorted(slots))
    return best[1]


def check_reduce(raw: bytes, want_game: dict):
    def check(code, out, _value):
        doc, err = _stamped(code, out, 0, None, raw)
        if err:
            return err
        return None if doc.get("game") == want_game else "reduced game differs from the construction"

    return check


def _pairs_instance(rng, n: int) -> dict:
    """A path 0 -> n-1 plus n // 2 random extra arcs, and up to three disjoint pairs."""
    edges = {(v, v + 1) for v in range(n - 1)}
    for _ in range(n // 2):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            edges.add((a, b))
    edges = sorted(edges)
    free = list(range(len(edges)))
    rng.shuffle(free)
    pairs = [sorted(free[2 * k : 2 * k + 2]) for k in range(min(rng.randint(0, 3), len(free) // 2))]
    return {"vertices": n, "edges": [list(e) for e in edges], "s": 0, "t": n - 1, "pairs": pairs}


def hardness(rng: random.Random, w: Writer) -> list:
    jobs = []
    for rep in range(2):
        # one 8-clause instance per pass (C(24,8) = 735,471 basis candidates) and eight
        # 6-clause ones, so the 90th percentile falls inside the 6-clause cluster
        for k, c in enumerate([3, 3, 4, 4, 5, 5, 6, 6, 6, 6, 7] + ([8] if rep == 0 else [])):
            n_vars = 5  # fixed, so the density of complementary literal pairs is the same at every seed
            clauses = [[(rng.randrange(n_vars), rng.random() < 0.5) for _ in range(3)]
                       for _ in range(c)]
            text = f"c seeded instance\np cnf {n_vars} {c}\n" + "".join(
                " ".join(str((v + 1) if sign else -(v + 1)) for v, sign in cl) + " 0\n"
                for cl in clauses
            )
            name = f"hd{rep}-sat{k}-c{c}"
            cnf, cnf_raw = w.put(name + ".cnf", text)
            gdoc = sat_game_doc(c, [lit for cl in clauses for lit in cl])
            gfile, graw = w.put(name + "-game.json", gdoc)
            game = ref.RefGame(gdoc)
            jobs.append(Job(name + "-reduce", f"reduce-sat-c{c}", ["reduce", "sat", cnf],
                            check=check_reduce(cnf_raw, gdoc)))
            choices = [min_cost_assignment(clauses)]
            pfile, _ = w.put(name + "-p.json", {"choices": choices})
            jobs.append(Job(name + "-verify", f"verify-sat-c{c}",
                            ["verify", gfile, "--profile", pfile],
                            check=check_verify(game, graw, choices)))
            if c <= 4:
                jobs.append(Job(name + "-solve", f"solve-sat-c{c}", ["solve", gfile],
                                check=check_pne_found(game, graw)))
            if c <= 6:
                sat = ref.sat_satisfiable(n_vars, clauses)
                jobs.append(Job(name + "-check", f"check-sat-c{c}", lib="check_reduction_sat",
                                params={"cnf": cnf}, check=check_value((sat, True), "oracle, check")))
        for k in range(8):
            inst = _pairs_instance(rng, 4 + (rep + k) % 7)
            name = f"hd{rep}-pairs{k}"
            ifile, inst_raw = w.put(name + ".json", inst)
            gdoc = pairs_game_doc(inst)
            gfile, graw = w.put(name + "-game.json", gdoc)
            game = ref.RefGame(gdoc)
            jobs.append(Job(name + "-reduce", "reduce-pairs", ["reduce", "pairs", ifile],
                            check=check_reduce(inst_raw, gdoc)))
            choices = [rng.choice(gdoc["players"][0]["strategies"]["explicit"])]
            pfile, _ = w.put(name + "-p.json", {"choices": choices})
            jobs.append(Job(name + "-verify", "verify-pairs", ["verify", gfile, "--profile", pfile],
                            check=check_verify(game, graw, choices)))
            jobs.append(Job(name + "-solve", "solve-pairs", ["solve", gfile],
                            check=check_pne_found(game, graw)))
            ok = ref.pairs_feasible(inst["vertices"], [tuple(e) for e in inst["edges"]],
                                    inst["s"], inst["t"], inst["pairs"])
            jobs.append(Job(name + "-check", "check-pairs", lib="check_reduction_pairs",
                            params={"instance": ifile}, check=check_value((ok, True), "oracle, check")))
    return jobs


# ------------------------------------------------------------------ entry


GENERATORS = {"equilibria": equilibria, "structure": structure, "hardness": hardness}


def interleave(jobs: list) -> list:
    """Round-robin over strata so every prefix approximates the whole mix."""
    strata: dict = {}
    for job in jobs:
        strata.setdefault(job.stratum, []).append(job)
    keyed = [((k + 0.5) / len(members), job.name, job)
             for members in strata.values() for k, job in enumerate(members)]
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [job for _, _, job in keyed]


def build(workload: str, seed: int, workdir: str) -> tuple:
    """Write the corpus for (workload, seed); returns (jobs, corpus sha256, file names)."""
    rng = random.Random(f"{workload}:{seed}")
    writer = Writer(workdir)
    jobs = interleave(GENERATORS[workload](rng, writer))
    return jobs, writer.digest.hexdigest(), writer.names
