"""Independent reference semantics for the benchmark's output checks.

Nothing here imports rggames.  Games are read from the same JSON documents
the program receives, strategy spaces are enumerated with plain itertools,
and costs are evaluated from the textbook formulas in exact Fractions, so a
check passes only if the program agrees with a second, separate reading of
its input.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations, product


def rat(text) -> Fraction:
    return Fraction(text)


# ------------------------------------------------------------- strategies


def _vec(m: int, support) -> tuple:
    chosen = set(support)
    return tuple(1 if r in chosen else 0 for r in range(m))


def _forest(n_vertices: int, edges) -> bool:
    parent = list(range(n_vertices))

    def root(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for u, v in edges:
        ru, rv = root(u), root(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def matroid_bases(desc: dict) -> list:
    """Bases of a matroid descriptor as sorted 0/1 vectors."""
    kind = desc["type"]
    if kind == "uniform":
        m = desc["m"]
        out = [_vec(m, c) for c in combinations(range(m), desc["k"])]
    elif kind == "partition":
        m = desc["m"]
        per_block = [list(combinations(b, q)) for b, q in zip(desc["blocks"], desc["quotas"])]
        out = [_vec(m, [e for part in pick for e in part]) for pick in product(*per_block)]
    elif kind == "graphic":
        edges = [tuple(e) for e in desc["edges"]]
        m = len(edges)
        out = [
            _vec(m, idx)
            for idx in combinations(range(m), desc["vertices"] - 1)
            if _forest(desc["vertices"], [edges[r] for r in idx])
        ]
    else:
        raise ValueError(f"unknown matroid {kind!r}")
    return sorted(out)


class RefGame:
    """A game document read independently: weights, scaled strategy lists, cost."""

    def __init__(self, doc: dict):
        self.m = doc["m"]
        self.players = doc["players"]
        self.weights = [rat(p["weight"]) for p in doc["players"]]
        self.cost = doc.get("cost") or {"kind": None}
        kind = self.cost["kind"]
        if kind in ("affine", "separable_plus_linear"):
            self.A = [[rat(v) for v in row] for row in self.cost["A"]]
        if kind == "affine":
            self.b = [rat(v) for v in self.cost["b"]]
        elif kind == "separable_plus_linear":
            self.f = [[rat(v) for v in row] for row in self.cost["f"]]
        elif kind == "tabulated":
            self.hoods = [tuple(h) for h in self.cost["neighborhoods"]]
            self.tables = [
                {tuple(int(t) for t in k.split(",") if t): rat(v) for k, v in tab.items()}
                for tab in self.cost["tables"]
            ]
        elif kind == "bilevel":
            self.budget = rat(self.cost["budget"])

    @cached_property
    def spaces(self) -> list:
        """Each player's weight-scaled strategies, in sorted base-vector order."""
        out = []
        for p, w in zip(self.players, self.weights):
            spec = p["strategies"]
            if "explicit" in spec:
                base = sorted({_vec(self.m, s) for s in spec["explicit"]})
            else:
                base = matroid_bases(spec["matroid"])
            out.append([tuple(w * e for e in v) for v in base])
        return out

    @property
    def n(self) -> int:
        return len(self.players)

    def profile(self, choices) -> tuple:
        return tuple(
            tuple(w if r in set(sup) else 0 for r in range(self.m))
            for w, sup in zip(self.weights, choices)
        )

    def entry(self, loads, r, nonzero=None):
        """c_r(loads); `nonzero` optionally lists the (s, load) pairs with load != 0."""
        kind = self.cost["kind"]
        if kind in ("affine", "separable_plus_linear"):
            if nonzero is None:
                nonzero = [(s, x) for s, x in enumerate(loads) if x]
            row = self.A[r]
            cross = sum(row[s] * x for s, x in nonzero)
            if kind == "affine":
                return self.b[r] + cross
            return self.f[r][int(loads[r])] + cross
        if kind == "tabulated":
            return self.tables[r][tuple(int(loads[s]) for s in self.hoods[r])]
        if kind == "bilevel":
            top = max(loads)
            argmax = [s for s in range(self.m) if loads[s] == top]
            share = self.budget / len(argmax) if r in argmax else 0
            return loads[r] + share
        raise ValueError(f"no reference cost for {kind!r}")

    def cost_of(self, profile, i):
        loads = [sum(v[r] for v in profile) for r in range(self.m)]
        nonzero = [(s, x) for s, x in enumerate(loads) if x]
        return sum(e * self.entry(loads, r, nonzero) for r, e in enumerate(profile[i]) if e)

    def improving(self, profile):
        """First strictly improving unilateral deviation as (i, y, delta), else None."""
        for i in range(self.n):
            cur = self.cost_of(profile, i)
            for y in self.spaces[i]:
                alt = self.cost_of(profile[:i] + (y,) + profile[i + 1 :], i)
                if alt < cur:
                    return i, y, alt - cur
        return None

    def potential(self, profile):
        """Rosenthal-type potential for symmetric affine / separable-plus-linear costs."""
        loads = [sum(v[r] for v in profile) for r in range(self.m)]
        kind = self.cost["kind"]
        if kind == "separable_plus_linear":
            total = sum(sum(self.f[r][1 : int(x) + 1], Fraction(0)) for r, x in enumerate(loads))
            total += Fraction(1, 2) * _quad(self.A, loads, loads)
            total += Fraction(1, 2) * sum(_quad(self.A, v, v) for v in profile)
            return total
        if kind == "affine":
            total, prefix = Fraction(0), [0] * self.m
            for v in profile:
                prefix = [p + e for p, e in zip(prefix, v)]
                total += _quad(self.A, v, prefix) + sum(e * b for e, b in zip(v, self.b))
            return total
        raise ValueError(f"no reference potential for {kind!r}")


def _quad(A, u, v):
    return sum(u[r] * A[r][s] * v[s] for r in range(len(u)) for s in range(len(v)) if u[r] and v[s])


def supports(profile) -> list:
    return [[r for r, e in enumerate(v) if e] for v in profile]


# ------------------------------------------------------------- cost tables


class RefCost:
    """A cost document evaluated at integer loads by the reference formulas."""

    def __init__(self, cost: dict, m: int):
        self.m = m
        self._game = RefGame({"m": m, "players": [], "cost": cost})

    def c(self, x, r):
        return self._game.entry(list(x), r)


def bump(x, *idx) -> tuple:
    out = list(x)
    for i in idx:
        out[i] += 1
    return tuple(out)


def violation_holds(cost: RefCost, lemma: str, r: int, s: int, t, x, y) -> bool:
    """True iff the identity named by `lemma` really fails at the reported witness."""
    c = cost.c
    if lemma == "jacobian":
        return c(bump(x, r, s), r) - c(bump(x, r), r) != c(bump(x, r, s), s) - c(bump(x, s), s)
    d0 = c(bump(x, s), r) - c(x, r)
    if lemma == "cross_a":
        return x[r] > 0 and d0 != c(bump(x, r, s), r) - c(bump(x, r), r)
    if lemma == "cross_b":
        return x[r] > 0 and c(bump(x, s, s), r) - c(bump(x, s), r) != d0
    if lemma == "cross_distinct":
        return x[r] > 0 and d0 != c(bump(x, s, t), r) - c(bump(x, t), r)
    if lemma == "linearity":
        return x[r] > 0 and d0 != c(bump(y, s), r) - c(y, r)
    return False


def decomposition(cost: RefCost, L: int):
    """(f, A) of a consistent cost: f_r(k) = c_r(k 1_r), A_rs = c_r(1_rs) - c_r(1_r)."""
    m = cost.m
    zero = (0,) * m
    f = [[cost.c(tuple(k if u == r else 0 for u in range(m)), r) for k in range(L + 1)]
         for r in range(m)]
    A = [[Fraction(0) if r == s else cost.c(bump(zero, r, s), r) - cost.c(bump(zero, r), r)
          for s in range(m)] for r in range(m)]
    return f, A


# ------------------------------------------------------------- reductions


def sat_satisfiable(n_vars: int, clauses) -> bool:
    return any(
        all(any(bits[v] == sign for v, sign in clause) for clause in clauses)
        for bits in product((False, True), repeat=n_vars)
    )


def simple_paths(n_vertices: int, edges, s: int, t: int) -> list:
    """Edge-index sets of all simple s-t paths."""
    out = []

    def walk(v, seen, used):
        if v == t:
            out.append(frozenset(used))
            return
        for idx, (a, b) in enumerate(edges):
            if a == v and b not in seen:
                walk(b, seen | {b}, used + [idx])

    walk(s, {s}, [])
    return out


def pairs_feasible(n_vertices: int, edges, s: int, t: int, pairs) -> bool:
    return any(
        all(not (a in path and b in path) for a, b in pairs)
        for path in simple_paths(n_vertices, edges, s, t)
    )
