"""Out-of-tree tracing: wraps rggames' public functions from the benchmark side.

`Tracer.install()` replaces each traced function in every rggames module
namespace that holds it (so `from .costs import eval_cost_entry` aliases are
caught too) and `Player.strategies` on the class; `uninstall()` restores the
originals.  Nothing under src/ is edited.

Every call pushes a frame whose child time its wrapped callees add to, so
self time = duration - time covered by wrapped children.  Span functions
also record (name, start, end, parent span) in compact arrays; the hot leaf
functions (LEAVES) record only counts and time.  Calls are counted per
enclosing span, which gives context counts such as cost entries evaluated
inside characterize spans, or basis candidates tested inside enumerate_bases.
"""

from __future__ import annotations

import importlib
from array import array
from collections import defaultdict
from time import perf_counter

TRACED = {
    "core": ("Player.strategies", "private_cost", "load_of"),
    "costs": ("eval_cost_entry", "as_tabulated", "compose", "kappa_star"),
    "matroid": ("enumerate_bases", "is_independent", "greedy_best_response",
                "solve_via_theorem3"),
    "dynamics": ("verify_pne", "brute_force_pne", "best_response", "run_best_response_dynamics"),
    "potential": ("check_exact_potential", "potential_unweighted", "potential_weighted_affine"),
    "characterize": ("check_jacobian_symmetry", "check_cross_linearity", "decompose_unweighted",
                     "classify_weighted"),
    "gadgets": ("build_gadget", "violation_to_counterexample", "check_AB_symmetry"),
    "bilevel": ("solve_bilevel",),
    "reductions": ("reduce_sat", "reduce_forbidden_pairs", "parse_dimacs", "check_reduction"),
    "cli": ("main", "game_from_json", "game_to_json"),
}
LEAVES = {"costs.eval_cost_entry", "matroid.is_independent", "core.private_cost", "core.load_of"}
MODULES = tuple(TRACED)
ROOT = "-"  # enclosing-span key outside any span


def _key(module: str, qualname: str) -> str:
    return f"{module}.{qualname.rsplit('.', 1)[-1]}"


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [child seconds, module]
        self.open_spans = [(-1, ROOT)]  # (span id, key) of enclosing spans
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = defaultdict(int)  # (key, enclosing span key) -> calls
        self.self_s = defaultdict(float)
        self.raised = defaultdict(int)
        self.bases_returned = 0
        self.pne_hits = 0
        self.dynamics_steps = 0
        self._patches: list = []

    # --------------------------------------------------------- wrappers

    def _exit(self, key, module, frame, t0, failed):
        dt = perf_counter() - t0
        stack = self.stack
        stack.pop()
        self.self_s[key] += dt - frame[0]
        if stack:
            stack[-1][0] += dt
        if failed and (not stack or stack[-1][1] != module):
            self.raised[module] += 1

    def _leaf(self, key, module, fn):
        stack, calls, spans = self.stack, self.calls, self.open_spans

        def leaf(*args, **kwargs):
            calls[key, spans[-1][1]] += 1
            frame = [0.0, module]
            stack.append(frame)
            failed = True
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
                return out
            finally:
                self._exit(key, module, frame, t0, failed)

        return leaf

    def _span(self, key, module, fn):
        stack, calls, spans = self.stack, self.calls, self.open_spans
        name_id = self.name_ids.setdefault(key, len(self.names))
        if name_id == len(self.names):
            self.names.append(key)
        observe = {
            "matroid.enumerate_bases": self._saw_bases,
            "dynamics.verify_pne": self._saw_certificate,
            "dynamics.run_best_response_dynamics": self._saw_trace,
        }.get(key)

        def span(*args, **kwargs):
            parent = spans[-1]
            calls[key, parent[1]] += 1
            sid = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(parent[0])
            self.span_end.append(0.0)
            frame = [0.0, module]
            stack.append(frame)
            spans.append((sid, key))
            failed = True
            t0 = perf_counter()
            self.span_start.append(t0)
            try:
                out = fn(*args, **kwargs)
                failed = False
                if observe is not None:
                    observe(out)
                return out
            finally:
                self.span_end[sid] = perf_counter()
                spans.pop()
                self._exit(key, module, frame, t0, failed)

        return span

    def _saw_bases(self, bases):
        self.bases_returned += len(bases)

    def _saw_certificate(self, cert):
        self.pne_hits += type(cert).__name__ == "IsPNE"

    def _saw_trace(self, trace):
        self.dynamics_steps += trace.iterations

    # ---------------------------------------------------------- install

    def install(self) -> None:
        mods = {name: importlib.import_module(f"rggames.{name}") for name in MODULES}
        holders = [importlib.import_module("rggames"), *mods.values()]
        for module, names in TRACED.items():
            for qualname in names:
                key = _key(module, qualname)
                owner = mods[module]
                if "." in qualname:  # a method: patch the class attribute
                    cls_name, attr = qualname.split(".")
                    owner, orig = getattr(owner, cls_name), getattr(getattr(owner, cls_name), attr)
                    targets = [(owner, attr)]
                else:
                    attr, orig = qualname, getattr(owner, qualname)
                    targets = [(m, n) for m in holders for n, v in vars(m).items()
                               if v is orig]
                make = self._leaf if key in LEAVES else self._span
                wrapper = make(key, module, orig)
                for obj, name in targets:
                    self._patches.append((obj, name, orig))
                    setattr(obj, name, wrapper)

    def uninstall(self) -> None:
        for obj, name, orig in reversed(self._patches):
            setattr(obj, name, orig)
        self._patches.clear()

    # ---------------------------------------------------------- results

    def total_calls(self, key: str) -> int:
        return sum(n for (k, _parent), n in self.calls.items() if k == key)

    def calls_within(self, key: str, parent_prefix: str) -> int:
        return sum(n for (k, parent), n in self.calls.items()
                   if k == key and parent.startswith(parent_prefix))

    def write_spans(self, path: str) -> None:
        """One tab-separated line per span: id, parent id, name, start s, end s."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart_s\tend_s\n")
            names = self.names
            for sid in range(len(self.span_start)):
                fh.write(f"{sid}\t{self.span_parent[sid]}\t{names[self.span_name[sid]]}\t"
                         f"{self.span_start[sid]:.9f}\t{self.span_end[sid]:.9f}\n")

    def metrics(self) -> dict:
        """Per-module metrics by name (see BENCHMARK.json per_layer)."""
        out = {}

        def calls(key):
            out[f"{key}.calls"] = (self.total_calls(key), "count")

        def self_s(key):
            out[f"{key}.self_s"] = (self.self_s.get(key, 0.0), "s")

        for key in ("core.strategies", "core.private_cost"):
            calls(key)
            self_s(key)
        calls("core.load_of")
        for key in ("costs.eval_cost_entry", "costs.as_tabulated"):
            calls(key)
            self_s(key)
        self_s("costs.compose")
        calls("costs.kappa_star")
        calls("matroid.enumerate_bases")
        self_s("matroid.enumerate_bases")
        calls("matroid.is_independent")
        candidates = self.calls_within("matroid.is_independent", "matroid.enumerate_bases")
        out["matroid.enumerate_bases.yield"] = (
            self.bases_returned / candidates if candidates else 1.0, "ratio")
        calls("matroid.greedy_best_response")
        self_s("matroid.solve_via_theorem3")
        calls("dynamics.verify_pne")
        self_s("dynamics.verify_pne")
        verify_calls = self.total_calls("dynamics.verify_pne")
        out["dynamics.verify_pne.hit_ratio"] = (
            self.pne_hits / verify_calls if verify_calls else 0.0, "ratio")
        self_s("dynamics.brute_force_pne")
        out["dynamics.brute_force_pne.profiles"] = (
            self.calls_within("dynamics.verify_pne", "dynamics.brute_force_pne"), "count")
        calls("dynamics.best_response")
        self_s("dynamics.best_response")
        self_s("dynamics.run_best_response_dynamics")
        out["dynamics.run_best_response_dynamics.steps"] = (self.dynamics_steps, "count")
        self_s("potential.check_exact_potential")
        calls("potential.potential_unweighted")
        calls("potential.potential_weighted_affine")
        for key in ("characterize.check_jacobian_symmetry", "characterize.check_cross_linearity",
                    "characterize.decompose_unweighted", "characterize.classify_weighted"):
            self_s(key)
        out["characterize.eval_cost_entry.calls"] = (
            self.calls_within("costs.eval_cost_entry", "characterize."), "count")
        for key in ("gadgets.build_gadget", "gadgets.violation_to_counterexample",
                    "gadgets.check_AB_symmetry", "bilevel.solve_bilevel",
                    "reductions.reduce_sat", "reductions.reduce_forbidden_pairs",
                    "reductions.parse_dimacs", "reductions.check_reduction",
                    "cli.main", "cli.game_from_json", "cli.game_to_json"):
            self_s(key)
        for module in MODULES:
            out[f"{module}.raised"] = (self.raised.get(module, 0), "count")
        return out
