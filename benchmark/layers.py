"""Per-layer tracing of kempe from outside the library.

`Tracer.install` replaces each public function named in `LAYERS` by a
wrapper, in every kempe module that binds it by name (the harness imports
the solver functions directly, and the package binds `classify`, the
function, over the submodule of that name). A span wrapper times the call
and charges the interval its child spans cover to them, so each span name
accumulates self time; a count wrapper only counts calls.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# module -> {function: span name}; a name ending in "#" is counted, not timed.
LAYERS = {
    "kempe.iso": {
        "enumerate_mask_graphs": "iso.enumerate",
        "certificate": "iso.certificate#",
        "masks_isomorphic": "iso.isomorphic#",
        "refinement_colors": "iso.refinement#",
    },
    "kempe.classify": {
        "find_edge_coloring": "classify.solver",
        "delta_coloring_of_minus_e": "classify.api",
        "is_delta_critical": "classify.api",
        "is_critical_edge": "classify.api",
        "classify": "classify.api",
        "exact_chromatic_index": "classify.api",
        "vizing_plus_one_coloring": "classify.api",
    },
    "kempe.harness": {
        "delta_critical_corpus": "harness.corpus",
        "verify_theorem1": "harness.theorems",
        "verify_theorem2": "harness.theorems",
        "verify_corollary": "harness.theorems",
        "lemma_sweep": "harness.lemma_sweep",
        "parity_sweep": "harness.parity",
        "verify_normalization": "harness.normalization",
        "write_reports": "report.write",
    },
    "kempe.structures": {
        "grow_multifan": "structures.find",
        "alpha_sequences": "structures.find",
        "find_kierstead_paths": "structures.find",
        "find_structure_witnesses": "structures.find",
        "check_val": "structures.check",
        "check_fan_lemmas": "structures.check",
        "check_kierstead4": "structures.check",
        "check_k5_claims": "structures.check",
        "check_shortkite": "structures.check",
        "check_kite": "structures.check",
        "check_fork_absence": "structures.check",
        "check_parity": "structures.check",
        "check_fulldpair_lemma": "structures.check",
    },
    "kempe.normalize": {"normalize_k5": "normalize"},
}


class Tracer:
    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # child time of each open span
        self.enumerated: dict[int, int] = {}  # n -> graphs returned
        self.coloring_calls = 0
        self.colorings: set = set()  # distinct (graph, edge, seed)

    def install(self) -> None:
        replaced = {}
        for module, functions in LAYERS.items():
            for func, name in functions.items():
                original = getattr(sys.modules[module], func)
                replaced[id(original)] = self._wrap(func, original, name)
        for module_name, module in list(sys.modules.items()):
            if module_name != "kempe" and not module_name.startswith("kempe."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])

    def _wrap(self, func: str, original, name: str):
        if name.endswith("#"):
            return self._counted(original, name[:-1])
        observe = {
            "enumerate_mask_graphs": self._observe_enumeration,
            "find_edge_coloring": self._observe_solver,
            "delta_coloring_of_minus_e": self._observe_coloring,
        }.get(func)
        return self._span(original, name, observe)

    def _counted(self, fn, name: str):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, name: str, observe):
        open_spans, self_s, calls = self._open, self.self_s, self.calls

        @functools.wraps(fn)
        def span(*args, **kwargs):
            label = name
            open_spans.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    label = observe(name, result, args, kwargs)
                return result
            finally:
                duration = perf_counter() - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                self_s[label] += duration - child
                calls[label] += 1

        return span

    def _observe_enumeration(self, name, result, args, kwargs):
        n = args[0] if args else kwargs["n"]
        self.enumerated[n] = len(result)
        return name

    def _observe_solver(self, name, result, args, kwargs):
        return "classify.find" if result is not None else "classify.refute"

    def _observe_coloring(self, name, result, args, kwargs):
        g, e = args[0], args[1]
        seed = args[2] if len(args) > 2 else kwargs.get("seed", 0)
        self.coloring_calls += 1
        self.colorings.add((g, tuple(sorted(e)), seed))
        return name

    def metrics(self) -> dict[str, tuple[float, str]]:
        s, c = self.self_s, self.calls
        find_names = ("classify.find", "classify.refute")
        return {
            "iso.enumerate_s": (s["iso.enumerate"], "s"),
            "iso.graphs": (sum(v for n, v in self.enumerated.items() if n >= 1), "count"),
            "iso.certificate_calls": (c["iso.certificate"], "count"),
            "iso.isomorphic_calls": (c["iso.isomorphic"], "count"),
            "iso.refinement_calls": (c["iso.refinement"], "count"),
            "classify.solver_calls": (sum(c[n] for n in find_names), "count"),
            "classify.find_s": (s["classify.find"], "s"),
            "classify.refute_s": (s["classify.refute"], "s"),
            "classify.found": (c["classify.find"], "count"),
            "classify.refuted": (c["classify.refute"], "count"),
            "classify.api_s": (s["classify.api"], "s"),
            "harness.coloring_reuse": (
                len(self.colorings) / self.coloring_calls if self.coloring_calls else 0.0,
                "ratio",
            ),
            "harness.corpus_s": (s["harness.corpus"], "s"),
            "harness.theorems_s": (s["harness.theorems"], "s"),
            "harness.lemma_sweep_s": (s["harness.lemma_sweep"], "s"),
            "harness.parity_s": (s["harness.parity"], "s"),
            "harness.normalization_s": (s["harness.normalization"], "s"),
            "structures.find_calls": (c["structures.find"], "count"),
            "structures.find_s": (s["structures.find"], "s"),
            "structures.check_calls": (c["structures.check"], "count"),
            "structures.check_s": (s["structures.check"], "s"),
            "normalize.calls": (c["normalize"], "count"),
            "normalize.s": (s["normalize"], "s"),
            "report.write_s": (s["report.write"], "s"),
        }
