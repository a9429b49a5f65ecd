"""Traced pass: spans around linfty's public entry points, plus cProfile aggregates.

The tracer wraps entry points from outside (no linfty source changes).
Each wrapped call records a span ``(id, parent, name, start, end)``; the
parent is the innermost open span, and every operation of the pass opens a
root span.  Hot-kernel call counts and module self times come from a
``cProfile`` run over the same calls.  Counts are exact and repeat from run
to run when ``PYTHONHASHSEED`` is pinned; times include profiling overhead.
"""

from __future__ import annotations

import contextlib
import cProfile
import fractions
import functools
import os
import pstats
import sys
import time

import linfty
from linfty import algebra, cli, convolution, documents, grading, homotopy, linalg, mc, morphism, perturbation

LINFTY_DIR = os.path.dirname(os.path.abspath(linfty.__file__))
MODULES = (
    "grading", "algebra", "morphism", "mc", "convolution", "perturbation",
    "homotopy", "linalg", "documents", "cli",
)

# span name -> entry points (owner, attribute) whose calls it covers
SPANS = {
    "algebra.check_relations": [(algebra, "check_relations")],
    "algebra.lower_central_series": [(algebra, "lower_central_series")],
    "morphism.check_morphism": [(morphism, "check_morphism")],
    "morphism.compose": [(morphism, "compose")],
    "morphism.cohomology": [(morphism, "cohomology")],
    "convolution.bracket": [(convolution.ConvolutionAlgebra, "bracket")],
    "convolution.hom_to_element": [(convolution.ConvolutionAlgebra, "hom_to_element")],
    "mc.gauge_flow": [(mc, "gauge_flow")],
    "mc.twist": [(mc, "twist")],
    "mc.mc_residual": [(mc, "mc_residual")],
    "perturbation.perturb": [(perturbation, "perturb")],
    "perturbation.differential_correction": [(perturbation, "differential_correction")],
    "homotopy.check_homotopy": [(homotopy, "check_homotopy")],
    "homotopy.unsplit_residual": [(homotopy, "unsplit_residual")],
    "linalg.row_reduce": [(linalg, "row_reduce")],
    "documents.load": [
        (documents, name) for name in (
            "load_algebra", "load_morphism", "load_mc_element", "load_map",
            "load_request", "load_homotopy",
        )
    ],
    "documents.write": [
        (documents, name) for name in (
            "algebra_to_document", "morphism_to_document", "mc_to_document",
            "map_to_document", "homotopy_to_document",
        )
    ],
    "cli.main": [(cli, "main")],
}

# metric -> functions whose cProfile call counts it sums
CALL_COUNTS = {
    "grading.canonicalize_word.calls": [grading.canonicalize_word],
    "grading.koszul_sign.calls": [grading.koszul_sign],
    "grading.wedge_basis.calls": [grading.wedge_basis],
    "grading.MultiMap.apply.calls": [grading.MultiMap.apply],
    "grading.MultiMap.evaluate.calls": [grading.MultiMap.evaluate],
    "grading.Element.add.calls": [grading.Element.__add__, grading.Element.__sub__],
    "fractions.ops": [
        fractions.Fraction._add, fractions.Fraction._sub, fractions.Fraction._mul,
        fractions.Fraction._div, fractions.Fraction.__new__,
    ],
    "algebra.Coderivation.on_word.calls": [algebra.Coderivation.on_word],
    "morphism.MorphismLift.on_word.calls": [morphism.MorphismLift.on_word],
    "convolution.bracket.calls": [convolution.ConvolutionAlgebra.bracket],
    "convolution.hom_to_element.calls": [convolution.ConvolutionAlgebra.hom_to_element],
    "mc.picard_steps": [mc.twisted_differential_of],
    "mc.apply_to_paths.calls": [mc.apply_to_paths],
    "homotopy.PathAlgebra.q_eval.calls": [homotopy.PathAlgebra.q_eval],
    "linalg.row_reduce.calls": [linalg.row_reduce],
}


def _profile_key(fn) -> tuple:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class Tracer:
    """Collects spans, sizes and a profile over the operations it is entered for."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []
        self._active = False
        self._patches: list[tuple[object, str, object]] = []
        self.profile = cProfile.Profile()
        self.lift_words: dict[str, dict[int, tuple[object, set]]] = {"algebra": {}, "morphism": {}}
        self.lift_calls = {"algebra": 0, "morphism": 0}
        self.hom_dim = 0
        self.path_degree = 0
        self.entries_reduced = 0
        self.bytes_read = 0
        self.bytes_written = 0

    # -- spans ------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append((span_id, parent, name, time.perf_counter(), 0.0))
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            sid, par, nm, start, _ = self.spans[span_id]
            self.spans[span_id] = (sid, par, nm, start, time.perf_counter())

    @contextlib.contextmanager
    def operation(self, name: str):
        """Root span of one operation; profiling and recording are on inside it."""
        self._active = True
        with self.span("op:" + name):
            self.profile.enable()
            try:
                yield
            finally:
                self.profile.disable()
                self._active = False

    # -- patching ---------------------------------------------------------

    def _replace(self, original, replacement):
        """Rebind every module-level reference to ``original`` in linfty and the bench."""
        bench_dir = os.path.dirname(os.path.abspath(__file__))
        for module in list(sys.modules.values()):
            path = getattr(module, "__file__", None) or ""
            if not (path.startswith(LINFTY_DIR) or path.startswith(bench_dir)):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, replacement)

    def _wrap(self, owner, attr, name, observe=None):
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer._active:
                return original(*args, **kwargs)
            with tracer.span(name):
                result = original(*args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        else:
            self._replace(original, wrapper)

    def _observe_lift(self, layer):
        def observe(args, result):
            lift, word = args[0], args[1]
            self.lift_calls[layer] += 1
            # keep the lift alive so its id is not reused within the pass
            self.lift_words[layer].setdefault(id(lift), (lift, set()))[1].add(word)
        return observe

    def _observe_conv(self, args, result):
        self.hom_dim = max(self.hom_dim, args[0].hom_space.dimension())

    def _observe_flow(self, args, result):
        self.path_degree = max(self.path_degree, result.max_power())

    def _observe_rows(self, args, result):
        rows = args[0]
        self.entries_reduced += len(rows) * (len(rows[0]) if rows else 0)

    def _observe_read(self, args, result):
        self.bytes_read += os.path.getsize(args[0])

    def _observe_write(self, args, result):
        self.bytes_written += len(result.encode("utf-8"))

    def install(self):
        observers = {
            "linalg.row_reduce": self._observe_rows,
            "mc.gauge_flow": self._observe_flow,
            "documents.write": self._observe_write,
        }
        for name, targets in SPANS.items():
            for owner, attr in targets:
                self._wrap(owner, attr, name, observers.get(name))
        self._wrap(algebra.Coderivation, "on_word", "algebra.Coderivation.on_word", self._observe_lift("algebra"))
        self._wrap(morphism.MorphismLift, "on_word", "morphism.MorphismLift.on_word", self._observe_lift("morphism"))
        self._wrap(convolution.ConvolutionAlgebra, "__init__", "convolution.ConvolutionAlgebra", self._observe_conv)
        self._wrap(documents, "load_document", "documents.load_document", self._observe_read)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def span_seconds(self, name: str) -> float:
        """Time inside outermost spans of ``name`` (nested same-name spans count once)."""
        names = {s[0]: s[2] for s in self.spans}
        parents = {s[0]: s[1] for s in self.spans}
        total = 0.0
        for sid, parent, nm, start, end in self.spans:
            if nm != name:
                continue
            p = parent
            while p is not None and names[p] != name:
                p = parents[p]
            if p is None:
                total += end - start
        return total

    def metrics(self) -> dict:
        stats = pstats.Stats(self.profile).stats
        out = {}
        for metric, functions in CALL_COUNTS.items():
            keys = {_profile_key(f) for f in functions}
            out[metric] = sum(v[1] for k, v in stats.items() if k in keys)
        self_time = {m: 0.0 for m in MODULES + ("fractions",)}
        fractions_file = fractions.__file__
        for (filename, _, _), (_, _, tottime, _, _) in stats.items():
            if filename == fractions_file:
                self_time["fractions"] += tottime
            elif os.path.dirname(filename) == LINFTY_DIR:
                module = os.path.splitext(os.path.basename(filename))[0]
                if module in self_time:
                    self_time[module] += tottime
        for module, seconds in self_time.items():
            out[module + ".self_s"] = seconds
        for name in SPANS:
            out[name + ".s"] = self.span_seconds(name)
        for layer in ("algebra", "morphism"):
            calls = self.lift_calls[layer]
            distinct = sum(len(words) for _, words in self.lift_words[layer].values())
            out[layer + ".lift_hit_ratio"] = 1 - distinct / calls if calls else 0.0
        out["convolution.hom_dim"] = self.hom_dim
        out["mc.path_degree"] = self.path_degree
        out["linalg.entries_reduced"] = self.entries_reduced
        out["documents.bytes_read"] = self.bytes_read
        out["documents.bytes_written"] = self.bytes_written
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
            for sid, parent, name, start, end in self.spans
        ]
