"""Span recording around the library's public functions.

A ``Tracer`` wraps each layer's public function in every ``simplexcolor``
module that holds it by name (the defining module, the package re-exports,
and importers such as ``coloring.build_dual`` or ``cli.load``), so calls the
library makes internally are seen as well as the benchmark's own.  Spans
stay in memory as ``(name, start, end, parent, op)`` and are written out
once the run ends.  Nothing under ``src/`` is edited; wrapping happens only
inside ``Tracer.installed()`` and is undone when it exits.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter


def _by_arg(prefix: str, position: int, keyword: str, default: str):
    """Span name suffixed with a string argument, e.g. the peel method."""
    def name(args, kwargs) -> str:
        value = args[position] if len(args) > position else kwargs.get(keyword, default)
        return f"{prefix}.{value}"
    return name


# (defining module, function, span name or namer)
LAYERS = (
    ("generators", "generate", "generators.generate"),
    ("model", "load", "model.load"),
    ("model", "load_coloring", "model.load"),
    ("model", "save", "model.save"),
    ("model", "save_coloring", "model.save"),
    ("coloring", "save_certificate", "model.save"),
    ("model", "validate", _by_arg("model.validate", 1, "level", "combinatorial")),
    ("geometry", "orientation", "geometry.orientation"),
    ("geometry", "supporting_hyperplane", "geometry.supporting_hyperplane"),
    ("geometry", "extreme_point", "geometry.extreme_point"),
    ("geometry", "side_of", "geometry.side_of"),
    ("dual", "build_dual", "dual.build_dual"),
    ("dual", "stats", "dual.stats"),
    ("dual", "find_clique", "dual.find_clique"),
    ("dual", "find_all_cliques", "dual.find_all_cliques"),
    ("dual", "analyze_max_clique_configuration", "dual.analyze_max_clique_configuration"),
    ("coloring", "peel", _by_arg("coloring.peel", 1, "method", "combinatorial")),
    ("coloring", "color", "coloring.color"),
    ("coloring", "verify_coloring", "coloring.verify_coloring"),
    ("coloring", "exact_chromatic", "coloring.exact_chromatic"),
    ("render", "render_svg", "render.render_svg"),
    ("cli", "main", "cli.main"),
)

SPANS = (
    "generators.generate",
    "model.load", "model.save",
    "model.validate.combinatorial", "model.validate.geometric-strict",
    "geometry.orientation", "geometry.supporting_hyperplane",
    "geometry.extreme_point", "geometry.side_of",
    "dual.build_dual", "dual.stats", "dual.find_clique", "dual.find_all_cliques",
    "dual.analyze_max_clique_configuration",
    "coloring.peel.combinatorial", "coloring.peel.geometric", "coloring.color",
    "coloring.verify_coloring", "coloring.exact_chromatic",
    "render.render_svg",
    "cli.main",
)


class Tracer:
    """Spans of the wrapped calls, kept in memory until ``write``."""

    def __init__(self):
        self.spans: list = []
        self.op = ""
        self.hyperplanes_found = 0
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        spans, stack = self.spans, self._stack
        found_counter = fn.__name__ == "supporting_hyperplane"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent, self.op, None)
            if found_counter:
                self.hyperplanes_found += result is not None
            elif label.startswith("coloring.peel."):
                spans[idx] = (label, start, end, parent, self.op, len(result.steps))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function wherever a ``simplexcolor`` module holds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "simplexcolor" or k.startswith("simplexcolor.")) and m is not None]
        patched = []
        try:
            for mod_name, fn_name, name in LAYERS:
                original = getattr(sys.modules[f"simplexcolor.{mod_name}"], fn_name)
                wrapper = self._wrap(original, name)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)
                            patched.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(patched):
                setattr(m, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, steps in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "steps": steps}) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """``<span>.calls``, ``.s`` and ``.self_s`` per pass for every span in
        SPANS, plus the peel and hull counters."""
        own = self.self_times()
        metrics = {}
        for name in SPANS:
            metrics[f"{name}.calls"] = 0
            metrics[f"{name}.s"] = 0.0
            metrics[f"{name}.self_s"] = 0.0
        steps = {"coloring.peel.combinatorial": 0, "coloring.peel.geometric": 0}
        hull_in_geometric_peel = 0
        for k, (name, start, end, parent, _, nsteps) in enumerate(self.spans):
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.s"] += end - start
            metrics[f"{name}.self_s"] += own[k]
            if nsteps is not None:
                steps[name] += nsteps
            if name == "geometry.supporting_hyperplane" and self._inside(k, "coloring.peel.geometric"):
                hull_in_geometric_peel += 1
        for key in metrics:
            metrics[key] /= passes
        hull_calls = metrics["geometry.supporting_hyperplane.calls"] * passes
        metrics["geometry.supporting_hyperplane.found_ratio"] = (
            self.hyperplanes_found / hull_calls if hull_calls else 0.0)
        metrics["coloring.peel.steps"] = sum(steps.values()) / passes
        geometric_steps = steps["coloring.peel.geometric"]
        metrics["coloring.peel.geometric.hull_calls_per_step"] = (
            hull_in_geometric_peel / geometric_steps if geometric_steps else 0.0)
        return metrics

    def _inside(self, k: int, name: str) -> bool:
        parent = self.spans[k][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def by_op(self, passes: int) -> dict[str, dict[str, float]]:
        """Seconds per pass, per op, of the spans the benchmark called
        directly and of those called directly by ``cli.main``."""
        table: dict[str, dict[str, float]] = {}
        for name, start, end, parent, op, _ in self.spans:
            if parent < 0 or self.spans[parent][0] == "cli.main":
                row = table.setdefault(op, {})
                row[name] = row.get(name, 0.0) + (end - start) / passes
        return table
