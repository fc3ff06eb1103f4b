"""Per-layer spans and counters, recorded from outside the package.

`Tracer.install()` replaces each traced function at every module attribute
that refers to it (so `knotcol.cli.colorings` and `knotcol.coloring.colorings`
are both wrapped) and `uninstall()` puts the originals back.  A span is
(name, start, end, parent index, operation id), kept in memory; start
and end are thread CPU times, as for the operations in run.py.  A layer's
self time is the time of its spans minus the time of their child spans.

Helpers that are called once per edge or per crossing (`inv_mod_p`,
`is_odd_prime`, `Diagram.crossing_relation_regions`, `is_valid_coloring`)
are not wrapped: their cost lands in the self time of the calling layer,
and wrapping them would cost more than they do.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

import knotcol.certificates
import knotcol.cli
import knotcol.coloring
import knotcol.colorsets
import knotcol.diagram
import knotcol.exactalg
import knotcol.palette
from knotcol.palette import NO_WITNESS

LAYERS = ("cli", "diagram", "exactalg", "kernels", "coloring", "palette",
          "colorsets", "certificates")

# (layer, owner, attribute); the span is named "<layer>.<attribute>"
TRACED = (
    ("cli", knotcol.cli, "run"),
    ("diagram", knotcol.diagram, "parse_pd"),
    ("diagram", knotcol.diagram, "build_diagram"),
    ("diagram", knotcol.diagram, "catalog_diagram"),
    ("diagram", knotcol.diagram, "checkerboard"),
    ("diagram", knotcol.diagram.Diagram, "semiarc_regions"),
    ("exactalg", knotcol.exactalg, "rank_mod_p"),
    ("exactalg", knotcol.exactalg, "nullspace_mod_p"),
    ("exactalg", knotcol.exactalg, "det_int"),
    ("exactalg", knotcol.exactalg, "rank_int"),
    ("exactalg", knotcol.exactalg, "smith_invariant_factors"),
    ("kernels", knotcol.colorsets, "canonical_affine_min"),
    ("kernels", knotcol.exactalg, "det_bareiss_small"),
    ("coloring", knotcol.coloring, "coloring_matrix"),
    ("coloring", knotcol.coloring, "colorings"),
    ("coloring", knotcol.coloring, "classify"),
    ("coloring", knotcol.coloring, "checkerboard_coloring"),
    ("coloring", knotcol.coloring, "min_colors_diagram"),
    ("coloring", knotcol.coloring, "fox_from_dehn"),
    ("coloring", knotcol.coloring, "fox_colorings_count"),
    ("coloring", knotcol.coloring, "alexander_matrix_at_minus_one"),
    ("coloring", knotcol.coloring, "knot_determinant"),
    ("palette", knotcol.palette, "palette_graph"),
    ("palette", knotcol.palette, "connected_r_witness"),
    ("palette", knotcol.palette, "palette_graph_of_diagram"),
    ("colorsets", knotcol.colorsets, "candidates"),
    ("colorsets", knotcol.colorsets, "enumerate_classes"),
    ("colorsets", knotcol.colorsets, "canonical_affine"),
    ("certificates", knotcol.certificates, "augmented_matrix"),
    ("certificates", knotcol.certificates, "rank_checks"),
    ("certificates", knotcol.certificates, "merge_columns"),
    ("certificates", knotcol.certificates, "extract_certificate"),
    ("certificates", knotcol.certificates, "check_star"),
)

# generators whose items are counted (no span: their time belongs to the
# consumer, which is a coloring span either way)
COUNTED_GENERATORS = (
    ("coloring.enumerated", knotcol.coloring, "_span"),
    ("coloring.affine_paths", knotcol.coloring, "_affine_representatives"),
)

PER_LAYER_METRICS = (
    ("colorsets.self_s", "s"), ("colorsets.subsets_scanned", "count"),
    ("colorsets.classes", "count"), ("colorsets.scan_yield", "ratio"),
    ("kernels.canonical_calls", "count"), ("kernels.self_s", "s"),
    ("palette.self_s", "s"), ("palette.graphs", "count"),
    ("palette.edges", "count"), ("palette.witness_frac", "ratio"),
    ("exactalg.self_s", "s"), ("exactalg.rank_s", "s"), ("exactalg.smith_s", "s"),
    ("exactalg.nullspace_s", "s"), ("exactalg.det_calls", "count"),
    ("exactalg.det_order_max", "count"), ("kernels.det_small_calls", "count"),
    ("certificates.self_s", "s"), ("certificates.submatrices_tried", "count"),
    ("certificates.hit_frac", "ratio"),
    ("coloring.self_s", "s"), ("coloring.enumerated", "count"),
    ("coloring.budget_use", "ratio"), ("coloring.classify_calls", "count"),
    ("coloring.mincol_affine_frac", "ratio"),
    ("diagram.self_s", "s"), ("diagram.crossings_built", "count"),
    ("cli.self_s", "s"), ("cli.calls", "count"),
    ("trace.overhead_frac", "ratio"), ("trace.covered_frac", "ratio"),
)


def _knotcol_modules():
    return [m for name, m in sorted(sys.modules.items())
            if (name == "knotcol" or name.startswith("knotcol.")) and m is not None]


def _order(matrix) -> int:
    return matrix.rows if hasattr(matrix, "rows") else len(matrix)


class Tracer:
    """Spans and counters for the traced passes of one benchmark run."""

    def __init__(self):
        self.spans = []       # current pass
        self.stack = []
        self.op = None        # id of the running operation
        self.counts = Counter()
        self.maxima = Counter()
        self.class_counts = []  # (p, k, classes) from enumerate_classes
        self.last_spans = []
        self._patches = []
        hooks = {
            "colorsets.enumerate_classes": self._on_classes,
            "palette.palette_graph": self._on_palette_graph,
            "palette.connected_r_witness": self._on_witness,
            "exactalg.det_int": self._on_det,
            "coloring.colorings": self._on_colorings,
            "diagram.build_diagram": self._on_build,
            "certificates.extract_certificate": self._on_certificate,
        }
        for layer, owner, attr in TRACED:
            fn = getattr(owner, attr)
            name = f"{layer}.{attr}"
            self._patch(owner, attr, fn, self._spanning(name, fn, hooks.get(name)))
        for key, owner, attr in COUNTED_GENERATORS:
            fn = getattr(owner, attr)
            self._patch(owner, attr, fn, self._counting(key, fn))

    def _patch(self, owner, attr, fn, wrapped):
        if isinstance(owner, type):
            self._patches.append((owner, attr, fn, wrapped))
            return
        for module in _knotcol_modules():
            for name, value in list(vars(module).items()):
                if value is fn:
                    self._patches.append((module, name, fn, wrapped))

    def install(self):
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, fn, _ in self._patches:
            setattr(owner, attr, fn)

    def _spanning(self, name, fn, hook):
        spans, stack, clock = self.spans, self.stack, time.thread_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if hook is not None:
                hook(args, kwargs, result)
            return result
        return wrapper

    def _counting(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key + ".calls"] += 1
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item
        return wrapper

    # ----------------------------------------------------------- hooks

    def _on_classes(self, args, kwargs, result):
        self.counts["colorsets.classes"] += len(result)
        self.class_counts.append((args[0], args[1], len(result)))

    def _on_palette_graph(self, args, kwargs, result):
        self.counts["palette.graphs"] += 1
        self.counts["palette.edges"] += len(result.edges)

    def _on_witness(self, args, kwargs, result):
        self.counts["palette.witness_calls"] += 1
        self.counts["palette.witnesses"] += result != NO_WITNESS

    def _on_det(self, args, kwargs, result):
        self.maxima["exactalg.det_order_max"] = max(
            self.maxima["exactalg.det_order_max"], _order(args[0]))

    def _on_colorings(self, args, kwargs, result):
        budget = kwargs.get("budget", args[2] if len(args) > 2
                            else knotcol.coloring.DEFAULT_BUDGET)
        if budget > 0:
            self.maxima["coloring.budget_use"] = max(
                self.maxima["coloring.budget_use"], result.count / budget)

    def _on_certificate(self, args, kwargs, result):
        self.counts["certificates.extracted"] += 1

    def _on_build(self, args, kwargs, result):
        self.counts["diagram.crossings_built"] += result.n

    # ----------------------------------------------------- aggregation

    def end_pass(self, op_time_s: float, scale: float):
        """Fold the spans of one traced pass into the totals.

        op_time_s is the CPU time of the pass's operations; times are
        multiplied by scale to make them reference-speed seconds.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s is not None and s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        c = self.counts
        for i, s in enumerate(spans):
            if s is None:
                continue
            name, start, end, parent, _ = s
            dur = (end - start) * scale
            layer = name.split(".", 1)[0]
            c[f"time.{layer}.self"] += dur - child[i] * scale
            c[f"calls.{name}"] += 1
            c[f"time.{name}"] += dur
            if parent < 0:
                c["time.root"] += dur
            else:
                pname = spans[parent][0] if spans[parent] is not None else ""
                if name == "kernels.canonical_affine_min" and pname == "colorsets.enumerate_classes":
                    c["colorsets.subsets_scanned"] += 1
                if name == "exactalg.det_int" and pname == "certificates.extract_certificate":
                    c["certificates.submatrices_tried"] += 1
        c["time.ops"] += op_time_s * scale
        c["passes"] += 1
        self.last_spans = list(spans)
        spans.clear()
        self.stack.clear()

    def metrics(self, overhead_frac: float) -> dict:
        c, m = self.counts, self.maxima
        n = max(c["passes"], 1)

        def ratio(a, b):
            return a / b if b else 0.0

        calls = lambda name: c[f"calls.{name}"]  # noqa: E731
        values = {f"{layer}.self_s": c[f"time.{layer}.self"] / n for layer in LAYERS}
        values.update({
            "colorsets.subsets_scanned": c["colorsets.subsets_scanned"] / n,
            "colorsets.classes": c["colorsets.classes"] / n,
            "colorsets.scan_yield": ratio(c["colorsets.classes"], c["colorsets.subsets_scanned"]),
            "kernels.canonical_calls": calls("kernels.canonical_affine_min") / n,
            "palette.graphs": c["palette.graphs"] / n,
            "palette.edges": c["palette.edges"] / n,
            "palette.witness_frac": ratio(c["palette.witnesses"], c["palette.witness_calls"]),
            "exactalg.rank_s": (c["time.exactalg.rank_mod_p"] + c["time.exactalg.rank_int"]) / n,
            "exactalg.smith_s": c["time.exactalg.smith_invariant_factors"] / n,
            "exactalg.nullspace_s": c["time.exactalg.nullspace_mod_p"] / n,
            "exactalg.det_calls": calls("exactalg.det_int") / n,
            "exactalg.det_order_max": m["exactalg.det_order_max"],
            "kernels.det_small_calls": calls("kernels.det_bareiss_small") / n,
            "certificates.submatrices_tried": c["certificates.submatrices_tried"] / n,
            "certificates.hit_frac": ratio(c["certificates.extracted"],
                                           c["certificates.submatrices_tried"]),
            "coloring.enumerated": c["coloring.enumerated"] / n,
            "coloring.budget_use": m["coloring.budget_use"],
            "coloring.classify_calls": calls("coloring.classify") / n,
            "coloring.mincol_affine_frac": ratio(c["coloring.affine_paths.calls"],
                                                 calls("coloring.min_colors_diagram")),
            "diagram.crossings_built": c["diagram.crossings_built"] / n,
            "cli.calls": calls("cli.run") / n,
            "trace.overhead_frac": overhead_frac,
            "trace.covered_frac": ratio(c["time.root"], c["time.ops"]),
        })
        return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_METRICS}

    def dump_last_pass(self, path):
        """Write the spans of the last traced pass, one JSON array per line."""
        with open(path, "w") as f:
            for s in self.last_spans:
                if s is not None:
                    f.write(json.dumps(s) + "\n")
