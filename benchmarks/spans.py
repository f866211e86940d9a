"""Spans around calls into ncsurface's layers, recorded from the benchmark's
own files for the traced run.

The tracer replaces module attributes with wrappers.  Calls inside the package
resolve through module globals, so they are caught too; names re-imported into
other modules (``construct_loop_rep`` inside ``spectra`` and ``berezin``, the
package namespace) are found by identity and replaced as well.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np

MODULES = ("free_algebra", "surface", "representations", "spectra", "berezin", "cli")

# (module, function) -> span name; the three constructors share one name
TRACED = {
    ("free_algebra", "reduce"): "free_algebra.reduce",
    ("free_algebra", "check_overlap_resolvable"): "free_algebra.check_overlap_resolvable",
    ("surface", "build_genus_polynomial"): "surface.build_genus_polynomial",
    ("surface", "euler_characteristic"): "surface.euler_characteristic",
    ("surface", "count_simple_roots"): "surface.count_simple_roots",
    ("representations", "construct_loop_rep"): "representations.construct",
    ("representations", "construct_string_rep"): "representations.construct",
    ("representations", "construct_degenerate_rep"): "representations.construct",
    ("representations", "verify_relations"): "representations.verify_relations",
    ("representations", "rep_index"): "representations.rep_index",
    ("representations", "matrix_graph"): "representations.matrix_graph",
    ("representations", "canonicalize_loop"): "representations.canonicalize_loop",
    ("representations", "reps_equivalent"): "representations.reps_equivalent",
    ("spectra", "hermitian_eigenvalues"): "spectra.hermitian_eigenvalues",
    ("spectra", "detect_branches"): "spectra.detect_branches",
    ("spectra", "position_spectrum"): "spectra.position_spectrum",
    ("spectra", "sweep_mu"): "spectra.sweep_mu",
    ("spectra", "commutator_vs_bracket"): "spectra.commutator_vs_bracket",
    ("berezin", "bt_matrices"): "berezin.bt_matrices",
    ("berezin", "verify_bt_relations"): "berezin.verify_bt_relations",
    ("berezin", "compare_with_loop_rep"): "berezin.compare_with_loop_rep",
    ("cli", "main"): "cli.main",
}

# methods counted, not spanned: they run thousands of times per reduction
COUNTED = {
    ("free_algebra", "ReductionSystem", "apply_at"): "free_algebra.rewrites",
    ("free_algebra", "ReductionSystem", "leftmost_match"): "free_algebra.match_scans",
}

SPAN_NAMES = tuple(dict.fromkeys(TRACED.values()))
NNZ_SPAN = "representations.verify_relations"


def metric_names() -> list[str]:
    """Every per-layer metric the traced run reports."""
    names = ["import.total_s", "import.sympy_s", "import.scipy_s"]
    for span in SPAN_NAMES:
        names += [f"{span}.self_s", f"{span}.calls"]
    names += list(COUNTED.values())
    names.append(f"{NNZ_SPAN}.ns_per_nnz")
    names += [f"{layer}.failed" for layer in MODULES]
    names.append("trace.overhead_pct")
    return names


class Tracer:
    """Records spans [name, start, end, parent, op id] while ``active``."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.failed: Counter = Counter()
        self.nnz = 0
        self.op_id = -1
        self.active = False
        self._last_error = None
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name: str, fn):
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if name == NNZ_SPAN:
                self.nnz += int(np.count_nonzero(args[0].W))
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else None, self.op_id]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if exc is not self._last_error:   # count where it was raised
                    self._last_error = exc
                    self.failed[layer] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
        return wrapper

    def _counter(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        mods = {m: importlib.import_module(f"ncsurface.{m}") for m in MODULES}
        namespaces = list(mods.values()) + [importlib.import_module("ncsurface")]
        for (mod, attr), name in TRACED.items():
            original = getattr(mods[mod], attr)
            wrapped = self._span(name, original)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._restore.append((ns, attr, original))
                    setattr(ns, attr, wrapped)
        for (mod, cls_name, attr), key in COUNTED.items():
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, self._counter(key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def self_times(self) -> tuple[dict[str, float], Counter]:
        """Total self time (span minus direct children) and calls, by name."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for i, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child[i]
            calls[name] += 1
        return totals, calls

    def layer_metrics(self, passes: int, oracle_failed: Counter) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per pass of the workload, with units."""
        totals, calls = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for span in SPAN_NAMES:
            out[f"{span}.self_s"] = (totals.get(span, 0.0) / passes, "s/pass")
            out[f"{span}.calls"] = (calls.get(span, 0) / passes, "calls/pass")
        for key in COUNTED.values():
            out[key] = (self.counts.get(key, 0) / passes, "calls/pass")
        ns = totals.get(NNZ_SPAN, 0.0) * 1e9 / self.nnz if self.nnz else 0.0
        out[f"{NNZ_SPAN}.ns_per_nnz"] = (ns, "ns/nnz")
        for layer in MODULES:
            out[f"{layer}.failed"] = ((self.failed[layer] + oracle_failed[layer]) / passes,
                                      "count/pass")
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
