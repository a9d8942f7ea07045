"""Spans and counts at the boundaries between the modules of ``lpa``.

The tracer wraps public functions from outside the package, in every ``lpa``
module namespace that holds them (so ``tree`` is wrapped as
``lpa.classify.tree`` and ``lpa.hereditary.tree``), and a few methods on their
classes.  A call opens a span when it crosses into another layer or when its
function is one whose own time is reported; a call inside the same layer is
only counted, which keeps the overhead low on hot helpers.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Optional

LAYERS = ("graphs", "hereditary", "classify", "engine", "center", "reports", "randomgen")

# Methods wrapped besides the public module-level functions.  Graph accessors
# are left out: they are called from everywhere, and their time stays with
# the caller.
METHODS = {
    "engine": (
        "LeavittAlgebra",
        ("__init__", "normal_form", "commutator", "is_central",
         "normal_monomials", "enumerate_paths", "involution", "render"),
    ),
    "reports": ("Envelope", ("to_json", "dumps")),
    "hereditary": ("HereditarySet", ("__post_init__",)),
}

# Functions whose own time is a per-layer metric: they get a span even when
# called from their own layer.
TIMED = {
    "graphs.parse_graph", "classify.x_decomposition", "classify.ideal_structure",
    "classify.prime_trichotomy", "engine.normal_monomials", "center.center_report",
    "center.verify_basis", "center.oracle_commutant", "center.kernel_basis",
    "center.same_span", "reports.build_envelope", "reports.to_json", "reports.dumps",
    "randomgen.graph_stream",
}


def _basis_size(report) -> int:
    return len(report.basis_zero) + sum(len(v) for v in report.basis_nonzero.values())


# Counts taken from a call's arguments and result: name -> (counter, function).
RESULT_COUNTS: dict[str, tuple[tuple[str, Callable], ...]] = {
    "graphs.simple_cycles": (("graphs.cycles_found", lambda a, r: len(r)),),
    "hereditary.entry_paths": (
        ("hereditary.entry_paths_found", lambda a, r: 0 if r.is_infinite else len(r.paths)),
    ),
    "engine.normal_monomials": (("engine.oracle_candidates", lambda a, r: len(r)),),
    "center.kernel_basis": (
        ("center.oracle_rows", lambda a, r: len(a[0])),
        ("center.kernel_dim", lambda a, r: len(r)),
    ),
    "center.center_report": (("center.basis_elements", lambda a, r: _basis_size(r)),),
}


class Tracer:
    """Records spans (name, layer, start, end, parent, input id) and counts."""

    def __init__(self, lpa):
        self.lpa = lpa
        self.spans: list[Optional[tuple]] = []
        self.counts: Counter = Counter()
        self.input_id: Optional[str] = None
        self._stack: list[tuple[int, str]] = []  # (span index, layer)
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, layer: str) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((idx, layer))
        return idx, parent

    def _close(self, name, layer, idx, parent, start, failed) -> None:
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, layer, start, end, parent, self.input_id)
        if failed and (not self._stack or self._stack[-1][1] != layer):
            self.counts[layer + ".errors"] += 1

    @contextmanager
    def span(self, layer: str, name: str):
        """A span around benchmark-side work that belongs to a layer."""
        qual = f"{layer}.{name}"
        self.counts[qual + "_calls"] += 1
        idx, parent = self._open(layer)
        start = time.perf_counter()
        failed = True
        try:
            yield
            failed = False
        finally:
            self._close(qual, layer, idx, parent, start, failed)

    def _wrap(self, layer: str, name: str, fn, method: bool = False):
        qual = f"{layer}.{name}"
        always = qual in TIMED
        calls = qual + "_calls"
        result_counts = RESULT_COUNTS.get(qual, ())
        counts, stack = self.counts, self._stack
        skip = 1 if method else 0  # `self` is not a counted argument

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    counts[calls] += 1
                    idx, parent = self._open(layer)
                    start = time.perf_counter()
                    failed = True
                    try:
                        item = next(it)
                        failed = False
                    except StopIteration:
                        failed = False
                        return
                    finally:
                        self._close(qual, layer, idx, parent, start, failed)
                    yield item
            return gen_wrapper

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if not always and stack and stack[-1][1] == layer:
                result = fn(*args, **kwargs)
            else:
                idx, parent = self._open(layer)
                start = time.perf_counter()
                failed = True
                try:
                    result = fn(*args, **kwargs)
                    failed = False
                finally:
                    self._close(qual, layer, idx, parent, start, failed)
            for counter, f in result_counts:
                counts[counter] += f(args[skip:], result)
            return result

        return wrapper

    # -- installing ------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "lpa" or n.startswith("lpa.")]
        for layer in LAYERS:
            mod = getattr(self.lpa, layer)
            for name, fn in vars(mod).copy().items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(layer, name, fn)
                for m in modules:
                    for attr, value in vars(m).copy().items():
                        if value is fn:
                            self._set(m, attr, wrapped)
            if layer in METHODS:
                cls_name, methods = METHODS[layer]
                cls = getattr(mod, cls_name)
                for name in methods:
                    self._set(cls, name, self._wrap(layer, name, vars(cls)[name], method=True))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    # -- reading -----------------------------------------------------------------

    def mark(self) -> int:
        """Position to pass to `summary` for the spans recorded after now."""
        return len(self.spans)

    def summary(self, since: int, until: int) -> dict:
        """Inclusive and self time per span name and self time per layer,
        over the spans recorded between two marks."""
        spans = self.spans[since:until]
        child_time = [0.0] * len(spans)
        for name, layer, start, end, parent, _ in spans:
            if parent >= since:
                child_time[parent - since] += end - start
        inclusive: Counter = Counter()
        own: Counter = Counter()
        layer_self: Counter = Counter()
        top = 0.0
        for i, (name, layer, start, end, parent, _) in enumerate(spans):
            dur = end - start
            inclusive[name] += dur
            own[name] += dur - child_time[i]
            layer_self[layer] += dur - child_time[i]
            if parent < since:
                top += dur
        return {"inclusive": inclusive, "self": own, "layer_self": layer_self, "top": top}

