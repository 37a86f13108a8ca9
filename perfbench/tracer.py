"""Span tracing of salemforge's layers from outside the package.

The tracer wraps chosen functions of each salemforge module and records
one span per call: (name, start, end, parent).  Spans stay in memory and
are reduced to per-layer metrics when the traced pass ends.  A function
can be bound under several names (``from .roots import salem_eta`` in
``mcmullen`` and ``product``, ``__rmul__ = __mul__`` in ``IntPoly``), so
``install`` replaces every binding of the original object in every
module and in every class those modules define, not only the defining
one.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import inspect
import os
import sys
from collections import Counter
from dataclasses import dataclass
from time import perf_counter_ns

# The layers, in pipeline order; a span's layer is the prefix of its name.
LAYERS = ("cli", "polyring", "coxeter", "roots", "mcmullen", "mau",
          "toric", "product")


@dataclass(frozen=True)
class Probe:
    """One traced function: where it is defined and the span name it gets."""

    module: str          # salemforge submodule that defines it
    attr: str            # "func" or "Class.method"
    name: str            # span name, "<layer>.<short name>"
    counter: object = None   # optional hook(counts, args, result, exc)


def _count_report_bytes(counts, args, result, exc):
    out = args[1] if len(args) > 1 else None
    if exc is None and out:
        counts["cli.report_bytes"] += os.path.getsize(out)


def _count_horner_terms(counts, args, result, exc):
    counts["roots.horner.terms"] += len(args[0])


def _count_refine_accepts(counts, args, result, exc):
    if exc is None and result is not None:
        counts["mcmullen.refine.accepted"] += 1


def _count_relation_outcome(counts, args, result, exc):
    if exc is None:
        counts["mau.relation_search." + result.outcome] += 1
    elif type(exc).__name__ == "PrecisionTooLow":
        counts["mau.relation_search.precision_too_low"] += 1


def _count_undetermined(counts, args, result, exc):
    if exc is None and result.classification == "Undetermined":
        counts["product.undetermined"] += 1


PROBES = (
    Probe("cli", "main", "cli.main"),
    Probe("cli", "_emit", "cli.emit", _count_report_bytes),
    Probe("polyring", "IntPoly.__mul__", "polyring.mul"),
    Probe("polyring", "IntPoly.divmod", "polyring.divmod"),
    Probe("polyring", "cyclotomic", "polyring.cyclotomic"),
    Probe("coxeter", "en_from_formula", "coxeter.en_from_formula"),
    Probe("coxeter", "en_from_matrix", "coxeter.en_from_matrix"),
    Probe("coxeter", "salem_factor", "coxeter.salem_factor"),
    Probe("coxeter", "salem_trace", "coxeter.salem_trace"),
    Probe("roots", "_horner", "roots.horner", _count_horner_terms),
    Probe("roots", "circle_root_arguments", "roots.circle_root_arguments"),
    Probe("roots", "salem_eta", "roots.salem_eta"),
    Probe("roots", "isolate_roots", "roots.isolate_roots"),
    Probe("mcmullen", "mcmullen_data", "mcmullen.mcmullen_data"),
    Probe("mcmullen", "scan_siegel_roots", "mcmullen.scan_siegel_roots"),
    Probe("mcmullen", "find_witness_roots", "mcmullen.find_witness_roots"),
    Probe("mcmullen", "_refine_circle_root", "mcmullen.refine",
          _count_refine_accepts),
    Probe("mcmullen", "eigenvalue_branches", "mcmullen.eigenvalue_branches"),
    Probe("mcmullen", "integrality_certificate",
          "mcmullen.integrality_certificate"),
    Probe("mau", "load_sequence", "mau.load_sequence"),
    Probe("mau", "mau_build", "mau.mau_build"),
    Probe("mau", "mau_extend", "mau.mau_extend"),
    Probe("mau", "is_prime", "mau.is_prime"),
    Probe("mau", "relation_search", "mau.relation_search",
          _count_relation_outcome),
    Probe("mau", "lll_reduce", "mau.lll_reduce"),
    Probe("mau", "_gram_schmidt", "mau.gram_schmidt"),
    Probe("toric", "load_fan", "toric.load_fan"),
    Probe("toric", "check_fan", "toric.check_fan"),
    Probe("toric", "fixed_points", "toric.fixed_points"),
    Probe("product", "build_product_spec", "product.build_product_spec"),
    Probe("product", "siegel_count", "product.siegel_count"),
    Probe("product", "classify", "product.classify", _count_undetermined),
    Probe("product", "product_entropy", "product.product_entropy"),
)


class Tracer:
    """Records spans of wrapped calls; one instance per traced pass."""

    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, outermost of its name)
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str, counter=None):
        spans, stack, active, counts = (self.spans, self._stack,
                                        self._active, self.counts)

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            outer = active[name] == 0
            spans.append(None)
            stack.append(idx)
            active[name] += 1
            result = exc = None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end = perf_counter_ns()
                active[name] -= 1
                stack.pop()
                spans[idx] = (name, start, end, parent, outer)
                if counter is not None:
                    counter(counts, args, result, exc)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, probes=PROBES, package: str = "salemforge") -> None:
        """Wrap each probe's function under every name that binds it."""
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == package
                                         or k.startswith(package + "."))]
        namespaces = []
        for mod in modules:
            namespaces.append(mod)
            for obj in list(vars(mod).values()):
                if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    namespaces.append(obj)
        for probe in probes:
            owner = sys.modules.get(f"{package}.{probe.module}")
            for part in probe.attr.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(probe.name)
                continue
            wrapped = self.wrap(owner, probe.name, probe.counter)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is owner:
                        setattr(ns, key, wrapped)
                        self._undo.append((ns, key, owner))

    def uninstall(self) -> None:
        for ns, key, original in reversed(self._undo):
            setattr(ns, key, original)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    # -- reduction ---------------------------------------------------

    def summary(self) -> dict:
        """Calls and inclusive seconds per span name, self seconds per
        layer, and the seconds of the outermost spans.

        Inclusive time counts only the outermost span of a name, so a
        recursive call is not counted twice.  A span's self time is its
        duration minus its children's durations; a layer's self time is
        the sum over its spans.
        """
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        child_ns = [0] * len(self.spans)
        root_ns = 0
        for name, start, end, parent, outer in self.spans:
            calls[name] += 1
            if outer:
                inclusive[name] += end - start
            if parent >= 0:
                child_ns[parent] += end - start
            else:
                root_ns += end - start
        layer_self: Counter = Counter()
        for (name, start, end, _, _), kids in zip(self.spans, child_ns):
            layer_self[name.split(".", 1)[0]] += end - start - kids
        return {
            "calls": dict(calls),
            "root_seconds": root_ns / 1e9,
            "seconds": {k: v / 1e9 for k, v in inclusive.items()},
            "self_seconds": {k: layer_self[k] / 1e9 for k in LAYERS},
            "counts": dict(self.counts),
        }
