"""Run-time span tracing of latsim's public functions.

``Tracer`` replaces each function in ``LAYERS`` in every latsim module
namespace that binds it -- ``latsim.build_sieve``, ``latsim.arith.build_sieve``
and ``latsim.census.build_sieve`` are three bindings of one function -- with a
wrapper that records a span: name, start, end and the id of the span that was
open when it started (its parent). A generator function gets one span per
``next()``, so its time is the time spent producing items, not the consumer's
time between them. Spans stay in memory; ``summary()`` turns them into
inclusive time, self time (duration minus the time covered by child spans,
found through parent ids), span count, calls and items per name.

Nothing in ``src/`` is edited: ``install()`` patches module attributes and
``uninstall()`` puts the originals back. This module imports neither latsim
nor numpy at load time, so the parent process of the benchmark can read
``LAYERS`` without paying for them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (span name, latsim module, function). The order is the report order.
LAYERS = (
    ("arith.build_sieve", "arith", "build_sieve"),
    ("arith.phi_restricted", "arith", "phi_restricted"),
    ("arith.power_sum_tables", "arith", "power_sum_tables"),
    ("census.count_fast", "census", "count_fast"),
    ("census.enumerate_classes", "census", "enumerate_classes"),
    ("census.count_bruteforce", "census", "count_bruteforce"),
    ("census.census_report", "census", "census_report"),
    ("lattice.canonical_tau", "lattice", "canonical_tau"),
    ("lattice.reduce_gram", "lattice", "reduce_gram"),
    ("lattice.modular_act", "lattice", "modular_act"),
    ("lattice.is_well_rounded", "lattice", "is_well_rounded"),
    ("lattice.is_semistable", "lattice", "is_semistable"),
    ("classes.classify", "classes", "classify"),
    ("classes.weil_height_bound", "classes", "weil_height_bound"),
    ("modular.j_invariant", "modular", "j_invariant"),
    ("modular.classify_by_j", "modular", "classify_by_j"),
    ("modular.boundary_realness_report", "modular",
     "boundary_realness_report"),
    ("verify.counts", "verify", "verify_counts"),
    ("verify.asymptotics", "verify", "verify_asymptotics"),
    ("verify.euler", "verify", "verify_euler"),
    ("verify.haar", "verify", "verify_haar"),
    ("verify.modular", "verify", "verify_modular"),
    ("verify.geometry", "verify", "verify_geometry"),
    ("verify.reduction_invariance", "verify", "verify_reduction_invariance"),
    ("verify.heights", "verify", "verify_heights"),
    ("cli.main", "cli", "main"),
)

# Spans of count_fast are named per set and height, e.g.
# "census.count_fast.all.T1600"; the layer total sums them.
COUNT_FAST = "census.count_fast"


class Tracer:
    """Records spans of the functions in ``LAYERS`` while installed.

    Use as a context manager, in one thread. Spans nest by call order, so a
    span's parent is the span that was open when it started.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open_spans = [-1]
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.originals: dict = {}
        self._patched: list = []

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._open_spans[-1])
        self.span_end.append(0.0)
        self._open_spans.append(sid)
        self.span_start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = time.perf_counter()
        self._open_spans.pop()

    @contextmanager
    def span(self, name: str):
        """A span around the block, for work the benchmark itself drives."""
        self.calls[name] += 1
        sid = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(sid)

    def _wrap(self, span: str, fn):
        if inspect.isgeneratorfunction(fn):
            nid = self._name_id(span)

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                self.calls[span] += 1
                gen = fn(*args, **kwargs)
                items = 0
                try:
                    while True:
                        sid = self._open(nid)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self._close(sid)
                        items += 1
                        yield item
                finally:
                    self.items[span] += items
            return traced_generator

        split = span == COUNT_FAST
        signature = inspect.signature(fn) if split else None
        nid = None if split else self._name_id(span)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            this = span
            if split:
                bound = signature.bind(*args, **kwargs).arguments
                this = f"{span}.{bound['set_id'].value}.T{bound['T']}"
            self.calls[this] += 1
            sid = self._open(nid if nid is not None else self._name_id(this))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid)
        return traced

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == "latsim" or name.startswith("latsim."))]
        for span, module, attr in LAYERS:
            original = getattr(sys.modules[f"latsim.{module}"], attr)
            wrapper = self._wrap(span, original)
            self.originals[span] = original
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                        self._patched.append((m, key, original))

    def uninstall(self) -> None:
        for m, key, original in reversed(self._patched):
            setattr(m, key, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict[str, dict]:
        """Per span name: inclusive and self seconds, spans, calls, items.

        No traced function calls itself, so no span has an ancestor of its
        own name and inclusive times do not count any interval twice.
        """
        import numpy as np

        if len(self._open_spans) != 1:
            raise RuntimeError("summary() while spans are still open")
        names = np.frombuffer(self.span_name, dtype=np.intc)
        parents = np.frombuffer(self.span_parent, dtype=np.intc)
        duration = (np.frombuffer(self.span_end, dtype=np.float64)
                    - np.frombuffer(self.span_start, dtype=np.float64))
        nested = parents >= 0
        covered = np.bincount(parents[nested], weights=duration[nested],
                              minlength=len(duration))
        k = len(self.names)
        inclusive = np.bincount(names, weights=duration, minlength=k)
        own = np.bincount(names, weights=duration - covered, minlength=k)
        spans = np.bincount(names, minlength=k)
        return {name: {"s": float(inclusive[i]), "self_s": float(own[i]),
                       "spans": int(spans[i]), "calls": self.calls[name],
                       "items": self.items[name]}
                for i, name in enumerate(self.names)}
