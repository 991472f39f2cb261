"""Span and counter tracing of the quasigalois layers, from outside the package.

The tracer replaces public names of the package with wrappers for the length
of one traced pass and restores them afterwards.  Modules import functions by
name (``from .homology import classify_point``), so a function is replaced in
every ``quasigalois`` module that holds it, which is where its callers look it
up.  Hot methods (field arithmetic, matrix products, point images, canonical
keys) are counted but get no span, to keep the overhead small.

Each span records its name, its parent span, its thread, and wall and thread
CPU start and end.  The current span travels in a context variable, and the
CLI's thread pool is replaced by one that runs each task in the submitter's
context, so work done in pool threads is linked to the span that submitted it.
A layer's self time is the thread CPU time of its spans minus that of their
children on the same thread.  Thread CPU time is used because the CLI runs
cases on threads that share the interpreter lock: a wall-clock span on one
thread would also count the time the other thread held the lock.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor

# (module, attribute, span name, result hook name or None)
SPANNED = (
    ("smoothness", "is_smooth", "smoothness.is_smooth", "_on_is_smooth"),
    ("homology", "classify_point", "homology.classify", "_on_classify"),
    ("homology", "solve_homology", "homology.solve", "_on_solve"),
    ("census", "census", "census.census", None),
    ("census", "orbit_expand", "census.orbit_expand", "_on_orbit_expand"),
    ("census", "build_pair_graph", "census.pair_graph", None),
    ("census", "find_triples", "census.triples", None),
    ("groups", "group_closure", "groups.closure", "_on_closure"),
    ("groups", "line_action_analysis", "groups.line_action", None),
    ("catalog", "make", "catalog.make", None),
    ("catalog", "evaluate", "catalog.evaluate", None),
    ("oracle", "numeric_census", "oracle.census", "_on_oracle"),
    ("cli", "main", "cli.main", None),
)

# (module, class, method names, counter name, span name the count is also
# kept for, whether the calls are timed)
COUNTED = (
    ("cyclotomic", "FieldElement", ("__mul__", "__rmul__"), "cyclotomic.mul", None, False),
    ("cyclotomic", "FieldElement", ("inverse",), "cyclotomic.inverse", None, False),
    ("geometry", "ProjMatrix", ("__mul__",), "geometry.matmul", "groups.closure", False),
    ("geometry", "ProjMatrix", ("apply_to_point",), "geometry.apply", "census.orbit_expand", False),
    ("geometry", "ProjMatrix", ("canonical_key",), "geometry.canonical_key", None, True),
)

# a spanned method: HomoPoly.pullback
SPANNED_METHODS = (("geometry", "HomoPoly", "pullback", "geometry.pullback"),)


class Span:
    __slots__ = ("sid", "parent", "name", "thread", "t0", "t1", "c0", "c1")

    def __init__(self, sid, parent, name, thread, t0, t1, c0, c1):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.thread = thread
        self.t0 = t0
        self.t1 = t1
        self.c0 = c0
        self.c1 = c1

    def as_dict(self):
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Wraps the package's public names, records spans and counters in memory."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.cpu = Counter()  # thread CPU seconds of timed, counted calls
        self._current = contextvars.ContextVar("quasigalois_span", default=None)
        self._ids = itertools.count(1)
        self._restore = []

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name, fn, hook):
        current = self._current
        spans = self.spans
        ids = self._ids
        perf, cpu, ident = time.perf_counter, time.thread_time, threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = current.get()
            sid = next(ids)
            token = current.set((sid, name))
            t0, c0 = perf(), cpu()
            try:
                result = fn(*args, **kwargs)
            finally:
                c1, t1 = cpu(), perf()
                current.reset(token)
                spans.append(
                    Span(sid, parent and parent[0], name, ident(), t0, t1, c0, c1)
                )
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _counted(self, name, fn, within, timed):
        counts = self.counts
        current = self._current
        inside = name + "@" + within if within else None
        if timed:
            cpu_total = self.cpu
            cpu = time.thread_time

            @functools.wraps(fn)
            def timed_wrapper(*args, **kwargs):
                counts[name] += 1
                c0 = cpu()
                try:
                    return fn(*args, **kwargs)
                finally:
                    cpu_total[name] += cpu() - c0

            return timed_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if inside is not None:
                span = current.get()
                if span is not None and span[1] == within:
                    counts[inside] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- result hooks ---------------------------------------------------------

    def _on_is_smooth(self, args, kwargs, result):
        self.counts["smoothness.singular"] += not result

    def _on_classify(self, args, kwargs, result):
        self.counts["homology.quasi_galois"] += result.is_quasi_galois

    def _on_solve(self, args, kwargs, result):
        self.counts["homology.solve_hits"] += result is not None

    def _on_orbit_expand(self, args, kwargs, result):
        seeds = args[1] if len(args) > 1 else kwargs["seeds"]
        self.counts["census.orbit_new_points"] += len(result) - len(set(seeds))

    def _on_closure(self, args, kwargs, result):
        self.counts["groups.closure_elements"] += len(result)

    def _on_oracle(self, args, kwargs, result):
        self.counts["oracle.starts"] += result.diagnostics["starts"]
        self.counts["oracle.converged"] += result.diagnostics["converged"]

    # -- install / restore ----------------------------------------------------

    def _package_modules(self, package):
        prefix = package.__name__
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == prefix or name.startswith(prefix + "."))
        ]

    def _replace_everywhere(self, modules, original, replacement):
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def _replace_method(self, cls, attr, replacement):
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, replacement)

    def install(self, package):
        """Wrap the package's names; ``restore`` undoes every replacement."""
        modules = self._package_modules(package)
        sub = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        for mod, attr, name, hook in SPANNED:
            original = getattr(sub[mod], attr)
            hook_fn = getattr(self, hook) if hook else None
            self._replace_everywhere(modules, original, self._spanned(name, original, hook_fn))
        for mod, cls_name, attr, name in SPANNED_METHODS:
            cls = getattr(sub[mod], cls_name)
            self._replace_method(cls, attr, self._spanned(name, cls.__dict__[attr], None))
        for mod, cls_name, attrs, name, within, timed in COUNTED:
            cls = getattr(sub[mod], cls_name)
            wrapper = self._counted(name, cls.__dict__[attrs[0]], within, timed)
            for attr in attrs:
                self._replace_method(cls, attr, wrapper)
        self._replace_everywhere(
            modules, ThreadPoolExecutor, _context_pool(ThreadPoolExecutor)
        )

    def restore(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def self_times(self):
        """Per span name: (calls, self thread CPU seconds)."""
        child_cpu = defaultdict(float)
        by_id = {s.sid: s for s in self.spans}
        for s in self.spans:
            parent = by_id.get(s.parent)
            if parent is not None and parent.thread == s.thread:
                child_cpu[s.parent] += s.c1 - s.c0
        calls = Counter()
        self_cpu = defaultdict(float)
        for s in self.spans:
            calls[s.name] += 1
            self_cpu[s.name] += (s.c1 - s.c0) - child_cpu[s.sid]
        return calls, self_cpu


def _context_pool(base):
    """A ThreadPoolExecutor whose tasks run in the submitter's context."""

    class ContextThreadPoolExecutor(base):
        def submit(self, fn, /, *args, **kwargs):
            context = contextvars.copy_context()
            return super().submit(context.run, fn, *args, **kwargs)

    return ContextThreadPoolExecutor


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer):
    """The per-layer metrics (without the field probe and the workload gates)."""
    calls, self_cpu = tracer.self_times()
    c = tracer.counts
    ms_per_start = _frac(1000.0 * self_cpu["oracle.census"], c["oracle.starts"])
    values = {
        "cyclotomic.mul_calls": c["cyclotomic.mul"],
        "cyclotomic.inverse_calls": c["cyclotomic.inverse"],
        "geometry.pullback_calls": calls["geometry.pullback"],
        "geometry.pullback_s": self_cpu["geometry.pullback"],
        "geometry.matmul_calls": c["geometry.matmul"],
        "geometry.canonical_key_calls": c["geometry.canonical_key"],
        "geometry.canonical_key_s": tracer.cpu["geometry.canonical_key"],
        "geometry.apply_calls": c["geometry.apply"],
        "smoothness.is_smooth_calls": calls["smoothness.is_smooth"],
        "smoothness.is_smooth_s": self_cpu["smoothness.is_smooth"],
        "smoothness.singular_frac": _frac(
            c["smoothness.singular"], calls["smoothness.is_smooth"]
        ),
        "homology.classify_calls": calls["homology.classify"],
        "homology.classify_s": self_cpu["homology.classify"],
        "homology.qg_frac": _frac(c["homology.quasi_galois"], calls["homology.classify"]),
        "homology.solve_calls": calls["homology.solve"],
        "homology.solve_s": self_cpu["homology.solve"],
        "homology.solve_hit_frac": _frac(c["homology.solve_hits"], calls["homology.solve"]),
        "census.census_s": self_cpu["census.census"],
        "census.orbit_expand_s": self_cpu["census.orbit_expand"],
        "census.apply_useful_frac": _frac(
            c["census.orbit_new_points"], c["geometry.apply@census.orbit_expand"]
        ),
        "census.pair_graph_s": self_cpu["census.pair_graph"],
        "census.triples_s": self_cpu["census.triples"],
        "groups.closure_calls": calls["groups.closure"],
        "groups.closure_s": self_cpu["groups.closure"],
        "groups.closure_products": c["geometry.matmul@groups.closure"],
        "groups.closure_new_frac": _frac(
            c["groups.closure_elements"], c["geometry.matmul@groups.closure"]
        ),
        "groups.line_action_s": self_cpu["groups.line_action"],
        "catalog.make_s": self_cpu["catalog.make"],
        "catalog.evaluate_s": self_cpu["catalog.evaluate"],
        "oracle.census_calls": calls["oracle.census"],
        "oracle.census_s": self_cpu["oracle.census"],
        "oracle.ms_per_start": ms_per_start,
        "oracle.converge_frac": _frac(c["oracle.converged"], c["oracle.starts"]),
        "cli.main_s": self_cpu["cli.main"],
    }
    return values
