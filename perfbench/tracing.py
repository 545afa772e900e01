"""Spans at nhbath's layer boundaries, recorded from outside the package.

While installed, the tracer replaces the names that `nhbath.cli`,
`nhbath.runner`, `nhbath.spectral` and `nhbath.effective` import from the
other modules with wrappers that open and close a span, so every call across
a layer boundary is timed without changing the package.  Spans stay in
memory; `dump` writes them out at the end of a run.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import threading
import time
from concurrent.futures import ThreadPoolExecutor

# (importing module, imported name, span name)
SPANS = (
    ("nhbath.cli", "run_experiment", "runner.run_experiment"),
    ("nhbath.runner", "build_total_hamiltonian", "lattice.build_total_hamiltonian"),
    ("nhbath.spectral", "build_bare_hamiltonian", "lattice.build_bare_hamiltonian"),
    ("nhbath.effective", "build_bare_hamiltonian", "lattice.build_bare_hamiltonian"),
    ("nhbath.runner", "evolve", "dynamics.evolve"),
    ("nhbath.runner", "emitter_populations", "dynamics.emitter_populations"),
    ("nhbath.runner", "photon_density", "dynamics.photon_density"),
    ("nhbath.runner", "localization_report", "dynamics.localization_report"),
    ("nhbath.runner", "obc_spectrum", "spectral.obc_spectrum"),
    ("nhbath.runner", "heff_numeric", "effective.heff_numeric"),
    ("nhbath.runner", "heff_closed_form", "effective.heff_closed_form"),
)
# calls too frequent for a span each: counted only
COUNTS = (("nhbath.effective", "greens_obc", "effective.greens_obc"),)

# per-layer time metric -> the spans whose self time it sums
LAYER_SELF_TIME = {
    "lattice.assemble_s": ("lattice.build_total_hamiltonian",
                           "lattice.build_bare_hamiltonian"),
    "dynamics.evolve_s": ("dynamics.evolve",),
    "dynamics.observables_s": ("dynamics.emitter_populations",
                               "dynamics.photon_density",
                               "dynamics.localization_report"),
    "runner.serialize_s": ("runner.run_experiment",),
    "spectral.obc_spectrum_s": ("spectral.obc_spectrum",),
    "effective.heff_closed_form_s": ("effective.heff_closed_form",),
    "effective.heff_numeric_s": ("effective.heff_numeric",),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "op")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.thread = threading.get_ident()
        self.start, self.end = time.perf_counter(), None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = collections.Counter()
        self.missing = set()
        self._lock = threading.Lock()
        self._local = threading.local()

    def _state(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack, loc.op = [], None
        return loc

    @contextlib.contextmanager
    def span(self, name, parent=None, op=None):
        """Time the block as a child of the thread's current span (or of
        `parent` in op `op`, for work handed to another thread)."""
        loc = self._state()
        if parent is not None:
            loc.stack, loc.op = [parent], op
        s = Span(name, loc.stack[-1] if loc.stack else None, loc.op)
        self.spans.append(s)
        loc.stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            loc.stack.pop()

    @contextlib.contextmanager
    def op(self, op_id):
        """Install the wrappers and record one op as a root span."""
        loc = self._state()
        loc.op = op_id
        try:
            with self._installed(), self.span("op"):
                yield
        finally:
            loc.op = None

    def _timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            key = (self._state().op, name)
            with self._lock:
                self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _pool_class(self):
        tracer = self

        class TracedPool(ThreadPoolExecutor):
            """The sweep's pool: one span for its lifetime, one per task."""

            def __enter__(self):
                self._trace = tracer.span("runner.pool")
                self._trace.__enter__()
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    self._trace.__exit__(None, None, None)

            def submit(self, fn, /, *args, **kwargs):
                loc = tracer._state()
                parent, op = loc.stack[-1], loc.op

                def task():
                    with tracer.span("runner.task", parent, op):
                        return fn(*args, **kwargs)
                return super().submit(task)
        return TracedPool

    @contextlib.contextmanager
    def _installed(self):
        wrappers = [(m, a, functools.partial(self._timed, n)) for m, a, n in SPANS]
        wrappers += [(m, a, functools.partial(self._counted, n)) for m, a, n in COUNTS]
        wrappers.append(("nhbath.runner", "ThreadPoolExecutor",
                         lambda _: self._pool_class()))
        saved = []
        try:
            for mod_name, attr, wrap in wrappers:
                module = importlib.import_module(mod_name)
                if not hasattr(module, attr):
                    self.missing.add(f"{mod_name}.{attr}")
                    continue
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(original))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def op_metrics(self, op_id, workers: int) -> dict:
        """Per-layer metrics of one traced op, plus `accounted_s`: the summed
        self time of every span below the op root (thread-seconds)."""
        spans = [s for s in self.spans if s.op == op_id]
        own = self_times(spans)
        by_name = collections.defaultdict(list)
        for s in spans:
            by_name[s.name].append(s)
        out = {metric: sum(own[id(s)] for n in names for s in by_name[n])
               for metric, names in LAYER_SELF_TIME.items()}
        out["dynamics.evolve_calls"] = len(by_name["dynamics.evolve"])
        out["effective.greens_obc_calls"] = self.counts[(op_id, "effective.greens_obc")]
        pool_wall = sum(s.duration for s in by_name["runner.pool"])
        busy = sum(s.duration for s in by_name["runner.task"])
        out["runner.pool_busy_frac"] = busy / (pool_wall * workers) if pool_wall else 0.0
        out["accounted_s"] = sum(own[id(s)] for s in spans if s.name != "op")
        return out

    def dump(self) -> dict:
        index = {id(s): i for i, s in enumerate(self.spans)}
        return {
            "spans": [{"name": s.name, "start": s.start, "end": s.end,
                       "parent": index.get(id(s.parent)), "thread": s.thread,
                       "op": s.op} for s in self.spans],
            "counts": [{"op": op, "name": name, "count": c}
                       for (op, name), c in sorted(self.counts.items())],
            "missing": sorted(self.missing),
        }


def self_times(spans) -> dict:
    """id(span) -> its duration minus the part its children cover."""
    children = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[id(s.parent)].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children[id(s)], key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[id(s)] = s.duration - covered
    return out
