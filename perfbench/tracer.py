"""Per-layer tracing of a kinchaos run, installed from outside the package.

`install(tracer)` replaces the public functions of each kinchaos module with
wrappers that record a span (name, parent, start, end) or only count calls.
The wrapper is bound under every name that refers to the original in any
loaded kinchaos module, because the harness imports most functions with
`from ... import` and a wrapper left only on the defining module would see
none of its calls.

Spans stay in memory until the run ends.  A span's self time is its duration
minus the part of its interval that its child spans cover; children of one
span may overlap when the harness fans sweep points out over threads.
"""

import collections
import functools
import itertools
import json
import math
import os
import sys
import threading
import time

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []          # (span_id, parent_id, name, start, end)
        self.counts = collections.Counter()
        self.seconds = collections.defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "root", None)

    def add(self, key, n=1):
        with self._lock:
            self.counts[key] += n

    def span(self, name, fn, work=None):
        """Wrap fn in a span; work(args, kwargs, result) -> {quantity: n}."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.current()
            sid = next(self._ids)
            stack = self._stack()
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((sid, parent, name, start, end))
            self.add(name + ".calls")
            if work is not None:
                for quantity, n in work(args, kwargs, result).items():
                    self.add(f"{name}.{quantity}", n)
            return result

        return wrapper

    def counter(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(name + ".calls")
            return fn(*args, **kwargs)

        return wrapper

    def fanout(self, map_indexed):
        """Span around the harness thread fan-out that also measures idle time.

        idle = workers x fan-out wall - summed busy time of the sweep points,
        where workers is the number of pool threads that can be busy at once.
        """

        @functools.wraps(map_indexed)
        def wrapper(fn, n_items, threads):
            busy = []

            def fan_out():
                root = self.current()  # the fan-out span itself

                def point(i):
                    # pool threads start with an empty span stack; parent
                    # their spans to the fan-out span that submitted them
                    pooled = not self._stack()
                    if pooled:
                        self._local.root = root
                    t0 = time.perf_counter()
                    try:
                        return fn(i)
                    finally:
                        busy.append(time.perf_counter() - t0)
                        if pooled:
                            self._local.root = None

                return map_indexed(point, n_items, threads)

            t0 = time.perf_counter()
            result = self.span("harness.fanout", fan_out)()
            wall = time.perf_counter() - t0
            workers = min(threads, n_items) if threads > 1 and n_items > 1 else 1
            self.add_seconds("harness.fanout.idle_s", workers * wall - sum(busy))
            return result

        return wrapper

    def add_seconds(self, key, seconds):
        with self._lock:
            self.seconds[key] += seconds

    def self_times(self):
        """name -> summed self time in seconds over all spans of that name."""

        children = collections.defaultdict(list)
        for sid, parent, name, start, end in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        out = collections.defaultdict(float)
        for sid, parent, name, start, end in self.spans:
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(sid, ())):
                lo, hi = max(c_start, reach), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[name] += (end - start) - covered
        return dict(out)

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end}) + "\n")


def _rebind(original, wrapped):
    """Bind `wrapped` under every name that refers to `original`."""

    for mod_name, module in list(sys.modules.items()):
        if mod_name != "kinchaos" and not mod_name.startswith("kinchaos."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def _points(args, kwargs, result):
    return {"points": math.prod(np.shape(args[0])[:-1])}


def _csv_bytes(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(p) for p in result
                         if p.endswith(".csv"))}


def _w2_points(args, kwargs, result):
    return {"points": len(args[0])}


def install(tracer):
    """Wrap the kinchaos layers; returns the tracer for chaining."""

    from kinchaos import (chaos_metrics, dynamics, equilibrium, harness,
                          kinetic_pde, potentials)

    spans = [
        (harness, "run_experiment", None),
        (harness, "write_report", _csv_bytes),
        (kinetic_pde, "step_vfp",
         lambda a, k, r: {"cell_steps": a[0].density.values.size}),
        (kinetic_pde, "mean_field_force", None),
        (kinetic_pde, "free_energy", None),
        (kinetic_pde, "weighted_fisher", None),
        (kinetic_pde, "relative_entropy_grid", None),
        (equilibrium, "interaction_convolution",
         lambda a, k, r: {"kernel_entries": a[1].n ** 2}),
        (equilibrium, "solve_rho_infty",
         lambda a, k, r: {"iterations": r.meta["iterations"]}),
        (equilibrium, "formal_equilibrium", None),
        (dynamics, "step_particle_system", None),
        (dynamics, "pairwise_force",
         lambda a, k, r: {"pairs": len(a[1]) ** 2}),
        (dynamics, "sample_f_infty", None),
        (chaos_metrics, "error_statistics",
         lambda a, k, r: {"pairs": a[0].N ** 2}),
        (chaos_metrics, "mean_field_tables", None),
        (chaos_metrics, "concentration_check", None),
    ]
    for module, attr, work in spans:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[1]}.{attr}"
        _rebind(original, tracer.span(name, original, work))

    _rebind(harness._map_indexed, tracer.fanout(harness._map_indexed))

    w2_exact = chaos_metrics.w2_exact
    sort = tracer.span("chaos_metrics.w2_exact.sort", w2_exact, _w2_points)
    assign = tracer.span("chaos_metrics.w2_exact.assign", w2_exact, _w2_points)

    @functools.wraps(w2_exact)
    def w2_by_path(a, b):
        one_d = np.ndim(a) == 1 or np.shape(a)[1] == 1
        return (sort if one_d else assign)(a, b)

    _rebind(w2_exact, w2_by_path)

    grid = equilibrium.GridDensity
    for method in ("marginal_x", "sample_phase"):
        setattr(grid, method, tracer.span(f"equilibrium.GridDensity.{method}",
                                          getattr(grid, method)))
    grid.__init__ = tracer.counter("equilibrium.GridDensity.init",
                                   grid.__init__)
    dynamics.PhaseEnsemble.__init__ = tracer.counter(
        "dynamics.PhaseEnsemble.init", dynamics.PhaseEnsemble.__init__)
    nodes = equilibrium.Axis.nodes.fget
    equilibrium.Axis.nodes = property(
        tracer.counter("equilibrium.Axis.nodes", nodes))

    make_system = potentials.make_system

    @functools.wraps(make_system)
    def traced_make_system(*args, **kwargs):
        spec = make_system(*args, **kwargs)
        for role in ("V", "W"):
            fld = getattr(spec, role)
            for method in ("value", "grad", "hess"):
                setattr(fld, method,
                        tracer.span(f"potentials.{role}.{method}",
                                    getattr(fld, method), _points))
        return spec

    _rebind(make_system, traced_make_system)
    return tracer
