"""Span tracing of the beckner_lab modules, applied from outside the library.

``instrument(tracer)`` replaces every public function of the traced
modules, in every module namespace that binds it, and the listed methods
on their classes, by a wrapper that records one span per call.  Spans are
kept in memory as tuples ``(id, name, start, end, parent, job)`` and are
aggregated only after the run.  A span opened on a worker thread with no
open span of its own takes as parent the innermost open span of the
thread that started the job, which is blocked waiting for that worker.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
import weakref

MODULES = ("models", "chain", "bochner", "dynamics", "constants", "entropy",
           "fokker_planck", "cli")

# module -> class -> methods traced on the class
METHODS = {
    "chain": {"FiniteChain": ("apply_generator", "dense_generator",
                              "symmetrized_spectrum")},
    "bochner": {"BochnerStructure": ("r_dense", "gamma_coo")},
}

_NO_PARENT = (-1, "")


class Tracer:
    """In-memory span store, per-module error counts and shape counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.errors: dict[str, int] = {}
        self.counters: dict[str, float] = {}
        self.job = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[tuple[int, str]] = []
        # hooks and error counts also run on the library's worker threads
        self.lock = threading.Lock()

    def _stack(self) -> list[tuple[int, str]]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float) -> None:
        with self.lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str, after=None):
        """Return ``fn`` recording a span ``name`` per call.

        ``after(args, kwargs, result)`` runs after a successful call to
        update counters.  An exception leaving the module (the caller's
        span belongs to another module, or there is none) counts as one
        error of the module.
        """
        module = name.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = _NO_PARENT
            span_id = next(self._ids)
            stack.append((span_id, name))
            job = self.job
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            except Exception:
                if parent[1].split(".", 1)[0] != module:
                    with self.lock:
                        self.errors[module] = self.errors.get(module, 0) + 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent[0], job))

        return traced


def _counter_hooks(tracer: Tracer) -> dict:
    """Post-call hooks for the counters computed from shapes and results."""
    materialized = weakref.WeakSet()

    def states(args, kwargs, chain):
        tracer.count("models.states", chain.n_states)

    def dense_bytes(args, kwargs, result):
        # the generator is cached per chain: count its allocation once
        with tracer.lock:
            first = args[0] not in materialized
            materialized.add(args[0])
        if first:
            tracer.count("chain.dense_bytes", result.nbytes)

    def r_nnz(args, kwargs, bs):
        tracer.count("bochner.r_nnz", bs.nnz)

    def r_dense_bytes(args, kwargs, result):
        tracer.count("bochner.r_dense_bytes", result.nbytes)

    def points(args, kwargs, traj):
        tracer.count("dynamics.evolve.points", len(traj))

    def starts(args, kwargs, est):
        tracer.count("constants.converged_starts",
                     est.convergence["converged_starts"])
        tracer.count("constants.starts", est.convergence["starts"])

    return {"models.build_model": states,
            "chain.dense_generator": dense_bytes,
            "bochner.r_function": r_nnz,
            "bochner.r_dense": r_dense_bytes,
            "dynamics.evolve": points,
            "constants.beckner_constant": starts,
            "constants.mlsi_constant": starts,
            "constants.lsi_constant": starts}


def _public_functions(mod):
    for attr, value in vars(mod).items():
        if (not attr.startswith("_") and callable(value)
                and not isinstance(value, type)
                and getattr(value, "__module__", None) == mod.__name__):
            yield attr, value


@contextlib.contextmanager
def instrument(tracer: Tracer, package: str = "beckner_lab"):
    """Trace the package's modules for the duration of the block."""
    hooks = _counter_hooks(tracer)
    undo: list[tuple] = []
    wrapped: dict[int, object] = {}
    for short in MODULES:
        mod = importlib.import_module(f"{package}.{short}")
        for attr, fn in _public_functions(mod):
            name = f"{short}.{attr}"
            wrapped[id(fn)] = tracer.wrap(fn, name, hooks.get(name))
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                name = f"{short}.{meth}"
                undo.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, tracer.wrap(cls.__dict__[meth], name,
                                               hooks.get(name)))
    # names imported into other modules (and re-exported by the package)
    namespaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == package
                                        or n.startswith(package + "."))]
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if id(value) in wrapped:
                undo.append((ns, attr, value))
                setattr(ns, attr, wrapped[id(value)])
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals.

    Children on worker threads may overlap one another; the union counts
    each instant once, clipped to the parent's own interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, start, end, _, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[span_id] = (end - start) - covered
    return out


def aggregate(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass totals: ``<module>.<function>.{calls,s,self_s}`` and, per
    module, ``calls``, ``s`` (time inside the module, entered from
    outside it), ``self_s`` and ``errors``; plus the shape counters."""
    spans = tracer.spans
    own = self_times(spans)
    module_of = {s[0]: s[1].split(".", 1)[0] for s in spans}
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0.0) + value

    for span_id, name, start, end, parent, _ in spans:
        module = module_of[span_id]
        add(f"{name}.calls", 1)
        add(f"{name}.s", end - start)
        add(f"{name}.self_s", own[span_id])
        add(f"{module}.calls", 1)
        add(f"{module}.self_s", own[span_id])
        if module_of.get(parent) != module:
            add(f"{module}.s", end - start)
    for module in MODULES:
        out[f"{module}.errors"] = tracer.errors.get(module, 0)
    for key, value in tracer.counters.items():
        add(key, value)
    return {k: v / passes for k, v in out.items()}


def write(tracer: Tracer, path: str, jobs: list[str]) -> None:
    """Write the spans, one JSON object per line, gzip-compressed."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for span_id, name, start, end, parent, job in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                 "end": end, "parent": parent,
                                 "job": job, "label": jobs[job % len(jobs)]
                                 if job >= 0 else None}) + "\n")
