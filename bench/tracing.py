"""Spans around calls into the poroplate layers, recorded from outside the package.

A `Tracer` replaces a module or class attribute with a wrapper that records one
span (name, parent, start, end, attrs) per call and restores the original on
`restore()`.  The program itself is not changed: every wrapper calls the
original object with the original arguments, except that a traced `pcg` gets
its operator and its Jacobi preconditioner passed through timing closures that
do the same arithmetic (`A @ x`, `(1 / diag) * r`).

Two patch sets exist.  The coarse set (a few dozen calls per workload pass) is
always installed: it splits wall time into set-up and solve and lets the
workloads capture the states they check.  The fine set adds `pcg`, the
per-step norm tables and peak-RSS marks; it is installed only in traced
passes, whose numbers feed the per-layer metrics and never the end-to-end ones.
"""

from __future__ import annotations

import resource
import time

import numpy as np

from poroplate import cell, geometry, micro, twoscale
from poroplate.fem import solvers

# span name -> end-to-end phase it is charged to
SETUP = {
    "geometry.build_cell_mesh", "geometry.build_micro_mesh", "geometry.build_plate_mesh",
    "cell.solve_correctors", "cell.compute_homogenized", "cell.PressureCellOperator",
    "cell.divergence_moments", "micro.assemble_micro", "twoscale.assemble_macro",
    "twoscale.MupSystem",
}
SOLVE = {"micro.run_transient", "twoscale.run_macro", "twoscale.solve_mup_direct"}
STEPS = {"micro.step_monolithic", "micro.step_schur", "twoscale.MacroSystem.step",
         "twoscale.MupSystem.step"}
PCG = {"fem.pcg", "micro.pcg"}

# (owner, attribute, span name); convergence_study imports the geometry, cell
# and micro functions at call time, so patching their home modules reaches it,
# while names twoscale binds at import are patched in twoscale as well.
_MacroSystem, _MupSystem = twoscale.MacroSystem, twoscale.MupSystem
COARSE = [
    (geometry, "build_cell_mesh", "geometry.build_cell_mesh"),
    (geometry, "build_micro_mesh", "geometry.build_micro_mesh"),
    (geometry, "build_plate_mesh", "geometry.build_plate_mesh"),
    (cell, "solve_correctors", "cell.solve_correctors"),
    (cell, "compute_homogenized", "cell.compute_homogenized"),
    (cell, "PressureCellOperator", "cell.PressureCellOperator"),
    (twoscale, "PressureCellOperator", "cell.PressureCellOperator"),
    (cell, "divergence_moments", "cell.divergence_moments"),
    (micro, "assemble_micro", "micro.assemble_micro"),
    (micro, "run_transient", "micro.run_transient"),
    (micro, "step_monolithic", "micro.step_monolithic"),
    (micro, "step_schur", "micro.step_schur"),
    (twoscale, "assemble_macro", "twoscale.assemble_macro"),
    (twoscale, "run_macro", "twoscale.run_macro"),
    (twoscale, "solve_mup_direct", "twoscale.solve_mup_direct"),
    (twoscale, "MupSystem", "twoscale.MupSystem"),
    (_MacroSystem, "step", "twoscale.MacroSystem.step"),
    (_MupSystem, "step", "twoscale.MupSystem.step"),
    (twoscale, "ResidualContext", "twoscale.ResidualContext"),
    (twoscale, "kirchhoff_love_residual", "twoscale.kirchhoff_love_residual"),
]
FINE = [
    (_MacroSystem, "norms", "twoscale.norms"),
    (_MupSystem, "norms", "twoscale.norms"),
]
# spans that carry ru_maxrss at their start and end (traced passes only)
RSS_MARKED = {"twoscale.assemble_macro", "twoscale.run_macro", "twoscale.solve_mup_direct"}


def maxrss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent, start):
        self.name, self.parent, self.start, self.end = name, parent, start, None
        self.attrs = {}

    @property
    def dur(self) -> float:
        return self.end - self.start

    def as_dict(self, idx: int) -> dict:
        return {"id": idx, "name": self.name, "parent": self.parent,
                "start": self.start, "end": self.end, **self.attrs}


class Tracer:
    """In-memory span recorder; `on_call[name](span, args, kwargs, result)` hooks
    let a workload keep what a call returned."""

    def __init__(self, traced: bool, on_call=None):
        self.traced = traced
        self.on_call = dict(on_call or {})
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo = []
        self.t0 = time.perf_counter()

    # -------------------------------------------------------------- patching

    def install(self):
        for owner, attr, name in COARSE + (FINE if self.traced else []):
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        if self.traced:
            self._patch(solvers, "pcg", self._wrap_pcg("fem.pcg", solvers.pcg))
            self._patch(micro, "pcg", self._wrap_pcg("micro.pcg", micro.pcg))
        return self

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _open(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, 0.0)
        if self.traced and name in RSS_MARKED:
            span.attrs["rss_start_mb"] = maxrss_mb()
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter() - self.t0
        return idx

    def _close(self, idx, ok: bool):
        span = self.spans[idx]
        span.end = time.perf_counter() - self.t0
        self._stack.pop()
        span.attrs["ok"] = ok
        if self.traced and span.name in RSS_MARKED:
            span.attrs["rss_end_mb"] = maxrss_mb()
        return span

    def _wrap(self, name, fn):
        hook = self.on_call.get(name)

        def wrapper(*args, **kwargs):
            idx = self._open(name)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                span = self._close(idx, ok)
            if hook is not None:
                hook(span, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_pcg(self, name, fn):
        """pcg with timed operator and preconditioner applications."""

        def wrapper(A, b, **kwargs):
            acc = {"op_n": 0, "op_s": 0.0, "prec_n": 0, "prec_s": 0.0}
            apply_A = A if callable(A) else (lambda x: A @ x)

            def timed_A(x):
                t = time.perf_counter()
                y = apply_A(x)
                acc["op_s"] += time.perf_counter() - t
                acc["op_n"] += 1
                return y

            diag = kwargs.pop("diag", None)
            if diag is not None:
                dinv = 1.0 / np.where(np.abs(diag) > 0.0, diag, 1.0)
                apply_M = lambda r: dinv * r  # pcg's own Jacobi step
            else:
                apply_M = kwargs.pop("precond", None)
            if apply_M is not None:
                def timed_M(r):
                    t = time.perf_counter()
                    z = apply_M(r)
                    acc["prec_s"] += time.perf_counter() - t
                    acc["prec_n"] += 1
                    return z
                kwargs["precond"] = timed_M
            idx = self._open(name)
            ok = False
            try:
                result = fn(timed_A, b, **kwargs)
                ok = True
            finally:
                span = self._close(idx, ok)
                span.attrs.update(acc, n=len(b))
            span.attrs["iters"] = iterations(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def iterations(result) -> int:
    """CG iteration count from pcg's return value: (x, residual_history) or a
    stats record carrying `iterations`."""
    stats = result[1] if isinstance(result, tuple) else result
    for attr in ("iterations", "iters"):
        if hasattr(stats, attr):
            return int(getattr(stats, attr))
    return len(stats) - 1


# ---------------------------------------------------------------- span queries


def ancestors(spans, span):
    while span.parent is not None:
        span = spans[span.parent]
        yield span


def outermost(spans, names):
    """Spans in `names` that have no ancestor in `names`."""
    return [s for s in spans
            if s.name in names and not any(a.name in names for a in ancestors(spans, s))]


def phase_times(spans):
    """(setup_s, solve_s): set-up calls, and trajectory calls minus the set-up
    nested inside them (solve_mup_direct builds its MupSystem)."""
    setup = outermost(spans, SETUP)
    solve = outermost(spans, SOLVE)
    nested = sum(s.dur for s in setup if any(a.name in SOLVE for a in ancestors(spans, s)))
    return sum(s.dur for s in setup), sum(s.dur for s in solve) - nested


def self_times(spans):
    """Per span: duration minus the part covered by its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.dur
    return [s.dur - c for s, c in zip(spans, child)]


def within(spans, span, names):
    """Outermost descendants of `span` whose name is in `names`."""
    out = []
    for s in spans:
        if s.name in names and s is not span:
            chain = list(ancestors(spans, s))
            if span in chain and not any(a.name in names for a in chain[:chain.index(span)]):
                out.append(s)
    return out


def summary(spans) -> dict:
    """Per span name: calls, total time, self time."""
    out = {}
    for s, own in zip(spans, self_times(spans)):
        row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s.dur
        row["self_s"] += own
    return out
