"""Outside-in tracing of the package's layers.

The tracer replaces, for the duration of a traced pass, the names that each
calling module resolves at call time with wrappers that record one span per
call: span name, start, end and the enclosing span.  Nothing inside the
package changes.  A target that no longer resolves (renamed or deleted by a
later refactor) is listed as absent and its metrics read zero.

Self time of a span is its duration minus the durations of its direct child
spans; the calls are serial, so children never overlap.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

# Span name -> "module:attribute.path" names to wrap.  Module functions are
# wrapped where the caller looks them up: qp calls ``cholesky_spd`` and
# ``solve_with_factor`` through its own globals, ``np.linalg.svd`` and (lazily)
# ``scipy.optimize.linprog`` through the module attribute.
TARGETS = {
    "experiments.run_grid": ("ephybrid.experiments:run_grid",),
    "hybrid.iterate": ("ephybrid.hybrid:hybrid_iterate",),
    "hybrid.cuts": (
        "ephybrid.hybrid:contraction_slack",
        "ephybrid.hybrid:build_contraction_cut",
        "ephybrid.hybrid:build_anchor_cut",
    ),
    "sets.cutproj_closed": ("ephybrid.hybrid:project_two_halfspaces",),
    "sets.cutproj_qp": ("ephybrid.sets:Polyhedron.project",),
    "problems.mapping": ("ephybrid.problems:AveragedProjections.__call__",),
    "qp.prox": ("ephybrid.qp:ProxSolver.step",),
    "qp.phase1": ("scipy.optimize:linprog",),
    "qp.indep": ("numpy.linalg:svd",),
    "linalg.chol": ("ephybrid.qp:cholesky_spd",),
    "linalg.trisolve": ("ephybrid.qp:solve_with_factor",),
    "reporting.summary": ("ephybrid.reporting:emit_reports",),
    "reporting.trace_csv": ("ephybrid.reporting:trace_to_csv",),
    "reporting.run_json": ("ephybrid.reporting:write_report_json",),
}
STALL_SPAN = "hybrid.iterate"

_MISSING = object()


class Tracer:
    """Span recorder; ``install`` wraps every target, ``uninstall`` restores them."""

    def __init__(self):
        self.span_names = list(TARGETS)
        self.absent: list[str] = []
        self.stalls = 0
        self.stall_unknown = False
        self._name = []
        self._parent = []
        self._start = []
        self._end = []
        self._stack = [-1]
        self._restore = []

    def install(self) -> None:
        self.absent = []
        for span_id, span in enumerate(self.span_names):
            observe = self._count_stall if span == STALL_SPAN else None
            for target in TARGETS[span]:
                resolved = _resolve(target)
                if resolved is None:
                    self.absent.append(target)
                    continue
                owner, attr, original = resolved
                fn = getattr(owner, attr)
                setattr(owner, attr, self._wrap(fn, span_id, observe))
                self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def _wrap(self, fn, span_id: int, observe):
        names, parents, starts, ends, stack = (
            self._name, self._parent, self._start, self._end, self._stack,
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(span_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_stall(self, args, result) -> None:
        """An iteration stalls when the new iterate equals the current one."""
        try:
            if np.array_equal(result[0].x_cur, args[0].x_cur):
                self.stalls += 1
        except (AttributeError, IndexError, TypeError):
            self.stall_unknown = True

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, ``total_s`` and ``self_s``."""
        k = len(self.span_names)
        name = np.asarray(self._name, dtype=np.int64)
        parent = np.asarray(self._parent, dtype=np.int64)
        dur = np.asarray(self._end) - np.asarray(self._start)
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        own = np.bincount(name, weights=dur - child, minlength=k)
        return {
            span: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i, span in enumerate(self.span_names)
        }

    def dump(self, path) -> None:
        """Write every span (name, start, end, parent) as a compressed ``.npz``."""
        np.savez_compressed(
            path,
            span_names=np.asarray(self.span_names),
            name=np.asarray(self._name, dtype=np.int32),
            parent=np.asarray(self._parent, dtype=np.int64),
            start=np.asarray(self._start),
            end=np.asarray(self._end),
        )


def _resolve(target: str):
    """``(owner, attribute, original)`` for a wrap target, or None if it is gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr, vars(owner).get(attr, _MISSING)
