"""Strongly convex prox subproblems reduced to small dense QPs.

The per-iteration program ``argmin_{y in C} lam*f(v, y) + 0.5*|x - y|^2``
for a quadratic bifunction is a strictly convex QP

    min 0.5 y^T M y + <c, y>   over C,
    M = 2*lam*Q + I,  c = lam*(P v + q - Q v) - x,

whose objective differs from the prox objective only by a constant.
The QP is solved by a deterministic dual active-set method (Goldfarb
and Idnani) so that traces are reproducible bit-for-bit across runs.  It
starts from the minimizer on a working set's face, which need not be
feasible, and adds violated rows one at a time, so it needs no feasible
starting point and reports an empty set on its own.  Lowest-index tie
breaking keeps it from cycling on degenerate corners, with a hard
iteration cap as a backstop.  The constraint rows of every set kind
come from its halfspaces and box (:func:`sets.halfspaces_and_box`).

Within a run the bifunction, ``lam`` and the feasible set stay the
same, so the factor of ``M`` and the set's prepared rows do too; most
of the time so does the working set, and only ``c`` changes.  So
:class:`ProxSolver` keeps one :class:`_DualQP` per run, which keeps its
last face factor.  A reused value is exactly what recomputing it would
give, so results are bitwise those of a solve without any reuse.
:func:`project_polyhedral` is the one identity-metric projection.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatch,
    NotSPD,
    all_finite,
    as_matrix,
    as_point,
    cholesky_spd,
    solve_with_factor,
)
from .problems import QuadraticBifunction
from .sets import ConvexSet, InfeasibleSet, halfspaces_and_box

MULTIPLIER_TOL = 1e-10


class NonPositiveLambda(ValueError):
    """Prox step size must be strictly positive."""


class CyclingDetected(RuntimeError):
    """Active-set iteration cap exceeded."""


@dataclass(frozen=True, eq=False)
class QPInstance:
    """``min 0.5 y^T M y + <c, y>`` over a convex set; ``M`` must be SPD."""

    M: np.ndarray
    c: np.ndarray
    feasible: ConvexSet

    def __post_init__(self):
        if not isinstance(self.feasible, ConvexSet):
            raise TypeError(f"unsupported feasible set: {type(self.feasible).__name__}")
        M = as_matrix(self.M)
        c = as_point(self.c)
        n = M.shape[0]
        if M.shape != (n, n) or c.shape != (n,) or self.feasible.dim != n:
            raise DimensionMismatch("QP instance shapes are inconsistent")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "c", c)


def reduce_prox_to_qp(f: QuadraticBifunction, v, x, lam: float, feasible: ConvexSet) -> QPInstance:
    """Rewrite the prox subproblem at anchor ``x`` and base point ``v`` as a QP.

    With ``Q`` positive semidefinite and ``lam > 0`` the Hessian
    ``M = 2*lam*Q + I`` is SPD, so the QP has a unique minimizer equal
    to the prox minimizer.
    """
    if not lam > 0.0:
        raise NonPositiveLambda(f"lam must be > 0, got {lam}")
    pv = as_point(v)
    px = as_point(x)
    if pv.shape[0] != f.dim or px.shape[0] != f.dim or feasible.dim != f.dim:
        raise DimensionMismatch("prox arguments must match the bifunction dimension")
    M = 2.0 * lam * f.Q + np.eye(f.dim)
    c = lam * (f.P @ pv + f.q - f.Q @ pv) - px
    return QPInstance(M, c, feasible)


def prox_step(f: QuadraticBifunction, v, x, lam: float, feasible: ConvexSet) -> np.ndarray:
    """One-shot prox evaluation (no warm start)."""
    return solve_qp_active_set(reduce_prox_to_qp(f, v, x, lam, feasible))


class ProxSolver:
    """Prox evaluator with per-run state that warm-starts from the previous call.

    The first step, and every step where the triple ``(f, lam,
    feasible)`` changes, checks all arguments as :func:`reduce_prox_to_qp`
    does and builds the run's :class:`_DualQP` from the factor of
    ``M = 2*lam*Q + I`` and the set's prepared rows.  ``f`` and the set
    are compared by identity, which is sound because both are immutable,
    and ``lam`` by value.  Every other step checks the shapes of ``v`` and
    ``x``, the finiteness of ``v`` and then of ``c``, and rejects what the
    first step rejects.  Warm starting seeds the dual method with the
    last working set; the minimizer is unique, so this changes nothing
    mathematically.  One instance per sequential run; instances share no
    state and may be created freely.
    """

    def __init__(self):
        self._key = None
        self._qp = None
        self._working = ()

    def step(self, f: QuadraticBifunction, v, x, lam: float, feasible: ConvexSet) -> np.ndarray:
        key = self._key
        if key is None or key[0] is not f or key[1] != lam or key[2] is not feasible:
            inst = reduce_prox_to_qp(f, v, x, lam, feasible)
            self._qp = _DualQP(cholesky_spd(inst.M), _prepared_rows(feasible))
            self._key = (f, lam, feasible)
            c = inst.c
        else:
            v = np.asarray(v, dtype=float)
            x = np.asarray(x, dtype=float)
            if v.shape != (f.dim,) or x.shape != (f.dim,):
                raise DimensionMismatch("prox arguments must match the bifunction dimension")
            # ``v`` is checked before the products, where an inf entry
            # would warn (inf * 0); ``x`` only enters ``c`` by subtraction.
            if not all_finite(v):
                raise ValueError("prox arguments must be finite")
            c = lam * (f.P @ v + f.q - f.Q @ v) - x
            if not all_finite(c):
                raise ValueError("prox arguments must be finite")
        y, self._working = self._qp.solve(c, self._working)
        return y


def solve_qp_active_set(qp: QPInstance, warm=None) -> np.ndarray:
    """Unique minimizer of a strictly convex QP over the supported sets.

    Solved by the dual active-set method.  ``warm`` may be a
    ``(point, working_set)`` pair from a previous solve of a related
    instance; only its working set seeds the method.  Raises
    :class:`InfeasibleSet` when the feasible set is empty and
    :class:`CyclingDetected` if the iteration cap
    ``3 * (n_constraints + dim)`` is exceeded.
    """
    dual = _DualQP(cholesky_spd(qp.M), _prepared_rows(qp.feasible))
    return dual.solve(qp.c, () if warm is None else warm[1])[0]


def project_polyhedral(x0: np.ndarray, cuts, feasible: ConvexSet | None) -> np.ndarray:
    """Nearest point to ``x0`` in the intersection of the halfspaces ``cuts`` and ``feasible``.

    :meth:`sets.Polyhedron.project` passes no cuts; the hybrid solver's
    cut projection passes its cuts and the feasible set, or ``None``.  The
    unit cut rows go on top of the set's cached rows before deduplication,
    so the result is bitwise that of the polyhedron of the cuts, the set's
    halfspaces and its box.  ``M = I`` is its own Cholesky factor, exactly
    as :func:`cholesky_spd` returns it.  ``x0`` is trusted.  Raises
    :class:`InfeasibleSet` when the intersection is empty.
    """
    rows = None if feasible is None else _prepared_rows(feasible)
    if cuts:
        rows = _unit_rows(np.array([h.a for h in cuts]), np.array([h.b for h in cuts]), rows)
    return _DualQP(np.eye(x0.shape[0]), rows).solve(-x0)[0]


def constraint_rows(feasible: ConvexSet) -> tuple[np.ndarray, np.ndarray]:
    """All defining inequalities ``A y <= b`` of a set, in a fixed order.

    Halfspaces come first, then finite lower bounds, then finite upper
    bounds (ascending coordinate).  Infinite box bounds contribute no
    rows; the whole space contributes none at all.  Box rows are unit
    vectors with ``+0.0`` off the bound's coordinate.
    """
    halves, box = halfspaces_and_box(feasible)
    d = feasible.dim
    A = np.array([h.a for h in halves]).reshape(-1, d)
    b = np.array([h.b for h in halves], dtype=float)
    if box is not None:
        low = box.lo > -np.inf
        high = box.hi < np.inf
        eye = np.eye(d)
        # ``0.0 - e`` keeps the zeros positive, where ``-e`` would flip them.
        A = np.vstack([A, 0.0 - eye[low], eye[high]])
        b = np.concatenate([b, -box.lo[low], box.hi[high]])
    return A, b


_PREPARED_ROWS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _prepared_rows(feasible: ConvexSet) -> tuple[np.ndarray, np.ndarray, float]:
    """:func:`_unit_rows` of the set's :func:`constraint_rows`, cached per set.

    Set descriptions are immutable, so caching on object identity is safe.
    Every set kind accepts weak references; any other object ends in a
    :class:`TypeError`, here or in :func:`constraint_rows`.
    """
    cached = _PREPARED_ROWS.get(feasible)
    if cached is None:
        cached = _PREPARED_ROWS[feasible] = _unit_rows(*constraint_rows(feasible))
    return cached


def _unit_rows(A: np.ndarray, b: np.ndarray, below=None) -> tuple[np.ndarray, np.ndarray, float]:
    """Rows ``A y <= b`` at unit length, deduplicated, and their feasibility tolerance.

    Unit-length rows make violations geometric distances, so one
    tolerance scale serves constraints of wildly different norms.
    ``below`` is a prepared triple of rows to stack under these before
    the deduplication.
    """
    norms = np.linalg.norm(A, axis=1)
    A = A / norms[:, None]
    b = b / norms
    if below is not None:
        A = np.vstack([A, below[0]])
        b = np.concatenate([b, below[1]])
    A, b = _drop_redundant_parallel(A, b)
    return A, b, 1e-9 * (1.0 + float(np.abs(b).max(initial=0.0)))


class _DualQP:
    """Dual active-set solver for ``min 0.5 y^T M y + <c, y>`` under fixed rows.

    Goldfarb & Idnani, *A numerically stable dual method for solving
    strictly convex quadratic programs*, Math. Programming 27 (1983).
    ``L`` is the Cholesky factor of ``M`` and ``rows`` a prepared
    ``(A, b, feas_tol)`` triple (:func:`_unit_rows`).  Both are fixed for
    the object's life, so the one kept face factor (the working set
    rarely changes between solves) never goes stale.
    """

    def __init__(self, L: np.ndarray, rows):
        self.L = L
        self.A, self.b, self.feas_tol = rows
        self._face_key = self._face = None

    def face(self, working) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(A_W, K = M^-1 A_W^T, chol(A_W K))``; raises :class:`NotSPD`."""
        key = tuple(working)
        if key != self._face_key:
            AW = self.A[working]
            K = solve_with_factor(self.L, AW.T)
            self._face = (AW, K, cholesky_spd(AW @ K))
            self._face_key = key
        return self._face

    def solve(self, c: np.ndarray, working=()) -> tuple[np.ndarray, tuple[int, ...]]:
        """Minimizer for the linear term ``c`` and its final working set.

        Every iterate minimizes the objective on the face of its working
        set with nonnegative multipliers; the most violated row (lowest
        index on ties) is then added, dropping any working row whose
        multiplier would turn negative first.  A row that depends on the
        working set is never added, and when nothing can be dropped either
        the set is empty.  ``working`` seeds the method (row indices out of
        range are ignored).  ``c`` is trusted: callers check it.
        """
        A, b, L = self.A, self.b, self.L
        d = L.shape[0]

        def minv(v):
            return solve_with_factor(L, v)

        m = A.shape[0]
        if m == 0:
            return minv(-c), ()
        minv_c = minv(c)

        def on_face(working):
            """Minimizer on the face of ``working`` and its multipliers."""
            if not working:
                return minv(-c), np.zeros(0)
            AW, K, Lg = self.face(working)
            u = solve_with_factor(Lg, -(AW @ minv_c) - b[working])
            return -minv(c + AW.T @ u), u

        # Warm start: the given working set, less the rows whose multiplier
        # on its face is negative (the face minimizer is then dual feasible).
        working = sorted(i for i in set(working) if 0 <= i < m)
        while True:
            try:
                y, u = on_face(working)
            except NotSPD:
                working.pop()
                continue
            keep = u >= -MULTIPLIER_TOL
            if keep.all():
                break
            working = [i for i, k in zip(working, keep) if k]

        cap = 3 * (m + d)
        p = None
        for _ in range(cap):
            if p is None:
                s = A @ y - b
                p = int(np.argmax(s))
                if s[p] <= self.feas_tol:
                    break
            ap = A[p]
            minv_a = minv(ap)
            if working:
                AW, K, Lg = self.face(working)
                r = solve_with_factor(Lg, AW @ minv_a)
                z = K @ r - minv_a
            else:
                r = np.zeros(0)
                z = -minv_a
            # Full step: the multiplier of p that makes its row tight.  Zero
            # curvature (or a singular new face) means ap depends on the rows
            # of the working set and can only enter by replacing one of them.
            curvature = -float(ap @ z)
            full = np.inf
            if curvature > 1e-12 * float(ap @ minv_a):
                full = (float(ap @ y) - b[p]) / curvature
            # Partial step: the first working multiplier to reach zero.
            partial, block = np.inf, None
            for k in np.flatnonzero(r > 0.0):
                t = max(float(u[k]), 0.0) / r[k]
                if t < partial:
                    partial, block = t, int(k)
            if full != np.inf and full <= partial:
                grown = sorted(working + [p])
                try:
                    y, u = on_face(grown)
                except NotSPD:
                    pass
                else:
                    working, p = grown, None
                    continue
            if block is None:
                raise InfeasibleSet("no point satisfies all constraints")
            y = y + partial * z
            u = np.delete(u - partial * r, block)
            del working[block]
        else:
            raise CyclingDetected(f"active set did not settle within {cap} iterations")
        return y, tuple(working)


def _drop_redundant_parallel(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove rows made redundant by a (nearly) parallel tighter row.

    Split cuts converge toward the same bisector as a run progresses,
    which would otherwise feed the active-set loop numerically
    dependent working sets.
    """
    m = A.shape[0]
    norms = np.linalg.norm(A, axis=1)
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if not keep[i]:
            continue
        for j in range(i + 1, m):
            if not keep[j]:
                continue
            cos = float(A[i] @ A[j]) / (norms[i] * norms[j])
            if cos >= 1.0 - 1e-12:
                # Same direction: keep whichever offset is tighter.
                if b[j] / norms[j] >= b[i] / norms[i]:
                    keep[j] = False
                else:
                    keep[i] = False
                    break
    if bool(keep.all()):
        return A, b
    return A[keep], b[keep]
