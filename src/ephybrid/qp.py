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
same, so ``M``, its factor and the set's prepared rows do too; most of
the time so does the working set, and only ``c`` changes.  So
:class:`ProxSolver` builds and checks all of them once per run and
keeps the last face factor.  A reused value is exactly what recomputing
it would give, so results are bitwise those of a solve from the same
warm start without any reuse.
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
    does and builds the run's state: ``M = 2*lam*Q + I``, its factor and
    the set's prepared rows.  ``f`` and the set are compared by identity,
    which is sound because both are immutable, and ``lam`` by value.
    Every other step only computes ``c`` and checks that it is a finite
    vector of the right length.  Warm starting seeds the dual method with
    the last working set; the minimizer is unique, so this changes nothing
    mathematically.  The factor of the last working set's face is kept as
    well and dropped when the run's state changes.  Each is a single
    entry, so memory stays bounded.  One instance per sequential run;
    instances share no state and may be created freely.
    """

    def __init__(self):
        self._warm = None
        self._key = None
        self._run = None
        self._memo = _FaceMemo()

    def step(self, f: QuadraticBifunction, v, x, lam: float, feasible: ConvexSet) -> np.ndarray:
        key = self._key
        if key is None or key[0] is not f or key[1] != lam or key[2] is not feasible:
            inst = reduce_prox_to_qp(f, v, x, lam, feasible)
            self._run = (inst.M, cholesky_spd(inst.M), _prepared_rows(feasible))
            self._key = (f, lam, feasible)
            c = inst.c
        else:
            c = lam * (f.P @ v + f.q - f.Q @ v) - x
            if c.shape != (f.dim,):
                raise DimensionMismatch("prox arguments must match the bifunction dimension")
            if not all_finite(c):
                raise ValueError("prox arguments must be finite")
        M, factor, rows = self._run
        y, working, _ = _active_set(M, c, rows, warm=self._warm, factor=factor, memo=self._memo)
        self._warm = (y, working)
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
    y, _, _ = _active_set(qp.M, qp.c, _prepared_rows(qp.feasible), warm=warm)
    return y


def constraint_rows(feasible: ConvexSet) -> tuple[np.ndarray, np.ndarray]:
    """All defining inequalities ``A y <= b`` of a set, in a fixed order.

    Halfspaces come first, then finite lower bounds, then finite upper
    bounds (ascending coordinate).  Infinite box bounds contribute no
    rows; the whole space contributes none at all.
    """
    halves, box = halfspaces_and_box(feasible)
    d = feasible.dim
    rows = [h.a for h in halves]
    offs = [h.b for h in halves]
    if box is not None:
        for i in range(d):
            if box.lo[i] > -np.inf:
                e = np.zeros(d)
                e[i] = -1.0
                rows.append(e)
                offs.append(-box.lo[i])
        for i in range(d):
            if box.hi[i] < np.inf:
                e = np.zeros(d)
                e[i] = 1.0
                rows.append(e)
                offs.append(box.hi[i])
    if not rows:
        return np.zeros((0, d)), np.zeros(0)
    return np.vstack(rows), np.asarray(offs, dtype=float)


_PREPARED_ROWS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _prepared_rows(feasible: ConvexSet) -> tuple[np.ndarray, np.ndarray, float]:
    """Normalized, deduplicated rows ``(A, b)`` and the feasibility tolerance.

    Unit-length rows make violations geometric distances, so one
    tolerance scale serves constraints of wildly different norms.  Set
    descriptions are immutable, so caching on object identity is safe.
    Every set kind accepts weak references; any other object ends in a
    :class:`TypeError`, here or in :func:`constraint_rows`.
    """
    cached = _PREPARED_ROWS.get(feasible)
    if cached is not None:
        return cached
    A, b = constraint_rows(feasible)
    if A.shape[0]:
        norms = np.linalg.norm(A, axis=1)
        A = A / norms[:, None]
        b = b / norms
        A, b = _drop_redundant_parallel(A, b)
    rows = (A, b, 1e-9 * (1.0 + float(np.abs(b).max(initial=0.0))))
    _PREPARED_ROWS[feasible] = rows
    return rows


class _FaceMemo:
    """The last face factor of the active-set loop.

    It depends only on the factor ``L`` of ``M`` and the prepared rows
    ``A``; :meth:`bind` drops it when either changes.  ``A`` is held by
    strong reference, so no other array can take over its identity while
    the memo lives.  One entry: the working set rarely changes between
    consecutive solves, and an unbounded cache of faces would grow with
    the number of distinct working sets in a run.
    """

    def __init__(self):
        self._L = self._A = None
        self._face_key = self._face = None

    def bind(self, L: np.ndarray, A: np.ndarray) -> None:
        if L is not self._L or A is not self._A:
            self._L, self._A = L, A
            self._face_key = self._face = None

    def face(self, working) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(A_W, K = M^-1 A_W^T, chol(A_W K))``; raises :class:`NotSPD`."""
        key = tuple(working)
        if key != self._face_key:
            AW = self._A[working]
            K = solve_with_factor(self._L, AW.T)
            self._face = (AW, K, cholesky_spd(AW @ K))
            self._face_key = key
        return self._face


def _active_set(
    M: np.ndarray, c: np.ndarray, rows, warm=None, factor=None, memo: _FaceMemo | None = None
) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Dual active-set iteration; returns (minimizer, working set, multipliers).

    Goldfarb & Idnani, *A numerically stable dual method for solving
    strictly convex quadratic programs*, Math. Programming 27 (1983).
    Every iterate minimizes the objective on the face of its working set
    with nonnegative multipliers; the most violated row (lowest index on
    ties) is then added, dropping any working row whose multiplier would
    turn negative first.  A row that depends on the working set is never
    added, and when nothing can be dropped either the set is empty.
    ``rows`` is :func:`_prepared_rows` of the feasible set, and the
    inputs are trusted: callers check them.  ``warm`` seeds only the
    working set.  ``memo`` carries the last face factor across calls.
    """
    A, b, feas_tol = rows
    d = M.shape[0]
    L = cholesky_spd(M) if factor is None else factor

    def minv(v):
        return solve_with_factor(L, v)

    m = A.shape[0]
    if m == 0:
        return minv(-c), (), np.zeros(0)
    if memo is None:
        memo = _FaceMemo()
    memo.bind(L, A)
    minv_c = minv(c)

    def on_face(working):
        """Minimizer on the face of ``working`` and its multipliers."""
        if not working:
            return minv(-c), np.zeros(0)
        AW, K, Lg = memo.face(working)
        u = solve_with_factor(Lg, -(AW @ minv_c) - b[working])
        return -minv(c + AW.T @ u), u

    # Warm start: the previous working set, less the rows whose multiplier
    # on its face is negative (the face minimizer is then dual feasible).
    working = [] if warm is None else sorted(i for i in set(warm[1]) if 0 <= i < m)
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
            if s[p] <= feas_tol:
                break
        ap = A[p]
        minv_a = minv(ap)
        if working:
            AW, K, Lg = memo.face(working)
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

    multipliers = np.zeros(m)
    multipliers[working] = u
    return y, tuple(working), multipliers


def _drop_redundant_parallel(A: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Remove rows made redundant by a (nearly) parallel tighter row.

    Split cuts converge toward the same bisector as a run progresses,
    which would otherwise feed the active-set loop numerically
    dependent working sets.
    """
    m = A.shape[0]
    if m < 2:
        return A, b
    norms = np.linalg.norm(A, axis=1)
    keep = np.ones(m, dtype=bool)
    for i in range(m):
        if not keep[i] or norms[i] == 0.0:
            continue
        for j in range(i + 1, m):
            if not keep[j] or norms[j] == 0.0:
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
