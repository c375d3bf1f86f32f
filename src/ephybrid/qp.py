"""Strongly convex prox subproblems reduced to small dense QPs.

The per-iteration program ``argmin_{y in C} lam*f(v, y) + 0.5*|x - y|^2``
for a quadratic bifunction is a strictly convex QP

    min 0.5 y^T M y + <c, y>   over C,
    M = 2*lam*Q + I,  c = lam*(P v + q - Q v) - x,

whose objective differs from the prox objective only by a constant.
The QP is solved by a deterministic primal active-set method so that
traces are reproducible bit-for-bit across runs; lowest-index tie
breaking keeps it from cycling on degenerate corners, with a hard
iteration cap as a backstop.  The constraint rows of every set kind
come from its halfspaces and box (:func:`sets.halfspaces_and_box`).
Feasible starting points are the set's own projection for every kind
but the polyhedron; a polyhedron gets its box clip if that is feasible
and otherwise a phase-1 LP that minimizes total constraint violation
(this also detects empty user-supplied sets).

Within a run ``M`` and the feasible set's prepared rows stay the same
and, most of the time, so does the working set; only ``c`` changes.
So :class:`ProxSolver` keeps the factor of ``M``, the last face factor
and the last row-independence verdict, and drops the last two whenever
``M`` or the set changes.  A reused value is exactly what recomputing it
would give, so results are bitwise those of a solve from the same warm
start without any reuse.
"""

from __future__ import annotations

import bisect
import weakref
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatch,
    NotSPD,
    as_matrix,
    as_point,
    cholesky_spd,
    solve_with_factor,
)
from .problems import QuadraticBifunction
from .sets import (
    Box,
    ConvexSet,
    EmptyIntersection,
    InfeasibleSet,
    Polyhedron,
    halfspaces_and_box,
)

# The equality step on a face is an exact Newton step, so any residual
# step beyond this relative size is treated as roundoff noise; the final
# face re-solve restores full accuracy regardless.
STEP_TOL = 1e-9
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
    """Prox evaluator that warm-starts from the previous call.

    Warm starting reuses the last minimizer and its active set as the
    initial guess; the minimizer is unique, so this changes nothing
    mathematically.  The Hessian ``2*lam*Q + I`` is constant along a
    run, so its factor is cached as well, together with the factor of
    the last working set's face and the last row-independence verdict;
    those two are dropped when the factor or the feasible set changes.
    All three are single entries, so memory stays bounded.  One instance
    per sequential run; instances share no state and may be created
    freely.
    """

    def __init__(self):
        self._warm = None
        self._factor_key = None
        self._factor = None
        self._memo = _FaceMemo()

    def step(self, f: QuadraticBifunction, v, x, lam: float, feasible: ConvexSet) -> np.ndarray:
        inst = reduce_prox_to_qp(f, v, x, lam, feasible)
        key = inst.M.tobytes()
        if key != self._factor_key:
            self._factor = cholesky_spd(inst.M)
            self._factor_key = key
        y, working, _ = _active_set(inst, warm=self._warm, factor=self._factor, memo=self._memo)
        self._warm = (y, working)
        return y


def solve_qp_active_set(qp: QPInstance, warm=None) -> np.ndarray:
    """Unique minimizer of a strictly convex QP over the supported sets.

    ``warm`` may be a ``(point, working_set)`` pair from a previous
    solve of a related instance.  Raises :class:`InfeasibleSet` when
    the feasible set is empty and :class:`CyclingDetected` if the
    iteration cap ``3 * (n_constraints + dim)`` is exceeded.
    """
    y, _, _ = _active_set(qp, warm=warm)
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


def _prepared_rows(feasible: ConvexSet) -> tuple[np.ndarray, np.ndarray]:
    """Normalized, deduplicated constraint rows, cached per set object.

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
    _PREPARED_ROWS[feasible] = (A, b)
    return A, b


class _FaceMemo:
    """The last face factor and independence verdict of the active-set loop.

    Both depend only on the factor ``L`` of ``M`` and the prepared rows
    ``A``; :meth:`bind` drops them when either changes.  ``A`` is held
    by strong reference, so no other array can take over its identity
    while the memo lives.  One entry each: the working set rarely
    changes between consecutive solves, and an unbounded cache of faces
    would grow with the number of distinct working sets in a run.
    """

    def __init__(self):
        self._L = self._A = None
        self._face_key = self._face = None
        self._indep_key = self._indep = None

    def bind(self, L: np.ndarray, A: np.ndarray) -> None:
        if L is not self._L or A is not self._A:
            self._L, self._A = L, A
            self._face_key = self._face = None
            self._indep_key = self._indep = None

    def face(self, working) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(A_W, K = M^-1 A_W^T, chol(A_W K))``; raises :class:`NotSPD`."""
        key = tuple(working)
        if key != self._face_key:
            AW = self._A[working]
            K = solve_with_factor(self._L, AW.T)
            self._face = (AW, K, cholesky_spd(AW @ K))
            self._face_key = key
        return self._face

    def independent(self, candidates) -> list[int]:
        """:func:`_independent_subset` of ``candidates`` (a fresh list)."""
        key = tuple(candidates)
        if key != self._indep_key:
            self._indep = _independent_subset(self._A, key, self._A.shape[1])
            self._indep_key = key
        return list(self._indep)


def _active_set(
    qp: QPInstance, warm=None, factor=None, memo: _FaceMemo | None = None
) -> tuple[np.ndarray, tuple[int, ...], np.ndarray]:
    """Primal active-set iteration; returns (minimizer, working set, multipliers).

    ``memo`` carries the last face factor and independence verdict
    across calls; without one, a fresh memo still spares the final
    re-solve from refactoring the loop's last face.
    """
    M, c = qp.M, qp.c
    d = M.shape[0]
    L = cholesky_spd(M) if factor is None else factor

    def minv(v):
        return solve_with_factor(L, v)

    A, b = _prepared_rows(qp.feasible)
    m = A.shape[0]
    y = minv(-c)
    if m == 0:
        return y, (), np.zeros(0)
    if memo is None:
        memo = _FaceMemo()
    memo.bind(L, A)

    scale_b = 1.0 + float(np.abs(b).max())
    feas_tol = 1e-9 * scale_b

    start = None
    warm_working: tuple[int, ...] = ()
    if warm is not None:
        wy, ww = warm
        wy = np.asarray(wy, dtype=float)
        if wy.shape == (d,) and float(np.max(A @ wy - b)) <= feas_tol:
            start = wy.copy()
            warm_working = tuple(i for i in ww if 0 <= i < m)
    if start is None:
        if float(np.max(A @ y - b)) <= feas_tol:
            start = y  # unconstrained minimum is feasible
        else:
            start = _feasible_start(qp.feasible, A, b, hint=y, feas_tol=feas_tol)

    y = start
    act_tol = 1e-8 * scale_b
    resid = A @ y - b
    if warm_working:
        candidates = [i for i in warm_working if abs(resid[i]) <= act_tol]
    else:
        candidates = [i for i in range(m) if abs(resid[i]) <= act_tol]
    working = memo.independent(candidates)

    mu = np.zeros(0)
    cap = 3 * (m + d)
    for _ in range(cap):
        g = M @ y + c
        if working:
            try:
                AW, K, Lg = memo.face(working)
            except NotSPD:
                # Degenerate working set: keep a well-conditioned subset.
                pruned = memo.independent(working)
                working = pruned if len(pruned) < len(working) else working[:-1]
                continue
            ginv = minv(g)
            mu = solve_with_factor(Lg, -(AW @ ginv))
            p = -(ginv + K @ mu)
        else:
            mu = np.zeros(0)
            p = -minv(g)

        if float(np.abs(p).max()) <= STEP_TOL * (1.0 + float(np.abs(y).max())):
            if working and float(mu.min()) < -MULTIPLIER_TOL:
                # Bland-style: release the lowest-indexed constraint.
                drop = min(
                    working[i] for i in range(len(working)) if mu[i] < -MULTIPLIER_TOL
                )
                working.remove(drop)
                continue
            break

        # Longest feasible step along p; lowest-index blocking constraint.
        alpha = 1.0
        blocker = None
        in_working = set(working)
        Ap = A @ p
        resid = A @ y - b
        for i in range(m):
            if i in in_working or Ap[i] <= 1e-12:
                continue
            t = max(-resid[i] / Ap[i], 0.0)
            if t < alpha - 1e-12:
                alpha = t
                blocker = i
        y = y + alpha * p
        if blocker is not None:
            bisect.insort(working, blocker)
    else:
        raise CyclingDetected(f"active set did not settle within {cap} iterations")

    # Re-solve the equality-constrained problem on the final face to
    # remove drift accumulated over the steps.
    if working:
        try:
            AW, K, Lg = memo.face(working)
        except NotSPD:
            working = memo.independent(working)
            AW, K, Lg = memo.face(working)
        mu = solve_with_factor(Lg, -(AW @ minv(c)) - b[working])
        y = -minv(c + AW.T @ mu)
    else:
        y = minv(-c)

    multipliers = np.zeros(m)
    for idx, ci in enumerate(working):
        multipliers[ci] = mu[idx]
    return y, tuple(working), multipliers


def _independent_subset(A: np.ndarray, candidates, d: int) -> list[int]:
    """Greedy subset of candidate rows that stays safely full-rank."""
    candidates = list(candidates)
    if len(candidates) <= 1:
        return candidates
    chosen: list[int] = []
    for i in candidates:
        if len(chosen) >= d:
            break
        if not chosen or _rows_independent(A, chosen + [i]):
            chosen.append(i)
    return chosen


def _rows_independent(A: np.ndarray, rows: list[int]) -> bool:
    """Well-conditioned row independence (smallest/largest singular value).

    The 1e-5 threshold keeps the Gram matrix of the selected rows far
    enough from singular for its Cholesky pivots to clear the factor
    floor.
    """
    sub = A[rows]
    sv = np.linalg.svd(sub, compute_uv=False)
    return bool(sv[-1] > 1e-5 * max(1.0, sv[0]))


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


def _feasible_start(
    feasible: ConvexSet, A: np.ndarray, b: np.ndarray, hint: np.ndarray, feas_tol: float
) -> np.ndarray:
    """A feasible point: closed forms where available, phase-1 LP otherwise."""
    if not isinstance(feasible, Polyhedron):
        try:
            return feasible.project(hint)
        except EmptyIntersection as exc:
            raise InfeasibleSet(str(exc)) from exc
    if feasible.box is not None:
        clipped = feasible.box.project(hint)
        if float(np.max(A @ clipped - b)) <= feas_tol:
            return clipped
    return _phase1(A, b, feasible.box)


def _phase1(A: np.ndarray, b: np.ndarray, box: Box | None) -> np.ndarray:
    """Minimize total constraint violation; detect empty sets.

    LP in ``(y, s)``: min sum(s) subject to ``A y - s <= b`` and
    ``s >= 0``, with box bounds kept hard.  A strictly positive
    optimum means the described set is empty.
    """
    from scipy.optimize import linprog

    m, d = A.shape
    cost = np.concatenate([np.zeros(d), np.ones(m)])
    A_ub = np.hstack([A, -np.eye(m)])
    if box is not None:
        bounds = [
            (None if box.lo[i] == -np.inf else box.lo[i],
             None if box.hi[i] == np.inf else box.hi[i])
            for i in range(d)
        ]
    else:
        bounds = [(None, None)] * d
    bounds += [(0.0, None)] * m
    res = linprog(cost, A_ub=A_ub, b_ub=b, bounds=bounds, method="highs")
    scale = 1.0 + float(np.abs(b).max())
    if not res.success or res.fun > 1e-7 * scale:
        raise InfeasibleSet("phase-1 found no point satisfying all constraints")
    y = res.x[:d]
    if box is not None:
        y = box.project(y)
    if float(np.max(A @ y - b)) > 1e-7 * scale:
        raise InfeasibleSet("phase-1 result violates constraints beyond tolerance")
    return y
