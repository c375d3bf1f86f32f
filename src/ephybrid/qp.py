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
iteration cap as a backstop.  A set states its own constraint rows
and prepares them once (:meth:`sets.ConvexSet.prepared_rows`); this
module only reads them.

Within a run the bifunction, ``lam`` and the feasible set stay the
same, so the factor of ``M`` and the set's prepared rows do too; most
of the time so does the working set, and only ``c`` changes.  So a
:class:`ProxSolver` is built from a run's ``(f, lam, feasible)`` with one
:class:`_DualQP`.  It forms the dual coordinates ``K = M^-1 A^T`` and
their Gram matrix ``G = A K`` once.  A working set ``W`` is gathered
once into one face entry ``(idx, Lg, K_W)``: its row indices, the factor
of ``G[W, W]`` and the columns ``K[:, W]``; every active-set step reads
from it, and the last entry is kept.  An entry is a pure function of its
working set, so a kept one is bit for bit a fresh one; repeated runs are
byte-identical.

:class:`CutProjector` is the one identity-metric projection.  The hybrid
solver builds one per run on the set the cuts are cut from: its rows
stay, only the few cut rows are new each iteration, so only they are
scaled to unit length, and the last two distinct working sets, labelled
by where each row came from, seed the next call.  No row is dropped
before the solve: a duplicate or nearly parallel row is one the dual
method's curvature test never adds.  :meth:`sets.Polyhedron.project` is a cold
call of a fresh one.  :func:`solve_qp_active_set` is the entry for a QP
with any SPD ``M``.
"""

from __future__ import annotations

import numpy as np

from .linalg import (
    PIVOT_TOL,
    DimensionMismatch,
    NonFiniteIterate,
    NotSPD,
    all_finite,
    as_point,
    cholesky_spd,
    gram_factor,
    solve_with_factor,
    triangular_solve,
)
from .problems import QuadraticBifunction
from .sets import ConvexSet, InfeasibleSet, _unit_rows, checked_set

MULTIPLIER_TOL = 1e-10


class NonPositiveLambda(ValueError):
    """Prox step size must be strictly positive."""


class CyclingDetected(RuntimeError):
    """Active-set iteration cap exceeded."""


def prox_step(f: QuadraticBifunction, v, x, lam: float, feasible: ConvexSet) -> np.ndarray:
    """One-shot prox evaluation (no warm start)."""
    return ProxSolver(f, lam, feasible).step(v, x)


def _prox_linear_term(f: QuadraticBifunction, v, x, lam: float) -> np.ndarray:
    """``c = lam*(P v + q - Q v) - x``.

    ``v`` is checked before the products, where an inf entry would warn
    (inf * 0); ``x`` only enters ``c`` by subtraction.  A non-finite ``c``
    from a non-finite ``x`` raises ``ValueError``; from finite ``v`` and
    ``x``, an overflow, it raises :class:`linalg.NonFiniteIterate`.
    """
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    if v.shape != (f.dim,) or x.shape != (f.dim,):
        raise DimensionMismatch("prox arguments must match the bifunction dimension")
    if not all_finite(v):
        raise ValueError("prox arguments must be finite")
    c = lam * (f.P.dot(v) + f.q - f.Q.dot(v)) - x
    if not all_finite(c):
        if not all_finite(x):
            raise ValueError("prox arguments must be finite")
        raise NonFiniteIterate("the prox linear term overflowed: it has non-finite entries")
    return c


class ProxSolver:
    """Prox evaluator for one run's ``(f, lam, feasible)``, warm-started from its previous step.

    The constructor checks ``lam`` (before ``2*lam*Q``, where inf would
    warn), then the set, then its dimension, and builds the run's
    :class:`_DualQP` from the factor of ``M = 2*lam*Q + I`` and the set's
    prepared rows.  Each step checks ``v`` and ``x`` and computes ``c``.
    Warm starting seeds the dual method with the last
    working set; the minimizer is unique, so this changes nothing
    mathematically, and the seed moves only roundoff.  The kept face
    factor is the one a fresh factorization gives, bit for bit; the same
    sequence of steps gives the same bits every time.  One instance per
    sequential run; instances share no state and may be created freely.
    """

    def __init__(self, f: QuadraticBifunction, lam: float, feasible: ConvexSet):
        if not 0.0 < lam < np.inf:
            raise NonPositiveLambda(f"lam must be finite and > 0, got {lam}")
        rows = checked_set(feasible, f.dim).prepared_rows()
        self.f, self.lam = f, lam
        self._qp = _DualQP(cholesky_spd(2.0 * lam * f.Q + np.eye(f.dim)), rows)
        self._working = ()

    def step(self, v, x) -> np.ndarray:
        """``argmin_{y in C} lam*f(v, y) + 0.5*|x - y|^2``."""
        y, self._working = self._qp.solve(_prox_linear_term(self.f, v, x, self.lam), self._working)
        return y


def solve_qp_active_set(M, c, feasible: ConvexSet, working=()) -> np.ndarray:
    """Unique minimizer of ``0.5 y^T M y + <c, y>`` over ``feasible`` for SPD ``M``.

    Solved by the dual active-set method.  ``working`` seeds it with
    indices into the set's :meth:`sets.ConvexSet.rows`, which its prepared
    rows keep row for row (repeats and indices out of range are dropped
    here, since the dual QP trusts its seed); the minimizer is the same
    from any seed.
    ``M`` is checked by :func:`linalg.cholesky_spd`, ``c`` and the set
    against its order.  Raises :class:`InfeasibleSet` when the
    feasible set is empty and :class:`CyclingDetected` if the iteration
    cap ``3 * (n_constraints + dim)`` is exceeded.
    """
    L = cholesky_spd(M)
    c = as_point(c, L.shape[0])
    rows = checked_set(feasible, L.shape[0]).prepared_rows()
    m = rows[0].shape[0]
    return _DualQP(L, rows).solve(c, [i for i in dict.fromkeys(working) if 0 <= i < m])[0]


class CutProjector:
    """Identity-metric cut projection within one set, warm-started from the previous calls.

    The hybrid solver's cut rows are new every iteration, but the rows of
    ``feasible``, the set the cuts are cut from (the whole space has none),
    are not, and the working set seldom changes much.  So the projector
    puts the set's prepared rows, when it is built, at the bottom of a
    stack that has room for the cut rows above them; each call writes the
    cut rows into that room, directly over the set's rows, and scales
    only them to unit length (:func:`sets._unit_rows`).
    It keeps the last two distinct final working sets, each row labelled
    by its origin: a cut by its slot in the list of cuts (a ``None`` slot
    adds no row but keeps its place), the set's prepared row ``i`` by
    ``-1 - i``.  ``set_row_count`` is the number of the set's rows.  The
    labels are mapped onto the stacked rows, skipping those whose row is
    absent from the call (its cut slot is ``None`` or missing), and the
    last working set seeds the dual method.  Both kept sets are also its
    candidate faces (:meth:`_DualQP.solve`): the last first, or the one
    before it first when the previous call changed face, since faces
    often alternate (the anchor cut's row and box rows taking turns); a
    set one of whose rows is absent is no candidate.  For ``M = I`` the
    dual coordinates are the stacked rows themselves.  The minimizer is unique, so the seeds move only roundoff;
    a fresh projector's call is cold and is :meth:`sets.Polyhedron.project`'s.
    The same sequence of calls gives the same bits every time.  One
    instance per sequential run.
    """

    def __init__(self, feasible: ConvexSet):
        self._set_rows = checked_set(feasible).prepared_rows()
        self.set_row_count = self._set_rows[0].shape[0]
        self._set_labels = list(range(-1, -1 - self.set_row_count, -1))
        self._working = ()
        self._older = None
        self._changed = False
        self._grow(3, feasible.dim)

    def _grow(self, room: int, d: int):
        """A new stack: room for ``room`` cut rows of dimension ``d`` above the set's rows."""
        self._A = np.empty((room + self.set_row_count, d))
        self._b = np.empty(room + self.set_row_count)
        self._A[room:], self._b[room:] = self._set_rows[:2]

    def project(self, x0: np.ndarray, cuts) -> np.ndarray:
        """Nearest point to ``x0`` in the intersection of ``cuts`` and the projector's set.

        ``cuts`` are rows ``(a, b)`` of ``<a, z> <= b``, or ``None`` for a cut
        that is the whole space; ``x0`` is trusted.  With no row at all the
        dual method returns ``x0``'s bits in a new array.  Raises
        :class:`InfeasibleSet` when the intersection is empty.
        """
        slots = [s for s, row in enumerate(cuts) if row is not None]
        if slots:
            rows, labels = self._stack(cuts, slots)
        else:
            rows, labels = self._set_rows, self._set_labels
        where = {label: i for i, label in enumerate(labels)}
        warm = [where[label] for label in self._working if label in where]
        candidates = ()
        if self._older is not None:
            faces = (self._older, self._working) if self._changed else (self._working, self._older)
            candidates = [
                [where[label] for label in face] for face in faces if all(label in where for label in face)
            ]
        y, working = _DualQP(None, rows).solve(-x0, warm, candidates)
        final = tuple(labels[i] for i in working)
        self._changed = final != self._working
        if self._changed:
            self._older, self._working = self._working, final
        return y

    def _stack(self, cuts, slots):
        """The prepared rows of the cuts in ``slots`` over the set's rows, and their labels.

        The cut rows are written into the stack right above the set's
        rows, so the two are one array without a copy.
        """
        new = len(slots)
        room = self._A.shape[0] - self.set_row_count
        if room < new:
            self._grow(new, self._A.shape[1])
            room = new
        A, b = self._A[room - new :], self._b[room - new :]
        for i, s in enumerate(slots):
            A[i], b[i] = cuts[s]
        return _unit_rows(A, b, new), slots + self._set_labels


class _DualQP:
    """Dual active-set solver for ``min 0.5 y^T M y + <c, y>`` under fixed rows.

    Goldfarb & Idnani, *A numerically stable dual method for solving
    strictly convex quadratic programs*, Math. Programming 27 (1983).
    ``L`` is the Cholesky factor of ``M``, or ``None`` for ``M = I``.
    ``rows`` is a prepared ``(A, b, feas_tol)`` triple (:func:`sets._unit_rows`).
    Both are fixed for the object's life, so the dual coordinates are
    formed once: ``K = M^-1 A^T`` (``A^T`` itself for ``M = I``) and the
    Gram matrix ``G = A K``.  The face entry of a working set ``W`` is
    ``(idx, Lg, K_W)``: ``idx`` the rows of ``W`` as an index array,
    ``Lg`` :func:`linalg.gram_factor` of ``G[W, W]`` and ``K_W = K[:, W]``.
    It is a pure function of ``W``, gathered once per face, and the last
    one is kept, since the working set rarely changes between solves.
    ``K_W`` keeps ``K``'s Fortran order: a C-ordered copy holds the same
    numbers, but BLAS rounds ``K_W.dot(u)`` differently on it.  The
    solve's products are ``ndarray.dot``, the BLAS calls ``@`` makes
    without matmul's dispatch, bit for bit (``tests/test_linalg.py``).
    """

    def __init__(self, L: np.ndarray | None, rows):
        self.L = L
        self.A, self.b, self.feas_tol = rows
        self.K = self.A.T if L is None else solve_with_factor(L, self.A.T)
        self.G = self.A @ self.K
        self._face_key = self._face = None

    def face(self, working) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The face entry ``(idx, Lg, K_W)`` of ``W = working``; raises :class:`NotSPD`."""
        key = tuple(working)
        if key != self._face_key:
            idx = np.array(key, dtype=np.intp)
            self._face = (idx, gram_factor(self.G.take(idx, 0).take(idx, 1)), self.K[:, idx])
            self._face_key = key
        return self._face

    def _on_face(self, working, minv_c: np.ndarray, rhs: np.ndarray):
        """Minimizer on the face of ``working`` and its multipliers, for :meth:`solve`'s ``c``."""
        if not working:
            return -minv_c, np.zeros(0)
        idx, Lg, K_W = self.face(working)
        u = solve_with_factor(Lg, rhs.take(idx))
        return -(minv_c + K_W.dot(u)), u

    def solve(self, c: np.ndarray, working=(), candidates=()) -> tuple[np.ndarray, tuple[int, ...]]:
        """Minimizer for the linear term ``c`` and its final working set.

        Every iterate minimizes the objective on the face of its working
        set with nonnegative multipliers; the most violated row (lowest
        index on ties) is then added, dropping any working row whose
        multiplier would turn negative first.  A row that depends on the
        working set is never added, and when nothing can be dropped either
        the set is empty.  ``working`` seeds the method with distinct row
        indices in ``[0, m)`` and is kept in its order, as added rows are
        appended.  Each of ``candidates``, faces given the same way, is
        tried first, in order: the first whose minimizer already passes
        the loop's exit test (every multiplier at least
        ``-MULTIPLIER_TOL``, every row within ``feas_tol``) is the answer.
        When none does, the method runs from ``working`` as if there were
        none.  ``c``, ``working`` and ``candidates`` are trusted: callers
        check them.
        """
        A, b, K, G = self.A, self.b, self.K, self.G
        d = c.shape[0]
        m = A.shape[0]
        minv_c = c if self.L is None else solve_with_factor(self.L, c)
        if m == 0:
            return -minv_c, ()
        # The multipliers on a face W solve G[W, W] u = rhs[W].
        rhs = -A.dot(minv_c) - b

        for face in candidates:
            try:
                y, u = self._on_face(face, minv_c, rhs)
            except NotSPD:
                continue
            if all((u >= -MULTIPLIER_TOL).tolist()) and (A.dot(y) - b).max() <= self.feas_tol:
                return y, tuple(face)

        # Warm start: the given working set, less the rows whose multiplier
        # on its face is negative (the face minimizer is then dual feasible).
        working = list(working)
        while True:
            try:
                y, u = self._on_face(working, minv_c, rhs)
            except NotSPD:
                working.pop()
                continue
            keep = u >= -MULTIPLIER_TOL
            if all(keep.tolist()):
                break
            working = [i for i, k in zip(working, keep) if k]

        cap = 3 * (m + d)
        p = None
        for _ in range(cap):
            if p is None:
                s = A.dot(y) - b
                p = int(s.argmax())
                if s[p] <= self.feas_tol:
                    break
            # r = Lg^-T l is how fast the working multipliers fall per unit
            # of p's; l.l is the part of p's curvature the working rows take.
            if working:
                idx, Lg, K_W = self.face(working)
                l = triangular_solve(Lg, G[idx, p])
                r = triangular_solve(Lg, l, transpose=True)
            else:
                l = r = np.zeros(0)
            # Full step: the multiplier of p that makes its row tight.  Zero
            # curvature (a pivot at or below PIVOT_TOL, as in gram_factor)
            # means row p depends on the rows of the working set and can only
            # enter by replacing one of them.
            a_minv_a = float(G[p, p])
            curvature = a_minv_a - float(l.dot(l))
            full = np.inf
            if curvature > max(1e-12 * a_minv_a, PIVOT_TOL):
                full = (float(A[p].dot(y)) - b[p]) / curvature
            # Partial step: the first working multiplier to reach zero.
            partial, block = _blocking_row(u, r)
            if full != np.inf and full <= partial:
                working.append(p)
                y, u = self._on_face(working, minv_c, rhs)
                p = None
                continue
            if block is None:
                raise InfeasibleSet("no point satisfies all constraints")
            y = y + partial * (K_W.dot(r) - K[:, p])
            u = u - partial * r
            u = np.concatenate((u[:block], u[block + 1 :]))
            del working[block]
        else:
            raise CyclingDetected(f"active set did not settle within {cap} iterations")
        return y, tuple(working)


def _blocking_row(u: np.ndarray, r: np.ndarray) -> tuple[float, int | None]:
    """Ratio test: the least ``max(u_k, 0) / r_k`` over ``r_k > 0`` and its index ``k``.

    A scan in index order over Python floats, which keeps a ratio only when
    it is strictly below the best so far: the lowest index wins a tie, and
    a NaN or infinite ratio never blocks; ``(inf, None)`` when no ratio is
    finite.  ``0.0 if u_k <= 0.0 else u_k`` is ``np.maximum(u_k, 0.0)``,
    signed zeros and NaN included.
    """
    partial, block = np.inf, None
    for k, (uk, rk) in enumerate(zip(u.tolist(), r.tolist())):
        if rk > 0.0:
            ratio = (0.0 if uk <= 0.0 else uk) / rk
            if ratio < partial:
                partial, block = ratio, k
    return partial, block
