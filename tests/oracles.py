"""Independent brute-force oracles used to cross-check the solvers and writers.

Everything here is plain numpy with no dependence on the package's
solution paths: QPs are solved by exhaustive KKT enumeration over
active subsets (or box sign patterns), norms by power iteration.  The
run JSON and the trace CSV are written by the stdlib's ``json`` and
``csv`` modules.
"""

import csv
import io
import itertools
import json

import numpy as np


def power_iteration_norm(M, iters=500, seed=0):
    """Spectral norm via power iteration on M^T M."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=M.shape[1])
    v /= np.linalg.norm(v)
    B = M.T @ M
    for _ in range(iters):
        w = B @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        v = w / nw
    return float(np.sqrt(v @ B @ v))


def set_parts(feasible):
    """A set description as its halfspaces plus an optional box, whose intersection it is."""
    from ephybrid.sets import Box, Halfspace, Polyhedron, WholeSpace

    if isinstance(feasible, Polyhedron):
        return feasible.halfspaces, feasible.box
    if isinstance(feasible, Halfspace):
        return (feasible,), None
    if isinstance(feasible, Box):
        return (), feasible
    if isinstance(feasible, WholeSpace):
        return (), None
    raise TypeError(type(feasible).__name__)


def halfspace_rows(feasible):
    """Extract all inequalities A y <= b of a set description."""
    halves, box = set_parts(feasible)
    d = feasible.dim
    rows, offs = [h.a for h in halves], [h.b for h in halves]
    if box is not None:
        for i in range(d):
            if box.lo[i] > -np.inf:
                e = np.zeros(d)
                e[i] = -1.0
                rows.append(e)
                offs.append(-box.lo[i])
            if box.hi[i] < np.inf:
                e = np.zeros(d)
                e[i] = 1.0
                rows.append(e)
                offs.append(box.hi[i])
    if not rows:
        return np.zeros((0, d)), np.zeros(0)
    return np.asarray(rows, dtype=float), np.asarray(offs, dtype=float)


def enumeration_qp(M, c, A, b, feas_tol=1e-9):
    """Minimize 0.5 y^T M y + <c, y> s.t. A y <= b by KKT enumeration.

    Tries every subset of linearly independent constraints as the active
    set, solves the equality KKT system, and keeps the feasible point with
    nonnegative multipliers (unique by strict convexity).  A subset of
    dependent rows (rank below its size, by ``numpy.linalg.matrix_rank``'s
    default test, inlined) is skipped: its KKT system is singular, and a
    solve of it can return points of size ~1e16 from roundoff instead of
    failing.  No answer is lost: by Caratheodory the minimizer's multipliers can always be
    carried by independent active rows.  ``feas_tol`` is an
    absolute band on ``A y - b``; callers whose answers may lie far out
    scale it themselves.  Returns None when no subset yields a feasible
    KKT point (empty feasible set).
    """
    d = M.shape[0]
    m = A.shape[0]
    rank_rtol = d * np.finfo(float).eps  # max(S.shape), as r <= d
    best = None
    for r in range(0, min(m, d) + 1):
        for subset in itertools.combinations(range(m), r):
            S = A[list(subset)]
            if r:
                sv = np.linalg.svd(S, compute_uv=False)
                if np.count_nonzero(sv > sv.max() * rank_rtol) < r:
                    continue
                K = np.zeros((d + r, d + r))
                K[:d, :d], K[:d, d:], K[d:, :d] = M, S.T, S
                rhs = np.concatenate([-c, b[list(subset)]])
            else:
                K = M
                rhs = -c
            try:
                sol = np.linalg.solve(K, rhs)
            except np.linalg.LinAlgError:
                continue
            y, mu = sol[:d], sol[d:]
            if mu.size and float(mu.min()) < -1e-9:
                continue
            if m and float(np.max(A @ y - b)) > feas_tol:
                continue
            obj = 0.5 * y @ M @ y + c @ y
            if best is None or obj < best[1] - 1e-12:
                best = (y, obj)
    return None if best is None else best[0]


def box_pattern_qp(M, c, lo, hi):
    """Box-constrained QP by enumerating all 3^d bound patterns.

    Each coordinate is pinned at its lower bound, its upper bound, or
    left free; the free block solves its reduced normal equations and
    the candidate is kept if it satisfies bounds and KKT signs.
    """
    d = M.shape[0]
    best = None
    for pattern in itertools.product((-1, 0, 1), repeat=d):
        y = np.zeros(d)
        free = [i for i, p in enumerate(pattern) if p == 0]
        for i, p in enumerate(pattern):
            if p == -1:
                y[i] = lo[i]
            elif p == 1:
                y[i] = hi[i]
        if free:
            Mf = M[np.ix_(free, free)]
            rhs = -(c[free] + M[np.ix_(free, [i for i in range(d) if i not in free])]
                    @ y[[i for i in range(d) if i not in free]])
            try:
                y[free] = np.linalg.solve(Mf, rhs)
            except np.linalg.LinAlgError:
                continue
        if np.any(y < lo - 1e-9) or np.any(y > hi + 1e-9):
            continue
        grad = M @ y + c
        ok = True
        for i, p in enumerate(pattern):
            if p == 0 and abs(grad[i]) > 1e-8:
                ok = False
            if p == -1 and grad[i] < -1e-8:
                ok = False  # at lower bound the gradient must push down
            if p == 1 and grad[i] > 1e-8:
                ok = False
        if not ok:
            continue
        obj = 0.5 * y @ M @ y + c @ y
        if best is None or obj < best[1] - 1e-12:
            best = (y.copy(), obj)
    return None if best is None else best[0]


def projection_oracle(x, feasible):
    """Nearest point via KKT enumeration (M = I, c = -x)."""
    A, b = halfspace_rows(feasible)
    d = len(x)
    return enumeration_qp(np.eye(d), -np.asarray(x, dtype=float), A, b)


def kkt_report(M, c, A, b, y):
    """KKT residuals of a candidate: multipliers fit by least squares.

    Returns (stationarity_norm, min_multiplier, max_complementarity,
    max_violation); active set taken at 1e-7 geometric slack.
    """
    resid = A @ y - b if A.shape[0] else np.zeros(0)
    norms = np.linalg.norm(A, axis=1) if A.shape[0] else np.zeros(0)
    active = [i for i in range(A.shape[0]) if resid[i] >= -1e-7 * max(1.0, norms[i])]
    g = M @ y + c
    if active:
        At = A[active].T
        mu, *_ = np.linalg.lstsq(At, -g, rcond=None)
        stat = float(np.linalg.norm(At @ mu + g))
        comp = float(max(abs(mu[k] * resid[i]) for k, i in enumerate(active)))
        mu_min = float(mu.min())
    else:
        stat = float(np.linalg.norm(g))
        comp = 0.0
        mu_min = 0.0
    viol = float(np.max(resid)) if resid.size else 0.0
    return stat, mu_min, comp, viol


def run_json_bytes(report) -> bytes:
    """The run JSON of a report as ``json.dump(..., indent=1)`` writes it, plus a newline."""
    payload = {
        "iterations": report.iterations,
        "final_x": [float(v) for v in report.final_x],
        "elapsed_s": report.elapsed_s,
        "stop_reason": report.stop_reason,
        "trace": [
            {
                "n": rec.n,
                "residual_w": rec.residual_w,
                "epsilon": rec.epsilon,
                "dist_to_target": rec.dist_to_target,
                "alpha": rec.alpha,
                "x": [float(v) for v in rec.x_next],
                "y": [float(v) for v in rec.y_next],
                "z": [float(v) for v in rec.z_next],
                "w": [float(v) for v in rec.w_next],
            }
            for rec in report.trace
        ],
    }
    return (json.dumps(payload, indent=1) + "\n").encode()


def trace_csv_bytes(report) -> bytes:
    """The trace CSV of a report as ``csv.writer`` writes it (``None`` is an empty cell)."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    dim = len(report.final_x)
    writer.writerow(["n", "residual_w", "epsilon", "dist_to_target", "alpha_n"]
                    + [f"x{i + 1}" for i in range(dim)])
    for rec in report.trace:
        scalars = (rec.residual_w, rec.epsilon, rec.dist_to_target, rec.alpha)
        writer.writerow([rec.n] + [None if v is None else float(v) for v in scalars]
                        + [float(v) for v in rec.x_next])
    return buf.getvalue().encode()
