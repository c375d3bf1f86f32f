"""Cutting-halfspace solver for equilibrium plus fixed-point problems.

Each iteration solves one strongly convex prox subproblem over the
feasible set, averages the result with its image under the
nonexpansive mapping, and then projects the *initial* point onto the
intersection of two constructed halfspaces:

* a contraction cut, the set of points that the freshly computed
  ``w`` does not move away from (up to a computable slack), and
* an anchor cut, the halfspace behind the current iterate as seen
  from the initial point.

Both cuts contain every solution, so the next iterate is the explicit
projection of the initial point onto two halfspaces; no second
optimization program is needed.  The solution-set projection of the
initial point is the limit.  A two-prox-per-iteration extragradient
scheme is included as an independent cross-check baseline.  Both
solvers hand their per-iteration step to one loop, which owns the
stopping rule, the trace, the timing, the audit and the iteration cap.
Each run builds its prox solvers and cut projector once, bound to its
bifunction, step size and sets (:func:`_cut_projector` picks the cut set).
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionMismatch, all_finite, as_point
from .problems import LipschitzConstants, ProblemBundle
from .qp import CutProjector, ProxSolver
from .sets import InfeasibleSet, WholeSpace, project_halfspace, project_two_halfspaces

STOP_RESIDUAL = "ResidualW"
STOP_DISTANCE = "DistanceToKnown"
STOP_MAX_ITER = "MaxIter"

SCHEDULE_KINDS = ("constant", "ratio", "pow10", "invlog")
CUT_VARIANTS = ("two_halfspaces", "three_halfspaces")


class ParameterError(ValueError):
    """Algorithm parameters violate their admissibility conditions."""


class LambdaOutOfRange(ParameterError):
    """Step size must satisfy 0 < lam < 1/(2*(c1+c2))."""


class KTooSmall(ParameterError):
    """Slack weight must satisfy 1/(1 - 2*lam*(c1+c2)) < k < inf."""


class AlphaOutOfRange(ParameterError):
    """Averaging weights must stay in [0, cap] with cap in (0, 1)."""


class EmptyOmega(RuntimeError):
    """The cut intersection is empty; parameters are inadmissible."""


class InvariantViolation(AssertionError):
    """An audited per-iteration invariant failed."""


class MaxIterExceeded(RuntimeError):
    """Iteration cap reached; carries the partial run report."""

    def __init__(self, report: "RunReport"):
        super().__init__(f"no convergence within {report.iterations} iterations")
        self.report = report


@dataclass(frozen=True)
class AlphaSchedule:
    """Averaging-weight schedule, evaluated at outer iteration n >= 1.

    Kinds: ``constant`` (fixed value), ``ratio`` ((n-1)/(2(n+1))),
    ``pow10`` (10^-n), ``invlog`` (1/log10(n+1), which exceeds the cap
    while n + 1 < 10^(1/cap) and is clamped to it there).
    """

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise AlphaOutOfRange(f"unknown schedule kind {self.kind!r}")
        if self.kind == "constant" and self.value < 0.0:
            raise AlphaOutOfRange("constant schedule value must be >= 0")

    def label(self) -> str:
        if self.kind == "constant":
            return f"const={self.value:g}"
        return {"ratio": "(n-1)/(2(n+1))", "pow10": "10^-n", "invlog": "1/log10(n+1)"}[self.kind]


def alpha_at(schedule: AlphaSchedule, n: int, cap: float = 0.99) -> float:
    """Schedule value at iteration ``n``, clamped into [0, cap]."""
    if n < 1:
        raise ValueError("iteration index starts at 1")
    if schedule.kind == "constant":
        raw = schedule.value
    elif schedule.kind == "ratio":
        raw = (n - 1) / (2.0 * (n + 1))
    elif schedule.kind == "pow10":
        raw = 10.0 ** (-n)
    else:
        raw = 1.0 / math.log10(n + 1)
    return min(max(raw, 0.0), cap)


@dataclass(frozen=True)
class HybridParams:
    """Validated parameters; construct through :func:`validate_params`.

    ``cuts_within_feasible`` additionally intersects
    the cut region with the feasible set before projecting, the way
    the older cuts-on-C constructions do; the solution set lies in
    every cut and in the feasible set, so this is equally valid and is
    what reproduces the published benchmark iteration counts.
    """

    lam: float
    k: float
    alpha_schedule: AlphaSchedule
    alpha_cap: float = 0.99
    cut_variant: str = "two_halfspaces"
    cuts_within_feasible: bool = False

    def alpha(self, n: int) -> float:
        return alpha_at(self.alpha_schedule, n, self.alpha_cap)


def validate_params(
    lam: float,
    k: float,
    alpha_schedule: AlphaSchedule,
    constants: LipschitzConstants,
    alpha_cap: float = 0.99,
    cut_variant: str = "two_halfspaces",
    cuts_within_feasible: bool = False,
) -> HybridParams:
    """Check the admissibility conditions and freeze the parameters.

    Requires ``0 < lam < 1/(2*(c1+c2))`` and
    ``1/(1 - 2*lam*(c1+c2)) < k < inf``, all strict, plus an averaging cap
    in (0, 1).
    """
    csum = _check_lambda(lam, constants)
    k_min = 1.0 / (1.0 - 2.0 * lam * csum)
    if not k_min * (1.0 + 1e-12) < k < math.inf:
        raise KTooSmall(f"need {k_min:.6g} < k < inf, got {k}")
    if not (0.0 < alpha_cap < 1.0):
        raise AlphaOutOfRange(f"cap must lie in (0, 1), got {alpha_cap}")
    if cut_variant not in CUT_VARIANTS:
        raise ParameterError(f"unknown cut variant {cut_variant!r}")
    return HybridParams(
        lam=float(lam),
        k=float(k),
        alpha_schedule=alpha_schedule,
        alpha_cap=float(alpha_cap),
        cut_variant=cut_variant,
        cuts_within_feasible=bool(cuts_within_feasible),
    )


def _check_lambda(lam: float, constants: LipschitzConstants) -> float:
    """Raise :class:`LambdaOutOfRange` unless ``0 < lam < 1/(2*(c1+c2))``; return ``c1 + c2``."""
    csum = constants.c1 + constants.c2
    lam_max = 1.0 / (2.0 * csum)
    # Strict inequalities, read at double precision: values within a
    # relative 1e-12 of the bound count as violating it.
    if not (0.0 < lam < lam_max * (1.0 - 1e-12)):
        raise LambdaOutOfRange(f"need 0 < lam < {lam_max:.6g}, got {lam}")
    return csum


@dataclass(frozen=True)
class StoppingRule:
    """``residual_w`` stops on the step residual, ``distance_to_target``
    on the distance to a known solution attached to the bundle.
    ``max_iter``, the iteration cap, is an integer >= 1 (not a bool)."""

    kind: str
    tol: float
    max_iter: int = 10000

    def __post_init__(self):
        if self.kind not in ("residual_w", "distance_to_target"):
            raise ValueError(f"unknown stopping rule {self.kind!r}")
        if not self.tol > 0.0:
            raise ValueError("tolerance must be > 0")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(eq=False)
class SolverState:
    """Iterate window, arrays never mutated in place; ``dx2`` and ``dy2`` are the squared
    moves ``|x_n - x_{n-1}|^2`` and ``|y_n - y_{n-1}|^2``, 0.0 before the first step."""

    n: int
    x_cur: np.ndarray
    y_cur: np.ndarray
    x0: np.ndarray
    dx2: float
    dy2: float


@dataclass(eq=False)
class IterationRecord:
    """Everything one iteration produced, immutable once emitted.

    The arrays are the step's own, never copied or mutated in place (see
    :class:`SolverState`), so ``w_next is y_next`` tells where ``w`` came from.
    The step's cuts are not kept; :func:`_audit_record` rebuilds them.
    """

    n: int
    y_next: np.ndarray
    z_next: np.ndarray
    w_next: np.ndarray
    x_next: np.ndarray
    epsilon: float | None
    residual_w: float
    dist_to_target: float | None
    alpha: float | None


@dataclass(eq=False)
class RunReport:
    """Outcome of one solver run; ``elapsed_s`` covers the iterate loop only."""

    iterations: int
    final_x: np.ndarray
    elapsed_s: float
    stop_reason: str
    trace: list[IterationRecord] = field(default_factory=list)


def contraction_slack(
    state: SolverState, dy_next2: float, params: HybridParams, constants: LipschitzConstants
) -> float:
    """Slack term of the contraction cut.

    Combines the state's squared moves ``dx2`` and ``dy2`` with the
    incoming prox move ``dy_next2 = |y_next - y_cur|^2``, weighing the
    previous prox move by ``c2`` and the incoming one by ``c1``; the sign
    structure guarantees the slack is summable along the run whenever
    the parameters are admissible.
    """
    lead = 1.0 - 1.0 / params.k - 2.0 * params.lam * constants.c1
    return params.k * state.dx2 + 2.0 * params.lam * constants.c2 * state.dy2 - lead * dy_next2


def _sum_of_squares(d: np.ndarray) -> float:
    """``((d) ** 2).sum()``, bit for bit: ``.sum()`` is this ``np.add.reduce``, behind a wrapper."""
    return float(np.add.reduce(d * d, axis=None))


def build_contraction_cut(x_cur: np.ndarray, w_next: np.ndarray, epsilon: float):
    """Row ``(a, b)`` of ``{z : |w - z|^2 <= |x - z|^2 + eps}``, as ``<a, z> <= b``.

    The quadratic terms in ``z`` cancel, leaving
    ``2 <x - w, z> <= |x|^2 - |w|^2 + eps``.  When ``w == x`` the
    normal vanishes: the cut is the whole space (``None``) for
    ``eps >= 0`` and empty otherwise (:class:`sets.InfeasibleSet`).  The
    points are trusted arrays of one shape.
    """
    normal = 2.0 * (x_cur - w_next)
    # ``normal.any()``: a float's truth in Python is its truth in numpy
    # (NaN true, either zero false), without the reduction's overhead.
    if not any(normal.tolist()):
        if epsilon >= 0.0:
            return None
        raise InfeasibleSet("zero normal with negative slack describes an empty cut")
    return normal, float(x_cur.dot(x_cur) - w_next.dot(w_next)) + epsilon


def build_anchor_cut(x0: np.ndarray, x_cur: np.ndarray):
    """Row ``(a, b)`` of ``{z : <x0 - x, z - x> <= 0}``, as ``<a, z> <= b``.

    The current iterate always lies on its boundary; when the iterate
    equals the initial point the cut is the whole space (``None``).  The
    points are trusted arrays of one shape.
    """
    normal = x0 - x_cur
    if not any(normal.tolist()):
        return None
    return normal, float(normal.dot(x_cur))


def hybrid_iterate(
    state: SolverState,
    bundle: ProblemBundle,
    params: HybridParams,
    prox: ProxSolver | None = None,
    projector: CutProjector | None = None,
) -> tuple[SolverState, IterationRecord]:
    """Advance the iteration window by one step.

    Computes the prox point, its averaged image under the mapping, the
    farther of the two (``w``), the contraction and anchor cuts, and
    the projection of the initial point onto their intersection.
    ``prox`` and ``projector`` are the run's, built for ``bundle`` and
    ``params`` (:func:`_cut_projector`), and carry its warm starts from
    step to step; fresh ones are made when they are omitted.  An empty cut
    region, one empty cut or cuts that do not meet (:class:`sets.InfeasibleSet`
    either way), raises :class:`EmptyOmega`.
    """
    if prox is None:
        prox = ProxSolver(bundle.bifunction, params.lam, bundle.feasible)
    if projector is None:
        projector = _cut_projector(bundle, params)
    alpha = params.alpha(state.n)

    y_next = prox.step(state.y_cur, state.x_cur)
    mapped = bundle.mapping(y_next)
    dist_y = _norm(y_next - state.x_cur)
    if mapped is y_next or (mapped == y_next).all():
        # Fixed point of the mapping: the average is y itself for every
        # alpha, so z, w and the residual are y's.
        z_next = w_next = y_next
        residual_w = dist_y
    else:
        z_next = alpha * y_next + (1.0 - alpha) * mapped
        dist_z = _norm(z_next - state.x_cur)
        w_next = y_next if dist_y >= dist_z else z_next
        residual_w = max(dist_y, dist_z)

    dy_next2 = _sum_of_squares(y_next - state.y_cur)
    epsilon = contraction_slack(state, dy_next2, params, bundle.constants)
    try:
        x_next = _project_onto_cuts(
            state.x0,
            _step_rows(state, y_next, z_next, w_next, epsilon, params.cut_variant),
            projector,
        )
    except InfeasibleSet as exc:
        raise EmptyOmega(
            f"iteration {state.n}: cut intersection is empty ({exc}); "
            "parameters violate the admissibility conditions or no solution exists"
        ) from exc

    dist_to_target = None if bundle.target is None else _norm(x_next - bundle.target)
    record = IterationRecord(
        n=state.n,
        y_next=y_next,
        z_next=z_next,
        w_next=w_next,
        x_next=x_next,
        epsilon=epsilon,
        residual_w=residual_w,
        dist_to_target=dist_to_target,
        alpha=alpha,
    )
    new_state = SolverState(
        n=state.n + 1,
        x_cur=x_next,
        y_cur=y_next,
        x0=state.x0,
        dx2=_sum_of_squares(x_next - state.x_cur),
        dy2=dy_next2,
    )
    return new_state, record


def _norm(v: np.ndarray) -> float:
    """``|v|`` of a 1-D vector: ``sqrt(v.dot(v))``, ``np.linalg.norm``'s own formula, bit for bit.

    ``v.dot(v)`` is the BLAS ``ddot`` call without ``@``'s matmul dispatch;
    the step's other vector products and the dual QP's (:mod:`qp`) are
    ``ndarray.dot`` calls too.
    """
    return math.sqrt(v.dot(v))


def _step_rows(state: SolverState, y_next, z_next, w_next, epsilon: float, cut_variant: str):
    """The cut rows a step from ``state`` projects onto; ``None`` is a whole-space slot.

    ``two_halfspaces``: the contraction cut of ``(x_n, w)``, then the anchor
    cut.  ``three_halfspaces`` splits the contraction cut into the averaging
    cut of ``(y, z)``, points the averaging step does not move away from, and
    the prox cut of ``(x_n, y)``, points the prox point stays near.
    """
    anchor = build_anchor_cut(state.x0, state.x_cur)
    if cut_variant == "two_halfspaces":
        return [build_contraction_cut(state.x_cur, w_next, epsilon), anchor]
    return [
        build_contraction_cut(y_next, z_next, 0.0),
        build_contraction_cut(state.x_cur, y_next, epsilon),
        anchor,
    ]


def _cut_projector(bundle: ProblemBundle, params: HybridParams) -> CutProjector:
    """A run's cut projector, on the feasible set with ``cuts_within_feasible``.

    Otherwise it is on the whole space, which adds no rows, so the step
    projects up to two cuts in closed form (:func:`_project_onto_cuts`).
    """
    return CutProjector(bundle.feasible if params.cuts_within_feasible else WholeSpace(bundle.dim))


def _project_onto_cuts(x0, cuts, projector: CutProjector) -> np.ndarray:
    """Project the initial point onto the intersection of the cuts and the projector's set.

    ``cuts`` are rows ``(a, b)`` of ``<a, z> <= b``, or ``None`` for a cut
    that is the whole space.  When the projector's set adds no rows (the
    whole space or an unbounded box), up to two rows are projected in
    closed form; anything larger, or any set with rows, goes through the
    run's :class:`qp.CutProjector`, which stacks the cut rows over the
    set's rows and warm-starts from its last working set.  A fresh
    projector's call is cold, bitwise :meth:`sets.Polyhedron.project` of
    the polyhedron of the cuts and the set.  ``x0`` is trusted.
    """
    if not projector.set_row_count:
        rows = [row for row in cuts if row is not None]
        if not rows:
            return x0.copy()
        if len(rows) == 1:
            return project_halfspace(x0, *rows[0])
        if len(rows) == 2:
            return project_two_halfspaces(x0, *rows)
    return projector.project(x0, cuts)


def solve(
    bundle: ProblemBundle,
    params: HybridParams,
    stopping: StoppingRule,
    x0,
    y0=None,
    audit: bool = False,
) -> RunReport:
    """Run the hybrid iteration to the stopping rule.

    ``y0`` seeds the prox recursion (zero vector by default; it need
    not lie in the feasible set).
    With ``audit`` every iteration's invariants are asserted and an
    :class:`InvariantViolation` aborts the run with diagnostics.
    Raises :class:`MaxIterExceeded` carrying the partial report when
    the cap is hit.
    """
    start, done = _start(bundle, stopping, x0)
    seed = np.zeros(bundle.dim) if y0 is None else as_point(y0)
    if seed.shape[0] != bundle.dim:
        raise DimensionMismatch("prox seed must match the problem dimension")
    if done is not None:
        return done

    state = SolverState(1, start.copy(), seed.copy(), start.copy(), dx2=0.0, dy2=0.0)
    prox = ProxSolver(bundle.bifunction, params.lam, bundle.feasible)
    projector = _cut_projector(bundle, params)
    check = (lambda before, rec: _audit_record(before, rec, bundle, params)) if audit else None
    return _drive(
        lambda s: hybrid_iterate(s, bundle, params, prox, projector), state, stopping, check
    )


def extragradient_solve(bundle: ProblemBundle, lam: float, stopping: StoppingRule, x0) -> RunReport:
    """Two-prox-per-iteration baseline used as an independent cross-check.

    Solves the prox subproblem first at the current iterate and then
    at its output, both centered at the current iterate; stops when
    the first prox point stops moving (``residual_w`` rule) or on
    distance to a known target.
    """
    _check_lambda(lam, bundle.constants)
    start, done = _start(bundle, stopping, x0)
    if done is not None:
        return done
    first_prox = ProxSolver(bundle.bifunction, lam, bundle.feasible)
    second_prox = ProxSolver(bundle.bifunction, lam, bundle.feasible)

    def step(state):
        n, x = state
        y = first_prox.step(x, x)
        x_next = second_prox.step(y, x)
        dist = None if bundle.target is None else _norm(x_next - bundle.target)
        record = IterationRecord(
            n=n,
            y_next=y,
            z_next=x_next,
            w_next=x_next,
            x_next=x_next,
            epsilon=None,
            residual_w=_norm(y - x),
            dist_to_target=dist,
            alpha=None,
        )
        return (n + 1, x_next), record

    return _drive(step, (1, start.copy()), stopping)


def _start(bundle: ProblemBundle, stopping: StoppingRule, x0):
    """Either solver's checked start, and its 0-iteration report if it already meets the rule."""
    start = as_point(x0)
    if start.shape[0] != bundle.dim:
        raise DimensionMismatch("start point must match the problem dimension")
    if stopping.kind != "distance_to_target":
        return start, None
    if bundle.target is None:
        raise ValueError("distance stopping rule needs a bundle with a known target")
    done = float(np.linalg.norm(start - bundle.target)) <= stopping.tol
    return start, RunReport(0, start.copy(), 0.0, STOP_DISTANCE, []) if done else None


def _drive(step, state, stopping: StoppingRule, audit=None) -> RunReport:
    """Apply ``step`` (state -> (state, record)) until the stopping rule holds.

    Keeps the trace and times the loop.  Each record's ``y``, ``z`` and
    ``x`` are checked once here (``z`` only when it is not ``y`` itself),
    so the helpers inside a step need not re-check what the step made: a
    non-finite entry raises ``ValueError``.
    ``audit``, when given, is called as ``audit(state_before, record)``
    on every checked record.  Raises :class:`MaxIterExceeded` carrying the
    partial report when the cap is hit.
    """
    trace: list[IterationRecord] = []
    stop_reason = None
    tic = time.perf_counter()
    for _ in range(stopping.max_iter):
        before = state
        state, record = step(state)
        y_next, z_next = record.y_next, record.z_next
        if not (
            all_finite(y_next)
            and (z_next is y_next or all_finite(z_next))
            and all_finite(record.x_next)
        ):
            raise ValueError(f"iteration {record.n}: an iterate has non-finite entries")
        trace.append(record)
        if audit is not None:
            audit(before, record)
        if stopping.kind == "residual_w" and record.residual_w <= stopping.tol:
            stop_reason = STOP_RESIDUAL
            break
        if stopping.kind == "distance_to_target" and record.dist_to_target <= stopping.tol:
            stop_reason = STOP_DISTANCE
            break
    elapsed = time.perf_counter() - tic

    final_x = trace[-1].x_next.copy()
    report = RunReport(len(trace), final_x, elapsed, stop_reason or STOP_MAX_ITER, trace)
    if stop_reason is None:
        raise MaxIterExceeded(report)
    return report


def _audit_record(
    state: SolverState, record: IterationRecord, bundle: ProblemBundle, params: HybridParams
) -> None:
    """Assert the invariants of the hybrid step from ``state`` to ``record``.

    The rows the step projected onto are rebuilt (:func:`_step_rows`) from
    ``x_n``, the record, the slack and ``x0``; ``x_next`` must lie in each
    of them, and so must the known solution, if any.
    """
    target = bundle.target
    if target is not None and not (
        float(((record.w_next - target) ** 2).sum())
        <= float(((state.x_cur - target) ** 2).sum()) + record.epsilon + 1e-8
    ):
        raise InvariantViolation(
            f"iteration {record.n}: contraction certificate failed "
            f"(slack {record.epsilon:.3e}, residual {record.residual_w:.3e})"
        )
    if not (
        float(np.linalg.norm(record.x_next - state.x0))
        >= float(np.linalg.norm(state.x_cur - state.x0)) - 1e-10
    ):
        raise InvariantViolation(f"iteration {record.n}: distance to the initial point decreased")
    rows = _step_rows(
        state, record.y_next, record.z_next, record.w_next, record.epsilon, params.cut_variant
    )
    names = ("averaging", "prox", "anchor") if len(rows) == 3 else ("contraction", "anchor")
    for point, tol, message in (
        (record.x_next, 1e-9, "new iterate escaped the {} cut it was projected onto"),
        (target, 1e-8, "known solution left the {} cut"),
    ):
        for name, row in zip(names, rows):
            if point is not None and row is not None and not float(row[0] @ point - row[1]) <= tol:
                raise InvariantViolation(f"iteration {record.n}: " + message.format(name))
