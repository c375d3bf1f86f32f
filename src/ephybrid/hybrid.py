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
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linalg import DimensionMismatch, all_finite, as_point
from .problems import LipschitzConstants, ProblemBundle
from .qp import ProxSolver, project_polyhedral
from .sets import (
    EmptyIntersection,
    Halfspace,
    InfeasibleSet,
    WholeSpace,
    project_two_halfspaces,
)

STOP_RESIDUAL = "ResidualW"
STOP_DISTANCE = "DistanceToKnown"
STOP_MAX_ITER = "MaxIter"

SCHEDULE_KINDS = ("constant", "ratio", "pow10", "invlog")
SLACK_CONVENTIONS = ("standard", "swapped")
CUT_VARIANTS = ("two_halfspaces", "three_halfspaces")


class ParameterError(ValueError):
    """Algorithm parameters violate their admissibility conditions."""


class LambdaOutOfRange(ParameterError):
    """Step size must satisfy 0 < lam < 1/(2*(c1+c2))."""


class KTooSmall(ParameterError):
    """Slack weight must satisfy 1/(1 - 2*lam*(c1+c2)) < k < inf."""


class AlphaOutOfRange(ParameterError):
    """Averaging weights must stay in [0, cap] with cap in (0, 1)."""


class EmptyHalfspace(RuntimeError):
    """A constructed cut is empty (zero normal, negative slack)."""


class EmptyOmega(RuntimeError):
    """The cut intersection is empty; parameters are inadmissible."""


class InfeasibleStart(ValueError):
    """Strict mode requires the prox seed to lie in the feasible set."""


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
    ``pow10`` (10^-n), ``invlog`` (1/log10(n+1), which exceeds 1 for
    n <= 9 and is therefore clamped to the cap).
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

    ``coupling`` stores the derived bound ``2*lam*(c1+c2)`` and
    ``k_min`` the minimum admissible slack weight.
    ``slack_convention`` selects which of the two published orderings
    of the c1/c2 coefficients the contraction slack uses ("standard"
    puts c2 on the previous prox displacement); the orderings coincide
    when c1 == c2.  ``cuts_within_feasible`` additionally intersects
    the cut region with the feasible set before projecting, the way
    the older cuts-on-C constructions do; the solution set lies in
    every cut and in the feasible set, so this is equally valid and is
    what reproduces the published benchmark iteration counts.
    """

    lam: float
    k: float
    alpha_schedule: AlphaSchedule
    alpha_cap: float = 0.99
    slack_convention: str = "standard"
    cut_variant: str = "two_halfspaces"
    cuts_within_feasible: bool = False
    coupling: float = 0.0
    k_min: float = 0.0

    def alpha(self, n: int) -> float:
        return alpha_at(self.alpha_schedule, n, self.alpha_cap)


def validate_params(
    lam: float,
    k: float,
    alpha_schedule: AlphaSchedule,
    constants: LipschitzConstants,
    alpha_cap: float = 0.99,
    slack_convention: str = "standard",
    cut_variant: str = "two_halfspaces",
    cuts_within_feasible: bool = False,
) -> HybridParams:
    """Check the admissibility conditions and freeze the parameters.

    Requires ``0 < lam < 1/(2*(c1+c2))`` and
    ``1/(1 - 2*lam*(c1+c2)) < k < inf``, all strict, plus an averaging cap
    in (0, 1).
    """
    csum = constants.c1 + constants.c2
    lam_max = 1.0 / (2.0 * csum)
    # Strict inequalities, read at double precision: values within a
    # relative 1e-12 of the bound count as violating it.
    if not (0.0 < lam < lam_max * (1.0 - 1e-12)):
        raise LambdaOutOfRange(f"need 0 < lam < {lam_max:.6g}, got {lam}")
    coupling = 2.0 * lam * csum
    k_min = 1.0 / (1.0 - coupling)
    if not k_min * (1.0 + 1e-12) < k < math.inf:
        raise KTooSmall(f"need {k_min:.6g} < k < inf, got {k}")
    if not (0.0 < alpha_cap < 1.0):
        raise AlphaOutOfRange(f"cap must lie in (0, 1), got {alpha_cap}")
    if slack_convention not in SLACK_CONVENTIONS:
        raise ParameterError(f"unknown slack convention {slack_convention!r}")
    if cut_variant not in CUT_VARIANTS:
        raise ParameterError(f"unknown cut variant {cut_variant!r}")
    return HybridParams(
        lam=float(lam),
        k=float(k),
        alpha_schedule=alpha_schedule,
        alpha_cap=float(alpha_cap),
        slack_convention=slack_convention,
        cut_variant=cut_variant,
        cuts_within_feasible=bool(cuts_within_feasible),
        coupling=coupling,
        k_min=k_min,
    )


@dataclass(frozen=True)
class StoppingRule:
    """``residual_w`` stops on the step residual, ``distance_to_target``
    on the distance to a known solution attached to the bundle."""

    kind: str
    tol: float
    max_iter: int = 10000

    def __post_init__(self):
        if self.kind not in ("residual_w", "distance_to_target"):
            raise ValueError(f"unknown stopping rule {self.kind!r}")
        if not self.tol > 0.0:
            raise ValueError("tolerance must be > 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(eq=False)
class SolverState:
    """Rolling iterate window; arrays are never mutated in place."""

    n: int
    x_prev: np.ndarray
    x_cur: np.ndarray
    y_prev: np.ndarray
    y_cur: np.ndarray
    x0: np.ndarray


@dataclass(frozen=True)
class InvariantFlags:
    """Per-iteration health checks (``contraction_ok`` needs a known target)."""

    contraction_ok: bool | None
    monotone_ok: bool
    membership_ok: bool


@dataclass(eq=False)
class IterationRecord:
    """Everything one iteration produced, immutable once emitted.

    The arrays are the step's own, never copied or mutated in place (see
    :class:`SolverState`), so ``w_next is y_next`` tells where ``w`` came from.
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
    contraction_cut: Halfspace | WholeSpace | None = None
    anchor_cut: Halfspace | WholeSpace | None = None
    flags: InvariantFlags | None = None


@dataclass(eq=False)
class RunReport:
    """Outcome of one solver run; ``elapsed_s`` covers the iterate loop only."""

    iterations: int
    final_x: np.ndarray
    elapsed_s: float
    stop_reason: str
    trace: list[IterationRecord] = field(default_factory=list)


def contraction_slack(
    state: SolverState, y_next: np.ndarray, params: HybridParams, constants: LipschitzConstants
) -> float:
    """Slack term of the contraction cut.

    Combines the squared displacements of the two previous iterates
    and the incoming prox displacement; the sign structure guarantees
    the slack is summable along the run whenever the parameters are
    admissible.
    """
    dx2 = float(((state.x_cur - state.x_prev) ** 2).sum())
    dy_prev2 = float(((state.y_cur - state.y_prev) ** 2).sum())
    dy_next2 = float(((y_next - state.y_cur) ** 2).sum())
    if params.slack_convention == "standard":
        c_prev, c_next = constants.c2, constants.c1
    else:
        c_prev, c_next = constants.c1, constants.c2
    lead = 1.0 - 1.0 / params.k - 2.0 * params.lam * c_next
    return params.k * dx2 + 2.0 * params.lam * c_prev * dy_prev2 - lead * dy_next2


def build_contraction_cut(x_cur, w_next, epsilon: float) -> Halfspace | WholeSpace:
    """Halfspace form of ``{z : |w - z|^2 <= |x - z|^2 + eps}``.

    The quadratic terms in ``z`` cancel, leaving
    ``2 <x - w, z> <= |x|^2 - |w|^2 + eps``.  When ``w == x`` the
    normal vanishes: the cut is the whole space for ``eps >= 0`` and
    empty otherwise.
    """
    x = as_point(x_cur)
    w = as_point(w_next)
    if x.shape != w.shape:
        raise DimensionMismatch("cut endpoints must share a dimension")
    normal = 2.0 * (x - w)
    if not np.any(normal):
        if epsilon >= 0.0:
            return WholeSpace(x.shape[0])
        raise EmptyHalfspace("zero normal with negative slack describes an empty set")
    offset = float(x @ x - w @ w) + epsilon
    return Halfspace(normal, offset)


def build_anchor_cut(x0, x_cur) -> Halfspace | WholeSpace:
    """Halfspace form of ``{z : <x0 - x, z - x> <= 0}``.

    The current iterate always lies on its boundary; when the iterate
    equals the initial point the cut is the whole space.
    """
    p0 = as_point(x0)
    pc = as_point(x_cur)
    if p0.shape != pc.shape:
        raise DimensionMismatch("anchor endpoints must share a dimension")
    normal = p0 - pc
    if not np.any(normal):
        return WholeSpace(p0.shape[0])
    return Halfspace(normal, float(normal @ pc))


def hybrid_iterate(
    state: SolverState,
    bundle: ProblemBundle,
    params: HybridParams,
    prox: ProxSolver | None = None,
) -> tuple[SolverState, IterationRecord]:
    """Advance the iteration window by one step.

    Computes the prox point, its averaged image under the mapping, the
    farther of the two (``w``), the contraction and anchor cuts, and
    the projection of the initial point onto their intersection.
    """
    if prox is None:
        prox = ProxSolver()
    f = bundle.bifunction
    alpha = params.alpha(state.n)

    y_next = prox.step(f, state.y_cur, state.x_cur, params.lam, bundle.feasible)
    mapped = bundle.mapping(y_next)
    if np.array_equal(mapped, y_next):
        # Fixed point of the mapping: the average is y itself for every alpha.
        z_next = y_next
    else:
        z_next = alpha * y_next + (1.0 - alpha) * mapped

    dist_y = float(np.linalg.norm(y_next - state.x_cur))
    dist_z = float(np.linalg.norm(z_next - state.x_cur))
    w_next = y_next if dist_y >= dist_z else z_next
    residual_w = max(dist_y, dist_z)

    epsilon = contraction_slack(state, y_next, params, bundle.constants)
    contraction = build_contraction_cut(state.x_cur, w_next, epsilon)
    anchor = build_anchor_cut(state.x0, state.x_cur)

    if params.cut_variant == "two_halfspaces":
        cuts = [contraction, anchor]
    else:
        # Split the contraction cut: points that the averaging step does
        # not move away from, and points the prox point stays near.
        averaging = build_contraction_cut(y_next, z_next, 0.0)
        cuts = [averaging, build_contraction_cut(state.x_cur, y_next, epsilon), anchor]

    try:
        x_next = _project_onto_cuts(
            state.x0,
            [c for c in cuts if isinstance(c, Halfspace)],
            bundle.feasible if params.cuts_within_feasible else None,
        )
    except (EmptyIntersection, InfeasibleSet) as exc:
        raise EmptyOmega(
            f"iteration {state.n}: cut intersection is empty ({exc}); "
            "parameters violate the admissibility conditions or no solution exists"
        ) from exc

    target = bundle.target
    dist_to_target = None if target is None else float(np.linalg.norm(x_next - target))
    flags = InvariantFlags(
        contraction_ok=None
        if target is None
        else float(((w_next - target) ** 2).sum())
        <= float(((state.x_cur - target) ** 2).sum()) + epsilon + 1e-8,
        monotone_ok=float(np.linalg.norm(x_next - state.x0))
        >= float(np.linalg.norm(state.x_cur - state.x0)) - 1e-10,
        membership_ok=contraction.contains(x_next, 1e-9) and anchor.contains(x_next, 1e-9),
    )

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
        contraction_cut=contraction,
        anchor_cut=anchor,
        flags=flags,
    )
    new_state = SolverState(
        n=state.n + 1,
        x_prev=state.x_cur,
        x_cur=x_next,
        y_prev=state.y_cur,
        y_cur=y_next,
        x0=state.x0,
    )
    return new_state, record


def _project_onto_cuts(x0, cuts: list[Halfspace], feasible) -> np.ndarray:
    """Project the initial point onto the cut intersection.

    When the feasible set adds nothing (``None`` or the whole space), up
    to two cuts go through the closed-form projector; anything larger,
    or any request to stay within the feasible set, goes through
    :func:`qp.project_polyhedral`, which stacks the cut rows over the
    set's cached rows.
    """
    if (feasible is None or isinstance(feasible, WholeSpace)) and len(cuts) <= 2:
        if not cuts:
            return as_point(x0).copy()
        if len(cuts) == 1:
            return cuts[0].project(x0)
        return project_two_halfspaces(x0, cuts[0], cuts[1])
    return project_polyhedral(x0, cuts, feasible)


def solve(
    bundle: ProblemBundle,
    params: HybridParams,
    stopping: StoppingRule,
    x0,
    y0=None,
    audit: bool = False,
    require_feasible_start: bool = False,
) -> RunReport:
    """Run the hybrid iteration to the stopping rule.

    ``y0`` seeds the prox recursion (zero vector by default; it need
    not lie in the feasible set unless ``require_feasible_start``).
    With ``audit`` every iteration's invariants are asserted and an
    :class:`InvariantViolation` aborts the run with diagnostics.
    Raises :class:`MaxIterExceeded` carrying the partial report when
    the cap is hit.
    """
    start = as_point(x0)
    if start.shape[0] != bundle.dim:
        raise DimensionMismatch("start point must match the problem dimension")
    seed = np.zeros(bundle.dim) if y0 is None else as_point(y0)
    if seed.shape[0] != bundle.dim:
        raise DimensionMismatch("prox seed must match the problem dimension")
    if require_feasible_start and not bundle.feasible.contains(seed):
        raise InfeasibleStart("prox seed lies outside the feasible set")
    if stopping.kind == "distance_to_target" and bundle.target is None:
        raise ValueError("distance stopping rule needs a bundle with a known target")

    if stopping.kind == "distance_to_target":
        if float(np.linalg.norm(start - bundle.target)) <= stopping.tol:
            return RunReport(0, start.copy(), 0.0, STOP_DISTANCE, [])

    state = SolverState(
        n=1,
        x_prev=start.copy(),
        x_cur=start.copy(),
        y_prev=seed.copy(),
        y_cur=seed.copy(),
        x0=start.copy(),
    )
    prox = ProxSolver()
    return _drive(
        lambda s: hybrid_iterate(s, bundle, params, prox), state, stopping, bundle, audit
    )


def extragradient_solve(bundle: ProblemBundle, lam: float, stopping: StoppingRule, x0) -> RunReport:
    """Two-prox-per-iteration baseline used as an independent cross-check.

    Solves the prox subproblem first at the current iterate and then
    at its output, both centered at the current iterate; stops when
    the first prox point stops moving (``residual_w`` rule) or on
    distance to a known target.
    """
    csum = bundle.constants.c1 + bundle.constants.c2
    if not (0.0 < lam < 1.0 / (2.0 * csum)):
        raise LambdaOutOfRange(f"need 0 < lam < {1.0 / (2.0 * csum):.6g}, got {lam}")
    if stopping.kind == "distance_to_target" and bundle.target is None:
        raise ValueError("distance stopping rule needs a bundle with a known target")

    x = as_point(x0).copy()
    if x.shape[0] != bundle.dim:
        raise DimensionMismatch("start point must match the problem dimension")
    f = bundle.bifunction
    first_prox = ProxSolver()
    second_prox = ProxSolver()

    def step(state):
        n, x = state
        y = first_prox.step(f, x, x, lam, bundle.feasible)
        x_next = second_prox.step(f, y, x, lam, bundle.feasible)
        dist = None if bundle.target is None else float(np.linalg.norm(x_next - bundle.target))
        record = IterationRecord(
            n=n,
            y_next=y,
            z_next=x_next,
            w_next=x_next,
            x_next=x_next,
            epsilon=None,
            residual_w=float(np.linalg.norm(y - x)),
            dist_to_target=dist,
            alpha=None,
        )
        return (n + 1, x_next), record

    return _drive(step, (1, x), stopping, bundle, audit=False)


def _drive(step, state, stopping: StoppingRule, bundle: ProblemBundle, audit: bool) -> RunReport:
    """Apply ``step`` (state -> (state, record)) until the stopping rule holds.

    Keeps the trace and times the loop; with ``audit`` every record's
    invariants are asserted.  Each record's ``y``, ``z`` and ``x`` are
    checked once here, so the helpers inside a step need not re-check
    what the step made: a non-finite entry raises ``ValueError``.
    Raises :class:`MaxIterExceeded` carrying the partial report when the
    cap is hit.
    """
    trace: list[IterationRecord] = []
    stop_reason = None
    tic = time.perf_counter()
    for _ in range(stopping.max_iter):
        state, record = step(state)
        if not (
            all_finite(record.y_next) and all_finite(record.z_next) and all_finite(record.x_next)
        ):
            raise ValueError(f"iteration {record.n}: an iterate has non-finite entries")
        trace.append(record)
        if audit:
            _audit_record(record, bundle)
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


def _audit_record(record: IterationRecord, bundle: ProblemBundle) -> None:
    """Assert a hybrid record's flags and that the known solution lies in both cuts."""
    flags = record.flags
    if flags.contraction_ok is False:
        raise InvariantViolation(
            f"iteration {record.n}: contraction certificate failed "
            f"(slack {record.epsilon:.3e}, residual {record.residual_w:.3e})"
        )
    if not flags.monotone_ok:
        raise InvariantViolation(
            f"iteration {record.n}: distance to the initial point decreased"
        )
    if not flags.membership_ok:
        raise InvariantViolation(
            f"iteration {record.n}: new iterate escaped the cuts it was projected onto"
        )
    if bundle.target is not None:
        for cut_name, cut in (
            ("contraction", record.contraction_cut),
            ("anchor", record.anchor_cut),
        ):
            if not cut.contains(bundle.target, 1e-8):
                raise InvariantViolation(
                    f"iteration {record.n}: known solution left the {cut_name} cut"
                )
