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
import operator
import struct
import time
from dataclasses import dataclass

import numpy as np

from .linalg import NonFiniteIterate, all_finite, as_point
from .problems import LipschitzConstants, ProblemBundle
from .qp import CutProjector, ProxSolver
from .sets import InfeasibleSet, WholeSpace, project_halfspace, project_two_halfspaces

STOP_RESIDUAL = "ResidualW"
STOP_DISTANCE = "DistanceToKnown"
STOP_MAX_ITER = "MaxIter"

# The bound a < 1 on the averaging weights: every alpha_n lies in [0, ALPHA_CAP].
ALPHA_CAP = 0.99

SCHEDULE_KINDS = ("ratio", "pow10", "invlog")
CUT_VARIANTS = ("two_halfspaces", "three_halfspaces")


class ParameterError(ValueError):
    """Algorithm parameters violate their admissibility conditions."""


class LambdaOutOfRange(ParameterError):
    """Step size must satisfy 0 < lam < 1/(2*(c1+c2))."""


class KTooSmall(ParameterError):
    """Slack weight must satisfy 1/(1 - 2*lam*(c1+c2)) < k < inf."""


class AlphaOutOfRange(ParameterError):
    """An averaging-weight schedule names no schedule kind."""


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

    Kinds: ``ratio`` ((n-1)/(2(n+1))), ``pow10`` (10^-n), ``invlog``
    (1/log10(n+1), which exceeds :data:`ALPHA_CAP` for n <= 9 and is
    clamped to it there).  Every value is >= 0.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise AlphaOutOfRange(f"unknown schedule kind {self.kind!r}")

    def label(self) -> str:
        return {"ratio": "(n-1)/(2(n+1))", "pow10": "10^-n", "invlog": "1/log10(n+1)"}[self.kind]


def alpha_at(schedule: AlphaSchedule, n: int) -> float:
    """Schedule value at iteration ``n``, clamped to at most :data:`ALPHA_CAP`."""
    if n < 1:
        raise ValueError("iteration index starts at 1")
    if schedule.kind == "ratio":
        raw = (n - 1) / (2.0 * (n + 1))
    elif schedule.kind == "pow10":
        raw = 10.0 ** (-n)
    else:
        raw = 1.0 / math.log10(n + 1)
    return min(raw, ALPHA_CAP)


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
    cut_variant: str = "two_halfspaces"
    cuts_within_feasible: bool = False

    def alpha(self, n: int) -> float:
        return alpha_at(self.alpha_schedule, n)


def validate_params(
    lam: float,
    k: float,
    alpha_schedule: AlphaSchedule,
    constants: LipschitzConstants,
    cut_variant: str = "two_halfspaces",
    cuts_within_feasible: bool = False,
) -> HybridParams:
    """Check the admissibility conditions and freeze the parameters.

    Requires ``0 < lam < 1/(2*(c1+c2))`` and
    ``1/(1 - 2*lam*(c1+c2)) < k < inf``, all strict, and a known cut
    variant.  The averaging weights need no check: every schedule stays in
    ``[0, ALPHA_CAP]``.
    """
    csum = _check_lambda(lam, constants)
    k_min = 1.0 / (1.0 - 2.0 * lam * csum)
    if not k_min * (1.0 + 1e-12) < k < math.inf:
        raise KTooSmall(f"need {k_min:.6g} < k < inf, got {k}")
    if cut_variant not in CUT_VARIANTS:
        raise ParameterError(f"unknown cut variant {cut_variant!r}")
    return HybridParams(
        lam=float(lam),
        k=float(k),
        alpha_schedule=alpha_schedule,
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
    ``tol`` is finite and > 0; ``max_iter``, the iteration cap, is an
    integer >= 1 (not a bool)."""

    kind: str
    tol: float
    max_iter: int = 10000

    def __post_init__(self):
        if self.kind not in ("residual_w", "distance_to_target"):
            raise ValueError(f"unknown stopping rule {self.kind!r}")
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tolerance must be finite and > 0, got {self.tol}")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, numbers.Integral):
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(eq=False, slots=True)
class SolverState:
    """Iterate window, arrays never mutated in place; ``dx2`` and ``dy2`` are the squared
    moves ``|x_n - x_{n-1}|^2`` and ``|y_n - y_{n-1}|^2``, 0.0 before the first step."""

    n: int
    x_cur: np.ndarray
    y_cur: np.ndarray
    x0: np.ndarray
    dx2: float
    dy2: float


@dataclass(eq=False, slots=True)
class IterationRecord:
    """Everything one iteration produced, immutable once emitted.

    The arrays are the step's own, never copied or mutated in place (see
    :class:`SolverState`), so ``w_next is y_next`` tells where ``w`` came from.
    A record read back from a :class:`Trace` holds read-only row views with
    the same aliasing.  The step's cuts are not kept; :func:`_audit_record`
    rebuilds them.
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


# A record's z or w that is not an array of its own is one of these; a
# reference >= 0 is a row of its block's own arrays.
_IS_Y = -1
_IS_X = -2
# The record scalars in field order; bit k of a row's None flags is scalar k's.
SCALARS = ("epsilon", "residual_w", "dist_to_target", "alpha")
# A trace row's fixed-width fields in native byte order: n (int64), the four
# scalars (float64, NaN where None), z's and w's references (int32) and the
# None flags (uint8), padded to 56 bytes; Trace._columns views them at these
# offsets.
_ROW = struct.Struct("=q4d2iB7x")
# Vector entries per block of a trace, 4 KB of y and of x.  Small blocks fill
# the holes a run's temporaries leave in the heap, where one buffer grown by
# reallocation took fresh pages (nc64's peak RSS rose 0.4 MB); a writer holds
# one block's vectors as text at once (at 4096 entries table1's rose 4 MB).
_BLOCK_VALUES = 512


class Trace:
    """One run's iteration records, held as columns.

    The columns are ``n``; ``y`` and ``x`` as ``(iterations, d)`` float64
    blocks; ``z`` and ``w``, each stored only where it is an array of its
    own, with a per-row reference saying which of ``y``, ``z`` and ``x`` it is
    otherwise; and the four scalars (:data:`SCALARS`) as float64 columns, NaN
    where the record held ``None``, each with a ``None`` mask.  They are kept
    in blocks of rows holding about 512 vector entries, each block a few
    ``bytearray`` s; :meth:`append` copies a record's values into the last
    block and keeps no reference to it.

    ``trace[i]``, slices, iteration and ``len`` read it as
    :class:`IterationRecord` s built from read-only row views, with the
    aliasing rebuilt, so ``rec.w_next is rec.y_next`` keeps its meaning (an
    ``x_next`` that was ``y_next`` itself comes back as its own view).
    :attr:`n`, :attr:`y`, :attr:`x`, :attr:`z`, :attr:`w` and :meth:`scalar`
    give whole columns as fresh arrays; :meth:`chunks` gives a block at a
    time, as Python lists.  Reads keep no views, but a record read back is
    a view of its block, so the first read fixes the trace: a later
    :meth:`append` raises ``BufferError``.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("a trace's vectors have dimension >= 1")
        self.dim = dim
        self._block_rows = max(1, _BLOCK_VALUES // dim)
        self._block_bytes = self._block_rows * _ROW.size
        # Each block: the _ROW fields, y, x and the block's own z and w arrays.
        self._blocks = [[bytearray(), bytearray(), bytearray(), bytearray()]]
        self._read = False

    @classmethod
    def of(cls, records, dim: int) -> "Trace":
        """A trace of any sequence of records, checked: float64 vectors of shape ``(dim,)``."""
        trace = cls(dim)
        for rec in records:
            for v in (rec.y_next, rec.z_next, rec.w_next, rec.x_next):
                if not (isinstance(v, np.ndarray) and v.dtype == np.float64 and v.shape == (dim,)):
                    raise ValueError(f"record {rec.n}: vectors must be float64 arrays of shape ({dim},)")
            trace.append(rec)
        return trace

    def append(self, rec: IterationRecord) -> None:
        """Copy a record in; its vectors are trusted float64 arrays of the trace's dimension."""
        if self._read:
            raise BufferError("a trace that was read takes no more records")
        rows, ys, xs, own = self._blocks[-1]
        if len(rows) == self._block_bytes:
            rows, ys, xs, own = block = [bytearray(), bytearray(), bytearray(), bytearray()]
            self._blocks.append(block)
        y, z, w, x = rec.y_next, rec.z_next, rec.w_next, rec.x_next
        eps, res, dist, alpha = rec.epsilon, rec.residual_w, rec.dist_to_target, rec.alpha
        z_ref = _IS_Y if z is y else _IS_X if z is x else self._own_row(own, z)
        w_ref = z_ref if w is z else _IS_Y if w is y else _IS_X if w is x else self._own_row(own, w)
        rows += _ROW.pack(
            rec.n,
            math.nan if eps is None else eps,
            math.nan if res is None else res,
            math.nan if dist is None else dist,
            math.nan if alpha is None else alpha,
            z_ref,
            w_ref,
            (eps is None) | (res is None) << 1 | (dist is None) << 2 | (alpha is None) << 3,
        )
        ys += y.tobytes()
        xs += x.tobytes()

    def _own_row(self, own: bytearray, v: np.ndarray) -> int:
        row = len(own) // (8 * self.dim)
        own += v.tobytes()
        return row

    def _columns(self, block) -> dict[str, np.ndarray]:
        """A block's columns as read-only views of its buffers."""
        self._read = True
        rows, ys, xs, own = block

        def view(buffer, dtype, width):
            a = np.frombuffer(buffer, dtype).reshape(-1, width)
            a.flags.writeable = False
            return a

        return {
            "n": view(rows, np.int64, 7)[:, 0],
            "scalars": view(rows, np.float64, 7)[:, 1:5],
            "refs": view(rows, np.int32, 14)[:, 10:12],
            "none": view(rows, np.uint8, _ROW.size)[:, 48],
            "y": view(ys, np.float64, self.dim),
            "x": view(xs, np.float64, self.dim),
            "own": view(own, np.float64, self.dim),
        }

    def __len__(self) -> int:
        return (len(self._blocks) - 1) * self._block_rows + len(self._blocks[-1][0]) // _ROW.size

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        rows = len(self)
        k = operator.index(i)
        k += rows if k < 0 else 0
        if not 0 <= k < rows:
            raise IndexError(f"trace index {i} out of range for {rows} records")
        b, k = divmod(k, self._block_rows)
        return self._record(self._columns(self._blocks[b]), k)

    def __iter__(self):
        for block in self._blocks:
            c = self._columns(block)
            for k in range(len(c["n"])):
                yield self._record(c, k)

    @staticmethod
    def _record(c: dict[str, np.ndarray], k: int) -> IterationRecord:
        """Row ``k`` of a block's columns as a record of views, the aliasing rebuilt."""
        y, x = c["y"][k], c["x"][k]
        z_ref, w_ref = c["refs"][k].tolist()
        z = y if z_ref == _IS_Y else x if z_ref == _IS_X else c["own"][z_ref]
        w = z if w_ref == z_ref else y if w_ref == _IS_Y else x if w_ref == _IS_X else c["own"][w_ref]
        flags = int(c["none"][k])
        eps, res, dist, alpha = (
            None if flags >> bit & 1 else v for bit, v in enumerate(c["scalars"][k].tolist())
        )
        return IterationRecord(int(c["n"][k]), y, z, w, x, eps, res, dist, alpha)

    def _column(self, name: str) -> np.ndarray:
        # An empty trace has one empty block, so there is always a part.
        return np.concatenate([self._columns(block)[name] for block in self._blocks])

    @property
    def n(self) -> np.ndarray:
        return self._column("n")

    @property
    def y(self) -> np.ndarray:
        return self._column("y")

    @property
    def x(self) -> np.ndarray:
        return self._column("x")

    @property
    def z(self) -> np.ndarray:
        """Every row's ``z``, materialized from the references."""
        return self._materialized(0)

    @property
    def w(self) -> np.ndarray:
        """Every row's ``w``, materialized from the references."""
        return self._materialized(1)

    def _materialized(self, column: int) -> np.ndarray:
        parts = []
        for c in map(self._columns, self._blocks):
            index = _vector_index(c["refs"][:, column].tolist())
            parts.append(np.concatenate((c["y"], c["x"], c["own"]))[list(index)])
        return np.concatenate(parts)

    def scalar(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """``(values, none)``: a scalar's column, NaN where ``none`` is true."""
        bit = SCALARS.index(name)
        return self._column("scalars")[:, bit].copy(), (self._column("none") >> bit & 1).astype(bool)

    def chunks(self, yzw: bool = True):
        """Yield each block as ``(n, scalars, vectors, z, w)`` of Python lists over its ``m`` rows.

        ``n`` and the four ``scalars`` (in :data:`SCALARS` order, ``None``
        where the record's was) have ``m`` entries; ``vectors`` lists the
        rows' ``y``, then their ``x``, then the block's own arrays; ``z`` and
        ``w`` give each row's index into ``vectors``.  Without ``yzw``,
        ``vectors`` is the rows' ``x`` alone and ``z`` and ``w`` are
        ``None``.  It calls no integer ufunc, whose code the writers would
        page in for it alone.
        """
        for c in map(self._columns, self._blocks):
            flags = c["none"].tolist()
            m = len(flags)
            if not m:  # the one block of an empty trace
                continue
            scalars = c["scalars"].T.tolist()
            uniform = flags.count(flags[0]) == m
            for bit in range(len(SCALARS)):
                if not uniform:
                    scalars[bit] = [None if f >> bit & 1 else v for v, f in zip(scalars[bit], flags)]
                elif flags[0] >> bit & 1:
                    scalars[bit] = [None] * m
            if not yzw:
                yield c["n"].tolist(), scalars, c["x"].tolist(), None, None
                continue
            z_refs, w_refs = c["refs"].T.tolist()
            vectors = c["y"].tolist() + c["x"].tolist() + c["own"].tolist()
            yield c["n"].tolist(), scalars, vectors, _vector_index(z_refs), _vector_index(w_refs)


def _vector_index(refs: list[int]):
    """A block's references as indices into its ``y`` rows, ``x`` rows and own arrays, in turn."""
    m = len(refs)
    if refs.count(_IS_Y) == m:
        return range(m)
    return [i if r == _IS_Y else m + i if r == _IS_X else 2 * m + r for i, r in enumerate(refs)]


@dataclass(eq=False)
class RunReport:
    """Outcome of one solver run; ``elapsed_s`` covers the iterate loop only.

    ``trace`` is always a :class:`Trace`; a sequence of records given in its
    place is copied into one (:meth:`Trace.of`), of ``final_x``'s dimension.
    """

    iterations: int
    final_x: np.ndarray
    elapsed_s: float
    stop_reason: str
    trace: Trace = ()

    def __post_init__(self):
        if not isinstance(self.trace, Trace):
            self.trace = Trace.of(self.trace, len(self.final_x))


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
    prox: ProxSolver,
    projector: CutProjector,
) -> tuple[SolverState, IterationRecord]:
    """Advance the iteration window by one step.

    Computes the prox point, its averaged image under the mapping, the
    farther of the two (``w``), the contraction and anchor cuts, and
    the projection of the initial point onto their intersection.
    ``prox`` and ``projector`` are the run's, built for ``bundle`` and
    ``params`` (:func:`_cut_projector`), and carry its warm starts from
    step to step.  An empty cut region, one empty cut or cuts that do not
    meet (:class:`sets.InfeasibleSet` either way), raises :class:`EmptyOmega`.

    With the two cuts alone (``two_halfspaces`` on a projector whose set adds
    no rows) a step whose ``x_n`` lies in the contraction cut,
    ``|w - x_n|^2 <= eps``, keeps ``x_n`` without building or projecting
    the cuts: ``x_n`` is the projection of ``x0`` onto the anchor cut (its
    normal is ``x0 - x_n`` and ``x_n`` is on its boundary), so it is the
    projection onto any subset of that cut that contains it.
    """
    alpha = params.alpha(state.n)
    x_cur = state.x_cur

    y_next = prox.step(state.y_cur, x_cur)
    mapped = bundle.mapping(y_next)
    # The squared distances the residual takes the roots of (:func:`_norm`'s formula).
    d = y_next - x_cur
    dist_y2 = float(d.dot(d))
    dist_y = math.sqrt(dist_y2)
    if mapped is y_next or (mapped == y_next).all():
        # Fixed point of the mapping: the average is y itself for every
        # alpha, so z, w and the residual are y's.
        z_next = w_next = y_next
        residual_w, dist_w2 = dist_y, dist_y2
    else:
        z_next = alpha * y_next + (1.0 - alpha) * mapped
        d = z_next - x_cur
        dist_z2 = float(d.dot(d))
        dist_z = math.sqrt(dist_z2)
        w_next, dist_w2 = (y_next, dist_y2) if dist_y >= dist_z else (z_next, dist_z2)
        residual_w = max(dist_y, dist_z)

    dy_next2 = _sum_of_squares(y_next - state.y_cur)
    epsilon = contraction_slack(state, dy_next2, params, bundle.constants)
    if dist_w2 <= epsilon and params.cut_variant == "two_halfspaces" and not projector.set_row_count:
        x_next, dx2 = x_cur, 0.0
    else:
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
        dx2 = _sum_of_squares(x_next - x_cur)

    dist_to_target = None if bundle.target is None else _norm(x_next - bundle.target)
    # Positional: a dataclass matches keyword arguments at a cost the step would feel.
    record = IterationRecord(
        state.n, y_next, z_next, w_next, x_next, epsilon, residual_w, dist_to_target, alpha
    )
    # n, x_cur, y_cur, x0, dx2, dy2
    return SolverState(state.n + 1, x_next, y_next, state.x0, dx2, dy_next2), record


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
    seed = np.zeros(bundle.dim) if y0 is None else as_point(y0, bundle.dim)
    if done is not None:
        return done

    state = SolverState(1, start.copy(), seed.copy(), start.copy(), dx2=0.0, dy2=0.0)
    prox = ProxSolver(bundle.bifunction, params.lam, bundle.feasible)
    projector = _cut_projector(bundle, params)
    check = (lambda before, rec: _audit_record(before, rec, bundle, params)) if audit else None
    return _drive(
        lambda s: hybrid_iterate(s, bundle, params, prox, projector), state, stopping, bundle.dim, check
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
        # n, y, z, w, x, epsilon, residual_w, dist_to_target, alpha
        record = IterationRecord(n, y, x_next, x_next, x_next, None, _norm(y - x), dist, None)
        return (n + 1, x_next), record

    return _drive(step, (1, start.copy()), stopping, bundle.dim)


def _start(bundle: ProblemBundle, stopping: StoppingRule, x0):
    """Either solver's checked start, and its 0-iteration report if it already meets the rule."""
    start = as_point(x0, bundle.dim)
    if stopping.kind != "distance_to_target":
        return start, None
    if bundle.target is None:
        raise ValueError("distance stopping rule needs a bundle with a known target")
    done = float(np.linalg.norm(start - bundle.target)) <= stopping.tol
    return start, RunReport(0, start.copy(), 0.0, STOP_DISTANCE, Trace(bundle.dim)) if done else None


def _drive(step, state, stopping: StoppingRule, dim: int, audit=None) -> RunReport:
    """Apply ``step`` (state -> (state, record)) until the stopping rule holds.

    Keeps the trace, a :class:`Trace` of dimension ``dim`` that copies each
    record in and drops it, and times the loop.  Each record's ``y``, ``z``
    and ``x`` are checked once here (``z`` only when it is not ``y`` itself,
    ``x`` only when it is not the previous record's ``x``), so the helpers
    inside a step need not re-check what the step made: a non-finite entry
    raises :class:`NonFiniteIterate`.  The loop runs with numpy's floating
    point warnings off, so an overflow on the way to a non-finite iterate
    reaches the caller as that error alone.
    ``audit``, when given, is called as ``audit(state_before, record)``
    on every checked record.  Raises :class:`MaxIterExceeded` carrying the
    partial report when the cap is hit.
    """
    trace = Trace(dim)
    stop_reason = None
    x_checked = None
    tic = time.perf_counter()
    with np.errstate(all="ignore"):
        for _ in range(stopping.max_iter):
            before = state
            state, record = step(state)
            y_next, z_next, x_next = record.y_next, record.z_next, record.x_next
            if not (
                all_finite(y_next)
                and (z_next is y_next or all_finite(z_next))
                and (x_next is x_checked or all_finite(x_next))
            ):
                raise NonFiniteIterate(f"iteration {record.n}: an iterate has non-finite entries")
            x_checked = x_next
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

    report = RunReport(len(trace), record.x_next.copy(), elapsed, stop_reason or STOP_MAX_ITER, trace)
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
