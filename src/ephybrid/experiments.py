"""Built-in benchmark problems, experiment configs, and grid runs.

Two bundles ship with the package:

* ``example1``: a three-firm Nash-Cournot model over the polyhedron
  ``{sum(x) >= 1, 0 <= x <= 1}`` with the identity mapping; stopped on
  the step residual.
* ``example2``: the same cost matrices with zero linear term over the
  unit box, paired with an averaged-projection mapping onto three
  exterior halfspaces; the origin is the unique common solution, so
  runs stop on the distance to it.

Configs are plain JSON: matrices as nested arrays, sets as tagged
objects (:func:`set_from_dict`), schedules by name; this module alone
reads the format.  :func:`config_from_dict` builds every config, the two
benchmark grids (``TABLE1``, ``TABLE2``) included.  The rows of a grid
run serially in config order: the solver's many tiny numpy calls hold
the GIL, so a thread pool made the grids slower, not faster.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import hybrid
from .hybrid import (
    AlphaSchedule,
    HybridParams,
    MaxIterExceeded,
    ParameterError,
    RunReport,
    StoppingRule,
    validate_params,
)
from .linalg import as_point
from .problems import (
    AveragedProjections,
    IdentityMapping,
    LipschitzConstants,
    ProblemBundle,
    QuadraticBifunction,
    nash_cournot_constants,
)
from .reporting import ReportRow
from .sets import Box, ConvexSet, Halfspace, Polyhedron, WholeSpace

_P = [[3.1, 2.0, 0.0], [2.0, 3.6, 0.0], [0.0, 0.0, 3.5]]
_Q = [[1.6, 1.0, 0.0], [1.0, 1.6, 0.0], [0.0, 0.0, 1.5]]


class ParseError(ValueError):
    """Config file is malformed (bad JSON or wrong structure)."""


class ValidationError(ValueError):
    """Config parsed but violates a value-domain condition."""


def builtin_example1() -> ProblemBundle:
    """Nash-Cournot bundle over ``{sum(x) >= 1}`` cut to the unit box, identity mapping."""
    f = QuadraticBifunction(_P, _Q, [1.0, -2.0, 3.0])
    feasible = Polyhedron(
        halfspaces=[Halfspace([-1.0, -1.0, -1.0], -1.0)],
        box=Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]),
    )
    return ProblemBundle(
        bifunction=f,
        feasible=feasible,
        mapping=IdentityMapping(),
        constants=nash_cournot_constants(_P, _Q),
        target=None,
        label="example1",
    )


def builtin_example2() -> ProblemBundle:
    """Box-constrained bundle with an averaged-projection mapping.

    The three inner halfspaces lie strictly outside the box, so the
    mapping's fixed points and the equilibrium set meet only at the
    origin, which is attached as the known target.
    """
    box = Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    inner = (
        Halfspace([3.0, 2.0, 1.0], -6.0),
        Halfspace([5.0, 4.0, 3.0], -12.0),
        Halfspace([2.0, 1.0, 1.0], -4.0),
    )
    f = QuadraticBifunction(_P, _Q, [0.0, 0.0, 0.0])
    return ProblemBundle(
        bifunction=f,
        feasible=box,
        mapping=AveragedProjections(box, inner),
        constants=nash_cournot_constants(_P, _Q),
        target=[0.0, 0.0, 0.0],
        label="example2",
    )


BUILTINS = {"example1": builtin_example1, "example2": builtin_example2}

# The paper's two benchmark grids; what they leave out takes the parser's defaults.
TABLE1 = {
    "problem": "example1",
    "starts": [[1.0, 3.0, 1.0], [-3.0, 4.0, 1.0], [3.0, -2.0, 1.0]],
}
TABLE2 = {
    "problem": "example2",
    "params": {
        "alpha_schedule": ["ratio", "pow10", "invlog"],
        "cut_variant": "three_halfspaces",
        "cuts_within_feasible": True,
    },
    "starts": [[1.0, 3.0, 1.0], [-3.0, 4.0, 1.0], [3.0, -2.0, 1.0], [-2.0, 3.0, -1.0]],
}


def default_lambda(constants: LipschitzConstants) -> float:
    """Benchmark default step size ``1 / (5 c1)``."""
    return 1.0 / (5.0 * constants.c1)


@dataclass(eq=False)
class ExperimentConfig:
    """A validated experiment (:func:`config_from_dict`): problem, algorithm, grid, outputs."""

    bundle: ProblemBundle
    algorithm: str
    schedules: tuple[AlphaSchedule, ...]
    lam: float
    k: float
    cut_variant: str
    cuts_within_feasible: bool
    starts: tuple[np.ndarray, ...]
    y0: np.ndarray | None
    stopping: StoppingRule
    audit: bool = False
    csv_path: str | None = None
    json_path: str | None = None
    trace_dir: str | None = None

    def __post_init__(self):
        if self.audit and self.algorithm == "extragradient":
            raise ValidationError("audit: the extragradient baseline has no invariants to assert")

    def params_for(self, schedule: AlphaSchedule) -> HybridParams:
        return validate_params(
            self.lam,
            self.k,
            schedule,
            self.bundle.constants,
            cut_variant=self.cut_variant,
            cuts_within_feasible=self.cuts_within_feasible,
        )


@dataclass(eq=False)
class GridRun:
    """One completed (or capped) run of the grid."""

    start: np.ndarray
    schedule: AlphaSchedule
    schedule_label: str
    report: RunReport


def load_config(path) -> ExperimentConfig:
    """:func:`config_from_dict` of a JSON file; bad JSON or non-UTF-8 text is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("top level must be an object")
    return config_from_dict(data)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Parse and validate an experiment config object.

    Structural problems, a value that is not a number or a key the format
    does not have among them, raise :class:`ParseError`; value-domain
    problems raise :class:`ValidationError`.  Parameter conditions are
    checked eagerly for every schedule in the grid.
    """
    _known_keys(data, _CONFIG_KEYS, "top level")
    problem = data.get("problem")
    if problem is None:
        raise ParseError("field 'problem': required")
    if isinstance(problem, str):
        if problem not in BUILTINS:
            raise ValidationError(f"field 'problem': unknown builtin {problem!r}")
        bundle = BUILTINS[problem]()
    elif isinstance(problem, dict):
        try:
            bundle = bundle_from_dict(problem)
        except (AttributeError, KeyError, TypeError, ParseError) as exc:
            raise ParseError(f"field 'problem': {exc}") from exc
        except ValueError as exc:
            raise ValidationError(f"field 'problem': {exc}") from exc
    else:
        raise ParseError("field 'problem': must be a builtin name or an object")

    algorithm = data.get("algorithm", "hybrid")
    if algorithm not in ("hybrid", "extragradient"):
        raise ValidationError(f"field 'algorithm': unknown value {algorithm!r}")

    params = data.get("params", {})
    _known_keys(params, _PARAMS_KEYS, "field 'params'")
    lam = params.get("lambda")
    lam = default_lambda(bundle.constants) if lam is None else _parsed(_number, lam, "params.lambda")
    k = _parsed(_number, params.get("k", 6.0), "params.k")
    cut_variant = params.get("cut_variant", "two_halfspaces")
    cuts_within_feasible = params.get("cuts_within_feasible", False)

    raw_schedules = params.get("alpha_schedule", "ratio")
    if not isinstance(raw_schedules, list):
        raw_schedules = [raw_schedules]
    if not all(isinstance(s, str) for s in raw_schedules):
        raise ParseError("field 'params.alpha_schedule': a schedule is a name")
    try:
        schedules = tuple(map(AlphaSchedule, raw_schedules))
    except ParameterError as exc:
        raise ValidationError(f"field 'params.alpha_schedule': {exc}") from exc
    if not schedules:
        raise ValidationError("field 'params.alpha_schedule': needs at least one schedule")

    raw_starts = data.get("starts")
    if raw_starts is None or not isinstance(raw_starts, list):
        raise ParseError("field 'starts': must be a list of vectors")
    if not raw_starts:
        raise ValidationError("field 'starts': at least one start point is required")
    starts = tuple(_parsed(_vector, s, "starts") for s in raw_starts)
    y0 = data.get("y0")
    y0 = None if y0 is None else _parsed(_vector, y0, "y0")

    stopping = _parse_stopping(data.get("stopping"), bundle)

    if not isinstance(cuts_within_feasible, bool):
        raise ParseError(
            "field 'params.cuts_within_feasible': must be true or false, "
            f"got {cuts_within_feasible!r}"
        )
    output = data.get("output", {})
    _known_keys(output, _OUTPUT_KEYS, "field 'output'")
    paths = {key: output.get(key) for key in _OUTPUT_KEYS}
    # open() would take an int path as a file descriptor.
    if any(p is not None and not isinstance(p, str) for p in paths.values()):
        raise ParseError("field 'output': paths must be strings")

    config = ExperimentConfig(
        bundle=bundle,
        algorithm=algorithm,
        schedules=schedules,
        lam=lam,
        k=k,
        cut_variant=cut_variant,
        cuts_within_feasible=cuts_within_feasible,
        starts=starts,
        y0=y0,
        stopping=stopping,
        csv_path=paths["csv"],
        json_path=paths["json"],
        trace_dir=paths["trace_dir"],
    )

    # Eager parameter validation for every grid cell.
    try:
        for schedule in config.schedules:
            config.params_for(schedule)
    except ParameterError as exc:
        raise ValidationError(f"{type(exc).__name__}: {exc}") from exc
    if any(s.shape[0] != bundle.dim for s in starts):
        raise ValidationError("field 'starts': dimension does not match the problem")
    if y0 is not None and y0.shape[0] != bundle.dim:
        raise ValidationError("field 'y0': dimension does not match the problem")
    return config


def bundle_from_dict(data: dict) -> ProblemBundle:
    """Build a problem bundle from its JSON object form.

    A non-number raises ``TypeError``; a key, a mapping type or a set type
    (:func:`set_from_dict`) the format does not have, or a ``label`` that is
    not a string, raises :class:`ParseError`.
    """
    _known_keys(data, _PROBLEM_KEYS, "problem")
    bif = data["bifunction"]
    _known_keys(bif, ("P", "Q", "q"), "problem.bifunction")
    P, Q = (np.array([_vector(row) for row in bif[key]]) for key in ("P", "Q"))
    f = QuadraticBifunction(P, Q, _vector(bif["q"]))
    feasible = set_from_dict(data["feasible"])
    mapping_data = data.get("mapping", {"type": "identity"})
    kind = mapping_data.get("type")
    if kind not in _MAPPING_KEYS:
        raise ParseError(f"unknown mapping type {kind!r}")
    _known_keys(mapping_data, _MAPPING_KEYS[kind], "problem.mapping")
    if kind == "identity":
        mapping = IdentityMapping()
    else:
        mapping = AveragedProjections(
            set_from_dict(mapping_data["outer"]),
            [set_from_dict(s) for s in mapping_data["inner"]],
        )
    constants_data = data.get("constants")
    if constants_data is None:
        constants = nash_cournot_constants(P, Q)
    else:
        _known_keys(constants_data, ("c1", "c2"), "problem.constants")
        constants = LipschitzConstants(_number(constants_data["c1"]), _number(constants_data["c2"]))
    target = data.get("target")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ParseError(f"label: must be a string, got {label!r}")
    return ProblemBundle(
        bifunction=f,
        feasible=feasible,
        mapping=mapping,
        constants=constants,
        target=None if target is None else _vector(target),
        label=label,
    )


def set_from_dict(d: dict) -> ConvexSet:
    """Build a set from its tagged-JSON form: an object whose ``type`` names the kind.

    A ``null`` box bound is an infinite one.  A non-number raises
    ``TypeError``; a ``type`` or a key the format does not have, or a
    dimension that is not a whole number, raises :class:`ParseError`.
    """
    kind = d.get("type")
    if kind not in _SET_KEYS:
        raise ParseError(f"unknown set type: {kind!r}")
    _known_keys(d, _SET_KEYS[kind], f"{kind} set")
    if kind == "whole_space":
        return WholeSpace(_parsed(_whole_number, d["dim"], "whole_space.dim"))
    if kind == "halfspace":
        return Halfspace(_vector(d["a"]), _number(d["b"]))
    if kind == "box":
        lo = [-np.inf if v is None else _number(v) for v in d["lo"]]
        hi = [np.inf if v is None else _number(v) for v in d["hi"]]
        return Box(lo, hi)
    box = d.get("box")
    halves = d.get("halfspaces", [])
    if box is not None and box.get("type") != "box":
        raise ValueError("polyhedron box entry must be a box")
    if any(h.get("type") != "halfspace" for h in halves):
        raise ValueError("polyhedron halfspaces entries must be halfspaces")
    return Polyhedron(map(set_from_dict, halves), None if box is None else set_from_dict(box))


def run_grid(config: ExperimentConfig) -> list[GridRun]:
    """Execute every (start x schedule) cell serially, in config order.

    A capped run is recorded with its partial report rather than
    raised.  Audit-mode invariant violations do propagate.
    """
    schedules = (None,) if config.algorithm == "extragradient" else config.schedules
    return [_run_cell(config, start, schedule) for start in config.starts for schedule in schedules]


def _run_cell(config: ExperimentConfig, start, schedule: AlphaSchedule | None) -> GridRun:
    """One grid cell; ``schedule`` is ``None`` for the extragradient baseline."""
    try:
        if schedule is None:
            report = hybrid.extragradient_solve(config.bundle, config.lam, config.stopping, start)
        else:
            report = hybrid.solve(
                config.bundle,
                config.params_for(schedule),
                config.stopping,
                start,
                y0=config.y0,
                audit=config.audit,
            )
    except MaxIterExceeded as exc:
        report = exc.report
    label = "-" if schedule is None else schedule.label()
    return GridRun(start=start, schedule=schedule, schedule_label=label, report=report)


def grid_row(run: GridRun) -> ReportRow:
    return ReportRow(
        start=run.start,
        schedule=run.schedule_label,
        iterations=run.report.iterations,
        elapsed_s=run.report.elapsed_s,
        final_x=run.report.final_x,
        stop_reason=run.report.stop_reason,
    )


def table1_config() -> ExperimentConfig:
    """Benchmark grid #1 (``TABLE1``): three starts, residual stopping at 1e-4."""
    return config_from_dict(TABLE1)


def table2_config() -> ExperimentConfig:
    """Benchmark grid #2 (``TABLE2``): four starts x three schedules, distance stopping at 1e-3."""
    return config_from_dict(TABLE2)


_CONFIG_KEYS = ("problem", "algorithm", "params", "starts", "y0", "stopping", "output")
_PARAMS_KEYS = ("lambda", "k", "alpha_schedule", "cut_variant", "cuts_within_feasible")
_OUTPUT_KEYS = ("csv", "json", "trace_dir")
_PROBLEM_KEYS = ("label", "bifunction", "feasible", "mapping", "constants", "target")
_MAPPING_KEYS = {"identity": ("type",), "averaged_projections": ("type", "outer", "inner")}
_SET_KEYS = {
    "whole_space": ("type", "dim"),
    "halfspace": ("type", "a", "b"),
    "box": ("type", "lo", "hi"),
    "polyhedron": ("type", "halfspaces", "box"),
}


def _known_keys(data: dict, keys, where: str) -> None:
    """Raise :class:`ParseError` unless ``data`` is an object whose keys are all in ``keys``."""
    if not isinstance(data, dict):
        raise ParseError(f"{where}: must be an object")
    unknown = [key for key in data if key not in keys]
    if unknown:
        raise ParseError(f"{where}: unknown key {', '.join(map(repr, unknown))}")


def _parsed(convert, raw, field: str):
    """``convert(raw)``; a value it rejects (not a number) raises :class:`ParseError`."""
    try:
        return convert(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"field {field!r}: {exc}") from exc


def _number(raw) -> float:
    """``float(raw)`` for a JSON number; not for a bool (``true``) or a string (``"6"``)."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TypeError(f"must be a number, got {raw!r}")
    return float(raw)


def _vector(raw) -> np.ndarray:
    """A point (:func:`linalg.as_point`) of :func:`_number` entries."""
    return as_point([_number(v) for v in raw])


def _whole_number(raw) -> int:
    """A count: a :func:`_number` without a fractional part (``1.5`` is not 1).
    A float with none, such as ``10000.0``, is that integer.
    """
    value = _number(raw)
    if not value.is_integer():
        raise ValueError(f"must be a whole number, got {raw!r}")
    return int(value)


def _parse_stopping(raw, bundle: ProblemBundle) -> StoppingRule:
    if raw is None:
        raw = {} if bundle.target is None else {"rule": "distance_to_target", "tol": 1e-3}
    _known_keys(raw, ("rule", "tol", "max_iter"), "field 'stopping'")
    tol = _parsed(_number, raw.get("tol", 1e-4), "stopping.tol")
    max_iter = _parsed(_whole_number, raw.get("max_iter", 10000), "stopping.max_iter")
    try:
        rule = StoppingRule(raw.get("rule", "residual_w"), tol, max_iter)
    except ValueError as exc:
        raise ValidationError(f"field 'stopping': {exc}") from exc
    if rule.kind == "distance_to_target" and bundle.target is None:
        raise ValidationError("field 'stopping': the distance rule needs a known target")
    return rule
