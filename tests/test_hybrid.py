import dataclasses
import gc
import importlib.util
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ephybrid.experiments import (
    config_from_dict,
    default_lambda,
    run_grid,
    table1_config,
    table2_config,
)
from ephybrid.hybrid import (
    AlphaSchedule,
    AlphaOutOfRange,
    EmptyOmega,
    InvariantViolation,
    IterationRecord,
    KTooSmall,
    LambdaOutOfRange,
    MaxIterExceeded,
    NonFiniteIterate,
    RunReport,
    SolverState,
    StoppingRule,
    _cut_projector,
    _project_onto_cuts,
    _step_rows,
    alpha_at,
    build_anchor_cut,
    build_contraction_cut,
    contraction_slack,
    extragradient_solve,
    hybrid_iterate,
    solve,
    validate_params,
)
from ephybrid.problems import (
    AffineOperator,
    IdentityMapping,
    LipschitzConstants,
    ProblemBundle,
    QuadraticBifunction,
    vip_as_bifunction,
)
from ephybrid import qp
from ephybrid.linalg import DimensionMismatch
from ephybrid.qp import CutProjector, ProxSolver, solve_qp_active_set
from ephybrid.sets import Box, Halfspace, InfeasibleSet, Polyhedron, WholeSpace
from oracles import enumeration_qp, halfspace_rows, set_parts
from pins import TABLE1_ITERATIONS


def fresh_state(x0, dim=None):
    x0 = np.asarray(x0, dtype=float)
    z = np.zeros(dim or x0.shape[0])
    return SolverState(1, x0.copy(), z.copy(), x0.copy(), 0.0, 0.0)


def test_validate_params_benchmark_settings(example1):
    # At the benchmark step size 2*lam*(c1+c2) = 0.8, so k must exceed
    # 1/(1 - 0.8) = 5 by more than a relative 1e-12.
    lam = default_lambda(example1.constants)
    params = validate_params(lam, 6.0, AlphaSchedule("ratio"), example1.constants)
    assert params.lam == lam and params.k == 6.0
    validate_params(lam, 5.0 * (1.0 + 1e-11), AlphaSchedule("ratio"), example1.constants)
    with pytest.raises(KTooSmall):
        validate_params(lam, 5.0 * (1.0 + 1e-13), AlphaSchedule("ratio"), example1.constants)


def test_validate_params_rejects_boundary_lambda(example1):
    csum = example1.constants.c1 + example1.constants.c2
    with pytest.raises(LambdaOutOfRange):
        validate_params(1.0 / (2.0 * csum), 6.0, AlphaSchedule("ratio"), example1.constants)
    with pytest.raises(LambdaOutOfRange):
        validate_params(-0.1, 6.0, AlphaSchedule("ratio"), example1.constants)


def test_validate_params_rejects_small_k(example1):
    lam = default_lambda(example1.constants)
    with pytest.raises(KTooSmall):
        validate_params(lam, 5.0, AlphaSchedule("ratio"), example1.constants)


def test_alpha_schedules():
    assert alpha_at(AlphaSchedule("ratio"), 1) == 0.0
    assert alpha_at(AlphaSchedule("ratio"), 3) == pytest.approx(0.25)
    assert alpha_at(AlphaSchedule("pow10"), 3) == pytest.approx(1e-3)
    assert alpha_at(AlphaSchedule("invlog"), 1) == pytest.approx(0.99)  # clamped
    assert alpha_at(AlphaSchedule("invlog"), 100) == pytest.approx(1.0 / math.log10(101.0))
    with pytest.raises(AlphaOutOfRange):
        AlphaSchedule("geometric")


def test_contraction_slack_stationary_is_zero(example1):
    params = validate_params(
        default_lambda(example1.constants), 6.0, AlphaSchedule("ratio"), example1.constants
    )
    # A window that has not moved: every squared move is 0.0.
    st = fresh_state([1.0, 2.0, 3.0])
    assert contraction_slack(st, 0.0, params, example1.constants) == 0.0


def test_contraction_slack_hand_coefficients(example1):
    # with 2*lam*c1 = 0.4 and k = 6 the leading coefficient is 13/30
    consts = example1.constants
    lam = default_lambda(consts)
    params = validate_params(lam, 6.0, AlphaSchedule("ratio"), consts)
    lead = 1.0 - 1.0 / params.k - 2.0 * params.lam * consts.c1
    assert (params.k, 2.0 * params.lam * consts.c2, lead) == pytest.approx((6.0, 0.4, 13.0 / 30.0))
    rng = np.random.default_rng(3)
    for _ in range(100):
        st = fresh_state(rng.normal(size=3))
        st.dx2, st.dy2, dyn2 = (float(v) for v in rng.uniform(0.0, 10.0, 3))
        # Example 1's 2*lam*c1 rounds below 0.4, so the coefficients are the
        # parameters' own; the order of the operations is the slack's.
        expected = params.k * st.dx2 + 2.0 * params.lam * consts.c2 * st.dy2 - lead * dyn2
        assert contraction_slack(st, dyn2, params, consts) == expected


def test_slack_conventions_differ_for_unequal_constants():
    # Unequal constants pin the ordering: 2*lam*c2 = 0.4 weighs the previous
    # prox displacement and 2*lam*c1 = 0.2 the incoming one.  The orderings
    # differ by 2*lam*(c2 - c1)*(dy_prev2 - dy_next2), so here dx2 = 1,
    # dy_prev2 = 1 and dy_next2 = 4; the other ordering gives 4.4667, not 3.8667.
    consts = LipschitzConstants(1.0, 2.0)
    params = validate_params(0.1, 6.0, AlphaSchedule("ratio"), consts)
    # Doubling is exact, so 2*lam*c2 and 2*lam*c1 are the doubles 0.4 and 0.2.
    st = fresh_state([1.0, 0.0])
    st.dx2, st.dy2 = 1.0, 1.0
    expected = 6.0 * 1.0 + 0.4 * 1.0 - (1.0 - 1.0 / 6.0 - 0.2) * 4.0
    swapped = 6.0 * 1.0 + 0.2 * 1.0 - (1.0 - 1.0 / 6.0 - 0.4) * 4.0
    assert abs(expected - swapped) > 0.5
    assert contraction_slack(st, 4.0, params, consts) == expected


def inside(row, point, tol):
    """Whether ``point`` satisfies the cut row ``(a, b)`` within ``tol``; ``None`` is the whole space."""
    return row is None or float(row[0] @ point - row[1]) <= tol


def test_contraction_cut_is_perpendicular_bisector():
    a, b = build_contraction_cut(np.array([1.0, 0.0]), np.zeros(2), 0.0)
    assert a.tolist() == [2.0, 0.0] and b == 1.0
    cut = Halfspace(a, b)
    # z1 <= 1/2: the midpoint sits on the boundary
    assert cut.violation([0.5, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert cut.contains([0.49, 7.0])
    assert not cut.contains([0.51, -7.0])


def test_contraction_cut_degenerate_cases():
    x = np.array([1.0, 2.0])
    assert build_contraction_cut(x, x.copy(), 0.1) is None
    assert build_contraction_cut(x, x.copy(), 0.0) is None
    with pytest.raises(InfeasibleSet):
        build_contraction_cut(x, x.copy(), -0.1)


def test_contraction_cut_matches_quadratic_membership():
    rng = np.random.default_rng(15)
    for _ in range(100):
        d = int(rng.integers(1, 5))
        x = rng.normal(size=d)
        w = rng.normal(size=d)
        eps = rng.normal()
        cut = build_contraction_cut(x, w, eps)
        for _ in range(20):
            z = rng.normal(scale=2.0, size=d)
            quad = float((w - z) @ (w - z) - (x - z) @ (x - z)) - eps
            if abs(quad) < 1e-9:
                continue  # boundary slivers can round either way
            if cut is None:
                assert quad <= 0.0
            else:
                assert (quad <= 0.0) == inside(cut, z, 0.0)


def test_anchor_cut_structure():
    assert build_anchor_cut(np.ones(2), np.ones(2)) is None
    a, b = build_anchor_cut(np.array([1.0, 0.0]), np.zeros(2))
    assert a.tolist() == [1.0, 0.0] and b == 0.0
    assert inside((a, b), np.array([0.0, 5.0]), 0.0)
    assert not inside((a, b), np.array([0.1, 0.0]), 1e-9)
    # the defining iterate always sits on the boundary
    x_cur = np.array([-0.3, 0.4])
    cut = build_anchor_cut(np.array([1.0, 2.0]), x_cur)
    assert float(cut[0] @ x_cur - cut[1]) == pytest.approx(0.0, abs=1e-15)


def test_identity_mapping_collapses_averaging(example1):
    params = validate_params(
        default_lambda(example1.constants), 6.0, AlphaSchedule("ratio"), example1.constants
    )
    state = fresh_state([1.0, 3.0, 1.0])
    prox = ProxSolver(example1.bifunction, params.lam, example1.feasible)
    projector = _cut_projector(example1, params)
    for _ in range(10):
        state, rec = hybrid_iterate(state, example1, params, prox, projector)
        assert np.array_equal(rec.z_next, rec.y_next)
        assert np.array_equal(rec.w_next, rec.y_next)


def test_first_iteration_anchor_is_whole_space(example2):
    params = validate_params(
        default_lambda(example2.constants), 6.0, AlphaSchedule("ratio"), example2.constants
    )
    state = fresh_state([1.0, 3.0, 1.0])
    prox = ProxSolver(example2.bifunction, params.lam, example2.feasible)
    _, rec = hybrid_iterate(state, example2, params, prox, _cut_projector(example2, params))
    contraction, anchor = step_cuts(state, rec)
    assert anchor is None
    assert contraction is not None


def test_iterate_record_invariants(example2):
    params = validate_params(
        default_lambda(example2.constants), 6.0, AlphaSchedule("pow10"), example2.constants
    )
    state = fresh_state([-2.0, 3.0, -1.0])
    prox = ProxSolver(example2.bifunction, params.lam, example2.feasible)
    projector = _cut_projector(example2, params)
    for _ in range(15):
        x_cur = state.x_cur
        state, rec = hybrid_iterate(state, example2, params, prox, projector)
        assert np.array_equal(rec.w_next, rec.y_next) or np.array_equal(rec.w_next, rec.z_next)
        dy = np.linalg.norm(rec.y_next - x_cur)
        dz = np.linalg.norm(rec.z_next - x_cur)
        assert rec.residual_w == pytest.approx(max(dy, dz), rel=1e-12)
        # prox outputs stay feasible; averaged point on the segment
        assert example2.feasible.contains(rec.y_next, tol=1e-10)
        mapped = example2.mapping(rec.y_next)
        blend = rec.alpha * rec.y_next + (1.0 - rec.alpha) * mapped
        assert np.linalg.norm(rec.z_next - blend) <= 1e-12


def step_cuts(state, rec):
    """The contraction and anchor rows of the step from ``state`` to ``rec``, rebuilt."""
    return (
        build_contraction_cut(state.x_cur, rec.w_next, rec.epsilon),
        build_anchor_cut(state.x0, state.x_cur),
    )


def trace_cuts(report, x0):
    """``(rec, contraction, anchor)`` for every record of a hybrid run from ``x0``."""
    state = fresh_state(x0)
    for rec in report.trace:
        yield (rec, *step_cuts(state, rec))
        # The cuts read only x_n and x0, so the squared moves are left at 0.0.
        state = SolverState(rec.n + 1, rec.x_next, rec.y_next, state.x0, 0.0, 0.0)


def test_known_solution_stays_in_cuts(example2):
    params = validate_params(
        default_lambda(example2.constants), 6.0, AlphaSchedule("ratio"), example2.constants
    )
    x0 = [1.0, 3.0, 1.0]
    # The audit asserts the certificate, monotonicity and membership too.
    report = solve(example2, params, StoppingRule("distance_to_target", 1e-3, 10000), x0, audit=True)
    for _, contraction, anchor in trace_cuts(report, x0):
        assert inside(contraction, np.zeros(3), 1e-8)
        assert inside(anchor, np.zeros(3), 1e-8)


def test_two_halfspace_projection_consistent_with_qp(example2):
    # designated audit run: the explicit projection agrees with the QP path
    params = validate_params(
        default_lambda(example2.constants), 6.0, AlphaSchedule("ratio"), example2.constants
    )
    x0 = np.array([3.0, -2.0, 1.0])
    report = solve(example2, params, StoppingRule("distance_to_target", 1e-3, 10000), x0)
    for rec, contraction, anchor in trace_cuts(report, x0):
        halves = [Halfspace(*c) for c in (contraction, anchor) if c is not None]
        if not halves:
            continue
        ref = Polyhedron(halves).project(x0)
        assert np.linalg.norm(rec.x_next - ref) <= 1e-8


def test_solve_raises_max_iter_with_partial_report(example1):
    params = validate_params(
        default_lambda(example1.constants), 6.0, AlphaSchedule("ratio"), example1.constants
    )
    with pytest.raises(MaxIterExceeded) as exc:
        solve(example1, params, StoppingRule("residual_w", 1e-12, 3), [1.0, 3.0, 1.0])
    assert exc.value.report.iterations == 3
    assert exc.value.report.stop_reason == "MaxIter"
    assert len(exc.value.report.trace) == 3


def test_extragradient_raises_max_iter_with_partial_report(example1):
    with pytest.raises(MaxIterExceeded) as exc:
        extragradient_solve(
            example1,
            default_lambda(example1.constants),
            StoppingRule("residual_w", 1e-300, 3),
            [1.0, 3.0, 1.0],
        )
    assert exc.value.report.iterations == 3
    assert exc.value.report.stop_reason == "MaxIter"
    assert len(exc.value.report.trace) == 3


def test_final_x_is_last_trace_iterate(example1, example2):
    lam = default_lambda(example1.constants)
    params = validate_params(lam, 6.0, AlphaSchedule("ratio"), example1.constants)
    x0 = [1.0, 3.0, 1.0]
    reports = [
        solve(example1, params, StoppingRule("residual_w", 1e-4, 10000), x0),
        extragradient_solve(example1, lam, StoppingRule("residual_w", 1e-8, 5000), x0),
        extragradient_solve(example2, lam, StoppingRule("distance_to_target", 1e-3, 5000), x0),
    ]
    try:
        solve(example1, params, StoppingRule("residual_w", 1e-300, 5), x0)
    except MaxIterExceeded as exc:
        reports.append(exc.report)
    assert len(reports) == 4
    for report in reports:
        assert report.iterations == len(report.trace) >= 1
        assert report.final_x.tobytes() == report.trace[-1].x_next.tobytes()
        assert report.final_x is not report.trace[-1].x_next


def test_a_run_keeps_its_trace_as_columns():
    # One table1 cell, (1, 3, 1): 1,518 iterations whose y, x and scalars are
    # about 100 bytes as columns.  Records held in a list kept 532 bytes per
    # iteration, in an instance dict, two small arrays and three floats each.
    config = table1_config()
    params = config.params_for(config.schedules[0])

    def run():
        return solve(config.bundle, params, config.stopping, [1.0, 3.0, 1.0], y0=config.y0)

    def records_alive():
        return sum(type(o) is IterationRecord for o in gc.get_objects())

    run()  # first-use set-up, such as the feasible set's prepared rows, is not the trace's
    gc.collect()
    alive = records_alive()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert report.iterations == TABLE1_ITERATIONS[0]
    assert retained / report.iterations <= 150, retained / report.iterations
    assert records_alive() == alive


def test_solve_distance_rule_needs_target(example1):
    params = validate_params(
        default_lambda(example1.constants), 6.0, AlphaSchedule("ratio"), example1.constants
    )
    with pytest.raises(ValueError):
        solve(example1, params, StoppingRule("distance_to_target", 1e-3, 10), [1.0, 3.0, 1.0])


@pytest.mark.parametrize("solver", ["hybrid", "extragradient"])
def test_solve_start_at_target(example2, solver):
    # Both solvers check their start through one helper, which returns a
    # 0-iteration report when the start already meets the distance rule.
    lam = default_lambda(example2.constants)
    stopping = StoppingRule("distance_to_target", 1e-3, 10)
    if solver == "hybrid":
        params = validate_params(lam, 6.0, AlphaSchedule("ratio"), example2.constants)
        report = solve(example2, params, stopping, [0.0, 0.0, 0.0])
    else:
        report = extragradient_solve(example2, lam, stopping, [0.0, 0.0, 0.0])
    assert report.iterations == 0
    assert report.stop_reason == "DistanceToKnown"


def test_solve_accepts_a_seed_outside_the_feasible_set(example1):
    params = validate_params(
        default_lambda(example1.constants), 6.0, AlphaSchedule("ratio"), example1.constants
    )
    # The conventional zero seed lies outside example1's set; the run goes on to the cap.
    assert not example1.feasible.contains(np.zeros(3))
    with pytest.raises(MaxIterExceeded):
        solve(example1, params, StoppingRule("residual_w", 1e-12, 5), [1.0, 3.0, 1.0])


def test_solvers_check_the_dimension_of_their_start_and_seed(example1):
    lam = default_lambda(example1.constants)
    params = validate_params(lam, 6.0, AlphaSchedule("ratio"), example1.constants)
    stopping = StoppingRule("residual_w", 1e-4, 10)
    for start in ([1.0, 3.0], [1.0, 3.0, 1.0, 0.0]):
        with pytest.raises(DimensionMismatch):
            solve(example1, params, stopping, start)
        with pytest.raises(DimensionMismatch):
            extragradient_solve(example1, lam, stopping, start)
    with pytest.raises(DimensionMismatch):
        solve(example1, params, stopping, [1.0, 3.0, 1.0], y0=[0.0, 0.0])


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 2: the first step's slack assumes y_0 is a prox output, which the zero seed is not",
)
def test_the_default_seed_run_from_a_solution_in_a_far_box_ends_in_the_box(example1):
    # example1's bifunction over [3, 4]^3, started at its solution (3, 3, 3)
    # with the default zero seed: the run stops after 1 iteration at about
    # (1.3e16, 3, 3), and an audit passes it.
    f = example1.bifunction
    problem = {
        "bifunction": {"P": f.P.tolist(), "Q": f.Q.tolist(), "q": f.q.tolist()},
        "feasible": {"type": "box", "lo": [3.0, 3.0, 3.0], "hi": [4.0, 4.0, 4.0]},
    }
    config = config_from_dict({"problem": problem, "starts": [[3.0, 3.0, 3.0]]})
    (run,) = run_grid(config)
    assert config.bundle.feasible.contains(run.report.final_x), run.report.final_x


def test_audit_mode_clean_run(example2):
    params = validate_params(
        default_lambda(example2.constants), 6.0, AlphaSchedule("pow10"), example2.constants
    )
    report = solve(
        example2, params, StoppingRule("distance_to_target", 1e-3, 10000), [-3.0, 4.0, 1.0], audit=True
    )
    assert report.stop_reason == "DistanceToKnown"


def test_audit_detects_fabricated_violation(example2):
    from ephybrid.hybrid import IterationRecord, _audit_record

    two = validate_params(
        default_lambda(example2.constants), 6.0, AlphaSchedule("ratio"), example2.constants
    )
    three = dataclasses.replace(two, cut_variant="three_halfspaces")

    # By default a step from x_n = (1, 0, 0) with x0 = (2, 0, 0): the anchor
    # cut is {z1 <= 1} and, with y = z = w = 0 and no slack, the contraction
    # cut (three_halfspaces: the prox cut) is {z1 <= 1/2}; the averaging
    # cut of y = z is the whole space.  example2's known solution is the origin.
    def pair(x_cur=(1.0, 0.0, 0.0), x0=(2.0, 0.0, 0.0), w=(0.0, 0.0, 0.0), x_next=(0.5, 0.0, 0.0),
             epsilon=0.0, y=None, z=None):
        state = SolverState(3, np.array(x_cur), np.zeros(3), np.array(x0), 0.0, 0.0)
        w, x_next = np.array(w), np.array(x_next)
        y = w if y is None else np.array(y)
        z = w if z is None else np.array(z)
        record = IterationRecord(
            n=3, y_next=y, z_next=z, w_next=w, x_next=x_next, epsilon=epsilon,
            residual_w=1.0, dist_to_target=float(np.linalg.norm(x_next)), alpha=0.0,
        )
        return state, record

    # |w|^2 = 4 exceeds |x_n|^2 + slack = 1; x_next = w lies in both cuts,
    # {z1 >= 3/2} and, from x0 = 0, {z1 >= 1}.
    certificate = pair(x0=(0.0, 0.0, 0.0), w=(2.0, 0.0, 0.0), x_next=(2.0, 0.0, 0.0))
    # |x_next - x0| = 1.9 is below |x_n - x0| = 2.
    monotone = pair(x_cur=(0.0, 0.0, 0.0), x_next=(0.1, 0.0, 0.0))
    # x_next lies past the contraction (prox) cut's face z1 = 1/2.
    membership = pair(x_next=(0.9, 0.0, 0.0))
    # w = (0.9, 0, 0) with slack 1/2 makes the contraction cut {z1 <= 3.45};
    # x_next lies past the anchor cut's face z1 = 1, yet farther from x0.
    escaped_anchor = pair(w=(0.9, 0.0, 0.0), x_next=(1.5, 10.0, 0.0), epsilon=0.5)
    # y = (0.5, 0, 0), z = w = (0.4, 0, 0): the averaging cut is {z1 <= 0.45}.
    escaped_averaging = pair(w=(0.4, 0.0, 0.0), y=(0.5, 0.0, 0.0), x_next=(0.5, 0.0, 0.0))
    # With a known solution the contraction cut's membership test is the
    # certificate's inequality, rounded otherwise: at |x_n|^2 = |w|^2 = 1e16
    # the certificate's 1e-8 band is lost in rounding, while the cut's offset
    # is the slack alone, -1.5e-8, and the origin misses it by 1.5e-8.
    contraction = pair(
        x_cur=(1e8, 0.0, 0.0), x0=(2e8, 0.0, 0.0), w=(0.0, 1e8, 0.0), x_next=(0.0, 1.0, 0.0),
        epsilon=-1.5e-8,
    )
    # x0 = (-1, 0, 0) turns the anchor cut into {z1 >= 1}, away from the origin;
    # w = (0.9, 0, 0) with slack 1/2 makes the contraction cut {z1 <= 3.45}.
    anchor = pair(x0=(-1.0, 0.0, 0.0), w=(0.9, 0.0, 0.0), x_next=(1.0, 0.0, 0.0), epsilon=0.5)
    # z = w = (0.6, 0, 0) is farther from the origin than y = (0.5, 0, 0): the
    # averaging cut {z1 >= 0.55} leaves it out.  The certificate holds for w.
    averaging = pair(w=(0.6, 0.0, 0.0), y=(0.5, 0.0, 0.0), x_next=(0.6, 0.0, 0.0))
    # |y|^2 = 1.21 exceeds |x_n|^2 + slack = 1, so the prox cut leaves the
    # origin out, while w = z = (-0.5, 0, 0), the farther from x_n, passes
    # the certificate and the averaging cut keeps the origin.
    prox = pair(w=(-0.5, 0.0, 0.0), y=(0.0, 1.1, 0.0), x_next=(-0.5, 0.3, 0.0))
    for params, (state, rec), message in (
        (two, certificate, "contraction certificate"),
        (two, monotone, "distance to the initial point"),
        (two, membership, "escaped the contraction cut"),
        (two, escaped_anchor, "escaped the anchor cut"),
        (two, contraction, "left the contraction cut"),
        (two, anchor, "left the anchor cut"),
        (three, membership, "escaped the prox cut"),
        (three, escaped_averaging, "escaped the averaging cut"),
        (three, averaging, "left the averaging cut"),
        (three, prox, "left the prox cut"),
        (three, anchor, "left the anchor cut"),
    ):
        with pytest.raises(InvariantViolation, match=message):
            _audit_record(state, rec, example2, params)
    _audit_record(*pair(), example2, two)
    _audit_record(*pair(), example2, three)
    # Without a known solution the checks against it do not run.
    no_target = ProblemBundle(
        example2.bifunction, example2.feasible, example2.mapping, example2.constants
    )
    for params, (state, rec) in (
        (two, certificate), (two, contraction), (two, anchor), (three, averaging), (three, prox)
    ):
        _audit_record(state, rec, no_target, params)


def test_random_bundles_keep_independent_solution_in_cuts():
    # on fresh random monotone problems, the equilibrium found by the
    # baseline must lie inside every cut the hybrid iteration builds
    from ephybrid.problems import QuadraticBifunction as QB, nash_cournot_constants

    rng = np.random.default_rng(71)
    for _ in range(3):
        d = int(rng.integers(2, 5))
        G = rng.normal(size=(d, d)) / np.sqrt(d)
        Qm = G @ G.T
        D = rng.normal(size=(d, d)) / np.sqrt(d)
        Pm = Qm + D @ D.T + 0.1 * np.eye(d)
        f = QB(Pm, Qm, rng.normal(size=d))
        consts = nash_cournot_constants(Pm, Qm)
        box = Box(np.full(d, -1.0), np.full(d, 1.0))
        bundle = ProblemBundle(f, box, IdentityMapping(), consts)
        lam = 1.0 / (5.0 * consts.c1)
        x0 = rng.normal(scale=1.5, size=d)
        limit = extragradient_solve(
            bundle, lam, StoppingRule("residual_w", 1e-9, 20000), x0
        ).final_x
        params = validate_params(lam, 6.0, AlphaSchedule("ratio"), consts)
        # The audit asserts monotonicity and membership at every step.
        try:
            report = solve(bundle, params, StoppingRule("residual_w", 1e-7, 150), x0, audit=True)
        except MaxIterExceeded as exc:
            report = exc.report
        start_gap = float(np.linalg.norm(x0 - limit))
        for _, contraction, anchor in trace_cuts(report, x0):
            assert inside(contraction, limit, 1e-6)
            assert inside(anchor, limit, 1e-6)
        assert float(np.linalg.norm(report.final_x - limit)) < start_gap


def test_extragradient_reaches_exact_rational_equilibrium(example1):
    # the equilibrium of the first benchmark is exactly (0, 50/51, 1/51):
    # on the face x1 = 0, sum(x) = 1 the combined-cost gradient takes the
    # same value on both free coordinates and a larger one on the pinned one
    report = extragradient_solve(
        example1,
        default_lambda(example1.constants),
        StoppingRule("residual_w", 1e-12, 5000),
        [1.0, 3.0, 1.0],
    )
    exact = np.array([0.0, 50.0 / 51.0, 1.0 / 51.0])
    assert np.max(np.abs(np.asarray(report.final_x) - exact)) <= 1e-8


def test_empty_cut_intersection_without_common_solution():
    # equilibrium point of the identity operator on [1, 2] is 1, while the
    # mapping pushes everything to 2: no common solution, so the cuts must
    # eventually become inconsistent
    from ephybrid.hybrid import EmptyOmega
    from ephybrid.problems import AveragedProjections

    op = AffineOperator(np.eye(1), [0.0])
    f, consts = vip_as_bifunction(op)
    box = Box([1.0], [2.0])
    mapping = AveragedProjections(box, [Halfspace([-1.0], -2.0)])
    bundle = ProblemBundle(f, box, mapping, consts, label="no-common-solution")
    params = validate_params(
        1.0 / (5.0 * consts.c1), 6.0, AlphaSchedule("ratio"), consts
    )
    with pytest.raises(EmptyOmega):
        solve(bundle, params, StoppingRule("residual_w", 1e-9, 500), [0.0], y0=[1.5])


def test_first_iteration_projects_onto_contraction_alone(example2):
    params = validate_params(
        default_lambda(example2.constants), 6.0, AlphaSchedule("ratio"), example2.constants
    )
    x0 = np.array([1.0, 3.0, 1.0])
    state = fresh_state(x0)
    prox = ProxSolver(example2.bifunction, params.lam, example2.feasible)
    _, rec = hybrid_iterate(state, example2, params, prox, _cut_projector(example2, params))
    contraction, _ = step_cuts(state, rec)
    assert np.allclose(rec.x_next, Halfspace(*contraction).project(x0), atol=1e-12)


def test_a_first_step_whose_w_is_x0_keeps_x0_or_finds_no_cut():
    # The identity operator on [1, 2] with the identity mapping: from x0 = 1
    # every prox point is 1, so w = x0.  At n = 1 the slack is
    # -lead |y_1 - y_0|^2, so x0 satisfies the contraction cut only when the
    # seed is 1 too (eps = 0): the step keeps x0's own array.  Any other seed
    # makes eps < 0, a cut with a zero normal and no point.
    f, consts = vip_as_bifunction(AffineOperator(np.eye(1), [0.0]))
    box = Box([1.0], [2.0])
    bundle = ProblemBundle(f, box, IdentityMapping(), consts)
    params = validate_params(1.0 / (5.0 * consts.c1), 6.0, AlphaSchedule("ratio"), consts)

    def first_step(seed):
        state = SolverState(1, np.array([1.0]), np.array([seed]), np.array([1.0]), 0.0, 0.0)
        prox = ProxSolver(f, params.lam, box)
        return state, *hybrid_iterate(state, bundle, params, prox, _cut_projector(bundle, params))

    state, new_state, rec = first_step(1.0)
    assert rec.w_next.tolist() == [1.0] and rec.epsilon == 0.0
    assert new_state.x_cur is state.x_cur and rec.x_next is state.x_cur
    assert new_state.dx2 == 0.0 and state.x_cur.tolist() == [1.0]
    with pytest.raises(EmptyOmega, match="iteration 1: .*zero normal with negative slack"):
        first_step(1.5)


def bench_workloads():
    """``bench/workloads.py``, loaded from the checkout."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


@pytest.mark.parametrize("grid", ["table1", "nc64 seed 1"])
def test_a_kept_x_n_is_the_projection_onto_its_cuts(grid):
    """A step that keeps ``x_n`` (``|w - x_n|^2 <= eps``, the two cuts alone) keeps what
    the full projection onto its cuts returns, to a relative 1e-12; every other
    step moves ``x``.  Every cell of the grid, stepped by hand as :func:`solve` does."""
    if grid == "table1":
        config = table1_config()
    else:
        config = config_from_dict(bench_workloads().nash_cournot_config(1))
    bundle, stopping, dim = config.bundle, config.stopping, config.bundle.dim
    whole = CutProjector(WholeSpace(dim))
    counts = []
    kept = 0
    for start, schedule in itertools.product(config.starts, config.schedules):
        params = config.params_for(schedule)
        x0 = np.asarray(start, dtype=float)
        seed = np.zeros(dim) if config.y0 is None else np.asarray(config.y0, dtype=float)
        state = SolverState(1, x0.copy(), seed, x0.copy(), 0.0, 0.0)
        prox = ProxSolver(bundle.bifunction, params.lam, bundle.feasible)
        projector = _cut_projector(bundle, params)
        for steps in range(1, stopping.max_iter + 1):
            new_state, rec = hybrid_iterate(state, bundle, params, prox, projector)
            rows = _step_rows(state, rec.y_next, rec.z_next, rec.w_next, rec.epsilon, params.cut_variant)
            if new_state.x_cur is state.x_cur:
                kept += 1
                full = _project_onto_cuts(x0, rows, whole)
                assert np.linalg.norm(full - state.x_cur) <= 1e-12 * np.linalg.norm(state.x_cur), rec.n
            else:
                assert not np.array_equal(rec.x_next, state.x_cur), rec.n
            state = new_state
            if stopping.kind == "residual_w" and rec.residual_w <= stopping.tol:
                break
            if stopping.kind == "distance_to_target" and rec.dist_to_target <= stopping.tol:
                break
        counts.append(steps)
    if grid == "table1":
        assert tuple(counts) == TABLE1_ITERATIONS
    else:
        assert counts == [150] * 3
    # About half the steps keep x_n on both grids.
    assert 0.4 <= kept / sum(counts) <= 0.6, (kept, sum(counts))


def test_extragradient_pure_projection_case():
    f = QuadraticBifunction(np.zeros((2, 2)), np.zeros((2, 2)), [0.0, 0.0])
    bundle = ProblemBundle(
        bifunction=f,
        feasible=Box([0.0, 0.0], [1.0, 1.0]),
        mapping=IdentityMapping(),
        constants=LipschitzConstants(0.5, 0.5),
    )
    report = extragradient_solve(bundle, 0.4, StoppingRule("residual_w", 1e-10, 50), [0.3, 0.7])
    assert report.iterations == 1  # feasible start is already stationary
    assert np.allclose(report.final_x, [0.3, 0.7], atol=1e-12)


def test_extragradient_rejects_large_lambda(example1):
    csum = example1.constants.c1 + example1.constants.c2
    lam_max = 1.0 / (2.0 * csum)
    # Within a relative 1e-12 of the bound both solvers reject lam alike.
    for lam in (lam_max, lam_max * (1.0 - 1e-13)):
        with pytest.raises(LambdaOutOfRange):
            extragradient_solve(example1, lam, StoppingRule("residual_w", 1e-4, 10), [1.0, 3.0, 1.0])
        with pytest.raises(LambdaOutOfRange):
            validate_params(lam, 6.0, AlphaSchedule("ratio"), example1.constants)


def test_extragradient_matches_double_projection_form():
    # for the affine-operator wrapper both prox calls are explicit projections
    op = AffineOperator(
        np.array([[3.1, 2.0, 0.0], [2.0, 3.6, 0.0], [0.0, 0.0, 3.5]]), [1.0, -2.0, 3.0]
    )
    f, consts = vip_as_bifunction(op)
    feasible = Polyhedron(
        [Halfspace([-1.0, -1.0, -1.0], -1.0)], Box([0.0] * 3, [1.0] * 3)
    )
    bundle = ProblemBundle(f, feasible, IdentityMapping(), consts, label="vip")
    lam = 1.0 / (5.0 * consts.c1)
    report = extragradient_solve(bundle, lam, StoppingRule("residual_w", 1e-6, 100), [1.0, 3.0, 1.0])
    x = np.array([1.0, 3.0, 1.0])
    for rec in report.trace:
        y_ref = feasible.project(x - lam * op(x))
        x_ref = feasible.project(x - lam * op(y_ref))
        assert np.linalg.norm(rec.y_next - y_ref) <= 1e-9
        assert np.linalg.norm(rec.x_next - x_ref) <= 1e-9
        x = rec.x_next


def test_trace_distances_never_shrink_toward_start(example2, table2_runs):
    for run in table2_runs:
        radii = [np.linalg.norm(rec.x_next - run.start) for rec in run.report.trace]
        for a, b in zip(radii, radii[1:]):
            assert b >= a - 1e-10


def test_three_halfspace_variant_converges(example2):
    params = validate_params(
        default_lambda(example2.constants),
        6.0,
        AlphaSchedule("ratio"),
        example2.constants,
        cut_variant="three_halfspaces",
    )
    report = solve(example2, params, StoppingRule("distance_to_target", 1e-3, 2000), [-2.0, 3.0, -1.0])
    assert report.stop_reason == "DistanceToKnown"
    assert np.linalg.norm(report.final_x) <= 1e-3


def test_cuts_within_feasible_variant(example2):
    params = validate_params(
        default_lambda(example2.constants),
        6.0,
        AlphaSchedule("ratio"),
        example2.constants,
        cut_variant="three_halfspaces",
        cuts_within_feasible=True,
    )
    report = solve(example2, params, StoppingRule("distance_to_target", 1e-3, 200), [-2.0, 3.0, -1.0])
    assert report.stop_reason == "DistanceToKnown"
    for rec in report.trace:
        assert example2.feasible.contains(rec.x_next, tol=1e-9)


CAP = Halfspace([1.0, 1.0, 1.0], 1.0)
TILT = Halfspace([-1.0, 1.0, 0.0], 0.5)
ROUTING_SETS = {
    "whole_space": WholeSpace(3),
    "halfspace": CAP,
    "box": Box([-0.5, -0.5, -0.5], [1.0, 1.0, 1.0]),
    "two_halfspaces": Polyhedron([CAP, TILT]),
    "polyhedron": Polyhedron([CAP, TILT], Box([-0.5, -np.inf, -0.5], [np.inf, 0.6, 0.1])),
}


@pytest.mark.parametrize("kind", list(ROUTING_SETS))
def test_cut_projection_is_bitwise_the_polyhedron_qp(kind):
    # The cut projection stacks the cut rows over the set's cached rows
    # and Polyhedron.project goes through the same identity-metric path;
    # both must give the bits of a fresh QP over the whole polyhedron.
    feasible = ROUTING_SETS[kind]
    halfspaces, box = set_parts(feasible)
    rng = np.random.default_rng(83)
    for n in range(40):
        a = rng.normal(size=(3, 3))
        # Positive offsets keep the origin, and with it the intersection.
        b = rng.uniform(0.05, 1.0, 3)
        if n % 4 < 2:
            # A nearly parallel pair at one distance from the origin, tilted by
            # 3e-7 rad or 3e-5 rad (a near-singular face); both rows are kept.
            u = rng.normal(size=3)
            u -= (u @ a[0]) / (a[0] @ a[0]) * a[0]
            a[1] = a[0] + (3e-7 if n % 4 == 0 else 3e-5) * np.linalg.norm(a[0]) / np.linalg.norm(u) * u
            b[1] = b[0] * np.linalg.norm(a[1]) / np.linalg.norm(a[0])
        cuts = [(a[i], b[i]) for i in range(3)]
        x0 = rng.normal(scale=3.0, size=3)
        if n % 4 < 2:
            x0 += 3.0 * a[0] / np.linalg.norm(a[0])  # outside the pair, so it binds
        poly = Polyhedron([Halfspace(*c) for c in cuts] + list(halfspaces), box)
        ref = solve_qp_active_set(np.eye(3), -x0, poly)
        assert _project_onto_cuts(x0, cuts, CutProjector(feasible)).tobytes() == ref.tobytes(), n
        assert poly.project(x0).tobytes() == ref.tobytes(), n

    # More cuts than the projector's stack has room for, then fewer: it grows
    # and keeps the set's rows below the cut rows; a warm one moves only roundoff.
    warm = CutProjector(feasible)
    for k in (5, 2, 6, 3):
        cuts = [(rng.normal(size=3), rng.uniform(0.05, 1.0)) for _ in range(k)]
        x0 = rng.normal(scale=3.0, size=3)
        poly = Polyhedron([Halfspace(*c) for c in cuts] + list(halfspaces), box)
        ref = solve_qp_active_set(np.eye(3), -x0, poly)
        assert CutProjector(feasible).project(x0, cuts).tobytes() == ref.tobytes(), k
        assert np.all(np.abs(warm.project(x0, cuts) - ref) <= 1e-12 * (1.0 + np.abs(ref))), k


@pytest.mark.parametrize("kind", list(ROUTING_SETS))
def test_cut_projection_routing_per_feasible_kind(kind, example2):
    # Every feasible set here contains the origin, which is both an
    # equilibrium (f(0, y) = <Q y, y> >= 0) and a fixed point of the
    # example-2 mapping, so the cuts always meet the feasible set there.
    feasible = ROUTING_SETS[kind]
    bundle = ProblemBundle(
        example2.bifunction, feasible, example2.mapping, example2.constants, target=np.zeros(3)
    )
    params = validate_params(
        default_lambda(bundle.constants),
        6.0,
        AlphaSchedule("ratio"),
        bundle.constants,
        cut_variant="three_halfspaces",
        cuts_within_feasible=True,
    )
    x0 = np.array([1.0, 3.0, 1.0])
    state = fresh_state(x0)
    prox = ProxSolver(bundle.bifunction, params.lam, feasible)
    projector = _cut_projector(bundle, params)
    for _ in range(4):
        prev = state
        state, rec = hybrid_iterate(state, bundle, params, prox, projector)
        # The split cuts of the three_halfspaces variant, rebuilt from the record.
        y, z = rec.y_next, rec.z_next
        averaging = (2.0 * (y - z), float(y @ y - z @ z)) if np.any(y - z) else None
        cuts = [averaging, build_contraction_cut(prev.x_cur, y, rec.epsilon), step_cuts(prev, rec)[1]]
        ref = enumeration_qp(np.eye(3), -x0, *stacked_rows(cuts, feasible))
        assert ref is not None
        assert np.linalg.norm(rec.x_next - ref) <= 1e-8


def test_cut_projection_drops_whole_space_slots(monkeypatch):
    # A None slot is a cut that is the whole space: it adds no row, in
    # closed form or through the projector.
    row = (np.array([1.0, 0.0]), 0.0)
    x = np.array([2.0, 3.0])
    cut_lists = ([row, None], [None, row], [None, row, None], [row, None, row])
    for cuts in cut_lists:
        assert np.allclose(CutProjector(WholeSpace(2)).project(x, cuts), [0.0, 3.0], atol=1e-14)

    # A projector whose set adds no rows, an all-infinite box among them,
    # leaves up to two cut rows to the closed form: its QP never runs.
    def refuse(self, x0, cuts):
        raise AssertionError("the cut QP ran where the closed form applies")

    monkeypatch.setattr(CutProjector, "project", refuse)
    for feasible in (WholeSpace(2), Box([-np.inf, -np.inf], [np.inf, np.inf])):
        projector = CutProjector(feasible)
        assert projector.set_row_count == 0
        kept = _project_onto_cuts(x, [None, None], projector)
        assert np.array_equal(kept, x) and kept is not x
        for cuts in cut_lists:
            assert np.allclose(_project_onto_cuts(x, cuts, projector), [0.0, 3.0], atol=1e-14)


def test_cut_projector_with_no_set_and_no_row_returns_the_point():
    # On a set without rows and with no cut row the intersection is the
    # whole space: the point comes back as a copy, as from the closed form.
    x = np.array([2.0, -3.0, 0.5])
    for cuts in ([None, None], []):
        got = CutProjector(WholeSpace(3)).project(x, cuts)
        assert got.tobytes() == x.tobytes() and got is not x


def test_a_mapping_returning_y_itself_steps_as_one_returning_an_equal_copy(example1):
    # The step skips comparing and re-norming z when the mapping hands back y
    # itself (as IdentityMapping does); an equal copy takes the comparison.
    class CopyingIdentity:
        def __call__(self, x):
            return np.array(x, dtype=float)

    params = table1_config().params_for(AlphaSchedule("ratio"))
    stopping = StoppingRule("residual_w", 1e-4, 300)
    reports = []
    for mapping in (IdentityMapping(), CopyingIdentity()):
        bundle = ProblemBundle(example1.bifunction, example1.feasible, mapping, example1.constants)
        try:
            reports.append(solve(bundle, params, stopping, [1.0, 3.0, 1.0]))
        except MaxIterExceeded as exc:
            reports.append(exc.report)
    same, copied = reports
    assert same.iterations == copied.iterations == 300
    for a, b in zip(same.trace, copied.trace):
        assert a.z_next is a.y_next and a.w_next is a.y_next
        assert b.z_next is b.y_next and b.w_next is b.y_next
        for name in ("y_next", "x_next"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert (a.epsilon, a.residual_w) == (b.epsilon, b.residual_w)


def test_step_builds_no_set_object(monkeypatch):
    # A step's cuts are rows, projected as rows: no set object is built, and
    # no point re-checked, inside it.  Only solve's start and seed are checked.
    # The run's set-up builds its projector's set (the whole space on table1).
    from ephybrid import hybrid, sets
    from ephybrid.linalg import as_point

    cells = [(c, c.params_for(c.schedules[0]), c.starts[0]) for c in (table1_config(), table2_config())]

    def refuse(*args, **kwargs):
        raise AssertionError("a set object was built inside a step")

    step, steps = hybrid.hybrid_iterate, []

    def refusing_step(*args):
        steps.append(args[0].n)
        with monkeypatch.context() as inside:
            inside.setattr(sets.Halfspace, "__init__", refuse)
            inside.setattr(sets.WholeSpace, "__init__", refuse)
            return step(*args)

    monkeypatch.setattr(hybrid, "hybrid_iterate", refusing_step)
    checked = []
    monkeypatch.setattr(hybrid, "as_point", lambda x, dim: checked.append(x) or as_point(x, dim))
    for config, params, start in cells:
        checked.clear()
        steps.clear()
        report = solve(config.bundle, params, config.stopping, start, y0=config.y0, audit=False)
        assert report.stop_reason != "MaxIter" and report.iterations > 5
        assert steps == list(range(1, report.iterations + 1))
        assert len(checked) == (1 if config.y0 is None else 2)


def test_non_finite_values_raise_where_they_first_appear(example1):
    class NaNMapping:
        calls = 0

        def __call__(self, x):
            self.calls += 1
            return np.full(3, np.nan)

    mapping = NaNMapping()
    bundle = ProblemBundle(example1.bifunction, example1.feasible, mapping, example1.constants)
    lam = default_lambda(bundle.constants)
    params = validate_params(lam, 6.0, AlphaSchedule("ratio"), bundle.constants)
    with pytest.raises(ValueError):
        solve(bundle, params, StoppingRule("residual_w", 1e-4), [1.0, 3.0, 1.0])
    assert mapping.calls == 1

    # example1's bifunction over the whole space with a huge linear term: the
    # first step overflows.  A library caller gets the typed error, not one
    # of numpy's overflow warnings (errors under this suite's settings).
    f = example1.bifunction
    huge = QuadraticBifunction(f.P, f.Q, [1e200, -2.0, 3.0])
    bundle = ProblemBundle(huge, WholeSpace(3), example1.mapping, example1.constants)
    with pytest.raises(NonFiniteIterate, match="iteration 1: "):
        solve(bundle, params, StoppingRule("residual_w", 1e-4), [1.0, 3.0, 1.0])

    # A warmed-up prox solver rejects what its first step rejects: a
    # non-finite (NaN or +-inf) or mis-shaped anchor or base point, without
    # a warning on the way.
    f, feasible = example1.bifunction, example1.feasible
    x = np.array([1.0, 3.0, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        for v, anchor in ((np.zeros(3), np.array([1.0, bad, 1.0])), (np.array([bad, 0.0, 0.0]), x)):
            with pytest.raises(ValueError):
                ProxSolver(f, lam, feasible).step(v, anchor)
            solver = ProxSolver(f, lam, feasible)
            y = solver.step(np.zeros(3), x)
            with pytest.raises(ValueError, match="finite"):
                solver.step(v, anchor)
    for v, anchor in ((np.zeros(3), 2.0), (0.0, x), (np.zeros(3), np.ones(4)), (np.zeros((1, 3)), x)):
        with pytest.raises(ValueError):
            ProxSolver(f, lam, feasible).step(v, anchor)
        solver = ProxSolver(f, lam, feasible)
        y = solver.step(np.zeros(3), x)
        with pytest.raises(DimensionMismatch):
            solver.step(v, anchor)
    # ... and still steps on afterwards.
    assert np.array_equal(solver.step(y, x), ProxSolver(f, lam, feasible).step(y, x))


def test_stopping_rule_rejects_non_integer_caps():
    # True would run one iteration and 2.5 would fail in range() after set-up.
    for bad in (True, False, 2.5, 3.0, "10"):
        with pytest.raises(ValueError, match="max_iter"):
            StoppingRule("residual_w", 1e-4, bad)
    assert StoppingRule("residual_w", 1e-4, np.int64(7)).max_iter == 7


def trace_bytes(report):
    """A run's every recorded array and scalar, its final point and stop reason, as bytes."""
    parts = []
    for r in report.trace:
        parts += [r.y_next.tobytes(), r.z_next.tobytes(), r.w_next.tobytes(), r.x_next.tobytes()]
        # repr of a float round-trips exactly.
        parts.append(repr((r.n, r.epsilon, r.residual_w, r.dist_to_target, r.alpha)).encode())
    return b"".join(parts + [report.final_x.tobytes(), report.stop_reason.encode()])


def test_runs_do_not_depend_on_earlier_runs(table2_runs):
    # Every run builds its own prox solver and cut projector, so a cell's
    # warm starts come from that cell alone: run alone, in reverse order,
    # or in a second grid, it gives the same bits as inside the first grid.
    config = table2_config()
    again = run_grid(config)
    assert [trace_bytes(r.report) for r in again] == [trace_bytes(r.report) for r in table2_runs]
    for run in reversed(table2_runs):
        alone = solve(
            config.bundle, config.params_for(run.schedule), config.stopping, run.start, y0=config.y0
        )
        assert trace_bytes(alone) == trace_bytes(run.report), (run.start, run.schedule_label)


def test_audit_only_observes(table1_runs, table2_runs):
    # The audited table1 and table2 grids run clean, and the audit changes nothing a run records.
    for config, runs, stop in (
        (table1_config(), table1_runs, "ResidualW"),
        (table2_config(), table2_runs, "DistanceToKnown"),
    ):
        audited = run_grid(dataclasses.replace(config, audit=True))
        assert all(r.report.stop_reason == stop for r in audited)
        assert [trace_bytes(r.report) for r in audited] == [trace_bytes(r.report) for r in runs]


@pytest.mark.parametrize("case", ["table2 (-3,4,1) 1/log10(n+1)", "table1 (1,3,1) lam=1/(20 c1)"])
def test_run_that_stops_exactly_at_the_cap(case):
    if case.startswith("table2"):
        config = table2_config()
        params = config.params_for(AlphaSchedule("invlog"))
        start = [-3.0, 4.0, 1.0]
    else:
        config = table1_config()
        constants = config.bundle.constants
        params = validate_params(1.0 / (20.0 * constants.c1), 6.0, AlphaSchedule("ratio"), constants)
        start = [1.0, 3.0, 1.0]

    def run(max_iter):
        stopping = dataclasses.replace(config.stopping, max_iter=max_iter)
        return solve(config.bundle, params, stopping, start, y0=config.y0)

    full = run(config.stopping.max_iter)
    n = full.iterations
    assert n > 1 and full.stop_reason != "MaxIter"
    at_cap = run(n)
    assert at_cap.stop_reason == full.stop_reason
    assert trace_bytes(at_cap) == trace_bytes(full)
    with pytest.raises(MaxIterExceeded) as exc:
        run(n - 1)
    partial = exc.value.report
    assert partial.iterations == n - 1 and partial.stop_reason == "MaxIter"
    first = RunReport(n - 1, full.trace[n - 2].x_next, 0.0, "MaxIter", full.trace[: n - 1])
    assert trace_bytes(partial) == trace_bytes(first)


def stacked_rows(cuts, feasible):
    """The oracle's rows: the cut rows (``None`` slots skipped) over the set's."""
    A_feas, b_feas = halfspace_rows(feasible)
    rows = [c for c in cuts if c is not None]
    A = np.vstack([a for a, _ in rows] + [A_feas])
    return A, np.concatenate([[b for _, b in rows], b_feas])


def replay_against_cold_calls(sequence):
    """Replay ``(x0, cuts, feasible)`` calls through one projector per set, checking
    each against a cold call and the enumeration oracle; returns the warm-seeded
    calls and the calls that ended on one of the projector's two seed faces."""
    projectors = {}
    seeded = on_seed = 0
    for x0, cuts, feasible in sequence:
        warm = projectors.setdefault(feasible, CutProjector(feasible))
        seeded += bool(warm._working)
        seeds = [set(face) for face in (warm._working, warm._older) if face is not None]
        got = warm.project(x0, cuts)
        on_seed += set(warm._working) in seeds
        cold = CutProjector(feasible)
        ref = cold.project(x0, cuts)
        assert ref.tobytes() == _project_onto_cuts(x0, cuts, CutProjector(feasible)).tobytes()
        assert np.all(np.abs(got - ref) <= 1e-12 * (1.0 + np.abs(ref))), (got, ref)
        assert set(warm._working) == set(cold._working)
        oracle = enumeration_qp(np.eye(x0.shape[0]), -x0, *stacked_rows(cuts, feasible))
        assert np.linalg.norm(got - oracle) <= 1e-8
    return seeded, on_seed


def test_cut_projector_replays_table2_like_cold_calls(monkeypatch):
    # Record every cut projection of the table2 cells, one sequence per run.
    config = table2_config()
    sequences = []
    project = CutProjector.project

    # The table2 grid cuts within its feasible set.
    def record(self, x0, cuts):
        sequences[-1].append((x0, list(cuts), config.bundle.feasible))
        return project(self, x0, cuts)

    monkeypatch.setattr(CutProjector, "project", record)
    for start in config.starts:
        for schedule in config.schedules:
            sequences.append([])
            solve(config.bundle, config.params_for(schedule), config.stopping, start, y0=config.y0)
    monkeypatch.undo()
    assert sum(map(len, sequences)) == 348
    # The first anchor cut of every run is the whole space, in its slot.
    assert all(seq[0][1][2] is None for seq in sequences)
    counts = [replay_against_cold_calls(seq) for seq in sequences]
    seeded, on_seed = (sum(column) for column in zip(*counts))
    assert seeded > 200
    # The final face alternates between the anchor cut's row and box rows:
    # most calls end on the last face or on the one before it.
    assert on_seed > 250


def test_cut_projector_warm_labels_follow_row_origin():
    # Seeded drifting cuts over a box-capped polyhedron: ``None`` (whole-space) slots,
    # cuts parallel to a box row, near-parallel cut pairs, and
    # a switch to another set, with its own projector, every 40 calls.
    rng = np.random.default_rng(4242)
    box = Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    sets = (
        Polyhedron([Halfspace([1.0, 1.0, 1.0], 1.5)], box),
        Polyhedron([Halfspace([1.0, -1.0, 0.5], 0.5)], Box([-1.0, -2.0, -1.0], [0.5, 1.0, 0.8])),
    )
    normals = rng.normal(size=(3, 3))
    x0 = np.array([2.5, 1.5, 2.0])
    sequence = []
    for n in range(120):
        normals += 0.05 * rng.normal(size=(3, 3))
        # Copies: the rows of ``normals`` drift in place.
        cuts = [(a.copy(), rng.uniform(0.2, 0.6) * np.linalg.norm(a)) for a in normals]
        roll = rng.random()
        if roll < 0.15:
            cuts[int(rng.integers(0, 3))] = None
        elif roll < 0.3:
            k = int(rng.integers(0, 3))
            cuts[int(rng.integers(0, 3))] = (np.eye(3)[k] * rng.uniform(0.5, 2.0), 0.0)
        elif roll < 0.4:
            a, b = cuts[0]
            cuts[1] = (a + 1e-8 * rng.normal(size=3), b * (1.0 + 1e-9))
        sequence.append((x0 + 0.1 * rng.normal(size=3), cuts, sets[n // 40 % 2]))
    assert replay_against_cold_calls(sequence)[0] > 60


# A square and a point to its right: the cut ``x + y <= b`` binds at the
# corner face {cut, x <= 1} for b = 1, and leaves the face {x <= 1} at b = 3.
# The square's rows are labelled -1 (-x <= 1), -2 (-y <= 1), -3 (x <= 1), -4 (y <= 1).
SQUARE = Box([-1.0, -1.0], [1.0, 1.0])
RIGHT_OF_SQUARE = np.array([2.0, 0.5])
DIAGONAL = np.array([1.0, 1.0])


def recording_candidates(monkeypatch):
    """The candidate faces each dual-QP solve is given, one list per solve."""
    tried = []
    solve_qp = qp._DualQP.solve

    def record(self, c, working=(), candidates=()):
        tried.append([list(face) for face in candidates])
        return solve_qp(self, c, working, candidates)

    monkeypatch.setattr(qp._DualQP, "solve", record)
    return tried


def test_cut_projector_period_two_faces_end_on_the_older_seed():
    # The faces alternate; after the second call each call's answer is the
    # face before the last, tried first and taken.
    projector = CutProjector(SQUARE)
    for n in range(12):
        cuts = [(DIAGONAL, 1.0 if n % 2 == 0 else 3.0)]
        older = projector._older
        got = projector.project(RIGHT_OF_SQUARE, cuts)
        if n >= 2:
            assert projector._working == older, n
        ref = CutProjector(SQUARE).project(RIGHT_OF_SQUARE, cuts)
        assert np.all(np.abs(got - ref) <= 1e-15), (n, got, ref)
        assert set(projector._working) == ({0, -3} if n % 2 == 0 else {-3}), n
    assert np.array_equal(got, [1.0, 0.5])


def test_cut_projector_stale_older_face_returns_the_cold_answer(monkeypatch):
    # The first call ends on the corner face, the second on no face at all
    # (the point is inside).  The third call moves the cut so far that the
    # corner face's minimizer (1, -2.5) leaves the square: the older seed
    # fails the exit test and the call runs as a projector with no history.
    projector = CutProjector(SQUARE)
    projector.project(RIGHT_OF_SQUARE, [(DIAGONAL, 1.0)])
    projector.project(np.array([0.25, 0.25]), [(DIAGONAL, 1.0)])
    corner = projector._older
    assert set(corner) == {0, -3} and projector._working == ()
    tried = recording_candidates(monkeypatch)
    cuts = [(DIAGONAL, -1.5)]
    got = projector.project(RIGHT_OF_SQUARE, cuts)
    monkeypatch.undo()
    # Both seeds were tried (the corner first) and neither was taken.
    assert len(tried[0]) == 2 and len(tried[0][0]) == 2 and tried[0][1] == []
    assert got.tobytes() == CutProjector(SQUARE).project(RIGHT_OF_SQUARE, cuts).tobytes()
    assert abs(got.sum() + 1.5) <= 1e-12 and SQUARE.contains(got)


def test_cut_projector_never_tries_an_older_face_whose_row_was_dropped(monkeypatch):
    # The older face holds the row of cut slot 0; in the third call that
    # slot is None, so the row is absent from the stack and only the latest
    # face, {x <= 1}, is a candidate.  Slot 1 is a loose cut, x - y <= 10,
    # so the stack is still built.
    projector = CutProjector(SQUARE)
    loose = (np.array([1.0, -1.0]), 10.0)
    projector.project(RIGHT_OF_SQUARE, [(DIAGONAL, 1.0), loose])
    projector.project(RIGHT_OF_SQUARE, [(DIAGONAL, 3.0), loose])
    assert set(projector._older) == {0, -3} and projector._working == (-3,)
    tried = recording_candidates(monkeypatch)
    got = projector.project(RIGHT_OF_SQUARE, [None, loose])
    monkeypatch.undo()
    # The stack is slot 1's row over the square's four rows; x <= 1 is row 3 of it.
    assert tried == [[[3]]]
    assert projector._working == (-3,)
    assert np.array_equal(got, [1.0, 0.5])