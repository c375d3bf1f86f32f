import math

import numpy as np
import pytest

from ephybrid.experiments import default_lambda
from ephybrid.hybrid import (
    AlphaSchedule,
    AlphaOutOfRange,
    EmptyHalfspace,
    HybridParams,
    InfeasibleStart,
    InvariantViolation,
    KTooSmall,
    LambdaOutOfRange,
    MaxIterExceeded,
    SolverState,
    StoppingRule,
    _project_onto_cuts,
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
from ephybrid.linalg import DimensionMismatch
from ephybrid.qp import ProxSolver, QPInstance, solve_qp_active_set
from ephybrid.sets import Box, Halfspace, Polyhedron, TwoHalfspaces, WholeSpace, halfspaces_and_box
from oracles import enumeration_qp, halfspace_rows


def fresh_state(x0, dim=None):
    x0 = np.asarray(x0, dtype=float)
    z = np.zeros(dim or x0.shape[0])
    return SolverState(1, x0.copy(), x0.copy(), z.copy(), z.copy(), x0.copy())


def test_validate_params_benchmark_settings(example1):
    lam = default_lambda(example1.constants)
    params = validate_params(lam, 6.0, AlphaSchedule("ratio"), example1.constants)
    assert params.coupling == pytest.approx(0.8, rel=1e-12)
    assert params.k_min == pytest.approx(5.0, rel=1e-12)


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


def test_validate_params_rejects_bad_cap(example1):
    lam = default_lambda(example1.constants)
    with pytest.raises(AlphaOutOfRange):
        validate_params(lam, 6.0, AlphaSchedule("ratio"), example1.constants, alpha_cap=1.0)


def test_alpha_schedules():
    assert alpha_at(AlphaSchedule("ratio"), 1) == 0.0
    assert alpha_at(AlphaSchedule("ratio"), 3) == pytest.approx(0.25)
    assert alpha_at(AlphaSchedule("pow10"), 3) == pytest.approx(1e-3)
    assert alpha_at(AlphaSchedule("invlog"), 1) == pytest.approx(0.99)  # clamped
    assert alpha_at(AlphaSchedule("invlog"), 100) == pytest.approx(1.0 / math.log10(101.0))
    assert alpha_at(AlphaSchedule("constant", 0.4), 17) == 0.4
    with pytest.raises(AlphaOutOfRange):
        AlphaSchedule("geometric")


def test_contraction_slack_stationary_is_zero(example1):
    params = validate_params(
        default_lambda(example1.constants), 6.0, AlphaSchedule("ratio"), example1.constants
    )
    st = fresh_state([1.0, 2.0, 3.0])
    st.y_prev = st.y_cur = np.array([0.5, 0.5, 0.5])
    assert contraction_slack(st, st.y_cur, params, example1.constants) == 0.0


def test_contraction_slack_hand_coefficients(example1):
    # with 2*lam*c1 = 0.4 and k = 6 the leading coefficient is 13/30
    consts = example1.constants
    lam = default_lambda(consts)
    params = validate_params(lam, 6.0, AlphaSchedule("ratio"), consts)
    rng = np.random.default_rng(3)
    st = fresh_state(rng.normal(size=3))
    st.x_prev = rng.normal(size=3)
    st.y_prev = rng.normal(size=3)
    st.y_cur = rng.normal(size=3)
    y_next = rng.normal(size=3)
    dx2 = float(np.sum((st.x_cur - st.x_prev) ** 2))
    dyp2 = float(np.sum((st.y_cur - st.y_prev) ** 2))
    dyn2 = float(np.sum((y_next - st.y_cur) ** 2))
    expected = 6.0 * dx2 + 0.4 * dyp2 - (1.0 - 1.0 / 6.0 - 0.4) * dyn2
    assert contraction_slack(st, y_next, params, consts) == pytest.approx(expected, rel=1e-12)


def test_slack_conventions_coincide_for_equal_constants(example1):
    consts = example1.constants
    lam = default_lambda(consts)
    std = validate_params(lam, 6.0, AlphaSchedule("ratio"), consts)
    swp = validate_params(lam, 6.0, AlphaSchedule("ratio"), consts, slack_convention="swapped")
    rng = np.random.default_rng(9)
    for _ in range(50):
        st = fresh_state(rng.normal(size=3))
        st.x_prev = rng.normal(size=3)
        st.y_prev = rng.normal(size=3)
        st.y_cur = rng.normal(size=3)
        y_next = rng.normal(size=3)
        assert contraction_slack(st, y_next, std, consts) == pytest.approx(
            contraction_slack(st, y_next, swp, consts), rel=1e-12
        )


def test_slack_conventions_differ_for_unequal_constants():
    consts = LipschitzConstants(1.0, 2.0)
    std = validate_params(0.1, 6.0, AlphaSchedule("ratio"), consts)
    swp = validate_params(0.1, 6.0, AlphaSchedule("ratio"), consts, slack_convention="swapped")
    st = fresh_state([1.0, 0.0])
    st.y_prev = np.array([0.0, 0.0])
    st.y_cur = np.array([1.0, 0.0])
    y_next = np.array([1.0, 1.0])
    assert contraction_slack(st, y_next, std, consts) != contraction_slack(st, y_next, swp, consts)


def test_contraction_cut_is_perpendicular_bisector():
    cut = build_contraction_cut([1.0, 0.0], [0.0, 0.0], 0.0)
    assert isinstance(cut, Halfspace)
    # z1 <= 1/2: the midpoint sits on the boundary
    assert cut.violation([0.5, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert cut.contains([0.49, 7.0])
    assert not cut.contains([0.51, -7.0])


def test_contraction_cut_degenerate_cases():
    assert isinstance(build_contraction_cut([1.0, 2.0], [1.0, 2.0], 0.1), WholeSpace)
    with pytest.raises(EmptyHalfspace):
        build_contraction_cut([1.0, 2.0], [1.0, 2.0], -0.1)


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
            if isinstance(cut, WholeSpace):
                assert quad <= 0.0
            else:
                assert (quad <= 0.0) == cut.contains(z, tol=0.0)


def test_anchor_cut_structure():
    assert isinstance(build_anchor_cut([1.0, 1.0], [1.0, 1.0]), WholeSpace)
    cut = build_anchor_cut([1.0, 0.0], [0.0, 0.0])
    assert isinstance(cut, Halfspace)
    assert cut.contains([0.0, 5.0])
    assert not cut.contains([0.1, 0.0])
    # the defining iterate always sits on the boundary
    cut = build_anchor_cut([1.0, 2.0], [-0.3, 0.4])
    assert cut.violation([-0.3, 0.4]) == pytest.approx(0.0, abs=1e-15)


def test_identity_mapping_collapses_averaging(example1):
    params = validate_params(
        default_lambda(example1.constants), 6.0, AlphaSchedule("ratio"), example1.constants
    )
    state = fresh_state([1.0, 3.0, 1.0])
    prox = ProxSolver()
    for _ in range(10):
        state, rec = hybrid_iterate(state, example1, params, prox)
        assert np.array_equal(rec.z_next, rec.y_next)
        assert np.array_equal(rec.w_next, rec.y_next)


def test_first_iteration_anchor_is_whole_space(example2):
    params = validate_params(
        default_lambda(example2.constants), 6.0, AlphaSchedule("ratio"), example2.constants
    )
    state = fresh_state([1.0, 3.0, 1.0])
    _, rec = hybrid_iterate(state, example2, params, ProxSolver())
    assert isinstance(rec.anchor_cut, WholeSpace)
    assert isinstance(rec.contraction_cut, Halfspace)


def test_iterate_record_invariants(example2):
    params = validate_params(
        default_lambda(example2.constants), 6.0, AlphaSchedule("pow10"), example2.constants
    )
    state = fresh_state([-2.0, 3.0, -1.0])
    prox = ProxSolver()
    for _ in range(15):
        state, rec = hybrid_iterate(state, example2, params, prox)
        assert np.array_equal(rec.w_next, rec.y_next) or np.array_equal(rec.w_next, rec.z_next)
        dy = np.linalg.norm(rec.y_next - state.x_prev)
        dz = np.linalg.norm(rec.z_next - state.x_prev)
        assert rec.residual_w == pytest.approx(max(dy, dz), rel=1e-12)
        # prox outputs stay feasible; averaged point on the segment
        assert example2.feasible.contains(rec.y_next, tol=1e-10)
        mapped = example2.mapping(rec.y_next)
        blend = rec.alpha * rec.y_next + (1.0 - rec.alpha) * mapped
        assert np.linalg.norm(rec.z_next - blend) <= 1e-12


def test_known_solution_stays_in_cuts(example2):
    params = validate_params(
        default_lambda(example2.constants), 6.0, AlphaSchedule("ratio"), example2.constants
    )
    report = solve(example2, params, StoppingRule("distance_to_target", 1e-3, 10000), [1.0, 3.0, 1.0])
    for rec in report.trace:
        assert rec.contraction_cut.contains(np.zeros(3), tol=1e-8)
        assert rec.anchor_cut.contains(np.zeros(3), tol=1e-8)
        assert rec.flags.contraction_ok and rec.flags.monotone_ok and rec.flags.membership_ok


def test_two_halfspace_projection_consistent_with_qp(example2):
    # designated audit run: the explicit projection agrees with the QP path
    params = validate_params(
        default_lambda(example2.constants), 6.0, AlphaSchedule("ratio"), example2.constants
    )
    report = solve(example2, params, StoppingRule("distance_to_target", 1e-3, 10000), [3.0, -2.0, 1.0])
    x0 = np.array([3.0, -2.0, 1.0])
    for rec in report.trace:
        halves = [c for c in (rec.contraction_cut, rec.anchor_cut) if isinstance(c, Halfspace)]
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


def test_solve_distance_rule_needs_target(example1):
    params = validate_params(
        default_lambda(example1.constants), 6.0, AlphaSchedule("ratio"), example1.constants
    )
    with pytest.raises(ValueError):
        solve(example1, params, StoppingRule("distance_to_target", 1e-3, 10), [1.0, 3.0, 1.0])


def test_solve_start_at_target(example2):
    params = validate_params(
        default_lambda(example2.constants), 6.0, AlphaSchedule("ratio"), example2.constants
    )
    report = solve(example2, params, StoppingRule("distance_to_target", 1e-3, 10), [0.0, 0.0, 0.0])
    assert report.iterations == 0
    assert report.stop_reason == "DistanceToKnown"


def test_strict_mode_rejects_infeasible_seed(example1):
    params = validate_params(
        default_lambda(example1.constants), 6.0, AlphaSchedule("ratio"), example1.constants
    )
    stopping = StoppingRule("residual_w", 1e-4, 10)
    with pytest.raises(InfeasibleStart):
        solve(example1, params, stopping, [1.0, 3.0, 1.0], require_feasible_start=True)
    # default mode permits the conventional zero seed
    with pytest.raises(MaxIterExceeded):
        solve(example1, params, StoppingRule("residual_w", 1e-12, 5), [1.0, 3.0, 1.0])


def test_audit_mode_clean_run(example2):
    params = validate_params(
        default_lambda(example2.constants), 6.0, AlphaSchedule("pow10"), example2.constants
    )
    report = solve(
        example2, params, StoppingRule("distance_to_target", 1e-3, 10000), [-3.0, 4.0, 1.0], audit=True
    )
    assert report.stop_reason == "DistanceToKnown"


def test_audit_detects_fabricated_violation(example2):
    from ephybrid.hybrid import InvariantFlags, IterationRecord, _audit_record

    def record(contraction_ok=True, monotone_ok=True, membership_ok=True, cuts=None):
        contraction, anchor = cuts or (WholeSpace(3), WholeSpace(3))
        return IterationRecord(
            n=3,
            y_next=np.zeros(3),
            z_next=np.zeros(3),
            w_next=np.zeros(3),
            x_next=np.zeros(3),
            epsilon=0.0,
            residual_w=1.0,
            dist_to_target=1.0,
            alpha=0.0,
            contraction_cut=contraction,
            anchor_cut=anchor,
            flags=InvariantFlags(contraction_ok, monotone_ok, membership_ok),
        )

    # example2's known solution is the origin, which this cut excludes.
    outside, inside = Halfspace([1.0, 0.0, 0.0], -1.0), Halfspace([1.0, 0.0, 0.0], 1.0)
    for rec, message in (
        (record(contraction_ok=False), "contraction certificate"),
        (record(monotone_ok=False), "distance to the initial point"),
        (record(membership_ok=False), "escaped the cuts"),
        (record(cuts=(outside, inside)), "left the contraction cut"),
        (record(cuts=(inside, outside)), "left the anchor cut"),
    ):
        with pytest.raises(InvariantViolation, match=message):
            _audit_record(rec, example2)
    _audit_record(record(cuts=(inside, WholeSpace(3))), example2)
    _audit_record(record(contraction_ok=None), example2)


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
        try:
            report = solve(bundle, params, StoppingRule("residual_w", 1e-7, 150), x0)
        except MaxIterExceeded as exc:
            report = exc.report
        start_gap = float(np.linalg.norm(x0 - limit))
        for rec in report.trace:
            assert rec.contraction_cut.contains(limit, tol=1e-6)
            assert rec.anchor_cut.contains(limit, tol=1e-6)
            assert rec.flags.monotone_ok and rec.flags.membership_ok
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
        1.0 / (5.0 * consts.c1), 6.0, AlphaSchedule("constant", 0.5), consts
    )
    with pytest.raises(EmptyOmega):
        solve(bundle, params, StoppingRule("residual_w", 1e-9, 500), [0.0], y0=[1.5])


def test_first_iteration_projects_onto_contraction_alone(example2):
    params = validate_params(
        default_lambda(example2.constants), 6.0, AlphaSchedule("ratio"), example2.constants
    )
    x0 = np.array([1.0, 3.0, 1.0])
    state = fresh_state(x0)
    _, rec = hybrid_iterate(state, example2, params, ProxSolver())
    assert np.allclose(rec.x_next, rec.contraction_cut.project(x0), atol=1e-12)


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
    with pytest.raises(LambdaOutOfRange):
        extragradient_solve(
            example1, 1.0 / (2.0 * csum), StoppingRule("residual_w", 1e-4, 10), [1.0, 3.0, 1.0]
        )


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
    "two_halfspaces": TwoHalfspaces(CAP, TILT),
    "polyhedron": Polyhedron([CAP, TILT], Box([-0.5, -np.inf, -0.5], [np.inf, 0.6, 0.1])),
}


@pytest.mark.parametrize("kind", list(ROUTING_SETS))
def test_cut_projection_is_bitwise_the_polyhedron_qp(kind):
    # The cut projection stacks the cut rows over the set's cached rows
    # and Polyhedron.project goes through the same identity-metric path;
    # both must give the bits of a fresh QP over the whole polyhedron.
    feasible = ROUTING_SETS[kind]
    halfspaces, box = halfspaces_and_box(feasible)
    rng = np.random.default_rng(83)
    for n in range(40):
        a = rng.normal(size=(3, 3))
        # Positive offsets keep the origin, and with it the intersection.
        b = rng.uniform(0.05, 1.0, 3)
        if n % 4 < 2:
            # A nearly parallel pair at one distance from the origin, tilted by 3e-7 rad
            # (deduplicated) or 3e-5 rad (kept, a near-singular face).
            u = rng.normal(size=3)
            u -= (u @ a[0]) / (a[0] @ a[0]) * a[0]
            a[1] = a[0] + (3e-7 if n % 4 == 0 else 3e-5) * np.linalg.norm(a[0]) / np.linalg.norm(u) * u
            b[1] = b[0] * np.linalg.norm(a[1]) / np.linalg.norm(a[0])
        cuts = [Halfspace(a[i], b[i]) for i in range(3)]
        x0 = rng.normal(scale=3.0, size=3)
        if n % 4 < 2:
            x0 += 3.0 * a[0] / np.linalg.norm(a[0])  # outside the pair, so it binds
        poly = Polyhedron(cuts + list(halfspaces), box)
        ref = solve_qp_active_set(QPInstance(np.eye(3), -x0, poly))
        assert _project_onto_cuts(x0, cuts, feasible).tobytes() == ref.tobytes(), n
        assert poly.project(x0).tobytes() == ref.tobytes(), n


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
    A_feas, b_feas = halfspace_rows(feasible)
    state = fresh_state(x0)
    prox = ProxSolver()
    for _ in range(4):
        prev = state
        state, rec = hybrid_iterate(state, bundle, params, prox)
        # The split cuts of the three_halfspaces variant, rebuilt from the record.
        y, z = rec.y_next, rec.z_next
        averaging = Halfspace(2.0 * (y - z), y @ y - z @ z) if np.any(y - z) else WholeSpace(3)
        cuts = [averaging, build_contraction_cut(prev.x_cur, y, rec.epsilon), rec.anchor_cut]
        halves = [c for c in cuts if isinstance(c, Halfspace)]
        A = np.vstack([h.a for h in halves] + [A_feas])
        b = np.concatenate([[h.b for h in halves], b_feas])
        ref = enumeration_qp(np.eye(3), -x0, A, b)
        assert ref is not None
        assert np.linalg.norm(rec.x_next - ref) <= 1e-8


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

    # A warmed-up prox solver rejects what its first step rejects: a
    # non-finite (NaN or +-inf) or mis-shaped anchor or base point, without
    # a warning on the way.
    f, feasible = example1.bifunction, example1.feasible
    x = np.array([1.0, 3.0, 1.0])
    for bad in (np.nan, np.inf, -np.inf):
        for v, anchor in ((np.zeros(3), np.array([1.0, bad, 1.0])), (np.array([bad, 0.0, 0.0]), x)):
            with pytest.raises(ValueError):
                ProxSolver().step(f, v, anchor, lam, feasible)
            solver = ProxSolver()
            y = solver.step(f, np.zeros(3), x, lam, feasible)
            with pytest.raises(ValueError, match="finite"):
                solver.step(f, v, anchor, lam, feasible)
    for v, anchor in ((np.zeros(3), 2.0), (0.0, x), (np.zeros(3), np.ones(4)), (np.zeros((1, 3)), x)):
        with pytest.raises(ValueError):
            ProxSolver().step(f, v, anchor, lam, feasible)
        solver = ProxSolver()
        y = solver.step(f, np.zeros(3), x, lam, feasible)
        with pytest.raises(DimensionMismatch):
            solver.step(f, v, anchor, lam, feasible)
    # ... and still steps on afterwards.
    assert np.array_equal(solver.step(f, y, x, lam, feasible), ProxSolver().step(f, y, x, lam, feasible))
