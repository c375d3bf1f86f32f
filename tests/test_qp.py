import itertools

import numpy as np
import pytest

from ephybrid.linalg import cholesky_spd, spectral_norm
from ephybrid.problems import AffineOperator, QuadraticBifunction, vip_as_bifunction
from ephybrid.qp import (
    NonPositiveLambda,
    ProxSolver,
    QPInstance,
    _DualQP,
    _prepared_rows,
    constraint_rows,
    prox_step,
    reduce_prox_to_qp,
    solve_qp_active_set,
)
from ephybrid.sets import (
    Box,
    Halfspace,
    InfeasibleSet,
    Polyhedron,
    TwoHalfspaces,
    WholeSpace,
    halfspaces_and_box,
)
from oracles import box_pattern_qp, enumeration_qp, halfspace_rows, kkt_report

P = np.array([[3.1, 2.0, 0.0], [2.0, 3.6, 0.0], [0.0, 0.0, 3.5]])
Q = np.array([[1.6, 1.0, 0.0], [1.0, 1.6, 0.0], [0.0, 0.0, 1.5]])
UNIT_BOX = Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
SIMPLEX_CAP = Polyhedron([Halfspace([-1.0, -1.0, -1.0], -1.0)], UNIT_BOX)


def random_feasible(rng, d):
    kind = rng.integers(0, 3)
    if kind == 0:
        lo = rng.uniform(-2.0, 0.0, d)
        return Box(lo, lo + rng.uniform(0.5, 2.5, d))
    if kind == 1:
        hs = [Halfspace(rng.normal(size=d), rng.uniform(0.2, 2.0)) for _ in range(int(rng.integers(1, 5)))]
        return Polyhedron(hs)
    hs = [Halfspace(rng.normal(size=d), rng.uniform(0.2, 2.0)) for _ in range(int(rng.integers(1, 3)))]
    return Polyhedron(hs, Box(np.full(d, -1.5), np.full(d, 1.5)))


def test_reduction_shapes_vip_case():
    op = AffineOperator(P, [1.0, -2.0, 3.0])
    f, consts = vip_as_bifunction(op)
    lam = 1.0 / (5.0 * consts.c1)
    v = np.array([0.2, 0.4, 0.1])
    x = np.array([1.0, 3.0, 1.0])
    inst = reduce_prox_to_qp(f, v, x, lam, UNIT_BOX)
    assert np.array_equal(inst.M, np.eye(3))
    assert np.allclose(inst.c, lam * op(v) - x, atol=1e-15)
    # the minimizer is the projection of the shifted anchor
    got = solve_qp_active_set(inst)
    assert np.allclose(got, UNIT_BOX.project(x - lam * op(v)), atol=1e-9)


def test_reduction_unconstrained_symmetric_case():
    f = QuadraticBifunction(Q, Q, [0.0, 0.0, 0.0])
    lam = 0.37
    x = np.array([0.4, -1.2, 2.0])
    inst = reduce_prox_to_qp(f, x, x, lam, WholeSpace(3))
    assert np.allclose(inst.c, -x, atol=1e-15)
    got = solve_qp_active_set(inst)
    assert np.allclose((2.0 * lam * Q + np.eye(3)) @ got, x, atol=1e-10)


def test_zero_bifunction_reduces_to_projection():
    f = QuadraticBifunction(np.zeros((3, 3)), np.zeros((3, 3)), [0.0, 0.0, 0.0])
    x = np.array([2.0, -0.5, 0.6])
    got = prox_step(f, x, x, 0.8, UNIT_BOX)
    assert np.allclose(got, UNIT_BOX.project(x), atol=1e-12)


def test_reduction_rejects_nonpositive_step():
    f = QuadraticBifunction(P, Q, [0.0, 0.0, 0.0])
    with pytest.raises(NonPositiveLambda):
        reduce_prox_to_qp(f, np.zeros(3), np.zeros(3), 0.0, UNIT_BOX)
    # A non-finite step is rejected before ``2*lam*Q`` (inf * 0 would warn).
    for lam in (np.inf, np.nan, -np.inf):
        for prox in (reduce_prox_to_qp, prox_step, ProxSolver().step):
            with pytest.raises(NonPositiveLambda):
                prox(f, np.zeros(3), np.zeros(3), lam, UNIT_BOX)


def test_box_qp_equals_clamp():
    x0 = np.array([1.7, -0.4, 0.5])
    got = solve_qp_active_set(QPInstance(np.eye(3), -x0, UNIT_BOX))
    assert np.allclose(got, np.clip(x0, 0.0, 1.0), atol=1e-12)


def test_symmetric_projection_onto_cap():
    got = solve_qp_active_set(QPInstance(np.eye(3), np.zeros(3), SIMPLEX_CAP))
    assert np.allclose(got, [1.0 / 3.0] * 3, atol=1e-10)


def test_active_set_matches_box_pattern_oracle():
    rng = np.random.default_rng(31)
    for _ in range(300):
        d = int(rng.integers(1, 5))
        G = rng.normal(size=(d, d))
        M = G @ G.T + 0.5 * np.eye(d)
        c = rng.normal(size=d)
        lo = rng.uniform(-2.0, 0.0, d)
        hi = lo + rng.uniform(0.5, 2.5, d)
        got = solve_qp_active_set(QPInstance(M, c, Box(lo, hi)))
        ref = box_pattern_qp(M, c, lo, hi)
        assert ref is not None
        assert np.linalg.norm(got - ref) <= 1e-9


def test_active_set_matches_enumeration_oracle():
    rng = np.random.default_rng(37)
    checked = 0
    while checked < 1000:
        d = int(rng.integers(1, 4))
        G = rng.normal(size=(d, d))
        M = G @ G.T + 0.3 * np.eye(d)
        c = rng.normal(size=d)
        feas = random_feasible(rng, d)
        A, b = halfspace_rows(feas)
        if A.shape[0] > 8:
            continue
        got = solve_qp_active_set(QPInstance(M, c, feas))
        ref = enumeration_qp(M, c, A, b)
        assert ref is not None
        assert np.linalg.norm(got - ref) <= 1e-9
        checked += 1


def test_active_set_matches_enumeration_oracle_on_closed_form_kinds():
    # Halfspace and TwoHalfspaces start from their own projection and the
    # whole space has no rows at all; the draws above never reach these.
    rng = np.random.default_rng(61)
    for n in range(600):
        d = int(rng.integers(1, 4))
        G = rng.normal(size=(d, d))
        M = G @ G.T + 0.3 * np.eye(d)
        c = rng.normal(scale=2.0, size=d)
        kind = n % 3
        if kind == 0:
            feas = WholeSpace(d)
        elif kind == 1:
            feas = Halfspace(rng.normal(size=d), rng.uniform(-1.0, 1.0))
        else:
            # Offsets > 0 keep the origin inside, so the pair is never empty.
            feas = TwoHalfspaces(
                Halfspace(rng.normal(size=d), rng.uniform(0.2, 2.0)),
                Halfspace(rng.normal(size=d), rng.uniform(0.2, 2.0)),
            )
        A, b = halfspace_rows(feas)
        got = solve_qp_active_set(QPInstance(M, c, feas))
        ref = enumeration_qp(M, c, A, b)
        assert ref is not None
        assert np.linalg.norm(got - ref) <= 1e-9

    a = np.array([1.0, 0.0, 0.0])
    slab = TwoHalfspaces(Halfspace(a, -1.0), Halfspace(-a, -2.0))  # x1 <= -1 and x1 >= 2
    with pytest.raises(InfeasibleSet):
        solve_qp_active_set(QPInstance(np.eye(3), np.zeros(3), slab))


def test_kkt_residual_contract():
    rng = np.random.default_rng(41)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        G = rng.normal(size=(d, d))
        M = G @ G.T + 0.5 * np.eye(d)
        c = rng.normal(size=d)
        feas = random_feasible(rng, d)
        inst = QPInstance(M, c, feas)
        y = solve_qp_active_set(inst)
        A, b = halfspace_rows(feas)
        stat, mu_min, comp, viol = kkt_report(M, c, A, b, y)
        assert stat <= 1e-9
        assert mu_min >= -1e-10
        assert comp <= 1e-9
        assert viol <= 1e-10


def test_warm_start_changes_nothing():
    rng = np.random.default_rng(43)
    f = QuadraticBifunction(P, Q, [1.0, -2.0, 3.0])
    solver = ProxSolver()
    lam = 0.14
    y_prev = np.zeros(3)
    x = np.array([1.0, 3.0, 1.0])
    for _ in range(20):
        warm = solver.step(f, y_prev, x, lam, SIMPLEX_CAP)
        cold = prox_step(f, y_prev, x, lam, SIMPLEX_CAP)
        assert np.allclose(warm, cold, atol=1e-11)
        y_prev = warm
        x = x + rng.normal(scale=0.2, size=3)

    # The same solver, now switching sets every two steps and the step
    # size once (between two steps on the same set).  Near (0.1, 0.1, 0.1)
    # the sum row 0 is the whole working set on both sets, so a face
    # factor kept across the switch must be dropped, not reused.
    caps = (SIMPLEX_CAP, Polyhedron([Halfspace([-1.0, -2.0, -1.0], -1.5)], UNIT_BOX))
    for n in range(20):
        feasible = caps[(n // 2) % 2]
        lam = 0.14 if n < 9 else 0.07
        x = np.full(3, 0.1) + rng.normal(scale=0.02, size=3)
        warm = solver.step(f, y_prev, x, lam, feasible)
        cold = prox_step(f, y_prev, x, lam, feasible)
        assert np.allclose(warm, cold, atol=1e-11)
        y_prev = warm

    # The same solver, now alternating between two bifunctions with
    # different Q (so different M) at one lam on one set: the per-run
    # state must follow the bifunction, not only lam and the set.
    g = QuadraticBifunction(P + Q, 2.0 * Q, [0.5, 1.0, -1.0])
    for n in range(20):
        h = (f, g)[n % 2]
        x = np.array([1.0, 3.0, 1.0]) + rng.normal(scale=0.2, size=3)
        warm = solver.step(h, y_prev, x, 0.07, SIMPLEX_CAP)
        cold = prox_step(h, y_prev, x, 0.07, SIMPLEX_CAP)
        assert np.allclose(warm, cold, atol=1e-11)
        y_prev = warm


def test_memo_reuse_is_bitwise_neutral():
    """ProxSolver's cached factors change no bit of any prox step.

    A seeded d=64 Nash-Cournot-shaped instance (the ``nc64`` benchmark
    shape) drives extragradient-style steps with periodic kicks, so the
    working set both repeats and changes often.  The reference is the
    same warm-started dual solver with a face factor that is never kept.
    """

    class Forgetful(_DualQP):
        def face(self, working):
            self._face_key = None
            return super().face(working)

    def spd(rng, d):
        a = rng.standard_normal((d, d))
        return a @ a.T / d + 0.5 * np.eye(d)

    rng = np.random.default_rng(64)
    d = 64
    Qn = spd(rng, d)
    Pn = Qn + spd(rng, d)
    x_star = rng.uniform(0.2, 0.8, d)
    lower = rng.permutation(d)[:32]
    x_star[lower] = 0.0
    mu = np.zeros(d)
    mu[lower] = rng.uniform(0.5, 1.5, 32)
    f = QuadraticBifunction(Pn, Qn, mu - (Pn + Qn) @ x_star)
    feasible = Polyhedron([Halfspace(-np.ones(d), -1.0)], Box(np.zeros(d), np.ones(d)))
    lam = 1.0 / (6.0 * spectral_norm(Pn - Qn))
    L = cholesky_spd(2.0 * lam * Qn + np.eye(d))

    solver = ProxSolver()
    forgetful = Forgetful(L, _prepared_rows(feasible))
    working = ()
    faces = []
    x = rng.normal(0.5, 1.0, d)
    y = x
    for n in range(150):
        v = x if n % 2 == 0 else y
        inst = reduce_prox_to_qp(f, v, x, lam, feasible)
        ref, working = forgetful.solve(inst.c, working)
        y = solver.step(f, v, x, lam, feasible)
        assert y.tobytes() == ref.tobytes(), f"step {n}"
        faces.append(working)
        if n % 2 == 1:
            x = y + (rng.normal(scale=0.1, size=d) if n % 6 == 5 else 0.0)
    changes = sum(a != b for a, b in zip(faces, faces[1:]))
    assert 30 <= changes <= len(faces) - 30


def test_prox_step_first_iterate_vs_oracle():
    f = QuadraticBifunction(P, Q, [1.0, -2.0, 3.0])
    c1 = 1.3903882032022076
    lam = 1.0 / (5.0 * c1)
    x0 = np.array([1.0, 3.0, 1.0])
    got = prox_step(f, np.zeros(3), x0, lam, SIMPLEX_CAP)
    inst = reduce_prox_to_qp(f, np.zeros(3), x0, lam, SIMPLEX_CAP)
    A, b = halfspace_rows(SIMPLEX_CAP)
    ref = enumeration_qp(inst.M, inst.c, A, b)
    assert SIMPLEX_CAP.contains(got, tol=1e-10)
    assert np.linalg.norm(got - ref) <= 1e-9


def test_vip_prox_equals_shifted_projection():
    op = AffineOperator(P, [1.0, -2.0, 3.0])
    f, consts = vip_as_bifunction(op)
    lam = 1.0 / (5.0 * consts.c1)
    rng = np.random.default_rng(47)
    for _ in range(50):
        v = rng.normal(size=3)
        x = rng.normal(scale=2.0, size=3)
        got = prox_step(f, v, x, lam, SIMPLEX_CAP)
        ref = SIMPLEX_CAP.project(x - lam * op(v))
        assert np.linalg.norm(got - ref) <= 1e-9


def test_prox_optimality_inequality():
    # <y+ - x, y - y+> >= lam (f(v, y+) - f(v, y)) over sampled feasible y
    f = QuadraticBifunction(P, Q, [1.0, -2.0, 3.0])
    lam = 0.14
    rng = np.random.default_rng(53)
    for _ in range(10):
        v = rng.normal(size=3)
        x = rng.normal(scale=2.0, size=3)
        y_plus = prox_step(f, v, x, lam, SIMPLEX_CAP)
        for _ in range(200):
            y = SIMPLEX_CAP.project(rng.normal(scale=2.0, size=3))
            lhs = float((y_plus - x) @ (y - y_plus))
            rhs = lam * (f(v, y_plus) - f(v, y))
            assert lhs >= rhs - 1e-8


def test_prox_objective_dominance_and_gap():
    f = QuadraticBifunction(P, Q, [1.0, -2.0, 3.0])
    lam = 0.14
    rng = np.random.default_rng(59)

    def objective(v, x, y):
        return lam * f(v, y) + 0.5 * float((x - y) @ (x - y))

    for _ in range(10):
        v = rng.normal(size=3)
        x = rng.normal(scale=2.0, size=3)
        y_plus = prox_step(f, v, x, lam, SIMPLEX_CAP)
        base = objective(v, x, y_plus)
        for _ in range(100):
            y = SIMPLEX_CAP.project(rng.normal(scale=2.0, size=3))
            gap = objective(v, x, y) - base
            assert gap >= -1e-9
            assert gap >= 0.5 * float((y - y_plus) @ (y - y_plus)) - 1e-8


def test_infeasible_set_raises():
    a = np.array([1.0, 0.0, 0.0])
    poly = Polyhedron([Halfspace(a, -1.0), Halfspace(-a, -2.0)])  # x1 <= -1 and x1 >= 2
    with pytest.raises(InfeasibleSet):
        solve_qp_active_set(QPInstance(np.eye(3), np.zeros(3), poly))


def warm_starts(d, rows, largest=None):
    """A cold start, then every subset of ``rows`` (up to ``largest``) as a warm working set."""
    yield None
    for size in range(len(rows) + 1 if largest is None else largest + 1):
        for working in itertools.combinations(rows, size):
            yield np.zeros(d), working


def test_degenerate_vertex_matches_oracle_cold_and_warm():
    # At (0, 1, 0) the cap, x1 >= 0, x3 >= 0 and x2 <= 1 are all active:
    # 4 rows in 3-D.  Every warm working set drawn from them, including
    # the dependent ones, must end at the same vertex as a cold solve.
    vertex = np.array([0.0, 1.0, 0.0])
    A, b = constraint_rows(SIMPLEX_CAP)
    active = [i for i in range(len(b)) if abs(A[i] @ vertex - b[i]) <= 1e-12]
    assert len(active) == 4
    A_ref, b_ref = halfspace_rows(SIMPLEX_CAP)
    rng = np.random.default_rng(67)
    for _ in range(40):
        G = rng.normal(size=(3, 3))
        M = G @ G.T + 0.3 * np.eye(3)
        weights = rng.uniform(0.0, 1.0, 4) * (rng.uniform(size=4) < 0.8)
        c = -M @ vertex - A[active].T @ weights
        inst = QPInstance(M, c, SIMPLEX_CAP)
        ref = enumeration_qp(M, c, A_ref, b_ref)
        assert np.linalg.norm(ref - vertex) <= 1e-9
        for warm in warm_starts(3, active):
            got = solve_qp_active_set(inst, warm=warm)
            assert np.linalg.norm(got - ref) <= 1e-9, warm


def test_dependent_row_takes_pure_dual_step():
    # x1 + x2 = 1 as two anti-parallel rows inside the unit square.  From
    # the warm working set {x1 >= 0, x2 >= 0} the violated row
    # -(x1 + x2) <= -1 lies in the span of the working rows, so it can
    # only enter after a step that moves the multipliers alone.
    a = np.array([1.0, 1.0])
    square = Polyhedron([Halfspace(a, 1.0), Halfspace(-a, -1.0)], Box([0.0, 0.0], [1.0, 1.0]))
    inst = QPInstance(np.eye(2), np.array([0.3, 0.2]), square)
    for warm in (None, (np.zeros(2), (2, 3))):
        got = solve_qp_active_set(inst, warm=warm)
        assert np.linalg.norm(got - [0.45, 0.55]) <= 1e-12

    # The same in 3-D with random equalities, Hessians and warm sets.
    rng = np.random.default_rng(71)
    box = Box(np.full(3, -1.0), np.full(3, 1.0))
    for _ in range(20):
        a = rng.normal(size=3)
        beta = float(a @ rng.uniform(-0.5, 0.5, 3))  # the plane meets the box
        feas = Polyhedron([Halfspace(a, beta), Halfspace(-a, -beta)], box)
        G = rng.normal(size=(3, 3))
        M = G @ G.T + 0.3 * np.eye(3)
        c = rng.normal(scale=3.0, size=3)
        inst = QPInstance(M, c, feas)
        A_ref, b_ref = halfspace_rows(feas)
        ref = enumeration_qp(M, c, A_ref, b_ref)
        assert ref is not None
        for warm in warm_starts(3, range(8), largest=3):
            got = solve_qp_active_set(inst, warm=warm)
            assert np.linalg.norm(got - ref) <= 1e-9, warm


def test_warm_row_with_negative_multiplier_is_released():
    # The center of the unit cube is interior, so the upper bound x1 <= 1
    # (row 3) has a negative multiplier on its face and must be dropped.
    _, working = _DualQP(np.eye(3), _prepared_rows(UNIT_BOX)).solve(np.full(3, -0.5), (3,))
    assert working == ()

    rng = np.random.default_rng(73)
    checked = 0
    while checked < 200:
        d = int(rng.integers(2, 4))
        G = rng.normal(size=(d, d))
        M = G @ G.T + 0.3 * np.eye(d)
        c = rng.normal(size=d)
        feas = random_feasible(rng, d)
        A_ref, b_ref = halfspace_rows(feas)
        if A_ref.shape[0] > 8:
            continue
        inst = QPInstance(M, c, feas)
        ref = enumeration_qp(M, c, A_ref, b_ref)
        rows = _prepared_rows(feas)
        _, cold = _DualQP(cholesky_spd(M), rows).solve(c)
        # Warm-start from every row outside the final working set: the
        # warm loop must release (or, when dependent, pop) rows first.
        warm = tuple(i for i in range(len(rows[1])) if i not in cold)
        got = solve_qp_active_set(inst, warm=(np.zeros(d), warm))
        assert np.linalg.norm(got - ref) <= 1e-9
        checked += 1


def test_inconsistent_rows_raise_cold_and_warm():
    a = np.array([1.0, 0.0, 0.0])
    slab = Polyhedron([Halfspace(a, -1.0), Halfspace(-a, -2.0)], UNIT_BOX)  # x1 <= -1 and x1 >= 2
    # x1 >= 1, x2 >= 1 and x1 + x2 <= 1: no two rows are parallel.
    triangle = Polyhedron(
        [Halfspace([-1.0, 0.0], -1.0), Halfspace([0.0, -1.0], -1.0), Halfspace([1.0, 1.0], 1.0)]
    )
    for feas in (slab, triangle):
        d = feas.dim
        m = constraint_rows(feas)[0].shape[0]
        inst = QPInstance(np.eye(d), np.zeros(d), feas)
        for warm in warm_starts(d, range(m)):
            with pytest.raises(InfeasibleSet):
                solve_qp_active_set(inst, warm=warm)


def test_constraint_rows_are_bitwise_the_per_row_build():
    # The reference builds every row by hand, one coordinate at a time;
    # tobytes() also sees the sign of each zero.
    def reference(feas):
        halves, box = halfspaces_and_box(feas)
        d = feas.dim
        rows, offs = [h.a for h in halves], [h.b for h in halves]
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

    cap = Halfspace([-1.0, -0.0, 1.0], -0.0)
    signed_box = Box([-np.inf, 0.0, -0.0, -2.0], [1.0, np.inf, 0.0, -0.0])
    for feas in (
        WholeSpace(3),
        cap,
        Box([-np.inf] * 3, [np.inf] * 3),
        signed_box,
        TwoHalfspaces(cap, Halfspace([1.0, -2.0, 0.5], 3.0)),
        Polyhedron([Halfspace([0.0, 1.0, -1.0, 2.0], 0.0)], signed_box),
        Polyhedron([cap]),
    ):
        A, b = constraint_rows(feas)
        A_ref, b_ref = reference(feas)
        assert (A.shape, b.shape) == (A_ref.shape, b_ref.shape), feas
        assert A.tobytes() == A_ref.tobytes(), feas
        assert b.tobytes() == b_ref.tobytes(), feas


def test_constraint_rows_skip_infinite_bounds():
    box = Box([-np.inf, 0.0], [np.inf, 1.0])
    A, b = constraint_rows(box)
    assert A.shape == (2, 2)
    assert set(map(tuple, A.tolist())) == {(0.0, -1.0), (0.0, 1.0)}
    assert constraint_rows(WholeSpace(3))[0].shape == (0, 3)

    # Every set kind gives the oracle's rows (as a multiset).
    def row_multiset(A, b):
        return sorted(zip(map(tuple, A.tolist()), b.tolist()))

    cap = Halfspace([-1.0, -1.0, -1.0], -1.0)
    half_box = Box([-np.inf, 0.0, -2.0], [1.0, np.inf, 2.0])
    for feas in (
        WholeSpace(3),
        cap,
        half_box,
        TwoHalfspaces(cap, Halfspace([1.0, -2.0, 0.5], 3.0)),
        Polyhedron([cap, Halfspace([0.0, 1.0, 1.0], 4.0)], half_box),
    ):
        A, b = constraint_rows(feas)
        A_ref, b_ref = halfspace_rows(feas)
        assert A.shape == (A_ref.shape[0], 3)
        assert row_multiset(A, b) == row_multiset(A_ref, b_ref)
    with pytest.raises(TypeError):
        constraint_rows(object())
    with pytest.raises(TypeError):
        QPInstance(np.eye(2), np.zeros(2), object())
    f = QuadraticBifunction(P, Q, [0.0, 0.0, 0.0])
    for prox in (reduce_prox_to_qp, prox_step, ProxSolver().step):
        with pytest.raises(TypeError):
            prox(f, np.zeros(3), np.zeros(3), 0.1, object())
