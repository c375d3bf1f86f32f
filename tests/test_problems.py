import math

import numpy as np
import pytest

from ephybrid.linalg import DimensionMismatch, NonFiniteIterate
from ephybrid.problems import (
    AffineOperator,
    AveragedProjections,
    ConstantsTooSmall,
    DegenerateConstants,
    IdentityMapping,
    LipschitzConstants,
    NotMonotone,
    ProblemBundle,
    QuadraticBifunction,
    nash_cournot_constants,
    vip_as_bifunction,
)
from ephybrid.sets import Box, Halfspace, WholeSpace


def test_bifunction_keeps_its_own_read_only_arrays():
    P, Q, q = np.eye(2) * 2.0, np.eye(2), np.array([1.0, -1.0])
    f = QuadraticBifunction(P, Q, q)
    x, y = np.array([0.5, 0.2]), np.array([-0.3, 0.8])
    before = f(x, y)
    P[:] = 0.0
    Q[:] = 5.0
    q[:] = 7.0
    assert f(x, y) == before
    for stored in (f.P, f.Q, f.q):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 0.0

P = np.array([[3.1, 2.0, 0.0], [2.0, 3.6, 0.0], [0.0, 0.0, 3.5]])
Q = np.array([[1.6, 1.0, 0.0], [1.0, 1.6, 0.0], [0.0, 0.0, 1.5]])


def test_diagonal_vanishes():
    f = QuadraticBifunction(P, Q, [1.0, -2.0, 3.0])
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.normal(size=3)
        assert f(x, x) == 0.0


def test_eval_simple_case():
    # P = Q = I, q = 0: f(0, e1) = <e1, e1> = 1
    f = QuadraticBifunction(np.eye(3), np.eye(3), [0.0, 0.0, 0.0])
    assert f([0.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == pytest.approx(1.0, abs=0)


def test_eval_hand_value():
    f = QuadraticBifunction(P, Q, [1.0, -2.0, 3.0])
    assert f([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]) == pytest.approx(-3.5, abs=1e-12)


def test_eval_dimension_mismatch():
    f = QuadraticBifunction(P, Q, [0.0, 0.0, 0.0])
    with pytest.raises(Exception):
        f([1.0, 2.0], [0.0, 0.0, 0.0])


def test_constants_from_cost_matrices():
    consts = nash_cournot_constants(P, Q)
    expected = (3.5 + math.sqrt(4.25)) / 4.0
    assert consts.c1 == pytest.approx(expected, rel=1e-12)
    assert consts.c1 == pytest.approx(1.39039, abs=5e-6)
    assert consts.c1 == consts.c2


def test_constants_reject_equal_matrices():
    with pytest.raises(DegenerateConstants):
        nash_cournot_constants(Q, Q)


def test_constants_diagonal_difference():
    consts = nash_cournot_constants(np.diag([2.0, 2.0, 2.0]) + Q, Q)
    assert consts.c1 == pytest.approx(1.0, rel=1e-12)


def test_constants_must_be_positive():
    with pytest.raises(DegenerateConstants):
        LipschitzConstants(0.0, 1.0)


def test_vip_wrapper_identity_operator():
    op = AffineOperator(np.eye(2), [0.0, 0.0])
    f, consts = vip_as_bifunction(op)
    assert consts.c1 == pytest.approx(0.5) and consts.c2 == pytest.approx(0.5)
    # f(x, y) = <x, y - x>
    assert f([1.0, 0.0], [1.0, 2.0]) == pytest.approx(np.dot([1.0, 0.0], [0.0, 2.0]), abs=1e-12)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.normal(size=2)
        assert f(x, x) == 0.0


def test_bifunction_and_operator_check_the_dimension_of_their_points():
    op = AffineOperator(np.eye(2), [0.0, 1.0])
    f, _ = vip_as_bifunction(op)
    for bad in (np.zeros(1), np.zeros(3)):
        for call in (lambda p: op(p), lambda p: f(p, np.zeros(2)), lambda p: f(np.zeros(2), p)):
            with pytest.raises(DimensionMismatch):
                call(bad)
    assert op([1.0, 1.0]).tolist() == [1.0, 2.0] and f([0.0, 0.0], [1.0, 1.0]) == 1.0


def test_vip_wrapper_rejects_zero_operator():
    op = AffineOperator(np.zeros((2, 2)), [1.0, 1.0])
    with pytest.raises(DegenerateConstants):
        vip_as_bifunction(op)


def test_affine_operator_monotonicity_check():
    with pytest.raises(NotMonotone):
        AffineOperator(-np.eye(2), [0.0, 0.0])


def test_bifunction_construction_checks():
    with pytest.raises(ValueError):
        QuadraticBifunction(P, [[1.0, 1.0, 0], [0.0, 1.0, 0], [0, 0, 1.0]], [0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        QuadraticBifunction(P, -np.eye(3), [0.0, 0.0, 0.0])
    # Q - P = diag(1, -1, 1) has a positive eigenvalue
    with pytest.raises(NotMonotone):
        QuadraticBifunction(np.diag([-1.0, 1.0, -1.0]), np.zeros((3, 3)), [0.0, 0.0, 0.0])


def test_identity_mapping():
    x = np.array([0.3, -0.7])
    assert np.array_equal(IdentityMapping()(x), x)


def test_averaged_projections_at_origin(example2):
    got = example2.mapping(np.zeros(3))
    assert np.array_equal(got, np.zeros(3))
    # The unclamped average of the three halfspace projections (exact
    # fractions: each projection is x - (violation / |a|^2) a).
    mean = np.array([-401.0 / 315.0, -1304.0 / 1575.0, -953.0 / 1575.0])
    raw = np.mean([s.project(np.zeros(3)) for s in example2.mapping.inner], axis=0)
    assert np.allclose(raw, mean, atol=1e-14)
    assert np.allclose(mean, [-1.2730, -0.8279, -0.6051], atol=5e-5)


def test_averaged_projections_at_far_corner(example2):
    x = np.ones(3)
    got = example2.mapping(x)
    raw = np.mean([s.project(x) for s in example2.mapping.inner], axis=0)
    assert np.array_equal(got, np.clip(raw, 0.0, 1.0))
    assert example2.feasible.contains(got, tol=0.0)


def test_mapping_nonexpansive_randomized(example2):
    rng = np.random.default_rng(17)
    for _ in range(1000):
        u = rng.normal(scale=2.0, size=3)
        v = rng.normal(scale=2.0, size=3)
        du = example2.mapping(u) - example2.mapping(v)
        assert np.linalg.norm(du) <= np.linalg.norm(u - v) + 1e-12


def test_monotonicity_identity_randomized(example1):
    f = example1.bifunction
    diff = f.P - f.Q
    rng = np.random.default_rng(19)
    for _ in range(1000):
        x = example1.feasible.project(rng.normal(scale=2.0, size=3))
        y = example1.feasible.project(rng.normal(scale=2.0, size=3))
        s = f(x, y) + f(y, x)
        assert abs(s + (x - y) @ (diff @ (x - y))) <= 1e-9
        assert s <= 1e-9


def test_lipschitz_type_randomized(example1):
    f = example1.bifunction
    c1, c2 = example1.constants.c1, example1.constants.c2
    rng = np.random.default_rng(29)
    for _ in range(1000):
        x, y, z = (example1.feasible.project(rng.normal(scale=2.0, size=3)) for _ in range(3))
        lhs = f(x, y) + f(y, z)
        rhs = f(x, z) - c1 * float((x - y) @ (x - y)) - c2 * float((y - z) @ (y - z))
        assert lhs >= rhs - 1e-9


def random_monotone_bifunction(rng, d):
    """A bifunction with a non-symmetric ``P = Q + D + S``: ``Q, D`` SPD, ``S`` skew."""
    a, b, c = (rng.normal(size=(d, d)) for _ in range(3))
    Q = a @ a.T + np.eye(d)
    Q = 0.5 * (Q + Q.T)
    return QuadraticBifunction(Q + b @ b.T + (c - c.T), Q, rng.normal(size=d))


def unit_box_bundle(f, constants):
    return ProblemBundle(f, Box(-np.ones(f.dim), np.ones(f.dim)), IdentityMapping(), constants)


def test_lipschitz_gap_closed_form():
    # f(x,y) + f(y,z) - f(x,z) = (x-y)^T (P^T - Q) (y-z) for every P, Q.
    rng = np.random.default_rng(31)
    for d in (2, 3, 5):
        f = random_monotone_bifunction(rng, d)
        assert not np.array_equal(f.P, f.P.T)
        for _ in range(200):
            x, y, z = rng.normal(size=(3, d))
            gap = f(x, y) + f(y, z) - f(x, z)
            assert gap == pytest.approx((x - y) @ (f.P.T - f.Q) @ (y - z), rel=1e-9, abs=1e-9)


def test_constants_below_the_bound_are_rejected_and_violated():
    # Just below |P^T - Q| = 2 sqrt(c1 c2) the bundle is refused, and the
    # top singular pair of P^T - Q gives a triple that breaks the inequality.
    rng = np.random.default_rng(37)
    for d in (2, 3, 5):
        f = random_monotone_bifunction(rng, d)
        u, s, vt = np.linalg.svd(f.P.T - f.Q)
        c = (1.0 - 1e-9) * s[0] / 2.0
        with pytest.raises(ConstantsTooSmall):
            unit_box_bundle(f, LipschitzConstants(c, c))
        # a = x - y = -u, b = y - z = v: a^T (P^T - Q) b = -s[0] < -2c.
        y = rng.normal(scale=0.1, size=d)
        x, z = y - u[:, 0], y - vt[0]
        lhs = f(x, y) + f(y, z)
        rhs = f(x, z) - c * float((x - y) @ (x - y)) - c * float((y - z) @ (y - z))
        assert lhs < rhs - 1e-10 * s[0]


def test_constants_on_the_bound_are_accepted():
    rng = np.random.default_rng(41)
    for d in (2, 3, 5):
        f = random_monotone_bifunction(rng, d)
        norm = np.linalg.norm(f.P.T - f.Q, 2)
        derived = nash_cournot_constants(f.P, f.Q)
        assert derived.c1 == derived.c2 == norm / 2.0
        for constants in (derived, LipschitzConstants(norm / 4.0, norm)):
            assert unit_box_bundle(f, constants).constants == constants


def test_bundle_dimension_consistency():
    f = QuadraticBifunction(P, Q, np.zeros(3))
    with pytest.raises(Exception):
        ProblemBundle(
            bifunction=f,
            feasible=Box(np.zeros(2), np.ones(2)),
            mapping=IdentityMapping(),
            constants=nash_cournot_constants(P, Q),
        )


def test_mapping_fixed_point_at_origin_only_nearby(example2):
    # the origin is a fixed point; nearby box points are not
    assert np.array_equal(example2.mapping(np.zeros(3)), np.zeros(3))
    moved = example2.mapping(np.array([0.3, 0.3, 0.3]))
    assert np.linalg.norm(moved - np.array([0.3, 0.3, 0.3])) > 1e-3


def test_averaged_projections_refuse_a_mean_that_overflowed():
    # A finite point whose projection onto a steep halfspace overflows: the
    # mean is not finite, so the mapping raises NonFiniteIterate (the run's
    # exit 4), not the outer set's ValueError for an unchecked point.
    mapping = AveragedProjections(WholeSpace(3), [Halfspace([1e150, 0.0, 0.0], 0.0)])
    with np.errstate(all="ignore"), pytest.raises(NonFiniteIterate):
        mapping(np.full(3, 1e200))
    # A finite mean is projected onto the outer set as before.
    box = Box(np.zeros(3), np.ones(3))
    mapping = AveragedProjections(box, [Halfspace([1.0, 0.0, 0.0], 0.5), WholeSpace(3)])
    x = np.array([2.0, -1.0, 0.25])
    assert mapping(x).tobytes() == box.project((Halfspace([1.0, 0.0, 0.0], 0.5).project(x) + x) / 2).tobytes()
