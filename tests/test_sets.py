import numpy as np
import pytest

from ephybrid.linalg import DimensionMismatch
from ephybrid.sets import (
    Box,
    EmptyIntersection,
    Halfspace,
    InfeasibleSet,
    Polyhedron,
    TwoHalfspaces,
    WholeSpace,
    ZeroNormal,
    project_two_halfspaces,
    set_from_dict,
    set_to_dict,
)
from oracles import projection_oracle

UNIT_BOX = Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
SIMPLEX_CAP = Polyhedron([Halfspace([-1.0, -1.0, -1.0], -1.0)], UNIT_BOX)


def test_sets_keep_their_own_read_only_arrays():
    a = np.array([1.0, 0.0])
    lo, hi = np.array([-5.0, -5.0]), np.array([5.0, 5.0])
    half = Halfspace(a, 1.0)
    box = Box(lo, hi)
    poly = Polyhedron([half], box)
    before = (poly.project([3.0, 0.0]), poly.project([0.0, 3.0]), box.project([7.0, -7.0]))
    # Editing the caller's arrays must change neither the sets nor the
    # projections cached on the polyhedron's identity.
    a[:] = [0.0, 2.0]
    lo[:] = 0.0
    hi[:] = 1.0
    after = (poly.project([3.0, 0.0]), poly.project([0.0, 3.0]), box.project([7.0, -7.0]))
    for b, c in zip(before, after):
        assert b.tobytes() == c.tobytes()
    assert np.array_equal(after[1], [0.0, 3.0]) and poly.contains(after[1])
    assert half.norm2 == float(half.a @ half.a) == 1.0
    for stored in (half.a, box.lo, box.hi):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 0.0


def random_set(rng, d):
    kind = rng.integers(0, 4)
    if kind == 0:
        lo = rng.uniform(-2.0, 0.0, d)
        return Box(lo, lo + rng.uniform(0.5, 2.0, d))
    if kind == 1:
        return Halfspace(rng.normal(size=d), rng.uniform(-1.0, 1.0))
    if kind == 2:
        # offsets >= small positive keep the origin feasible
        a1 = rng.normal(size=d)
        a2 = rng.normal(size=d)
        return TwoHalfspaces(Halfspace(a1, rng.uniform(0.1, 1.5)), Halfspace(a2, rng.uniform(0.1, 1.5)))
    hs = [Halfspace(rng.normal(size=d), rng.uniform(0.1, 1.5)) for _ in range(int(rng.integers(1, 4)))]
    box = Box(np.full(d, -2.0), np.full(d, 2.0)) if rng.integers(0, 2) else None
    return Polyhedron(hs, box)


def test_contains_box_boundary_exact():
    assert UNIT_BOX.contains([0.5, 0.0, 1.0], tol=0.0)
    assert not UNIT_BOX.contains([1.0 + 1e-9, 0.0, 0.0], tol=0.0)


def test_contains_halfspace_tolerance_band():
    h = Halfspace([1.0, 0.0, 0.0], 0.0)
    assert h.contains([1e-13, 0.0, 0.0], tol=1e-12)
    assert not h.contains([1e-11, 0.0, 0.0], tol=1e-12)


def test_contains_cap_polyhedron():
    assert not SIMPLEX_CAP.contains([0.2, 0.2, 0.2], tol=0.0)  # coordinate sum below one
    assert SIMPLEX_CAP.contains([1.0, 0.0, 0.0], tol=0.0)


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        UNIT_BOX.contains([0.5, 0.5])


def test_box_projection_clamps():
    assert np.array_equal(UNIT_BOX.project([2.0, -1.0, 0.5]), [1.0, 0.0, 0.5])
    x = np.array([0.25, 0.75, 1.0])
    assert np.array_equal(UNIT_BOX.project(x), x)
    assert np.array_equal(UNIT_BOX.project([1.5, 1.5, 1.5]), [1.0, 1.0, 1.0])


def test_box_requires_ordered_bounds():
    with pytest.raises(ValueError):
        Box([1.0], [0.0])


def test_halfspace_projection_axis():
    h = Halfspace([1.0, 0.0, 0.0], 0.0)
    assert np.array_equal(h.project([2.0, 0.0, 0.0]), [0.0, 0.0, 0.0])
    inside = np.array([-1.0, 4.0, 2.0])
    assert np.array_equal(h.project(inside), inside)


def test_halfspace_projection_closed_form():
    h = Halfspace([3.0, 2.0, 1.0], -6.0)
    got = h.project([0.0, 0.0, 0.0])
    assert np.allclose(got, [-9.0 / 7.0, -6.0 / 7.0, -3.0 / 7.0], atol=1e-14)
    assert np.allclose(got, projection_oracle([0.0, 0.0, 0.0], h), atol=1e-10)


def test_halfspace_zero_normal_rejected():
    with pytest.raises(ZeroNormal):
        Halfspace([0.0, 0.0], 1.0)


def test_two_halfspaces_orthogonal_corner():
    h1 = Halfspace([1.0, 0.0, 0.0], 0.0)
    h2 = Halfspace([0.0, 1.0, 0.0], 0.0)
    assert np.allclose(project_two_halfspaces([1.0, 1.0, 0.0], h1, h2), [0.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(project_two_halfspaces([-1.0, 2.0, 0.0], h1, h2), [-1.0, 0.0, 0.0], atol=1e-14)


def test_two_halfspaces_both_active_vs_oracle():
    h1 = Halfspace([1.0, 1.0], 0.0)
    h2 = Halfspace([1.0, -1.0], -1.0)
    x = np.array([1.0, 0.0])
    got = project_two_halfspaces(x, h1, h2)
    ref = projection_oracle(x, TwoHalfspaces(h1, h2))
    assert np.allclose(got, ref, atol=1e-8)


def test_two_halfspaces_accepts_whole_space_parts():
    h = Halfspace([1.0, 0.0], 0.0)
    w = WholeSpace(2)
    x = np.array([2.0, 3.0])
    assert np.array_equal(project_two_halfspaces(x, w, w), x)
    assert np.allclose(project_two_halfspaces(x, h, w), [0.0, 3.0], atol=1e-14)
    assert np.allclose(project_two_halfspaces(x, w, h), [0.0, 3.0], atol=1e-14)


def test_two_halfspaces_empty_slab():
    a = np.array([1.0, 0.0])
    with pytest.raises(EmptyIntersection):
        project_two_halfspaces([0.0, 0.0], Halfspace(a, -1.0), Halfspace(-a, -1.0))


def test_two_halfspaces_vs_qp_oracle_randomized():
    # closed form vs the package's QP path vs the enumeration oracle
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 1000:
        d = int(rng.integers(2, 7))
        h1 = Halfspace(rng.normal(size=d), rng.normal())
        h2 = Halfspace(rng.normal(size=d), rng.normal())
        x = rng.normal(scale=2.0, size=d)
        try:
            got = project_two_halfspaces(x, h1, h2)
        except EmptyIntersection:
            continue
        qp_path = Polyhedron([h1, h2]).project(x)
        assert np.linalg.norm(got - qp_path) <= 1e-8
        ref = projection_oracle(x, TwoHalfspaces(h1, h2))
        assert ref is not None
        assert np.linalg.norm(got - ref) <= 1e-8
        checked += 1


def test_polyhedron_projection_of_origin():
    got = SIMPLEX_CAP.project([0.0, 0.0, 0.0])
    assert np.allclose(got, [1.0 / 3.0] * 3, atol=1e-10)
    assert np.allclose(got, projection_oracle([0.0, 0.0, 0.0], SIMPLEX_CAP), atol=1e-10)


def test_polyhedron_projection_identity_inside():
    x = np.array([0.5, 0.5, 0.5])
    assert np.allclose(SIMPLEX_CAP.project(x), x, atol=1e-12)


def test_polyhedron_box_only_matches_clamp():
    poly = Polyhedron([], UNIT_BOX)
    x = np.array([1.7, -0.3, 0.4])
    assert np.allclose(poly.project(x), UNIT_BOX.project(x), atol=1e-12)


def test_polyhedron_infeasible_detected():
    a = np.array([1.0, 0.0])
    poly = Polyhedron([Halfspace(a, -1.0), Halfspace(-a, -1.0)])
    with pytest.raises(InfeasibleSet):
        poly.project([0.0, 0.0])


def test_projection_idempotent_and_characterized():
    # idempotence, the two nearest-point inequalities, and
    # nonexpansiveness, across every set variant
    rng = np.random.default_rng(5)
    cases = 0
    while cases < 1200:
        d = int(rng.integers(1, 7))
        s = random_set(rng, d)
        x = rng.normal(scale=2.0, size=d)
        try:
            z = s.project(x)
        except InfeasibleSet:
            continue
        assert s.contains(z, tol=1e-9)
        assert np.linalg.norm(s.project(z) - z) <= 1e-12 * (1 + np.linalg.norm(z))
        y = s.project(rng.normal(scale=2.0, size=d))  # a feasible reference point
        assert float((x - z) @ (z - y)) >= -1e-9
        lhs = float((y - z) @ (y - z) + (z - x) @ (z - x))
        assert lhs <= float((y - x) @ (y - x)) + 1e-9
        x2 = rng.normal(scale=2.0, size=d)
        z2 = s.project(x2)
        assert np.linalg.norm(z - z2) <= np.linalg.norm(x - x2) + 1e-12
        cases += 1


def test_serialization_round_trip():
    rng = np.random.default_rng(13)
    for _ in range(50):
        s = random_set(rng, int(rng.integers(1, 5)))
        back = set_from_dict(set_to_dict(s))
        assert type(back) is type(s)
        x = rng.normal(size=s.dim)
        try:
            assert np.allclose(s.project(x), back.project(x), atol=1e-12)
        except InfeasibleSet:
            with pytest.raises(InfeasibleSet):
                back.project(x)
    ws = WholeSpace(4)
    assert set_from_dict(set_to_dict(ws)).dim == 4
    unbounded = Box([-np.inf, 0.0], [np.inf, 1.0])
    back = set_from_dict(set_to_dict(unbounded))
    assert back.lo[0] == -np.inf and back.hi[0] == np.inf


def test_set_from_dict_rejects_unknown_type():
    with pytest.raises(ValueError):
        set_from_dict({"type": "cone", "dim": 2})
