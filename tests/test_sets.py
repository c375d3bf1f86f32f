import numpy as np
import pytest

from ephybrid.experiments import ParseError, set_from_dict
from ephybrid.linalg import DimensionMismatch
from ephybrid.sets import (
    Box,
    Halfspace,
    InfeasibleSet,
    Polyhedron,
    WholeSpace,
    ZeroNormal,
    project_halfspace,
    project_two_halfspaces,
)
from ephybrid.qp import CutProjector, CyclingDetected
from oracles import enumeration_qp, projection_oracle

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
        return Polyhedron([Halfspace(a1, rng.uniform(0.1, 1.5)), Halfspace(a2, rng.uniform(0.1, 1.5))])
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


def test_box_projection_is_np_clip_bit_for_bit():
    # Signed zeros, subnormals and bounds hit exactly, on either side and as
    # either bound, alongside random points and infinite bounds.
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1.0, -1.0, 2.5, -2.5])
    rng = np.random.default_rng(733)
    for case in range(4000):
        d = int(rng.integers(1, 5))
        lo, hi = rng.choice(special, d), rng.choice(special, d)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        lo[rng.random(d) < 0.1] = -np.inf
        hi[rng.random(d) < 0.1] = np.inf
        p = np.where(rng.random(d) < 0.6, rng.choice(special, d), rng.normal(scale=3.0, size=d))
        assert Box(lo, hi).project(p).tobytes() == np.clip(p, lo, hi).tobytes(), case
    # The bounds are arrays, as a box holds them: with scalar bounds np.clip
    # takes another loop, which keeps -0.0 at a bound of 0.0.
    for p, lo, hi in ((-0.0, 0.0, 1.0), (0.0, -0.0, 1.0), (-0.0, -1.0, 0.0), (0.0, -1.0, -0.0)):
        p, lo, hi = np.array([p]), np.array([lo]), np.array([hi])
        assert Box(lo, hi).project(p).tobytes() == np.clip(p, lo, hi).tobytes(), (p, lo, hi)


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


def rows(*halfspaces):
    """The ``(a, b)`` rows of halfspaces, as the closed-form kernel takes them."""
    return [(h.a, h.b) for h in halfspaces]


def test_two_halfspaces_orthogonal_corner():
    corner = rows(Halfspace([1.0, 0.0, 0.0], 0.0), Halfspace([0.0, 1.0, 0.0], 0.0))
    got = project_two_halfspaces(np.array([1.0, 1.0, 0.0]), *corner)
    assert np.allclose(got, [0.0, 0.0, 0.0], atol=1e-14)
    got = project_two_halfspaces(np.array([-1.0, 2.0, 0.0]), *corner)
    assert np.allclose(got, [-1.0, 0.0, 0.0], atol=1e-14)


def test_two_halfspaces_both_active_vs_oracle():
    h1 = Halfspace([1.0, 1.0], 0.0)
    h2 = Halfspace([1.0, -1.0], -1.0)
    x = np.array([1.0, 0.0])
    got = project_two_halfspaces(x, *rows(h1, h2))
    ref = projection_oracle(x, Polyhedron([h1, h2]))
    assert np.allclose(got, ref, atol=1e-8)


def test_two_halfspaces_check_the_point_at_the_boundary():
    pair = Polyhedron([Halfspace([1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.0)])
    with pytest.raises(DimensionMismatch):
        pair.project([1.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="finite"):
        pair.project([np.nan, 1.0])


def test_halfspace_projection_is_the_row_kernel():
    rng = np.random.default_rng(29)
    for _ in range(200):
        d = int(rng.integers(1, 5))
        h = Halfspace(rng.normal(size=d), rng.normal())
        x = rng.normal(scale=2.0, size=d)
        assert h.project(x).tobytes() == project_halfspace(x, h.a, h.b).tobytes()


def test_two_halfspaces_empty_slab():
    a = np.array([1.0, 0.0])
    with pytest.raises(InfeasibleSet):
        project_two_halfspaces(np.zeros(2), (a, -1.0), (-a, -1.0))


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
            got = project_two_halfspaces(x, *rows(h1, h2))
        except InfeasibleSet:
            continue
        pair = Polyhedron([h1, h2])
        assert np.linalg.norm(got - pair.project(x)) <= 1e-8
        ref = projection_oracle(x, pair)
        assert ref is not None
        assert np.linalg.norm(got - ref) <= 1e-8
        checked += 1


def test_two_halfspace_kernel_fuzz_vs_enumeration_oracle():
    """The closed form against the enumeration oracle on 1200 seeded row pairs, d in [2, 4].

    Even cases are general pairs; odd ones nearly anti-parallel,
    ``a2 = -s a1 + 1e-3 noise``, whose projections lie up to ~1e4 away.  The
    oracle's feasibility band scales with the answer's size, and emptiness
    must agree.  Errors are relative to ``1 + |ref|``: at most 1e-8 for the
    general pairs and 1e-4 for the nearly anti-parallel ones (1.2e-5 seen),
    whose Gram systems are that ill-conditioned.  No exception but
    :class:`InfeasibleSet` may escape the kernel.  The cold polyhedron
    QP (a fresh :class:`qp.CutProjector`) on the same nonempty nearly
    anti-parallel pairs raises :class:`qp.CyclingDetected` on 9 of them;
    that count may not grow.  It never cycles on the general pairs.
    """
    rng = np.random.default_rng(31)
    cycling = 0
    for n in range(1200):
        near = n % 2 == 1
        d = int(rng.integers(2, 5))
        a1 = rng.normal(size=d)
        a2 = -rng.uniform(0.5, 2.0) * a1 + 1e-3 * rng.normal(size=d) if near else rng.normal(size=d)
        rows = [(a1, rng.normal()), (a2, rng.normal())]
        x = rng.normal(scale=2.0, size=d)
        try:
            got = project_two_halfspaces(x, *rows)
        except InfeasibleSet:
            got = None
        band = 1e-9 * (1.0 + (0.0 if got is None else float(np.linalg.norm(got))))
        A, b = np.array([a1, a2]), np.array([rows[0][1], rows[1][1]])
        ref = enumeration_qp(np.eye(d), -x, A, b, feas_tol=band)
        assert (got is None) == (ref is None), n
        if ref is None:
            continue
        err = np.linalg.norm(got - ref) / (1.0 + np.linalg.norm(ref))
        assert err <= (1e-4 if near else 1e-8), (n, err)
        try:
            CutProjector(WholeSpace(d)).project(x, rows)
        except CyclingDetected:
            assert near, n
            cycling += 1
    assert cycling <= 9, f"{cycling}/600 nearly anti-parallel pairs cycled"


def test_enumeration_oracle_finds_no_point_in_an_anti_parallel_empty_slab():
    """300 seeded exactly anti-parallel pairs ``a2 = -s a1`` bounding an empty slab, d in [2, 4].

    The pair's KKT system is singular; a solve of it returned points of
    size ~1e16 on 4 of these 300 before the oracle skipped dependent
    active rows.  The oracle keeps its default absolute band (1e-9).  The
    closed form finds every slab empty too.
    """
    rng = np.random.default_rng(5)
    for n in range(300):
        d = int(rng.integers(2, 5))
        a1 = rng.normal(size=d)
        s = rng.uniform(0.5, 2.0)
        b1 = rng.normal()
        # a1.y <= b1 and -s a1.y <= b2, i.e. a1.y >= b1 + gap.
        b2 = -s * (b1 + rng.uniform(0.1, 1.0))
        x = rng.normal(scale=2.0, size=d)
        assert enumeration_qp(np.eye(d), -x, np.array([a1, -s * a1]), np.array([b1, b2])) is None, n
        with pytest.raises(InfeasibleSet):
            project_two_halfspaces(x, (a1, b1), (-s * a1, b2))


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
    # One tagged-JSON object per kind, parsed to the set it names; a null
    # box bound is an infinite one.
    half = {"type": "halfspace", "a": [1.0, -2.0], "b": 0.5}
    box = {"type": "box", "lo": [None, 0.0], "hi": [1.0, None]}
    ws = set_from_dict({"type": "whole_space", "dim": 4})
    assert type(ws) is WholeSpace and ws.dim == 4
    h = set_from_dict(half)
    assert type(h) is Halfspace and h.a.tolist() == [1.0, -2.0] and h.b == 0.5
    b = set_from_dict(box)
    assert type(b) is Box and b.lo.tolist() == [-np.inf, 0.0] and b.hi.tolist() == [1.0, np.inf]
    poly = set_from_dict({"type": "polyhedron", "halfspaces": [half, half], "box": box})
    assert type(poly) is Polyhedron and poly.box.hi.tolist() == b.hi.tolist()
    assert [p.a.tolist() + [p.b] for p in poly.halfspaces] == [[1.0, -2.0, 0.5]] * 2
    assert set_from_dict({"type": "polyhedron", "halfspaces": [half]}).box is None
    for bad in (
        {"type": "polyhedron", "halfspaces": [box]},
        {"type": "polyhedron", "halfspaces": [half], "box": half},
    ):
        with pytest.raises(ValueError):
            set_from_dict(bad)


def test_set_from_dict_rejects_unknown_type():
    for kind in ("cone", "two_halfspaces"):
        with pytest.raises(ParseError, match="unknown set type"):
            set_from_dict({"type": kind, "dim": 2})
    # A key the kind does not have is not ignored.
    for bad in (
        {"type": "whole_space", "dim": 2, "b": 1.0},
        {"type": "halfspace", "a": [1.0, 0.0], "b": 1.0, "dim": 2},
        {"type": "box", "lo": [0.0], "hi": [1.0], "hi_typo": [2.0]},
        {"type": "polyhedron", "halfspaces": [], "lo": [0.0]},
    ):
        with pytest.raises(ParseError, match="unknown key"):
            set_from_dict(bad)
