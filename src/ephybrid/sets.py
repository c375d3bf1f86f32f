"""Convex-set descriptions with exact metric projections.

Four set kinds are supported: the whole space, a single halfspace
``{z : <a, z> <= b}``, an axis-aligned box, and a general polyhedron
(halfspaces plus an optional box, projected through the dense QP
solver).  :func:`halfspaces_and_box` splits every kind into those two
parts; it is the one place that does.  The closed-form kernels
:func:`project_halfspace` and :func:`project_two_halfspaces` project a
point onto one or two rows ``(a, b)``; the hybrid solver's cuts are
such rows.  Greater-or-equal
constraints are expected to be normalized to ``<=`` form with negated
normals at construction time.

Set descriptions are immutable after construction: each keeps
read-only copies of the arrays it was built from, so a caller editing
its own array later changes no set, and caches keyed on a set's
identity stay valid.  All projections are pure, so concurrent use needs
no synchronization.  Each kind's ``project`` checks its point (finite, 1-D,
of the set's dimension) and hands it to ``project_trusted``, which callers
that hold a checked point of the right dimension may call directly.
"""

from __future__ import annotations

import numpy as np

from .linalg import DimensionMismatch, as_point, frozen_copy


class ZeroNormal(ValueError):
    """Halfspace normal has zero length."""


class InfeasibleSet(ValueError):
    """No point satisfies the constraints: a set, a cut or an intersection of them is empty."""


def membership_tol(offset: float) -> float:
    """Default feasibility band: 1e-10 absolute plus 1e-12 relative on the offset."""
    return 1e-10 + 1e-12 * abs(offset)


class WholeSpace:
    """The ambient space; projection is the identity."""

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)

    def contains(self, x, tol: float | None = None) -> bool:
        _point_in(x, self.dim)
        return True

    def project(self, x) -> np.ndarray:
        return self.project_trusted(_point_in(x, self.dim))

    def project_trusted(self, p: np.ndarray) -> np.ndarray:
        return p.copy()

    def __repr__(self):
        return f"WholeSpace(dim={self.dim})"


class Halfspace:
    """The set ``{z : <a, z> <= b}`` for a nonzero normal ``a``."""

    def __init__(self, a, b: float):
        self.a = frozen_copy(as_point(a))
        self.b = float(b)
        if float(self.a @ self.a) <= 0.0:
            raise ZeroNormal("halfspace normal must be nonzero")
        self.dim = self.a.shape[0]

    def violation(self, x) -> float:
        """Signed constraint value ``<a, x> - b`` (positive means outside)."""
        return float(self.a @ _point_in(x, self.dim) - self.b)

    def contains(self, x, tol: float | None = None) -> bool:
        if tol is None:
            tol = membership_tol(self.b)
        return self.violation(x) <= tol

    def project(self, x) -> np.ndarray:
        """Closed-form projection (:func:`project_halfspace`)."""
        return self.project_trusted(_point_in(x, self.dim))

    def project_trusted(self, p: np.ndarray) -> np.ndarray:
        return project_halfspace(p, self.a, self.b)

    def __repr__(self):
        return f"Halfspace(a={self.a.tolist()}, b={self.b})"


class Box:
    """Axis-aligned box ``lo <= z <= hi``; bounds may be +-inf."""

    def __init__(self, lo, hi):
        self.lo = frozen_copy(_as_bounds(lo))
        self.hi = frozen_copy(_as_bounds(hi))
        if self.lo.shape != self.hi.shape:
            raise DimensionMismatch("box bounds have different lengths")
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi elementwise")
        self.dim = self.lo.shape[0]

    def contains(self, x, tol: float | None = None) -> bool:
        p = _point_in(x, self.dim)
        lo_tol = np.array([tol if tol is not None else membership_tol(v) for v in self.lo])
        hi_tol = np.array([tol if tol is not None else membership_tol(v) for v in self.hi])
        with np.errstate(invalid="ignore"):
            below = np.any(p < self.lo - lo_tol)
            above = np.any(p > self.hi + hi_tol)
        return not (below or above)

    def project(self, x) -> np.ndarray:
        """Elementwise clamp; the result lies in the box exactly."""
        return self.project_trusted(_point_in(x, self.dim))

    def project_trusted(self, p: np.ndarray) -> np.ndarray:
        # ``np.clip``'s bits, ``-0.0`` included, without its Python-level wrapper.
        return np.minimum(np.maximum(p, self.lo), self.hi)

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


class Polyhedron:
    """Finite intersection of halfspaces with an optional bounding box.

    Feasibility is not assumed; it is detected on demand by the QP
    machinery when a projection is requested.
    """

    def __init__(self, halfspaces=(), box: Box | None = None):
        hs = tuple(halfspaces)
        if not hs and box is None:
            raise ValueError("polyhedron needs at least one halfspace or a box")
        dims = {h.dim for h in hs} | ({box.dim} if box is not None else set())
        if len(dims) != 1:
            raise DimensionMismatch("polyhedron parts have inconsistent dimensions")
        self.halfspaces = hs
        self.box = box
        self.dim = dims.pop()

    def contains(self, x, tol: float | None = None) -> bool:
        if self.box is not None and not self.box.contains(x, tol):
            return False
        return all(h.contains(x, tol) for h in self.halfspaces)

    def project(self, x) -> np.ndarray:
        """Nearest point in the polyhedron: a cold :class:`qp.CutProjector` call with no cuts.

        Raises :class:`InfeasibleSet` when the description is empty.
        """
        return self.project_trusted(_point_in(x, self.dim))

    def project_trusted(self, p: np.ndarray) -> np.ndarray:
        from .qp import CutProjector  # deferred: qp builds on the set types above

        return CutProjector(self).project(p, ())

    def __repr__(self):
        return f"Polyhedron(halfspaces={list(self.halfspaces)!r}, box={self.box!r})"


ConvexSet = WholeSpace | Halfspace | Box | Polyhedron


def halfspaces_and_box(s: ConvexSet) -> tuple[tuple[Halfspace, ...], Box | None]:
    """A set as its halfspaces plus an optional box, whose intersection it is.

    The whole space is ``((), None)``.  Raises :class:`TypeError` for
    anything that is not one of the four set kinds.
    """
    if isinstance(s, WholeSpace):
        return (), None
    if isinstance(s, Halfspace):
        return (s,), None
    if isinstance(s, Box):
        return (), s
    if isinstance(s, Polyhedron):
        return s.halfspaces, s.box
    raise TypeError(f"unsupported feasible set: {type(s).__name__}")


def project_halfspace(x: np.ndarray, a: np.ndarray, b: float) -> np.ndarray:
    """Closed-form projection ``x - max(0, (<a,x> - b)/|a|^2) a`` onto ``<a, z> <= b``.

    Points already inside are returned unchanged (as a copy).  ``x`` is
    trusted: a finite vector of the dimension of ``a``, which is nonzero.
    """
    v = float(a.dot(x) - b)
    if v <= 0.0:
        return x.copy()
    return x - (v / float(a.dot(a))) * a


def project_two_halfspaces(x: np.ndarray, first, second) -> np.ndarray:
    """Exact projection onto ``{z : <a1, z> <= b1, <a2, z> <= b2}``.

    ``first`` and ``second`` are the rows ``(a1, b1)`` and ``(a2, b2)``,
    nonzero normals with offsets.  The case analysis: return ``x`` when
    feasible (within :func:`membership_tol`); otherwise try the
    single-halfspace projections, :func:`project_halfspace`'s formula;
    otherwise both boundary hyperplanes are active and the multipliers
    come from the 2x2 Gram system.  Raises :class:`InfeasibleSet` for
    anti-parallel normals bounding a slab with no interior.  ``x``
    is trusted: callers check it.  Past the first, the inner products are
    ``a.dot(x)``: for 1-D vectors the BLAS ``ddot`` call ``a @ x`` makes,
    without matmul's dispatch.  The first stays ``a1 @ x``, which rejects a
    scalar ``x`` (``ValueError``) where ``.dot`` would broadcast it.
    """
    (a1, b1), (a2, b2) = first, second
    v1 = float(a1 @ x) - b1
    v2 = float(a2.dot(x)) - b2
    tol1, tol2 = membership_tol(b1), membership_tol(b2)
    if v1 <= tol1 and v2 <= tol2:
        return x.copy()
    g11, g22 = float(a1.dot(a1)), float(a2.dot(a2))
    if v1 > 0.0:
        cand = x - (v1 / g11) * a1
        if float(a2.dot(cand)) - b2 <= tol2:
            return cand
    if v2 > 0.0:
        cand = x - (v2 / g22) * a2
        if float(a1.dot(cand)) - b1 <= tol1:
            return cand

    # Both boundary hyperplanes active: solve the Gram system in the
    # two multipliers, z = x - mu1 a1 - mu2 a2 with both constraints tight.
    g12 = float(a1.dot(a2))
    det = g11 * g22 - g12 * g12
    if det <= 1e-14 * g11 * g22:
        # Parallel normals.  Same-direction pairs always resolve in the
        # single-projection cases above, so this is a disjoint slab.
        raise InfeasibleSet("anti-parallel halfspaces with inconsistent offsets have empty intersection")
    mu1 = (g22 * v1 - g12 * v2) / det
    mu2 = (g11 * v2 - g12 * v1) / det
    if mu1 < -1e-12 or mu2 < -1e-12:
        # Cannot happen once the single-projection cases have failed;
        # guards against inconsistent tolerance slivers.
        raise ArithmeticError("two-halfspace projection produced negative multipliers")
    return x - max(mu1, 0.0) * a1 - max(mu2, 0.0) * a2


def _point_in(x, dim: int) -> np.ndarray:
    """``x`` as a checked point (:func:`linalg.as_point`) of dimension ``dim``."""
    p = as_point(x)
    if p.shape[0] != dim:
        raise DimensionMismatch(f"point has dim {p.shape[0]}, set has dim {dim}")
    return p


def _as_bounds(v) -> np.ndarray:
    b = np.asarray(v, dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise ValueError(f"expected a nonempty 1-D bound vector, got shape {b.shape}")
    if np.any(np.isnan(b)):
        raise ValueError("bounds must not contain NaN")
    return b
