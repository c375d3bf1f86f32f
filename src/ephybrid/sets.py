"""Convex-set descriptions with exact metric projections.

Five set kinds are supported: the whole space, a single halfspace
``{z : <a, z> <= b}``, an axis-aligned box, the intersection of exactly
two halfspaces (projected by closed-form case analysis), and a general
polyhedron (halfspaces plus an optional box, projected through the
dense QP solver).  :func:`halfspaces_and_box` splits every kind into
those two parts; it is the one place that does.  Greater-or-equal
constraints are expected to be normalized to ``<=`` form with negated
normals at construction time.

Set descriptions are immutable after construction and all projections
are pure, so concurrent use needs no synchronization.
"""

from __future__ import annotations

import numpy as np

from .linalg import DimensionMismatch, as_point


class ZeroNormal(ValueError):
    """Halfspace normal has zero length."""


class EmptyIntersection(ValueError):
    """The described intersection contains no point."""


class InfeasibleSet(ValueError):
    """Feasible region is empty."""


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
        self._check(x)
        return True

    def project(self, x) -> np.ndarray:
        return self._check(x).copy()

    def _check(self, x) -> np.ndarray:
        p = as_point(x)
        if p.shape[0] != self.dim:
            raise DimensionMismatch(f"point has dim {p.shape[0]}, set has dim {self.dim}")
        return p

    def __repr__(self):
        return f"WholeSpace(dim={self.dim})"


class Halfspace:
    """The set ``{z : <a, z> <= b}`` for a nonzero normal ``a``."""

    def __init__(self, a, b: float):
        self.a = as_point(a)
        self.b = float(b)
        self.norm2 = float(self.a @ self.a)
        if self.norm2 <= 0.0:
            raise ZeroNormal("halfspace normal must be nonzero")
        self.dim = self.a.shape[0]

    def violation(self, x) -> float:
        """Signed constraint value ``<a, x> - b`` (positive means outside)."""
        p = as_point(x)
        if p.shape[0] != self.dim:
            raise DimensionMismatch(f"point has dim {p.shape[0]}, set has dim {self.dim}")
        return float(self.a @ p - self.b)

    def contains(self, x, tol: float | None = None) -> bool:
        if tol is None:
            tol = membership_tol(self.b)
        return self.violation(x) <= tol

    def project(self, x) -> np.ndarray:
        """Closed-form projection ``x - max(0, (<a,x> - b)/|a|^2) a``.

        Points already inside are returned unchanged.
        """
        p = as_point(x)
        v = self.violation(p)
        if v <= 0.0:
            return p.copy()
        return p - (v / self.norm2) * self.a

    def __repr__(self):
        return f"Halfspace(a={self.a.tolist()}, b={self.b})"


class Box:
    """Axis-aligned box ``lo <= z <= hi``; bounds may be +-inf."""

    def __init__(self, lo, hi):
        self.lo = _as_bounds(lo)
        self.hi = _as_bounds(hi)
        if self.lo.shape != self.hi.shape:
            raise DimensionMismatch("box bounds have different lengths")
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi elementwise")
        self.dim = self.lo.shape[0]

    def contains(self, x, tol: float | None = None) -> bool:
        p = self._check(x)
        lo_tol = np.array([tol if tol is not None else membership_tol(v) for v in self.lo])
        hi_tol = np.array([tol if tol is not None else membership_tol(v) for v in self.hi])
        with np.errstate(invalid="ignore"):
            below = np.any(p < self.lo - lo_tol)
            above = np.any(p > self.hi + hi_tol)
        return not (below or above)

    def project(self, x) -> np.ndarray:
        """Elementwise clamp; the result lies in the box exactly."""
        return np.clip(self._check(x), self.lo, self.hi)

    def _check(self, x) -> np.ndarray:
        p = as_point(x)
        if p.shape[0] != self.dim:
            raise DimensionMismatch(f"point has dim {p.shape[0]}, box has dim {self.dim}")
        return p

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


class TwoHalfspaces:
    """Intersection of exactly two halfspaces, projected in closed form."""

    def __init__(self, first: Halfspace, second: Halfspace):
        if first.dim != second.dim:
            raise DimensionMismatch("halfspaces have different dimensions")
        self.first = first
        self.second = second
        self.dim = first.dim

    def contains(self, x, tol: float | None = None) -> bool:
        return self.first.contains(x, tol) and self.second.contains(x, tol)

    def project(self, x) -> np.ndarray:
        return project_two_halfspaces(x, self.first, self.second)

    def __repr__(self):
        return f"TwoHalfspaces({self.first!r}, {self.second!r})"


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
        """Nearest point in the polyhedron, via the dense active-set QP.

        Raises :class:`InfeasibleSet` when the description is empty.
        """
        from . import qp  # deferred: qp builds on the set types above

        p = as_point(x)
        if p.shape[0] != self.dim:
            raise DimensionMismatch(f"point has dim {p.shape[0]}, set has dim {self.dim}")
        inst = qp.QPInstance(np.eye(self.dim), -p, self)
        return qp.solve_qp_active_set(inst)

    def __repr__(self):
        return f"Polyhedron(halfspaces={list(self.halfspaces)!r}, box={self.box!r})"


ConvexSet = WholeSpace | Halfspace | Box | TwoHalfspaces | Polyhedron


def halfspaces_and_box(s: ConvexSet) -> tuple[tuple[Halfspace, ...], Box | None]:
    """A set as its halfspaces plus an optional box, whose intersection it is.

    The whole space is ``((), None)``.  Raises :class:`TypeError` for
    anything that is not one of the five set kinds.
    """
    if isinstance(s, WholeSpace):
        return (), None
    if isinstance(s, Halfspace):
        return (s,), None
    if isinstance(s, Box):
        return (), s
    if isinstance(s, TwoHalfspaces):
        return (s.first, s.second), None
    if isinstance(s, Polyhedron):
        return s.halfspaces, s.box
    raise TypeError(f"unsupported feasible set: {type(s).__name__}")


def project_two_halfspaces(x, first, second) -> np.ndarray:
    """Exact projection onto the intersection of two halfspaces.

    Either argument may be :class:`WholeSpace`, in which case it is
    dropped.  The case analysis: return ``x`` when feasible; otherwise
    try the single-halfspace projections; otherwise both boundary
    hyperplanes are active and the multipliers come from the 2x2 Gram
    system.  Raises :class:`EmptyIntersection` for anti-parallel
    normals bounding a slab with no interior.
    """
    p = as_point(x)
    if isinstance(first, WholeSpace) and isinstance(second, WholeSpace):
        return first.project(p)
    if isinstance(first, WholeSpace):
        return second.project(p)
    if isinstance(second, WholeSpace):
        return first.project(p)
    if first.dim != second.dim or p.shape[0] != first.dim:
        raise DimensionMismatch("point and halfspaces must share one dimension")

    v1 = first.violation(p)
    v2 = second.violation(p)
    if v1 <= membership_tol(first.b) and v2 <= membership_tol(second.b):
        return p.copy()
    if v1 > 0.0:
        cand = first.project(p)
        if second.contains(cand):
            return cand
    if v2 > 0.0:
        cand = second.project(p)
        if first.contains(cand):
            return cand

    # Both boundary hyperplanes active: solve the Gram system in the
    # two multipliers, z = x - mu1 a1 - mu2 a2 with both constraints tight.
    a1, a2 = first.a, second.a
    g11, g22 = first.norm2, second.norm2
    g12 = float(a1 @ a2)
    det = g11 * g22 - g12 * g12
    if det <= 1e-14 * g11 * g22:
        # Parallel normals.  Same-direction pairs always resolve in the
        # single-projection cases above, so this is a disjoint slab.
        raise EmptyIntersection(
            "anti-parallel halfspaces with inconsistent offsets have empty intersection"
        )
    mu1 = (g22 * v1 - g12 * v2) / det
    mu2 = (g11 * v2 - g12 * v1) / det
    if mu1 < -1e-12 or mu2 < -1e-12:
        # Cannot happen once the single-projection cases have failed;
        # guards against inconsistent tolerance slivers.
        raise ArithmeticError("two-halfspace projection produced negative multipliers")
    return p - max(mu1, 0.0) * a1 - max(mu2, 0.0) * a2


def set_to_dict(s: ConvexSet) -> dict:
    """Serialize a set description to the tagged-JSON form."""
    if isinstance(s, WholeSpace):
        return {"type": "whole_space", "dim": s.dim}
    if isinstance(s, Halfspace):
        return {"type": "halfspace", "a": s.a.tolist(), "b": s.b}
    if isinstance(s, Box):
        lo = [None if v == -np.inf else v for v in s.lo.tolist()]
        hi = [None if v == np.inf else v for v in s.hi.tolist()]
        return {"type": "box", "lo": lo, "hi": hi}
    if isinstance(s, TwoHalfspaces):
        return {
            "type": "two_halfspaces",
            "first": set_to_dict(s.first),
            "second": set_to_dict(s.second),
        }
    if isinstance(s, Polyhedron):
        return {
            "type": "polyhedron",
            "halfspaces": [set_to_dict(h) for h in s.halfspaces],
            "box": None if s.box is None else set_to_dict(s.box),
        }
    raise TypeError(f"not a convex set: {type(s).__name__}")


def set_from_dict(d: dict) -> ConvexSet:
    """Build a set from its tagged-JSON form (inverse of :func:`set_to_dict`)."""
    kind = d.get("type")
    if kind == "whole_space":
        return WholeSpace(int(d["dim"]))
    if kind == "halfspace":
        return Halfspace(d["a"], d["b"])
    if kind == "box":
        lo = [-np.inf if v is None else v for v in d["lo"]]
        hi = [np.inf if v is None else v for v in d["hi"]]
        return Box(lo, hi)
    if kind == "two_halfspaces":
        first = set_from_dict(d["first"])
        second = set_from_dict(d["second"])
        if not isinstance(first, Halfspace) or not isinstance(second, Halfspace):
            raise ValueError("two_halfspaces parts must be halfspaces")
        return TwoHalfspaces(first, second)
    if kind == "polyhedron":
        box = d.get("box")
        parsed_box = set_from_dict(box) if box is not None else None
        if parsed_box is not None and not isinstance(parsed_box, Box):
            raise ValueError("polyhedron box entry must be a box")
        halves = []
        for h in d.get("halfspaces", []):
            parsed = set_from_dict(h)
            if not isinstance(parsed, Halfspace):
                raise ValueError("polyhedron halfspaces entries must be halfspaces")
            halves.append(parsed)
        return Polyhedron(halves, parsed_box)
    raise ValueError(f"unknown set type: {kind!r}")


def _as_bounds(v) -> np.ndarray:
    b = np.asarray(v, dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise ValueError(f"expected a nonempty 1-D bound vector, got shape {b.shape}")
    if np.any(np.isnan(b)):
        raise ValueError("bounds must not contain NaN")
    return b
