"""Convex-set descriptions with exact metric projections.

Four set kinds are supported: the whole space, a single halfspace
``{z : <a, z> <= b}``, an axis-aligned box, and a general polyhedron
(halfspaces plus an optional box, projected through the dense QP
solver).  Each is a :class:`ConvexSet` and states its own constraint
rows; the QP solver reads them prepared (:meth:`ConvexSet.prepared_rows`)
and knows no set kind.  The closed-form kernels
:func:`project_halfspace` and :func:`project_two_halfspaces` project a
point onto one or two rows ``(a, b)``; the hybrid solver's cuts are
such rows.  Greater-or-equal
constraints are expected to be normalized to ``<=`` form with negated
normals at construction time.

Set descriptions are immutable after construction: each keeps
read-only copies of the arrays it was built from, so a caller editing
its own array later changes no set, and the rows a set prepares once
stay valid.  All projections are pure, so concurrent use needs no
synchronization (two first uses at once prepare the same rows).
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .linalg import DimensionMismatch, as_point, frozen_copy

_FLOAT = np.finfo(float)


class NormalOutOfRange(ValueError):
    """A halfspace normal's ``|a|^2`` is outside ``[finfo.tiny, finfo.max]``: it cannot be scaled to unit length."""


class ZeroNormal(NormalOutOfRange):
    """Halfspace normal has zero length."""


class InfeasibleSet(ValueError):
    """No point satisfies the constraints: a set, a cut or an intersection of them is empty."""


def membership_tol(offset: float) -> float:
    """Default feasibility band: 1e-10 absolute plus 1e-12 relative on the offset."""
    return 1e-10 + 1e-12 * abs(offset)


class ConvexSet:
    """A closed convex set of dimension ``dim``, projected exactly.

    A kind states two things: ``project_trusted(p)``, the nearest point to a
    checked point ``p``, and ``rows()``, its inequalities ``A z <= b`` as
    fresh, writable arrays: halfspaces, then finite lower bounds, then
    finite upper bounds (ascending coordinate).
    """

    _prepared = None

    def project(self, x) -> np.ndarray:
        """Nearest point of the set to ``x``, which is checked: finite, 1-D, of the set's dimension."""
        return self.project_trusted(as_point(x, self.dim))

    def prepared_rows(self) -> tuple[np.ndarray, np.ndarray, float]:
        """:meth:`rows` at unit length (:func:`_unit_rows`), row for row, read-only, made once and kept.

        A grid's runs share one set: 23 of the table2 grid's 24 solvers find its rows here.
        """
        if self._prepared is None:
            A, b = self.rows()
            A, b, feas_tol = _unit_rows(A, b, A.shape[0])
            A.setflags(write=False)
            b.setflags(write=False)
            self._prepared = (A, b, feas_tol)
        return self._prepared


class WholeSpace(ConvexSet):
    """The ambient space; projection is the identity, and it has no rows."""

    def __init__(self, dim: int):
        if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
            raise ValueError(f"dimension must be an integer, got {dim!r}")
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self.dim = int(dim)

    def contains(self, x, tol: float | None = None) -> bool:
        as_point(x, self.dim)
        return True

    def project_trusted(self, p: np.ndarray) -> np.ndarray:
        return p.copy()

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros((0, self.dim)), np.zeros(0)

    def __repr__(self):
        return f"WholeSpace(dim={self.dim})"


class Halfspace(ConvexSet):
    """The set ``{z : <a, z> <= b}`` for a normal ``a`` with ``|a|^2`` in the normal float range.

    Raises :class:`ZeroNormal` for ``a = 0`` and :class:`NormalOutOfRange`
    for any other ``a`` whose ``|a|^2`` is below ``finfo.tiny`` or above
    ``finfo.max`` (``|a|`` below about 1.5e-154 or above 1.3e154).  A
    non-finite offset ``b`` raises ``ValueError``: an infinite one would
    widen the feasibility band of every row prepared with it to inf.
    """

    def __init__(self, a, b: float):
        self.a = frozen_copy(as_point(a))
        self.b = float(b)
        if not math.isfinite(self.b):
            raise ValueError(f"halfspace offset must be finite, got {self.b}")
        if not self.a.any():
            raise ZeroNormal("halfspace normal must be nonzero")
        with np.errstate(over="ignore"):  # an overflow is the inf rejected below
            length2 = float(self.a.dot(self.a))
        if not _FLOAT.tiny <= length2 <= _FLOAT.max:
            raise NormalOutOfRange(f"halfspace normal has |a|^2 = {length2:g}, outside the normal float range")
        self.dim = self.a.shape[0]

    def violation(self, x) -> float:
        """Signed constraint value ``<a, x> - b`` (positive means outside)."""
        return float(self.a @ as_point(x, self.dim) - self.b)

    def contains(self, x, tol: float | None = None) -> bool:
        if tol is None:
            tol = membership_tol(self.b)
        return self.violation(x) <= tol

    def project_trusted(self, p: np.ndarray) -> np.ndarray:
        """Closed-form projection (:func:`project_halfspace`)."""
        return project_halfspace(p, self.a, self.b)

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        return self.a[None].copy(), np.array([self.b])

    def __repr__(self):
        return f"Halfspace(a={self.a.tolist()}, b={self.b})"


class Box(ConvexSet):
    """Axis-aligned box ``lo <= z <= hi``; ``lo`` may hold ``-inf`` and ``hi`` ``+inf``, but not the reverse.

    A lower bound of ``+inf`` or an upper one of ``-inf`` admits no finite point (``ValueError``): its row's
    offset would be infinite.
    """

    def __init__(self, lo, hi):
        self.lo = frozen_copy(_as_bounds(lo))
        self.hi = frozen_copy(_as_bounds(hi))
        if self.lo.shape != self.hi.shape:
            raise DimensionMismatch("box bounds have different lengths")
        if np.any(self.lo > self.hi):
            raise ValueError("box requires lo <= hi elementwise")
        if not (self.lo < np.inf).all() or not (self.hi > -np.inf).all():
            raise ValueError("a box bound of lo = +inf or hi = -inf admits no finite point")
        self.dim = self.lo.shape[0]

    def contains(self, x, tol: float | None = None) -> bool:
        p = as_point(x, self.dim)
        lo_tol = np.array([tol if tol is not None else membership_tol(v) for v in self.lo])
        hi_tol = np.array([tol if tol is not None else membership_tol(v) for v in self.hi])
        with np.errstate(invalid="ignore"):
            below = np.any(p < self.lo - lo_tol)
            above = np.any(p > self.hi + hi_tol)
        return not (below or above)

    def project_trusted(self, p: np.ndarray) -> np.ndarray:
        """Elementwise clamp; the result lies in the box exactly."""
        # ``np.clip``'s bits, ``-0.0`` included, without its Python-level wrapper.
        return np.minimum(np.maximum(p, self.lo), self.hi)

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Unit rows with ``+0.0`` off the bound's coordinate; infinite bounds give none."""
        low, high = self.lo > -np.inf, self.hi < np.inf
        eye = np.eye(self.dim)
        # ``0.0 - e`` keeps the zeros positive, where ``-e`` would flip them.
        return np.vstack([0.0 - eye[low], eye[high]]), np.concatenate([-self.lo[low], self.hi[high]])

    def __repr__(self):
        return f"Box(lo={self.lo.tolist()}, hi={self.hi.tolist()})"


class Polyhedron(ConvexSet):
    """Finite intersection of halfspaces with an optional bounding box.

    Feasibility is not assumed; it is detected on demand by the QP
    machinery when a projection is requested.
    """

    def __init__(self, halfspaces=(), box: Box | None = None):
        self.halfspaces = tuple(halfspaces)
        self.box = box
        self._parts = self.halfspaces + (() if box is None else (box,))
        if not self._parts:
            raise ValueError("polyhedron needs at least one halfspace or a box")
        dims = {s.dim for s in self._parts}
        if len(dims) != 1:
            raise DimensionMismatch("polyhedron parts have inconsistent dimensions")
        self.dim = dims.pop()

    def contains(self, x, tol: float | None = None) -> bool:
        return all(s.contains(x, tol) for s in self._parts)

    def project_trusted(self, p: np.ndarray) -> np.ndarray:
        """Nearest point in the polyhedron: a cold :class:`qp.CutProjector` call with no cuts.

        Raises :class:`InfeasibleSet` when the description is empty.
        """
        from .qp import CutProjector  # deferred: qp builds on the set types above

        return CutProjector(self).project(p, ())

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        parts = [s.rows() for s in self._parts]
        return np.vstack([A for A, _ in parts]), np.concatenate([b for _, b in parts])

    def __repr__(self):
        return f"Polyhedron(halfspaces={list(self.halfspaces)!r}, box={self.box!r})"


def checked_set(s, dim: int | None = None) -> ConvexSet:
    """``s``, a :class:`ConvexSet` (else ``TypeError``) of dimension ``dim`` if given (:class:`DimensionMismatch`)."""
    if not isinstance(s, ConvexSet):
        raise TypeError(f"expected a convex set, got {type(s).__name__}")
    if dim is not None and s.dim != dim:
        raise DimensionMismatch(f"the set has dimension {s.dim}, expected {dim}")
    return s


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
    g11, g22, g12 = float(a1.dot(a1)), float(a2.dot(a2)), float(a1.dot(a2))
    # A single-halfspace candidate x - t a is tested through scalars: the
    # other row's value there is v - t g12, so no candidate array is built
    # unless it is returned.
    if v1 > 0.0:
        t = v1 / g11
        if v2 - t * g12 <= tol2:
            return x - t * a1
    if v2 > 0.0:
        t = v2 / g22
        if v1 - t * g12 <= tol1:
            return x - t * a2

    # Both boundary hyperplanes active: solve the Gram system in the
    # two multipliers, z = x - mu1 a1 - mu2 a2 with both constraints tight.
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


def _as_bounds(v) -> np.ndarray:
    b = np.asarray(v, dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise ValueError(f"expected a nonempty 1-D bound vector, got shape {b.shape}")
    if np.any(np.isnan(b)):
        raise ValueError("bounds must not contain NaN")
    return b


def _unit_rows(A: np.ndarray, b: np.ndarray, new: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Rows ``A y <= b`` at unit length: the prepared triple ``(A, b, feas_tol)``.

    The first ``new`` rows are scaled to unit length in place; the rows
    below them must be at unit length already.  Unit-length rows make
    violations geometric distances, so one tolerance scale serves
    constraints of wildly different norms.  No row is dropped: the dual
    method never adds a row that depends on its working set, a duplicate
    or a nearly parallel row included (:meth:`qp._DualQP.solve`).
    """
    norms = _row_norms(A[:new])
    A[:new] /= norms[:, None]
    b[:new] /= norms
    return A, b, 1e-9 * (1.0 + float(np.abs(b).max(initial=0.0)))


def _row_norms(A: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(A, axis=1)`` by numpy's own formula, bit for bit, without its dispatch."""
    return np.sqrt(np.add.reduce(A * A, axis=1))

