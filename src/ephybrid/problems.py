"""Problem data: bifunctions, affine operators, nonexpansive mappings.

The bifunction family shipped here is the quadratic one,
``f(x, y) = <P x + Q y + q, y - x>``, which arises from Nash-Cournot
oligopoly models and also wraps variational inequalities (``Q = 0``).
Restricting to this family keeps the per-iteration subproblem an
exactly solvable dense QP.

Structural conditions the solvers rely on:

* ``f(x, x) = 0`` and monotonicity: ``f(x, y) + f(y, x) <= 0``, which
  for the quadratic family is equivalent to ``Q - P`` negative
  semidefinite.
* Lipschitz-type continuity: ``f(x,y) + f(y,z) >= f(x,z)
  - c1 |x-y|^2 - c2 |y-z|^2`` with positive constants ``c1, c2``.  For
  the quadratic family ``f(x,y) + f(y,z) - f(x,z) = (x-y)^T (P^T - Q)
  (y-z)``, so the inequality holds everywhere exactly when
  ``|P^T - Q| <= 2 sqrt(c1 c2)`` (spectral norm).
  :class:`ProblemBundle` checks this; ``c1 = c2 = |P^T - Q| / 2``
  (:func:`nash_cournot_constants`) sits on the bound.
* Convexity of ``f(x, .)``: ``Q`` positive semidefinite.
* Weak continuity holds automatically for quadratics and is therefore
  documented rather than tested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    DimensionMismatch,
    NonFiniteIterate,
    all_finite,
    as_matrix,
    as_point,
    frozen_copy,
    is_symmetric,
    spectral_norm,
)
from .sets import ConvexSet, checked_set

PSD_TOL = 1e-10


class DegenerateConstants(ValueError):
    """Lipschitz-type constants must be strictly positive."""


class NotMonotone(ValueError):
    """Monotonicity requirement is violated."""


class ConstantsTooSmall(ValueError):
    """The constants break the Lipschitz-type inequality: ``|P^T - Q| > 2 sqrt(c1 c2)``."""


@dataclass(frozen=True)
class LipschitzConstants:
    """Positive constants of the Lipschitz-type inequality."""

    c1: float
    c2: float

    def __post_init__(self):
        if not (self.c1 > 0.0 and self.c2 > 0.0):
            raise DegenerateConstants(f"constants must be > 0, got {self.c1}, {self.c2}")


class QuadraticBifunction:
    """``f(x, y) = <P x + Q y + q, y - x>``.

    ``Q`` must be symmetric positive semidefinite (convexity in the
    second argument) and ``Q - P`` negative semidefinite
    (monotonicity).  Both are eigenvalue checks performed at
    construction.  ``P``, ``Q`` and ``q`` are kept as read-only copies,
    so the bifunction never changes after construction.
    """

    def __init__(self, P, Q, q):
        self.P = frozen_copy(as_matrix(P))
        self.Q = frozen_copy(as_matrix(Q))
        self.q = frozen_copy(as_point(q))
        n = self.P.shape[0]
        if self.P.shape != (n, n) or self.Q.shape != (n, n) or self.q.shape != (n,):
            raise DimensionMismatch(
                f"P {self.P.shape}, Q {self.Q.shape}, q {self.q.shape} must share one order"
            )
        self.dim = n
        if not is_symmetric(self.Q):
            raise ValueError("Q must be symmetric")
        if eigvals_sym(self.Q).min() < -PSD_TOL * max(1.0, float(np.abs(self.Q).max())):
            raise ValueError("Q must be positive semidefinite")
        diff = self.Q - self.P
        dscale = max(1.0, float(np.abs(diff).max()))
        if eigvals_sym(diff).max() > PSD_TOL * dscale:
            raise NotMonotone("Q - P must be negative semidefinite")

    def __call__(self, x, y) -> float:
        px = as_point(x, self.dim)
        py = as_point(y, self.dim)
        return float((self.P @ px + self.Q @ py + self.q) @ (py - px))

    def __repr__(self):
        return f"QuadraticBifunction(dim={self.dim})"


class AffineOperator:
    """Monotone affine operator ``x -> A x + b``."""

    def __init__(self, A, b):
        self.A = as_matrix(A)
        self.b = as_point(b)
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.b.shape != (n,):
            raise DimensionMismatch("A must be square and match b")
        self.dim = n
        scale = max(1.0, float(np.abs(self.A).max()))
        if eigvals_sym(self.A).min() < -PSD_TOL * scale:
            raise NotMonotone("A + A^T must be positive semidefinite")

    def __call__(self, x) -> np.ndarray:
        return self.A @ as_point(x, self.dim) + self.b


class IdentityMapping:
    """The identity; every point is a fixed point."""

    def __call__(self, x) -> np.ndarray:
        return as_point(x)

    def __repr__(self):
        return "IdentityMapping()"


class AveragedProjections:
    """``x -> P_outer(mean_i P_inner_i(x))``.

    A composition of metric projections, hence nonexpansive; its fixed
    points minimize the mean squared distance to the inner sets over
    the outer set.  The point is checked once, here, and each inner set
    projects it through ``project_trusted``; so does the outer set, once the
    mean is found finite.  A mean that is not (an inner projection that
    overflowed) raises :class:`NonFiniteIterate`.
    """

    def __init__(self, outer: ConvexSet, inner):
        checked_set(outer)
        inner = tuple(map(checked_set, inner))
        if not inner:
            raise ValueError("need at least one inner set")
        dims = {outer.dim} | {s.dim for s in inner}
        if len(dims) != 1:
            raise DimensionMismatch("outer and inner sets must share one dimension")
        self.outer = outer
        self.inner = inner
        self.dim = dims.pop()

    def __call__(self, x) -> np.ndarray:
        p = as_point(x, self.dim)
        mean = _mean([s.project_trusted(p) for s in self.inner])
        if not all_finite(mean):
            raise NonFiniteIterate("the mean of the inner projections is not finite")
        return self.outer.project_trusted(mean)

    def __repr__(self):
        return f"AveragedProjections(outer={self.outer!r}, n_inner={len(self.inner)})"


def _mean(parts: list[np.ndarray]) -> np.ndarray:
    """``np.mean(parts, axis=0)`` bit for bit: the sum and the division it makes, without its wrapper."""
    return np.add.reduce(np.array(parts), axis=0) / len(parts)


NonexpansiveMapping = IdentityMapping | AveragedProjections


class ProblemBundle:
    """Everything one solver run needs: ``(f, C, S)`` plus constants.

    ``target`` optionally records a known solution, enabling the
    distance-based stopping rule and the per-iteration contraction
    certificate.  Construction raises :class:`ConstantsTooSmall` unless
    ``|P^T - Q| <= 2 sqrt(c1 c2)``, to a relative 1e-12.
    """

    def __init__(
        self,
        bifunction: QuadraticBifunction,
        feasible: ConvexSet,
        mapping: NonexpansiveMapping,
        constants: LipschitzConstants,
        target=None,
        label: str = "",
    ):
        self.bifunction = bifunction
        self.feasible = checked_set(feasible)
        self.mapping = mapping
        self.constants = constants
        self.target = None if target is None else as_point(target)
        self.label = label
        dims = {bifunction.dim, feasible.dim}
        if isinstance(mapping, AveragedProjections):
            dims.add(mapping.dim)
        if self.target is not None:
            dims.add(self.target.shape[0])
        if len(dims) != 1:
            raise DimensionMismatch("bundle members have inconsistent dimensions")
        self.dim = dims.pop()
        norm = _coupling_norm(bifunction.P, bifunction.Q)
        bound = 2.0 * math.sqrt(constants.c1 * constants.c2)
        if norm > bound * (1.0 + 1e-12):
            raise ConstantsTooSmall(f"need |P^T - Q| = {norm:.6g} <= 2 sqrt(c1 c2) = {bound:.6g}")

    def __repr__(self):
        return f"ProblemBundle(label={self.label!r}, dim={self.dim})"


def nash_cournot_constants(P, Q) -> LipschitzConstants:
    """Lipschitz-type constants ``c1 = c2 = |P^T - Q| / 2`` of the quadratic family."""
    c = _coupling_norm(as_matrix(P), as_matrix(Q)) / 2.0
    if c <= 0.0:
        raise DegenerateConstants("P^T == Q gives zero constants")
    return LipschitzConstants(c, c)


def vip_as_bifunction(op: AffineOperator) -> tuple[QuadraticBifunction, LipschitzConstants]:
    """Wrap a variational inequality ``<A(x), y - x> >= 0`` as a bifunction.

    Returns the quadratic bifunction with ``P = A``, ``Q = 0``,
    ``q = b`` together with the constants ``c1 = c2 = |A| / 2`` of
    :func:`nash_cournot_constants`.
    """
    f = QuadraticBifunction(op.A, np.zeros_like(op.A), op.b)
    return f, nash_cournot_constants(f.P, f.Q)


def _coupling_norm(P: np.ndarray, Q: np.ndarray) -> float:
    """``|P^T - Q|``: ``|f(x,y) + f(y,z) - f(x,z)| <= |P^T - Q| |x-y| |y-z|``."""
    return spectral_norm(P.T - Q)


def eigvals_sym(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric part of ``m``, ascending."""
    return np.linalg.eigvalsh(0.5 * (m + m.T))
