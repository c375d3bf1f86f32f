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
  - c1 |x-y|^2 - c2 |y-z|^2`` with positive constants ``c1, c2``; for
  the quadratic family ``c1 = c2 = |P - Q| / 2`` (spectral norm).
* Convexity of ``f(x, .)``: ``Q`` positive semidefinite.
* Weak continuity holds automatically for quadratics and is therefore
  documented rather than tested.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DimensionMismatch, as_matrix, as_point, frozen_copy, spectral_norm
from .sets import ConvexSet

PSD_TOL = 1e-10


class DegenerateConstants(ValueError):
    """Lipschitz-type constants must be strictly positive."""


class NotMonotone(ValueError):
    """Monotonicity requirement is violated."""


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
    construction; pass ``validate=False`` to skip them when building
    deliberately broken instances for diagnostics.  ``P``, ``Q`` and
    ``q`` are kept as read-only copies, so the bifunction never changes
    after construction.
    """

    def __init__(self, P, Q, q, validate: bool = True):
        self.P = frozen_copy(as_matrix(P))
        self.Q = frozen_copy(as_matrix(Q))
        self.q = frozen_copy(as_point(q))
        n = self.P.shape[0]
        if self.P.shape != (n, n) or self.Q.shape != (n, n) or self.q.shape != (n,):
            raise DimensionMismatch(
                f"P {self.P.shape}, Q {self.Q.shape}, q {self.q.shape} must share one order"
            )
        self.dim = n
        if validate:
            scale = max(1.0, float(np.abs(self.Q).max()))
            if float(np.abs(self.Q - self.Q.T).max()) > PSD_TOL * scale:
                raise ValueError("Q must be symmetric")
            if eigvals_sym(self.Q).min() < -PSD_TOL * scale:
                raise ValueError("Q must be positive semidefinite")
            diff = self.Q - self.P
            dscale = max(1.0, float(np.abs(diff).max()))
            if eigvals_sym(diff).max() > PSD_TOL * dscale:
                raise NotMonotone("Q - P must be negative semidefinite")

    def __call__(self, x, y) -> float:
        px = as_point(x)
        py = as_point(y)
        if px.shape[0] != self.dim or py.shape[0] != self.dim:
            raise DimensionMismatch("arguments must match the bifunction dimension")
        return float((self.P @ px + self.Q @ py + self.q) @ (py - px))

    def __repr__(self):
        return f"QuadraticBifunction(dim={self.dim})"


class AffineOperator:
    """Monotone affine operator ``x -> A x + b``."""

    def __init__(self, A, b, validate: bool = True):
        self.A = as_matrix(A)
        self.b = as_point(b)
        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.b.shape != (n,):
            raise DimensionMismatch("A must be square and match b")
        self.dim = n
        if validate:
            scale = max(1.0, float(np.abs(self.A).max()))
            if eigvals_sym(self.A).min() < -PSD_TOL * scale:
                raise NotMonotone("A + A^T must be positive semidefinite")

    def __call__(self, x) -> np.ndarray:
        px = as_point(x)
        if px.shape[0] != self.dim:
            raise DimensionMismatch("argument must match the operator dimension")
        return self.A @ px + self.b

    def lipschitz_constant(self) -> float:
        return spectral_norm(self.A)


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
    the outer set.
    """

    def __init__(self, outer: ConvexSet, inner):
        inner = tuple(inner)
        if not inner:
            raise ValueError("need at least one inner set")
        dims = {outer.dim} | {s.dim for s in inner}
        if len(dims) != 1:
            raise DimensionMismatch("outer and inner sets must share one dimension")
        self.outer = outer
        self.inner = inner
        self.dim = dims.pop()

    def __call__(self, x) -> np.ndarray:
        p = as_point(x)
        if p.shape[0] != self.dim:
            raise DimensionMismatch("argument must match the mapping dimension")
        mean = np.mean([s.project(p) for s in self.inner], axis=0)
        return self.outer.project(mean)

    def __repr__(self):
        return f"AveragedProjections(outer={self.outer!r}, n_inner={len(self.inner)})"


NonexpansiveMapping = IdentityMapping | AveragedProjections


class ProblemBundle:
    """Everything one solver run needs: ``(f, C, S)`` plus constants.

    ``target`` optionally records a known solution, enabling the
    distance-based stopping rule and the per-iteration contraction
    certificate.
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
        self.feasible = feasible
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

    def __repr__(self):
        return f"ProblemBundle(label={self.label!r}, dim={self.dim})"


def nash_cournot_constants(P, Q) -> LipschitzConstants:
    """Lipschitz-type constants ``c1 = c2 = |P - Q| / 2`` of the quadratic family."""
    diff = as_matrix(P) - as_matrix(Q)
    c = spectral_norm(diff) / 2.0
    if c <= 0.0:
        raise DegenerateConstants("P == Q gives zero constants")
    return LipschitzConstants(c, c)


def vip_as_bifunction(op: AffineOperator) -> tuple[QuadraticBifunction, LipschitzConstants]:
    """Wrap a variational inequality ``<A(x), y - x> >= 0`` as a bifunction.

    Returns the quadratic bifunction with ``P = A``, ``Q = 0``,
    ``q = b`` together with constants ``c1 = c2 = L / 2`` where ``L``
    is the Lipschitz constant of the affine map.
    """
    L = op.lipschitz_constant()
    if L <= 0.0:
        raise DegenerateConstants("constant operator has zero Lipschitz constant")
    f = QuadraticBifunction(op.A, np.zeros_like(op.A), op.b)
    return f, LipschitzConstants(L / 2.0, L / 2.0)


def validate_conditions(bundle: ProblemBundle, trials: int = 200, seed: int = 0) -> list[str]:
    """Constructive spot checks of the structural conditions.

    Runs randomized checks of the zero diagonal, monotonicity (via the
    identity ``f(x,y) + f(y,x) = -(x-y)^T (P-Q) (x-y)``), convexity of
    ``f(x, .)``, the Lipschitz-type inequality with the stored
    constants, and nonexpansiveness of the mapping.  Sample points are
    drawn around the feasible set and projected into it.  Returns the
    names of violated conditions; an empty list means all checks pass.
    """
    f = bundle.bifunction
    rng = np.random.default_rng(seed)
    violations = []

    def feasible_sample():
        return bundle.feasible.project(rng.normal(scale=2.0, size=bundle.dim))

    diff = f.P - f.Q
    zero_diag_ok = True
    monotone_ok = True
    lipschitz_ok = True
    for _ in range(trials):
        x = feasible_sample()
        y = feasible_sample()
        z = feasible_sample()
        if abs(f(x, x)) > 1e-12:
            zero_diag_ok = False
        s = f(x, y) + f(y, x)
        if abs(s + (x - y) @ (diff @ (x - y))) > 1e-9 or s > 1e-9:
            monotone_ok = False
        lhs = f(x, y) + f(y, z)
        rhs = (
            f(x, z)
            - bundle.constants.c1 * float((x - y) @ (x - y))
            - bundle.constants.c2 * float((y - z) @ (y - z))
        )
        if lhs < rhs - 1e-9:
            lipschitz_ok = False
    if not zero_diag_ok:
        violations.append("zero-diagonal")
    if not monotone_ok:
        violations.append("monotone")
    if not lipschitz_ok:
        violations.append("lipschitz-type")

    scale = max(1.0, float(np.abs(f.Q).max()))
    if eigvals_sym(f.Q).min() < -PSD_TOL * scale:
        violations.append("convex-in-second-argument")

    nonexpansive_ok = True
    for _ in range(trials):
        u = rng.normal(scale=2.0, size=bundle.dim)
        v = rng.normal(scale=2.0, size=bundle.dim)
        du = bundle.mapping(u) - bundle.mapping(v)
        if np.linalg.norm(du) > np.linalg.norm(u - v) + 1e-12:
            nonexpansive_ok = False
    if not nonexpansive_ok:
        violations.append("nonexpansive-mapping")

    return violations


def eigvals_sym(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric part of ``m``, ascending."""
    return np.linalg.eigvalsh(0.5 * (m + m.T))
