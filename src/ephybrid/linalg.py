"""Dense linear-algebra kernels shared by the solver stack.

Vectors are 1-D float numpy arrays, matrices 2-D.  The two nontrivial
kernels are a pivot-checked Cholesky factorization of symmetric
positive definite matrices, with its triangular solves, and the spectral
(operator-2) norm.  The factorization has a checked boundary,
:func:`cholesky_spd` (finite, square, symmetric), around a trusted core,
:func:`gram_factor` (LAPACK ``dpotrf`` and the pivot check), which
serves matrices the caller built itself; the triangular solves are
LAPACK ``dtrtrs``.  Both LAPACK routines are called directly.
Everything is a pure function on immutable inputs; problems here are
small and dense (a few hundred dimensions at most), so direct
factorizations only.

The two routines come from scipy's LAPACK extension module, which
:func:`_load_lapack` loads on its own at import: the package never
imports ``scipy.linalg``, whose package ``__init__`` costs more than the
rest of ``import ephybrid``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np

_FLAPACK = "scipy.linalg._flapack"


def _load_lapack(directory: Path) -> tuple:
    """LAPACK's ``(dpotrf, dtrtrs)`` from the ``_flapack`` extension module in ``directory``.

    A module already registered as ``scipy.linalg._flapack`` is taken as it
    is.  Otherwise the module is loaded from its file alone, without
    ``scipy.linalg``'s package ``__init__``, and registered under that
    name, so a later ``import scipy.linalg`` reuses it.  Without the file,
    the routines come from ``scipy.linalg.lapack``, which re-exports the
    same module's.
    """
    module = sys.modules.get(_FLAPACK)
    if module is None:
        files = (directory / f"_flapack{suffix}" for suffix in importlib.machinery.EXTENSION_SUFFIXES)
        path = next((f for f in files if f.is_file()), None)
        if path is None:
            from scipy.linalg.lapack import dpotrf, dtrtrs

            return dpotrf, dtrtrs
        spec = importlib.util.spec_from_file_location(_FLAPACK, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[_FLAPACK] = module
        spec.loader.exec_module(module)
    return module.dpotrf, module.dtrtrs


dpotrf, dtrtrs = _load_lapack(Path(importlib.util.find_spec("scipy").origin).parent / "linalg")

SYMMETRY_TOL = 1e-10
PIVOT_TOL = 1e-12


class DimensionMismatch(ValueError):
    """Operand dimensions do not agree."""


class NonSquare(ValueError):
    """A square matrix is required."""


class NotSPD(ValueError):
    """Matrix is not symmetric positive definite."""


class NonFiniteIterate(ValueError):
    """A step produced an iterate with an inf or NaN entry (for example one that overflowed)."""


def all_finite(p: np.ndarray) -> bool:
    """True when no entry of the 1-D float array ``p`` is inf or NaN.

    A finite sum proves it, since an inf or NaN entry makes the sum inf
    or NaN; only finite entries whose sum overflows reach the
    elementwise test.  The sum runs over Python floats, which overflow
    to inf silently where numpy's reduction would warn.
    """
    return math.isfinite(sum(p.tolist())) or bool(np.isfinite(p).all())


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite, nonempty 1-D float vector, of length ``dim`` if given (:class:`DimensionMismatch`)."""
    p = np.asarray(x, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"expected a nonempty 1-D vector, got shape {p.shape}")
    if not all_finite(p):
        raise ValueError("vector entries must be finite")
    if dim is not None and p.shape[0] != dim:
        raise DimensionMismatch(f"point has dim {p.shape[0]}, expected {dim}")
    return p


def as_matrix(m) -> np.ndarray:
    """Coerce ``m`` to a finite 2-D float matrix."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise ValueError(f"expected a nonempty 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def frozen_copy(a: np.ndarray) -> np.ndarray:
    """A read-only copy of ``a``, for arrays an object keeps after construction."""
    a = a.copy()
    a.setflags(write=False)
    return a


def cholesky_spd(m) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive definite matrix.

    The checked boundary of :func:`gram_factor`: finite entries, a square
    shape and symmetry (:func:`is_symmetric`).
    Raises :class:`NotSPD` otherwise, or where :func:`gram_factor` does.
    """
    a = as_matrix(m)
    n, k = a.shape
    if n != k:
        raise NonSquare(f"matrix is {n}x{k}")
    if not is_symmetric(a):
        raise NotSPD("matrix is not symmetric")
    return gram_factor(a)


def is_symmetric(a: np.ndarray) -> bool:
    """True when the finite square ``a`` equals ``a^T`` to ``SYMMETRY_TOL`` relative to ``max(1, max|a|)``."""
    return float(np.abs(a - a.T).max()) <= SYMMETRY_TOL * max(1.0, float(np.abs(a).max()))


def gram_factor(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a trusted square matrix; :class:`NotSPD` for a pivot at most ``PIVOT_TOL``.

    :func:`cholesky_spd`'s core, for matrices the caller built itself.
    LAPACK ``dpotrf`` factors the Fortran-ordered view ``a^T`` (it reads
    the lower triangle of ``a``) into an upper factor whose transpose,
    returned, is C-ordered with an exactly zero strict upper triangle.
    ``dpotrf`` may report success on a NaN or infinite entry; a non-finite
    factor entry makes its row's pivot non-finite, also :class:`NotSPD`.
    The LAPACK flags go by position here and in the solves: f2py parses
    keywords at a cost.
    """
    upper, info = dpotrf(a.T, 0, 1)  # lower=0, clean=1
    if info > 0:
        raise NotSPD(f"leading minor of order {info} is not positive definite")
    lower = upper.T
    diag = lower.diagonal()
    if not all_finite(diag):
        raise NotSPD("the factor has a NaN or infinite pivot")
    j = int(diag.argmin())
    if diag[j] * diag[j] <= PIVOT_TOL:
        raise NotSPD(f"pivot {diag[j] * diag[j]:.3e} at column {j}")
    return lower


def solve_with_factor(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``L L^T y = rhs`` given a lower Cholesky factor ``L``.

    ``rhs`` may be a vector or a matrix of stacked right-hand sides.
    Inputs are trusted (no finiteness re-validation); this sits on the
    solver hot path.  LAPACK ``dtrtrs`` is called directly on the
    Fortran-ordered view ``L^T``: for a C-ordered ``L`` (what
    :func:`cholesky_spd` returns for C-ordered input) these are exactly
    the calls scipy's ``solve_triangular`` makes, so results are bitwise
    the same without its per-call wrapper cost.  Raises
    ``numpy.linalg.LinAlgError`` on an exactly zero diagonal.
    """
    upper = lower.T
    z, info = dtrtrs(upper, rhs, 0, 1)  # lower=0, trans=1
    if info == 0:
        z, info = dtrtrs(upper, z, 0, 0)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return z


def triangular_solve(lower: np.ndarray, rhs: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``L^-1 rhs``, or ``L^-T rhs`` with ``transpose``, for a lower factor ``L``.

    One of the two ``dtrtrs`` calls of :func:`solve_with_factor`, alone:
    ``triangular_solve(L, triangular_solve(L, rhs), transpose=True)`` is
    bitwise ``solve_with_factor(L, rhs)``.  Inputs are trusted.  Raises
    ``numpy.linalg.LinAlgError`` on an exactly zero diagonal.
    """
    z, info = dtrtrs(lower.T, rhs, 0, 0 if transpose else 1)  # lower=0, trans
    if info != 0:
        raise np.linalg.LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return z


def spectral_norm(m) -> float:
    """Largest singular value of a square matrix.

    For symmetric input this equals the largest absolute eigenvalue.
    """
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"matrix is {a.shape[0]}x{a.shape[1]}")
    return float(np.linalg.norm(a, 2))
