import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack, solve_triangular

from ephybrid import linalg
from ephybrid.linalg import (
    NonSquare,
    PIVOT_TOL,
    NotSPD,
    as_matrix,
    as_point,
    cholesky_spd,
    gram_factor,
    solve_with_factor,
    spectral_norm,
    triangular_solve,
)
from oracles import power_iteration_norm

COST_DIFF = [[1.5, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 2.0]]


# An SPD solve is the factor, then the two triangular solves with it.


def test_spd_solve_identity():
    b = np.array([1.0, -2.0, 3.0])
    assert np.allclose(solve_with_factor(cholesky_spd(np.eye(3)), b), b, atol=0)


def test_spd_solve_diagonal():
    y = solve_with_factor(cholesky_spd(np.diag([2.0, 4.0])), np.array([2.0, 8.0]))
    assert np.allclose(y, [1.0, 2.0], atol=1e-15)


def test_spd_solve_residual_bound():
    M = np.array([[2.0, 1.0], [1.0, 2.0]])
    b = np.array([3.0, 3.0])
    y = solve_with_factor(cholesky_spd(M), b)
    assert np.allclose(y, [1.0, 1.0], atol=1e-12)
    assert np.linalg.norm(M @ y - b) <= 1e-10 * (1 + np.linalg.norm(b))


def test_spd_solve_rejects_indefinite():
    with pytest.raises(NotSPD):
        solve_with_factor(cholesky_spd(np.diag([1.0, -1.0])), np.array([1.0, 1.0]))


def test_spd_solve_rejects_asymmetric():
    with pytest.raises(NotSPD):
        cholesky_spd([[1.0, 2.0], [0.0, 1.0]])


def test_spd_solve_rejects_tiny_pivot():
    with pytest.raises(NotSPD):
        cholesky_spd([[1e-13]])


def test_spd_solve_random_roundtrip():
    rng = np.random.default_rng(7)
    for _ in range(200):
        d = int(rng.integers(1, 11))
        G = rng.normal(size=(d, d))
        M = G @ G.T + 1e-3 * np.eye(d)
        y = rng.normal(size=d)
        got = solve_with_factor(cholesky_spd(M), M @ y)
        assert np.linalg.norm(got - y) <= 1e-9 * (1 + np.linalg.norm(y))


def test_cholesky_rejects_small_and_negative_pivots_anywhere():
    # A pivot is the Schur complement left at its column, not the diagonal
    # entry: each matrix here has a comfortable diagonal.
    last_tiny = [[1.0, 1.0, 0.0], [1.0, 2.0, 1.0], [0.0, 1.0, 1.0 + 1e-13]]
    mid_negative = [[4.0, 2.0, 0.0], [2.0, 0.5, 1.0], [0.0, 1.0, 3.0]]
    # The trusted core checks the pivots as the checked boundary does.
    for factor in (cholesky_spd, gram_factor):
        for m in (np.diag([1.0, 1.0, 1e-13]), last_tiny, mid_negative):
            with pytest.raises(NotSPD):
                factor(np.array(m))
        # Just above the tolerance is accepted.
        assert factor(np.diag([1.0, 1.0, 2e-12]))[2, 2] ** 2 > PIVOT_TOL


def test_cholesky_layout_and_agreement_with_numpy():
    rng = np.random.default_rng(29)
    for d in range(1, 65):
        G = rng.normal(size=(d, d))
        M = G @ G.T + 0.1 * np.eye(d)
        for m in (M, np.asfortranarray(M)):
            L = cholesky_spd(m)
            assert L.flags.c_contiguous
            assert not np.triu(L, 1).any()
            ref = np.linalg.cholesky(M)
            assert np.abs(L - ref).max() <= 1e-14 * np.abs(ref).max()


def test_solve_with_factor_matches_scipy_bitwise():
    # The direct LAPACK calls must reproduce the two solve_triangular
    # calls they replace bit for bit, for vector and stacked right-hand
    # sides, including a transposed (Fortran-ordered) view like A_W^T.
    rng = np.random.default_rng(13)
    for d in range(1, 65):
        G = rng.normal(size=(d, d))
        L = cholesky_spd(G @ G.T + d * np.eye(d))
        rows = rng.normal(size=(3, d))
        for rhs in (rng.normal(size=d), rng.normal(size=(d, 4)), rows.T):
            z = solve_triangular(L, rhs, lower=True, check_finite=False)
            ref = solve_triangular(L.T, z, lower=False, check_finite=False)
            got = solve_with_factor(L, rhs)
            assert got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()


def test_solve_with_factor_rejects_zero_diagonal():
    L = np.array([[2.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 1.0, 3.0]])
    with pytest.raises(np.linalg.LinAlgError):
        solve_with_factor(L, np.ones(3))
    with pytest.raises(np.linalg.LinAlgError):
        solve_with_factor(L, np.ones((3, 2)))


def test_gram_factor_rejects_nan_and_infinite_pivots():
    # dpotrf reports success on these (info = 0), and a NaN pivot passes
    # the pivot comparison, so each needs its own check.
    for a in ([[np.nan]], [[1.0, np.nan], [np.nan, 1.0]], [[np.inf]], [[2.0, 0.0], [0.0, np.inf]]):
        with pytest.raises(NotSPD):
            gram_factor(np.array(a))


def test_positional_lapack_flags_match_keyword_calls_bitwise():
    # gram_factor and the solves pass dpotrf's and dtrtrs's flags by
    # position; the factors and solutions must be the keyword calls', bit
    # for bit, for vector, stacked and Fortran-ordered right-hand sides.
    rng = np.random.default_rng(43)
    for d in (1, 2, 3, 5, 8, 17, 64):
        G = rng.normal(size=(d, d))
        a = G @ G.T + d * np.eye(d)
        upper, info = lapack.dpotrf(a.T, lower=0, clean=1)
        assert info == 0
        L = gram_factor(a)
        assert L.tobytes() == upper.T.tobytes()
        for rhs in (rng.normal(size=d), rng.normal(size=(d, 3)), rng.normal(size=(5, d)).T):
            z = lapack.dtrtrs(upper, rhs, lower=0, trans=1)[0]
            assert triangular_solve(L, rhs).tobytes() == z.tobytes()
            ref = lapack.dtrtrs(upper, z, lower=0, trans=0)[0]
            assert triangular_solve(L, z, transpose=True).tobytes() == ref.tobytes()
            assert solve_with_factor(L, rhs).tobytes() == ref.tobytes()


def test_ndarray_dot_is_matmul_bitwise_on_the_dual_qp_shapes():
    # The dual QP and the halfspace projection use ndarray.dot, which makes
    # the BLAS calls @ makes without matmul's dispatch.  The shapes and
    # memory orders are the solver's: unit rows A (C order), K = M^-1 A^T
    # from dtrtrs and K = A^T for M = I (both Fortran order), the face
    # gather K[:, idx] (Fortran order), A[:new] against A^T (all of A for a
    # set's own rows) and 1-D products.
    rng = np.random.default_rng(59)
    cases = 0
    for d in (1, 2, 3, 4, 7, 16, 33, 64):
        for _ in range(6):
            m = int(rng.integers(1, 2 * d + 2))
            A = rng.normal(size=(m, d))
            A /= np.sqrt(np.add.reduce(A * A, axis=1))[:, None]
            G = rng.normal(size=(d, d))
            L = cholesky_spd(G @ G.T + np.eye(d))
            y, x = rng.normal(size=d), rng.normal(size=d)
            pairs = [(A, y), (A[0], y), (y, x), (y, y), (G, y), (A.T, rng.normal(size=m))]
            pairs += [(A[:new], A.T) for new in {1, (m + 1) // 2, m}]
            for K in (A.T, solve_with_factor(L, A.T)):
                assert K.flags.f_contiguous
                pairs.append((A, K))
                idx = np.array(sorted(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False)))
                K_W = K[:, idx]
                assert K_W.flags.f_contiguous
                pairs.append((K_W, rng.normal(size=idx.size)))
            for X, Y in pairs:
                assert X.dot(Y).tobytes() == (X @ Y).tobytes(), (X.shape, Y.shape)
                cases += 1
    assert cases >= 500


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, -5.0])) == pytest.approx(5.0, abs=1e-12)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((3, 3))) == 0.0


def test_spectral_norm_cost_difference_block():
    # eigenvalues of the leading 2x2 block are (3.5 +- sqrt(4.25)) / 2
    expected = (3.5 + math.sqrt(4.25)) / 2.0
    got = spectral_norm(COST_DIFF)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(2.78078, abs=5e-6)
    assert got == pytest.approx(power_iteration_norm(np.array(COST_DIFF)), rel=1e-8)


def test_spectral_norm_rejects_nonsquare():
    with pytest.raises(NonSquare):
        spectral_norm(np.ones((2, 3)))


def test_spectral_norm_dominates_random_directions():
    rng = np.random.default_rng(11)
    M = rng.normal(size=(5, 5))
    norm = spectral_norm(M)
    sampled = 0.0
    for _ in range(1000):
        v = rng.normal(size=5)
        v /= np.linalg.norm(v)
        sampled = max(sampled, float(np.linalg.norm(M @ v)))
    assert sampled <= norm + 1e-6
    assert norm == pytest.approx(power_iteration_norm(M, seed=3), rel=1e-6)


def test_as_point_validation():
    with pytest.raises(ValueError):
        as_point([[1.0, 2.0]])
    with pytest.raises(ValueError):
        as_point([np.nan])
    with pytest.raises(ValueError):
        as_point([])
    for bad in ([np.inf], [-np.inf], [np.inf, -np.inf], [1.0, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            as_point(bad)
    # Finite entries whose sum overflows are still finite.
    assert as_point([1e308, 1e308]).tolist() == [1e308, 1e308]


def test_as_matrix_validation():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix([[np.inf]])
    for bad in ([[np.inf]], [[-np.inf]], [[np.inf, -np.inf]], [[1.0, np.nan]]):
        with pytest.raises(ValueError, match="finite"):
            as_matrix(bad)
    assert as_matrix([[1e308, 1e308]]).tolist() == [[1e308, 1e308]]


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's ``ephybrid``."""
    src = str(Path(linalg.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_table1_grid_imports_no_scipy_linalg():
    """The package and its CLI load LAPACK without ``scipy.linalg``'s package
    ``__init__`` (nor the ``numpy.f2py`` it pulls in), and a grid run loads neither."""
    done = _fresh_python(
        "import sys\n"
        "import ephybrid, ephybrid.cli\n"
        "from ephybrid import experiments\n"
        "experiments.run_grid(experiments.table1_config())\n"
        "loaded = sorted({'scipy.linalg', 'numpy.f2py'} & set(sys.modules))\n"
        "sys.exit(f'imported {loaded}' if loaded else 0)\n"
    )
    assert done.returncode == 0, done.stderr


_ROUTINES_AGREE = (
    "import scipy.linalg.lapack as la\n"
    "assert la.dpotrf is linalg.dpotrf and la.dtrtrs is linalg.dtrtrs\n"
    "assert la._flapack is sys.modules['scipy.linalg._flapack']\n"
)


@pytest.mark.parametrize(
    "code",
    [
        # ephybrid first: it loads the module from its file; scipy.linalg reuses it.
        "import sys\n"
        "from ephybrid import linalg\n"
        "module = sys.modules['scipy.linalg._flapack']\n"
        "assert 'scipy.linalg' not in sys.modules\n"
        + _ROUTINES_AGREE
        + "assert la._flapack is module\n"
        "from scipy.linalg import _flapack\n"
        "assert _flapack is module\n"
        "import scipy.linalg\n"
        "assert scipy.linalg.get_lapack_funcs(('potrf',))[0] is linalg.dpotrf\n",
        # scipy.linalg first: ephybrid takes the module scipy registered.
        "import sys\n"
        "import scipy.linalg\n"
        "from ephybrid import linalg\n" + _ROUTINES_AGREE,
    ],
    ids=["ephybrid_first", "scipy_linalg_first"],
)
def test_either_import_order_shares_one_lapack_module(code):
    done = _fresh_python(code)
    assert done.returncode == 0, done.stderr


def test_lapack_loader_without_the_file_takes_scipy_linalg_lapack(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    dpotrf, dtrtrs = linalg._load_lapack(tmp_path)
    assert dpotrf is lapack.dpotrf is linalg.dpotrf
    assert dtrtrs is lapack.dtrtrs is linalg.dtrtrs
    assert "scipy.linalg._flapack" not in sys.modules
