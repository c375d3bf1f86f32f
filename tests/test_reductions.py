"""Every reduction the hot path writes without numpy's wrappers gives the wrapped form's bits.

The step's reductions skip the Python-level wrappers of ``.sum()``,
``.any()``, ``.all()``, ``np.mean`` and the matmul dispatch of ``@`` on
vectors.  Each rewritten form is compared here, bit for bit, with the form it
replaced, on random data of many lengths and scales and on the edge cases
(empty arrays, signed zeros, NaN and infinities).  The slack, whose squared
moves a step carries to the next, is replayed against the form that
recomputed all three from the previous iterates.
"""

import itertools

import numpy as np

import pytest

from ephybrid.experiments import table1_config, table2_config
from ephybrid.hybrid import (
    _norm,
    _sum_of_squares,
    build_anchor_cut,
    build_contraction_cut,
    solve,
)
from ephybrid.problems import AveragedProjections, _mean
from ephybrid.sets import Box, Halfspace, Polyhedron, WholeSpace
from pins import TABLE1_ITERATIONS

EDGE_VALUES = [0.0, -0.0, 1.0, -2.5, 1e-300, -1e300, np.inf, -np.inf, np.nan]


def bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def random_vectors(seed: int, lengths=range(1, 71), per_length=20):
    rng = np.random.default_rng(seed)
    for n in lengths:
        for _ in range(per_length):
            yield rng.normal(size=n) * 10.0 ** rng.uniform(-150, 150)


def test_sum_of_squares_is_the_sum_of_the_squares():
    vectors = itertools.chain(
        random_vectors(1),
        [np.zeros(0), np.array([-0.0]), np.array([1e200, 1e200]), np.array([1e-200, -3e-170])],
    )
    for d in vectors:
        with np.errstate(over="ignore"):
            assert bits(_sum_of_squares(d)) == bits(float(((d) ** 2).sum())), d
    # Any shape reduces to one number, as ``.sum()`` does.
    d = np.arange(6.0).reshape(3, 2) - 2.5
    assert bits(_sum_of_squares(d)) == bits(float(((d) ** 2).sum()))


def test_list_truth_tests_match_any_and_all():
    rng = np.random.default_rng(2)
    floats = [np.zeros(0), np.array([-0.0, 0.0]), np.array([np.nan]), np.array([0.0, -np.inf])]
    floats += [rng.choice(EDGE_VALUES, size=int(rng.integers(1, 9))) for _ in range(500)]
    for a in floats:
        assert any(a.tolist()) == bool(a.any()), a
        assert all(a.tolist()) == bool(a.all()), a
        k = a >= 0.0
        assert any(k.tolist()) == bool(k.any()), k
        assert all(k.tolist()) == bool(k.all()), k


def test_cut_builders_see_a_zero_normal_where_any_does():
    x = np.array([0.0, -0.0, 2.0])
    assert build_anchor_cut(x, x.copy()) is None
    assert build_anchor_cut(np.array([0.0, 1.0]), np.array([-0.0, 1.0])) is None
    assert build_contraction_cut(x, x.copy(), 0.0) is None
    a, b = build_anchor_cut(np.array([0.0, 1.0]), np.array([0.0, 1.0 - 1e-16]))
    assert any(a.tolist()) and a.any()
    with_nan = build_anchor_cut(np.array([np.nan, 0.0]), np.zeros(2))
    assert with_nan is not None


def test_vector_dot_is_the_matmul_of_two_vectors():
    rng = np.random.default_rng(3)
    for a in random_vectors(4, per_length=10):
        b = rng.normal(size=a.shape[0]) * 10.0 ** rng.uniform(-100, 100)
        assert bits(a.dot(b)) == bits(a @ b)
        assert bits(_norm(a)) == bits(float(np.linalg.norm(a)))
    # Strided views (a matrix's column, every other entry) take the same call.
    for n in (1, 3, 8, 33, 64):
        m = rng.normal(size=(n, 3))
        v = rng.normal(size=2 * n)[::2]
        assert bits(m[:, 1].dot(v)) == bits(m[:, 1] @ v)


def test_mean_is_numpys_mean():
    rng = np.random.default_rng(5)
    for d, k in itertools.product(range(1, 7), range(1, 6)):
        for _ in range(20):
            parts = [rng.normal(size=d) * 10.0 ** rng.uniform(-5, 5) for _ in range(k)]
            assert bits(_mean(parts)) == bits(np.mean(np.stack(parts), axis=0))


def test_averaged_projections_average_as_numpys_mean_for_every_inner_kind():
    """1 to 5 inner sets of every kind, repeats included, against the mean of checked projections."""
    rng = np.random.default_rng(6)
    box = Box([-1.0, -1.0, -1.0], [1.0, 1.0, 1.0])
    kinds = [
        WholeSpace(3),
        Halfspace([3.0, 2.0, 1.0], -6.0),
        Halfspace([-1.0, 0.5, 0.0], 0.25),
        Box([0.0, -2.0, 0.0], [1.0, 0.0, 3.0]),
        Polyhedron([Halfspace([-1.0, -1.0, -1.0], -1.0)], Box([0.0] * 3, [1.0] * 3)),
    ]
    outers = [box, table2_config().bundle.mapping.outer]
    for count in range(1, 6):
        for inner in itertools.combinations_with_replacement(kinds, count):
            for outer in outers:
                mapping = AveragedProjections(outer, inner)
                for _ in range(4):
                    p = rng.normal(scale=3.0, size=3)
                    ref = outer.project(np.mean(np.stack([s.project(p) for s in inner]), axis=0))
                    assert bits(mapping(p)) == bits(ref)


@pytest.mark.parametrize(
    "config, cell, steps",
    [(table1_config(), (0, 0), TABLE1_ITERATIONS[0]), (table2_config(), (1, 2), 80)],
    ids=["table1_start0", "table2_start1_invlog"],
)
def test_carried_squared_moves_give_the_three_reduction_slack(config, cell, steps):
    """Each record's ``epsilon`` equals, with ``==``, the slack recomputed from
    consecutive records with three squared-difference reductions:
    ``k |x_n - x_{n-1}|^2 + 2 lam c2 |y_n - y_{n-1}|^2 - lead |y_{n+1} - y_n|^2``,
    where the window before the first step repeats the start and the seed."""
    start, schedule = config.starts[cell[0]], config.schedules[cell[1]]
    params = config.params_for(schedule)
    c = config.bundle.constants
    report = solve(config.bundle, params, config.stopping, start, y0=config.y0)
    assert report.iterations == steps
    seed = np.zeros(config.bundle.dim) if config.y0 is None else config.y0
    x_prev = x_cur = np.asarray(start, dtype=float)
    y_prev = y_cur = seed
    lead = 1.0 - 1.0 / params.k - 2.0 * params.lam * c.c1
    for rec in report.trace:
        dx2 = float(((x_cur - x_prev) ** 2).sum())
        dy_prev2 = float(((y_cur - y_prev) ** 2).sum())
        dy_next2 = float(((rec.y_next - y_cur) ** 2).sum())
        slack = params.k * dx2 + 2.0 * params.lam * c.c2 * dy_prev2 - lead * dy_next2
        assert rec.epsilon == slack, rec.n
        x_prev, x_cur, y_prev, y_cur = x_cur, rec.x_next, y_cur, rec.y_next
