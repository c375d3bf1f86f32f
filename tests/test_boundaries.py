"""The public checks that stay at the boundaries of the hot path.

A step trusts what it made itself (``hybrid._drive`` checks each record once),
so every check a caller relies on lives at a public entry: each set kind's
``project``, ``AveragedProjections.__call__``, ``ProxSolver.step``,
``prox_step`` and ``hybrid_iterate`` (through its prox solver).  Each must
reject a point of the wrong dimension, of the wrong shape or with a
non-finite entry, with exactly the exception type pinned here.  Every entry
that takes a set rejects anything that is not a ``sets.ConvexSet`` with one
``TypeError``.
"""

import numpy as np
import pytest

from ephybrid.experiments import table1_config, table2_config
from ephybrid.hybrid import SolverState, _cut_projector, hybrid_iterate
from ephybrid.linalg import DimensionMismatch
from ephybrid.problems import AveragedProjections, IdentityMapping, ProblemBundle
from ephybrid.qp import CutProjector, ProxSolver, prox_step, solve_qp_active_set
from ephybrid.sets import Box, Halfspace, Polyhedron, WholeSpace

GOOD = np.array([1.0, 3.0, 1.0])
WRONG_DIMENSION = [np.ones(2), np.ones(4)]
WRONG_SHAPE = [np.ones((3, 1)), np.ones((1, 3)), np.zeros(0), 1.0]
NON_FINITE = [np.array([1.0, bad, 1.0]) for bad in (np.nan, np.inf, -np.inf)]

UNIT_BOX = Box([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
SETS = {
    "whole_space": WholeSpace(3),
    "halfspace": Halfspace([1.0, 1.0, 1.0], 1.0),
    "box": UNIT_BOX,
    "polyhedron": Polyhedron([Halfspace([-1.0, -1.0, -1.0], -1.0)], UNIT_BOX),
}

# (points, the exception a set or mapping raises, the one a prox raises)
BAD_POINTS = [
    (WRONG_DIMENSION, DimensionMismatch, DimensionMismatch),
    (WRONG_SHAPE, ValueError, DimensionMismatch),
    (NON_FINITE, ValueError, ValueError),
]


def raises_exactly(kind, call, point):
    """``call(point)`` raises ``kind`` itself, not a subclass (``DimensionMismatch`` is a ``ValueError``)."""
    with pytest.raises(ValueError) as caught:
        call(point)
    assert type(caught.value) is kind, (point, caught.value)


@pytest.mark.parametrize("name", list(SETS))
def test_every_set_kind_checks_the_point_it_projects(name):
    s = SETS[name]
    for points, kind, _ in BAD_POINTS:
        for point in points:
            raises_exactly(kind, s.project, point)
    assert s.project(GOOD).shape == (3,)


def test_averaged_projections_check_their_point_once_for_every_inner_set():
    mappings = [table2_config().bundle.mapping, AveragedProjections(UNIT_BOX, SETS.values())]
    for mapping in mappings:
        for points, kind, _ in BAD_POINTS:
            for point in points:
                raises_exactly(kind, mapping, point)


def test_every_entry_that_takes_a_set_rejects_a_non_set_with_one_type_error():
    bundle = table1_config().bundle
    f, constants = bundle.bifunction, bundle.constants
    not_a_set = object()
    for call in (
        lambda: ProblemBundle(f, not_a_set, IdentityMapping(), constants),
        lambda: AveragedProjections(not_a_set, [UNIT_BOX]),
        lambda: AveragedProjections(UNIT_BOX, [not_a_set]),
        lambda: AveragedProjections(UNIT_BOX, [UNIT_BOX, not_a_set]),
        lambda: ProxSolver(f, 0.1, not_a_set),
        lambda: prox_step(f, np.zeros(3), GOOD, 0.1, not_a_set),
        lambda: solve_qp_active_set(np.eye(3), np.zeros(3), not_a_set),
        lambda: CutProjector(not_a_set),
    ):
        with pytest.raises(TypeError) as caught:
            call()
        assert type(caught.value) is TypeError and "object" in str(caught.value)


def test_prox_solver_step_and_prox_step_check_both_points():
    bundle = table1_config().bundle
    f, feasible = bundle.bifunction, bundle.feasible
    warm = ProxSolver(f, 0.1, feasible)
    warm.step(np.zeros(3), GOOD)
    for points, _, kind in BAD_POINTS:
        for point in points:
            for call in (
                lambda p: ProxSolver(f, 0.1, feasible).step(p, GOOD),
                lambda p: ProxSolver(f, 0.1, feasible).step(np.zeros(3), p),
                lambda p: warm.step(p, GOOD),
                lambda p: warm.step(np.zeros(3), p),
                lambda p: prox_step(f, p, GOOD, 0.1, feasible),
                lambda p: prox_step(f, np.zeros(3), p, 0.1, feasible),
            ):
                raises_exactly(kind, call, point)


@pytest.mark.parametrize("config", [table1_config(), table2_config()], ids=["table1", "table2"])
def test_hybrid_iterate_checks_the_points_it_steps_from(config):
    """A bad current iterate or prox point reaches the prox solver's checks.

    table1 projects its cuts in closed form, table2 through the cut
    projector, so both paths are covered.
    """
    bundle, params = config.bundle, config.params_for(config.schedules[0])

    def step(state):
        prox = ProxSolver(bundle.bifunction, params.lam, bundle.feasible)
        return hybrid_iterate(state, bundle, params, prox, _cut_projector(bundle, params))

    for points, _, kind in BAD_POINTS:
        for point in points:
            for field in ("x_cur", "y_cur"):
                window = dict(x_cur=GOOD, y_cur=np.zeros(3), x0=GOOD, dx2=0.0, dy2=0.0)
                window[field] = point
                state = SolverState(n=1, **window)
                raises_exactly(kind, step, state)
