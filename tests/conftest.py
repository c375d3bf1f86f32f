import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from ephybrid.experiments import (
    builtin_example1,
    builtin_example2,
    run_grid,
    table1_config,
    table2_config,
)


def _timed_grid(config):
    """Run a grid and time it."""
    tic = time.perf_counter()
    runs = run_grid(config)
    return runs, time.perf_counter() - tic


@pytest.fixture(scope="session")
def example1():
    return builtin_example1()


@pytest.fixture(scope="session")
def example2():
    return builtin_example2()


@pytest.fixture(scope="session")
def table1_grid():
    """The three example-1 benchmark runs plus wall time (expensive; shared)."""
    return _timed_grid(table1_config())


@pytest.fixture(scope="session")
def table1_runs(table1_grid):
    return table1_grid[0]


@pytest.fixture(scope="session")
def table2_grid():
    """The 4 x 3 example-2 benchmark grid plus wall time."""
    return _timed_grid(table2_config())


@pytest.fixture(scope="session")
def table2_runs(table2_grid):
    return table2_grid[0]
