"""The benchmark's workloads: how each is built and how its outputs are checked.

``build`` is what a user of the package pays before the first solve can
start (it runs inside the timed set-up).  ``make_check`` prepares the
output check for a workload; it may run reference solves and always runs
outside every timed region.  A check maps the runs of one pass over the
workload's cells to one entry per cell: ``None`` when the cell is correct,
otherwise the reason it failed.  Checks read only ``RunReport.final_x``,
``iterations`` and ``stop_reason``.
"""

from __future__ import annotations

import numpy as np

from ephybrid import experiments
from ephybrid.hybrid import StoppingRule, extragradient_solve
from ephybrid.qp import prox_step

NAMES = ("table1", "table2", "nc64")

# Final iterates recorded for the table1 grid (7-decimal precision), per start.
TABLE1_REFERENCE = {
    (1.0, 3.0, 1.0): (0.0000004, 0.9806232, 0.0194736),
    (-3.0, 4.0, 1.0): (0.0000000, 0.9806290, 0.0194844),
    (3.0, -2.0, 1.0): (0.0000004, 0.9806289, 0.0194885),
}
TABLE1_CROSS_CHECK_START = (1.0, 3.0, 1.0)

# nc64: a planted monotone Nash-Cournot game on {sum x >= 1} cut to [0, 1]^64.
NC_DIM = 64
NC_ACTIVE = 32
NC_STARTS = 3
NC_BUDGET = 150
# Far below roundoff of the iterates, so every start runs its whole budget.
NC_TOL = 1e-12


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid measurement."""


def build(name: str, seed: int) -> experiments.ExperimentConfig:
    """The workload's config, validated the way the CLI validates it."""
    if name == "table1":
        config = experiments.table1_config()
    elif name == "table2":
        config = experiments.table2_config()
        # qp imports scipy.optimize on the first phase-1 LP, which every
        # table2 run reaches; users pay the import on each CLI run.
        import scipy.optimize  # noqa: F401
    elif name == "nc64":
        config = experiments.config_from_dict(nash_cournot_config(seed))
    else:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    for schedule in config.schedules:
        config.params_for(schedule)
    return config


def nash_cournot_config(seed: int) -> dict:
    """JSON config of a seeded Nash-Cournot game with a planted unique solution.

    ``Q`` is SPD and ``P = Q + D`` with ``D`` SPD, so ``Q - P`` is negative
    definite and the problem is strictly monotone.  The solution ``x*`` has
    ``NC_ACTIVE`` coordinates at their lower bound (with strictly positive
    multipliers ``mu``) and the rest strictly inside the box, with the sum
    constraint slack; ``q = mu - (P + Q) x*`` makes it the solution.
    """
    rng = np.random.default_rng(seed)
    d = NC_DIM
    Q = _random_spd(rng, d)
    P = Q + _random_spd(rng, d)
    active = rng.permutation(d)[:NC_ACTIVE]
    x_star = rng.uniform(0.2, 0.8, d)
    x_star[active] = 0.0
    mu = np.zeros(d)
    mu[active] = rng.uniform(0.5, 1.5, NC_ACTIVE)
    q = mu - (P + Q) @ x_star
    starts = rng.normal(0.5, 1.0, (NC_STARTS, d))
    return {
        "problem": {
            "label": "nc64",
            "bifunction": {"P": P.tolist(), "Q": Q.tolist(), "q": q.tolist()},
            "feasible": {
                "type": "polyhedron",
                "halfspaces": [{"type": "halfspace", "a": [-1.0] * d, "b": -1.0}],
                "box": {"type": "box", "lo": [0.0] * d, "hi": [1.0] * d},
            },
            "mapping": {"type": "identity"},
            "target": x_star.tolist(),
        },
        "algorithm": "hybrid",
        "params": {
            "lambda": None,
            "k": 6.0,
            "alpha_schedule": "ratio",
            "cut_variant": "two_halfspaces",
            "cuts_within_feasible": False,
        },
        "starts": starts.tolist(),
        "stopping": {"rule": "residual_w", "tol": NC_TOL, "max_iter": NC_BUDGET},
    }


def _random_spd(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    m = a @ a.T / d + 0.5 * np.eye(d)
    return 0.5 * (m + m.T)


def make_check(name: str, config: experiments.ExperimentConfig):
    if name == "table1":
        return _table1_check(config)
    if name == "table2":
        return _table2_check
    return _nc64_check(config)


def _table1_check(config):
    # Acceptance criterion 2: the two-prox baseline must reach the same limit.
    baseline = extragradient_solve(
        config.bundle,
        config.lam,
        StoppingRule("residual_w", 1e-4, 20000),
        list(TABLE1_CROSS_CHECK_START),
    ).final_x

    def check(runs) -> list[str | None]:
        verdicts = []
        for run in runs:
            key = tuple(float(v) for v in run.start)
            err = float(np.max(np.abs(run.report.final_x - np.array(TABLE1_REFERENCE[key]))))
            if run.report.stop_reason != "ResidualW":
                verdicts.append(f"start {key} stopped with {run.report.stop_reason}")
            elif err > 5e-3:
                verdicts.append(f"start {key} ends {err:.2e} from the reference (tol 5e-3)")
            elif key == TABLE1_CROSS_CHECK_START and np.linalg.norm(run.report.final_x - baseline) > 1e-3:
                verdicts.append(f"start {key} disagrees with the extragradient limit (tol 1e-3)")
            else:
                verdicts.append(None)
        finals = [run.report.final_x for run in runs]
        spread = max(
            (float(np.max(np.abs(a - b))) for i, a in enumerate(finals) for b in finals[i + 1:]),
            default=0.0,
        )
        if spread > 1e-3:
            verdicts = [v or f"final iterates disagree by {spread:.2e} (tol 1e-3)" for v in verdicts]
        return verdicts

    return check


def _table2_check(runs) -> list[str | None]:
    verdicts = []
    for run in runs:
        norm = float(np.linalg.norm(run.report.final_x))
        if run.report.stop_reason != "DistanceToKnown":
            verdicts.append(f"{run.schedule_label} stopped with {run.report.stop_reason}")
        elif norm > 1e-3:
            verdicts.append(f"{run.schedule_label} ends at |x| = {norm:.2e} (tol 1e-3)")
        else:
            verdicts.append(None)
    return verdicts


def _nc64_check(config):
    bundle = config.bundle
    x_star = bundle.target
    # The planted solution must be a fixed point of the prox step.
    residual = float(
        np.linalg.norm(prox_step(bundle.bifunction, x_star, x_star, config.lam, bundle.feasible) - x_star)
    )
    if residual > 1e-10:
        raise BenchError(f"nc64 planted solution has natural residual {residual:.2e} (tol 1e-10)")
    budget = config.stopping.max_iter

    def check(runs) -> list[str | None]:
        verdicts = []
        for run in runs:
            before = float(np.linalg.norm(run.start - x_star))
            after = float(np.linalg.norm(run.report.final_x - x_star))
            if run.report.stop_reason != "MaxIter" or run.report.iterations != budget:
                verdicts.append(
                    f"stopped with {run.report.stop_reason} after {run.report.iterations} "
                    f"of {budget} iterations"
                )
            elif not after < before:
                verdicts.append(f"distance to x* went from {before:.3e} to {after:.3e}")
            else:
                verdicts.append(None)
        return verdicts

    return check
