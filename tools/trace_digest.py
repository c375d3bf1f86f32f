"""Print one SHA-256 per benchmark case over every array of its trace.

    python3 tools/trace_digest.py

The cases are the table1 grid plus its extragradient cross-check, the 12
cells of the table2 grid, and the nc64 game (``bench/workloads.py``) at seeds
1, 2, 3 and 907.  A digest covers, per iteration, ``n``, ``y``, ``z``, ``w``
and ``x_next``, ``epsilon``, the residual, the distance to the target and
``alpha``, then the run's ``final_x`` and ``stop_reason``: the values of every
field of the run JSON (``reporting.write_report_json``) but ``elapsed_s``.
It hashes the trace's columns (``hybrid.Trace``), a ``None`` scalar as its
mask byte and NaN, not the bytes of any written file; the
byte tests in ``tests/test_reporting.py`` pin the files' layout against
``json`` and ``csv``.  Two checkouts whose outputs are equal ran every case
bit for bit the same; run it in each and diff.  The package is imported from the ``src`` directory of the
checkout that holds this file, as ``bench/run.py`` does.
"""

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))


import ephybrid  # noqa: E402
import workloads  # noqa: E402
from ephybrid import experiments  # noqa: E402
from ephybrid.hybrid import SCALARS, StoppingRule, extragradient_solve  # noqa: E402

NC64_SEEDS = (1, 2, 3, 907)


def digest(report) -> str:
    """SHA-256 over a run report's trace columns, final point and stop reason."""
    h = hashlib.sha256()
    trace = report.trace
    # z and w are materialized from their per-row references.
    for name, column in (("y_next", trace.y), ("z_next", trace.z), ("w_next", trace.w), ("x_next", trace.x)):
        h.update(name.encode())
        h.update(column.tobytes())
    for name in SCALARS:
        values, none = trace.scalar(name)
        h.update(name.encode())
        # None (a field the solver does not fill) is kept apart from NaN.
        h.update(none.tobytes())
        h.update(values.tobytes())
    h.update(b"n")
    h.update(trace.n.tobytes())
    h.update(report.final_x.tobytes())
    h.update(report.stop_reason.encode())
    return h.hexdigest()


def cases():
    """``(label, RunReport)`` for every case, in a fixed order."""
    for name, config in (
        ("table1", experiments.table1_config()),
        ("table2", experiments.table2_config()),
        *(
            (f"nc64 seed {seed}", experiments.config_from_dict(workloads.nash_cournot_config(seed)))
            for seed in NC64_SEEDS
        ),
    ):
        for run in experiments.run_grid(config):
            start = ",".join(f"{v:g}" for v in run.start[:3])
            yield f"{name} start ({start}) alpha {run.schedule_label}", run.report
        if name == "table1":
            report = extragradient_solve(
                config.bundle,
                config.lam,
                StoppingRule("residual_w", 1e-4, 20000),
                list(workloads.TABLE1_CROSS_CHECK_START),
            )
            yield "table1 extragradient cross-check", report


def main() -> int:
    if Path(ephybrid.__file__).resolve().parent != (ROOT / "src" / "ephybrid").resolve():
        print(f"imported ephybrid from {ephybrid.__file__}, not from {ROOT / 'src'}", file=sys.stderr)
        return 1
    for label, report in cases():
        print(f"{digest(report)}  {report.iterations:6d}  {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
