"""Print one SHA-256 per benchmark case over every array of its trace.

    python3 tools/trace_digest.py

The cases are the table1 grid plus its extragradient cross-check, the 12
cells of the table2 grid, and the nc64 game (``bench/workloads.py``) at seeds
1, 2, 3 and 907.  A digest covers, per iteration, ``n``, ``y``, ``z``, ``w``
and ``x_next``, ``epsilon``, the residual, the distance to the target,
``alpha``, both recorded cuts (normal and offset, or the whole space) and the
three invariant flags, then the run's ``final_x`` and ``stop_reason``: every
field of the run JSON (``reporting.write_report_json``) but ``elapsed_s``.
Two checkouts whose outputs are equal ran every case bit for bit the same;
run it in each and diff.  The package is imported from the ``src`` directory of the
checkout that holds this file, as ``bench/run.py`` does.
"""

import hashlib
import sys
from dataclasses import astuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import ephybrid  # noqa: E402
import workloads  # noqa: E402
from ephybrid import experiments  # noqa: E402
from ephybrid.hybrid import StoppingRule, extragradient_solve  # noqa: E402
from ephybrid.sets import WholeSpace  # noqa: E402

NC64_SEEDS = (1, 2, 3, 907)


def digest(report) -> str:
    """SHA-256 over a run report's trace arrays, final point and stop reason."""
    h = hashlib.sha256()
    trace = report.trace
    for name in ("y_next", "z_next", "w_next", "x_next"):
        h.update(name.encode())
        h.update(np.array([getattr(r, name) for r in trace], dtype=float).tobytes())
    for name in ("epsilon", "residual_w", "dist_to_target", "alpha"):
        values = [getattr(r, name) for r in trace]
        h.update(name.encode())
        # None (a field the solver does not fill) is kept apart from NaN.
        h.update(bytes(v is None for v in values))
        h.update(np.array([np.nan if v is None else v for v in values], dtype=float).tobytes())
    h.update(b"n")
    h.update(np.array([r.n for r in trace], dtype=np.int64).tobytes())
    for name in ("contraction_cut", "anchor_cut"):
        h.update(name.encode())
        for r in trace:
            h.update(cut_bytes(getattr(r, name)))
    h.update(b"flags")
    for r in trace:
        h.update(b"-" if r.flags is None else repr(astuple(r.flags)).encode())
    h.update(report.final_x.tobytes())
    h.update(report.stop_reason.encode())
    return h.hexdigest()


def cut_bytes(cut) -> bytes:
    """A recorded cut as bytes: its normal and offset, or a tag for the whole space or none."""
    if cut is None:
        return b"none"
    if isinstance(cut, WholeSpace):
        return b"whole" + str(cut.dim).encode()
    return b"half" + cut.a.tobytes() + np.float64(cut.b).tobytes()


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
