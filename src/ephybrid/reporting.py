"""CSV and JSON emission for runs and experiment grids.

The trace CSV keeps full float precision (shortest round-trip repr) so
that byte-for-byte determinism checks are meaningful; the summary CSV
prints 7 decimal places.  Elapsed-time fields are excluded from any
determinism comparison.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, astuple, dataclass, fields

from .hybrid import IterationRecord, RunReport


@dataclass(frozen=True)
class ReportRow:
    """One summary line of an experiment grid."""

    start: tuple[float, ...]
    schedule: str
    iterations: int
    elapsed_s: float
    final_x: tuple[float, ...]
    stop_reason: str

    def __post_init__(self):
        # Grid runs pass arrays and JSON passes lists; rows keep Python floats.
        object.__setattr__(self, "start", tuple(map(float, self.start)))
        object.__setattr__(self, "elapsed_s", float(self.elapsed_s))
        object.__setattr__(self, "final_x", tuple(map(float, self.final_x)))


def format_point(values) -> str:
    """Render a vector as ``(a; b; c)`` with 7 decimal places."""
    return "(" + "; ".join(f"{float(v):.7f}" for v in values) + ")"


def trace_to_csv(report: RunReport, path) -> None:
    """Write the per-iteration trace of one run.

    Columns: n, residual_w, epsilon, dist_to_target, alpha_n, then the
    iterate components x1..xd.
    """
    dim = len(report.final_x)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["n", "residual_w", "epsilon", "dist_to_target", "alpha_n"]
            + [f"x{i + 1}" for i in range(dim)]
        )
        for rec in report.trace:
            writer.writerow(
                [rec.n, _cell(rec.residual_w), _cell(rec.epsilon), _cell(rec.dist_to_target),
                 _cell(rec.alpha)]
                + [_cell(v) for v in rec.x_next]
            )


def report_to_dict(report: RunReport) -> dict:
    """JSON-ready form of a run report, trace included."""
    return {
        "iterations": report.iterations,
        "final_x": [float(v) for v in report.final_x],
        "elapsed_s": report.elapsed_s,
        "stop_reason": report.stop_reason,
        "trace": [_record_to_dict(rec) for rec in report.trace],
    }


def write_report_json(report: RunReport, path) -> None:
    with open(path, "w") as fh:
        json.dump(report_to_dict(report), fh, indent=1)
        fh.write("\n")


def emit_reports(rows, fmt: str, path) -> None:
    """Write summary rows as ``csv`` or ``json``.

    Both forms hold one field per :class:`ReportRow` field, in order.  The
    CSV prints points and seconds at 7 decimals; the JSON form keeps full
    precision and round-trips through :func:`rows_from_json`.
    """
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f.name for f in fields(ReportRow)])
            for row in rows:
                writer.writerow([_summary_cell(v) for v in astuple(row)])
    elif fmt == "json":
        payload = [asdict(row) for row in rows]
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def rows_from_json(path) -> list[ReportRow]:
    """Read back rows written by ``emit_reports(..., "json", ...)``."""
    with open(path) as fh:
        payload = json.load(fh)
    return [ReportRow(**item) for item in payload]


def _record_to_dict(rec: IterationRecord) -> dict:
    return {
        "n": rec.n,
        "residual_w": rec.residual_w,
        "epsilon": rec.epsilon,
        "dist_to_target": rec.dist_to_target,
        "alpha": rec.alpha,
        "x": [float(v) for v in rec.x_next],
        "y": [float(v) for v in rec.y_next],
        "z": [float(v) for v in rec.z_next],
        "w": [float(v) for v in rec.w_next],
    }


def _summary_cell(value):
    """A summary CSV cell: points as :func:`format_point`, seconds at 7 decimals."""
    if isinstance(value, tuple):
        return format_point(value)
    return f"{value:.7f}" if isinstance(value, float) else value


def _cell(value) -> str:
    return "" if value is None else repr(float(value))
