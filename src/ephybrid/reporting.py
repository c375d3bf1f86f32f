"""CSV and JSON emission for runs and experiment grids.

A run is written as one trace CSV, holding every iteration's scalars and
vectors at full float precision (shortest round-trip repr), so that
byte-for-byte determinism checks are meaningful, and one run JSON, its
summary.  The summary CSV prints 7 decimal places.  Elapsed-time fields
are excluded from any determinism comparison.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields
from itertools import chain

from .hybrid import RunReport


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
    """Write the per-iteration trace of one run, one string per block of rows.

    Columns: n, residual_w, epsilon, dist_to_target, alpha_n, then the
    step's vectors x1..xd, y1..yd, z1..zd and w1..wd.  The bytes are those
    of ``csv.writer``: no cell needs quoting, ``None`` is an empty cell and
    lines end in ``\\r\\n``.  A block's rows are one ``%`` call
    (:func:`_block`); the text of each vector in the block's table is
    formed once, and every row that names it reuses that text.
    """
    dim = len(report.final_x)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["n", "residual_w", "epsilon", "dist_to_target", "alpha_n"]
                          + [f"{v}{i + 1}" for v in "xyzw" for i in range(dim)]) + "\r\n")
        for n, (eps, res, dist, alpha), vectors, y, z, w, x in report.trace.chunks():
            head, values = _block(n, (res, eps, dist, alpha))
            # The vector cells go into the template (a float's repr holds no
            # "%"), so the "%" call starts from about the text's length: from
            # a short template it would grow its string by many
            # reallocations, whose holes in the heap raised table1's peak RSS.
            texts = [",".join(map(repr, v)) for v in vectors.tolist()]
            fh.write("".join([f"{head}{texts[i]},{texts[j]},{texts[k]},{texts[l]}\r\n"
                              for i, j, k, l in zip(x, y, z, w)]) % values)


def write_report_json(report: RunReport, path) -> None:
    """Write one run's summary: ``iterations``, ``final_x``, ``elapsed_s`` and ``stop_reason``.

    The text is ``json.dumps(..., indent=1)`` plus a final newline, handed
    to the file as one string.  The per-iteration values are in the trace
    CSV (:func:`trace_to_csv`) alone.
    """
    summary = {"iterations": report.iterations, "final_x": report.final_x.tolist(),
               "elapsed_s": report.elapsed_s, "stop_reason": report.stop_reason}
    with open(path, "w") as fh:
        fh.write(json.dumps(summary, indent=1) + "\n")


def emit_reports(rows, fmt: str, path) -> None:
    """Write summary rows as ``csv`` or ``json``.

    Both forms hold one field per :class:`ReportRow` field, in order.  The
    CSV prints points and seconds at 7 decimals; the JSON form keeps full
    precision and round-trips through :func:`rows_from_json`.
    """
    # The fields read directly: ``astuple``/``asdict`` deep-copy each value.
    names = [f.name for f in fields(ReportRow)]
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for row in rows:
                writer.writerow([_summary_cell(getattr(row, name)) for name in names])
    elif fmt == "json":
        payload = [{name: getattr(row, name) for name in names} for row in rows]
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


def _summary_cell(value):
    """A summary CSV cell: points as :func:`format_point`, seconds at 7 decimals."""
    if isinstance(value, tuple):
        return format_point(value)
    return f"{value:.7f}" if isinstance(value, float) else value


def _block(n, scalars) -> tuple[str, tuple]:
    """One block's row head (``n`` and the scalar cells) as a ``%`` template, and its values.

    A scalar column that every row fills the same way is baked into the
    template (``%r`` of its floats, or an empty cell for ``None``, taking
    no values) and a mixed one is pre-rendered (``%s`` of its cells,
    ``None`` empty).  The values are ``n`` and the columns that take
    values, flattened in row order.
    """
    formats, columns = [], [n]
    for values in scalars:
        if None not in values:
            formats.append("%r")
            columns.append(values)
        elif values.count(None) == len(values):
            formats.append("")
        else:
            formats.append("%s")
            columns.append(["" if v is None else repr(v) for v in values])
    return f"%d,{','.join(formats)},", tuple(chain.from_iterable(zip(*columns)))
