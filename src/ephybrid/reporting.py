"""CSV and JSON emission for runs and experiment grids.

The trace CSV keeps full float precision (shortest round-trip repr) so
that byte-for-byte determinism checks are meaningful; the summary CSV
prints 7 decimal places.  Elapsed-time fields are excluded from any
determinism comparison.
"""

from __future__ import annotations

import csv
import json
import math
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
    iterate components x1..xd.  The bytes are those of ``csv.writer``:
    no cell needs quoting, ``None`` is an empty cell and lines end in
    ``\\r\\n``.  A block's rows are one ``%`` call (:func:`_block`).
    """
    dim = len(report.final_x)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["n", "residual_w", "epsilon", "dist_to_target", "alpha_n"]
                          + [f"x{i + 1}" for i in range(dim)]) + "\r\n")
        for n, (eps, res, dist, alpha), xs, _, _ in report.trace.chunks(yzw=False):
            cells, values = _block(n, (res, eps, dist, alpha), _csv_column)
            # The x cells go into the template (a float's repr holds no "%"),
            # so the "%" call starts from about the text's length: from a
            # short template it would grow its string by many reallocations,
            # whose holes in the heap raised table1's peak RSS.
            head = _CSV_HEAD % cells
            fh.write("".join([f"{head}{','.join(map(repr, x))}\r\n" for x in xs]) % values)


def write_report_json(report: RunReport, path) -> None:
    """Write one run, trace included, one string per block of records.

    The bytes are those of ``json.dump(..., indent=1)`` of the run as a
    dict (``iterations``, ``final_x``, ``elapsed_s``, ``stop_reason``,
    ``trace``; a record holds ``n``, ``residual_w``, ``epsilon``,
    ``dist_to_target``, ``alpha``, ``x``, ``y``, ``z``, ``w``) plus a
    final newline, without holding the whole text.  A block's records are
    one ``%`` call (:func:`_block`); a ``z`` or ``w`` that is the record's
    ``y`` or ``x`` reuses that vector's text.
    """
    with open(path, "w") as fh:
        fh.write(_HEAD % (report.iterations, _json_vector(report.final_x),
                          _json_scalar(report.elapsed_s), json.dumps(report.stop_reason)))
        sep = "[\n"
        for n, (eps, res, dist, alpha), vectors, z, w in report.trace.chunks():
            m = len(n)
            texts = _json_vectors(vectors)
            cells, values = _block(n, (res, eps, dist, alpha), _json_column, texts[m:2 * m], texts[:m],
                                   map(texts.__getitem__, z), map(texts.__getitem__, w))
            record = _RECORD % cells
            fh.write(",\n".join([sep + record] + [record] * (m - 1)) % values)
            sep = ",\n"
        fh.write("\n ]\n}\n" if report.trace else "[]\n}\n")


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


def _block(n, scalars, column, *texts) -> tuple[tuple[str, ...], tuple]:
    """One block's scalar cell formats and its values, flattened in row order.

    ``column`` gives each scalar column's format and the values it takes:
    one that every row fills the same way is baked into the block's row
    template (``%r`` of its floats, or its ``None`` text, taking no values)
    and a mixed one is pre-rendered (``%s`` of its cells).  The values are
    ``n``, the columns that take values and then ``texts``, row by row.
    """
    formats, columns = [], [n]
    for values in scalars:
        fmt, values = column(values)
        formats.append(fmt)
        if values is not None:
            columns.append(values)
    return tuple(formats), tuple(chain.from_iterable(zip(*columns, *texts)))


def _csv_column(values) -> tuple[str, list | None]:
    """A trace CSV scalar column's format and values: every float is its ``repr``, ``None`` empty."""
    if None not in values:
        return "%r", values
    if values.count(None) == len(values):
        return "", None
    return "%s", ["" if v is None else repr(v) for v in values]


def _json_column(values) -> tuple[str, list | None]:
    """A run JSON scalar column's format and values, as :func:`_json_scalar` spells each."""
    # A finite sum proves every entry finite (see ``linalg.all_finite``).
    if None not in values and math.isfinite(sum(values)):
        return "%r", values
    if values.count(None) == len(values):
        return "null", None
    return "%s", list(map(_json_scalar, values))


# The run JSON at ``indent=1``: the top dict up to its ``trace`` list, and
# a record, which sits in that list, so its keys are indented 3 and its
# vectors' entries 4.  A record and a CSV row take their four scalar cells'
# formats first (``%%`` survives that as ``%``), then a block's values.
_HEAD = '{\n "iterations": %d,\n "final_x": %s,\n "elapsed_s": %s,\n "stop_reason": %s,\n "trace": '
_RECORD = (
    '  {\n   "n": %%d,\n   "residual_w": %s,\n   "epsilon": %s,\n   "dist_to_target": %s,\n'
    '   "alpha": %s,\n   "x": [\n    %%s\n   ],\n   "y": [\n    %%s\n   ],\n'
    '   "z": [\n    %%s\n   ],\n   "w": [\n    %%s\n   ]\n  }'
)
_CSV_HEAD = "%%d,%s,%s,%s,%s,"


def _json_scalar(value) -> str:
    """``json.dumps`` of a record scalar; a finite float is its ``repr``, as json writes it."""
    if type(value) is float and math.isfinite(value):
        return repr(value)
    if value is None:
        return "null"
    return json.dumps(value)


def _json_vector(values) -> str:
    """A float vector of the top dict (``final_x``) as ``json.dump(indent=1)`` lays it out."""
    values = values.tolist()
    if not values:
        return "[]"
    # A finite sum proves every entry finite (see ``linalg.all_finite``).
    entry = repr if math.isfinite(sum(values)) else _json_scalar
    return "[\n  " + ",\n  ".join(map(entry, values)) + "\n ]"


def _json_vectors(vectors) -> list[str]:
    """A chunk's record vectors (lists of floats, never empty) as the entries of ``_RECORD``'s lists."""
    # A finite sum proves every entry of the chunk finite.
    entry = repr if math.isfinite(sum(map(sum, vectors))) else _json_scalar
    return [",\n    ".join(map(entry, v)) for v in vectors]
