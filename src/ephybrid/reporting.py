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
from dataclasses import asdict, astuple, dataclass, fields

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
    """Write the per-iteration trace of one run, a block of rows at a time.

    Columns: n, residual_w, epsilon, dist_to_target, alpha_n, then the
    iterate components x1..xd.  The bytes are those of ``csv.writer``:
    no cell needs quoting, ``None`` is an empty cell and lines end in
    ``\\r\\n``.
    """
    dim = len(report.final_x)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(["n", "residual_w", "epsilon", "dist_to_target", "alpha_n"]
                          + [f"x{i + 1}" for i in range(dim)]) + "\r\n")
        for n, scalars, vectors, _, _ in report.trace.chunks():
            m = len(n)
            eps, res, dist, alpha = map(_csv_cells, scalars)
            xs = [",".join(map(repr, x)) for x in vectors[m:2 * m]]
            fh.write("".join(map(_CSV_ROW.__mod__, zip(n, res, eps, dist, alpha, xs))))


def write_report_json(report: RunReport, path) -> None:
    """Write one run, trace included, reading the trace a block at a time.

    The bytes are those of ``json.dump(..., indent=1)`` of the run as a
    dict (``iterations``, ``final_x``, ``elapsed_s``, ``stop_reason``,
    ``trace``; a record holds ``n``, ``residual_w``, ``epsilon``,
    ``dist_to_target``, ``alpha``, ``x``, ``y``, ``z``, ``w``) plus a
    final newline, without holding the whole text.  A ``z`` or ``w`` that
    is the record's ``y`` or ``x`` reuses that vector's text.
    """
    with open(path, "w") as fh:
        fh.write(_HEAD % (report.iterations, _json_vector(report.final_x, _TOP_VECTOR),
                          _json_scalar(report.elapsed_s), json.dumps(report.stop_reason)))
        sep = "[\n"
        for n, scalars, vectors, z, w in report.trace.chunks():
            m = len(n)
            eps, res, dist, alpha = map(_json_scalars, scalars)
            texts = _json_vectors(vectors)
            records = map(_RECORD.__mod__, zip(n, res, eps, dist, alpha, texts[m:2 * m], texts[:m],
                                               map(texts.__getitem__, z), map(texts.__getitem__, w)))
            # A record's text at a time: a block's records in one string (several
            # times a CSV block's text) took fresh heap pages and raised table2's peak RSS.
            fh.write(sep + next(records))
            fh.writelines(map(",\n".__add__, records))
            sep = ",\n"
        fh.write("\n ]\n}\n" if report.trace else "[]\n}\n")


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


def _summary_cell(value):
    """A summary CSV cell: points as :func:`format_point`, seconds at 7 decimals."""
    if isinstance(value, tuple):
        return format_point(value)
    return f"{value:.7f}" if isinstance(value, float) else value


def _cell(value) -> str:
    return "" if value is None else repr(float(value))


def _csv_cells(values) -> map:
    """The trace CSV cells of a chunk of one scalar (floats and ``None``)."""
    return map(_cell, values) if None in values else map(repr, values)


# The run JSON at ``indent=1``: the top dict up to its ``trace`` list, and
# a record, which sits in that list, so its keys are indented 3 and its
# vectors' entries 4.
_HEAD = '{\n "iterations": %d,\n "final_x": %s,\n "elapsed_s": %s,\n "stop_reason": %s,\n "trace": '
_RECORD = (
    '  {\n   "n": %d,\n   "residual_w": %s,\n   "epsilon": %s,\n   "dist_to_target": %s,\n'
    '   "alpha": %s,\n   "x": %s,\n   "y": %s,\n   "z": %s,\n   "w": %s\n  }'
)
# (opening, separator, closing) of a non-empty list whose entries sit at an indent.
_TOP_VECTOR = ("[\n  ", ",\n  ", "\n ]")
_RECORD_VECTOR = ("[\n    ", ",\n    ", "\n   ]")
_CSV_ROW = "%d,%s,%s,%s,%s,%s\r\n"


def _json_scalar(value) -> str:
    """``json.dumps`` of a record scalar; a finite float is its ``repr``, as json writes it."""
    if type(value) is float and math.isfinite(value):
        return repr(value)
    if value is None:
        return "null"
    return json.dumps(value)


def _json_scalars(values) -> map:
    """:func:`_json_scalar` of each of a chunk of one scalar (floats and ``None``)."""
    if None not in values and math.isfinite(sum(values)):
        return map(repr, values)
    return map(_json_scalar, values)


def _json_vector(values, layout) -> str:
    """A float vector as ``json.dump(indent=1)`` lays it out at ``layout``'s indent."""
    values = values.tolist()
    if not values:
        return "[]"
    opening, sep, closing = layout
    # A finite sum proves every entry finite (see ``linalg.all_finite``).
    if math.isfinite(sum(values)):
        return opening + sep.join(map(repr, values)) + closing
    return opening + sep.join(map(_json_scalar, values)) + closing


def _json_vectors(vectors) -> list[str]:
    """A chunk's record vectors (lists of floats, never empty) as :func:`_json_vector` writes them."""
    opening, sep, closing = _RECORD_VECTOR
    # A finite sum proves every entry of the chunk finite.
    entry = repr if math.isfinite(sum(map(sum, vectors))) else _json_scalar
    return [opening + sep.join(map(entry, v)) + closing for v in vectors]
