"""Byte and round-trip tests of the trace CSV and run JSON writers.

Each writer must write exactly what ``csv.writer`` and ``json.dump(...,
indent=1)`` write for the same run (``oracles.trace_csv_bytes`` and
``oracles.run_json_bytes``), and every value of the trace's columns (``n``,
the four scalars, ``x``, ``y``, ``z`` and ``w``) must read back from the CSV
bit for bit through ``csv`` and ``float``, and the run's summary from the
JSON.  Both hold on the shipped grids, on the extragradient baseline, at
d = 64, and on hand-made reports with the values the stdlib spells in its
own way: NaN, infinities, ``None``, ``-0.0`` and numpy scalars.  The same
hand-made records round-trip through ``hybrid.Trace``, the column form every
report's trace takes, bit for bit and with their ``is`` aliasing.
"""

import importlib.util
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from ephybrid.experiments import builtin_example2, config_from_dict, default_lambda, run_grid
from ephybrid.hybrid import SCALARS, IterationRecord, RunReport, StoppingRule, Trace, extragradient_solve
from ephybrid.reporting import trace_to_csv, write_report_json
from oracles import read_trace_csv, run_json_bytes, trace_csv_bytes

VECTORS = ("y_next", "z_next", "w_next", "x_next")
# The trace CSV's scalar columns and the trace's names for them.
CSV_SCALARS = {"residual_w": "residual_w", "epsilon": "epsilon", "dist_to_target": "dist_to_target",
               "alpha_n": "alpha"}


def assert_writers_match_stdlib(report, tmp_path, read_back=True):
    """Both files are the stdlib's bytes and, with ``read_back``, every value they hold reads back bit for bit."""
    json_path, csv_path = tmp_path / "run.json", tmp_path / "trace.csv"
    write_report_json(report, json_path)
    trace_to_csv(report, csv_path)
    assert json_path.read_bytes() == run_json_bytes(report)
    assert csv_path.read_bytes() == trace_csv_bytes(report)
    if read_back:
        assert_files_read_back(report, csv_path, json_path)


def assert_files_read_back(report, csv_path, json_path):
    """The trace CSV holds every trace column, and the run JSON the summary alone."""
    trace, dim = report.trace, report.trace.dim
    header, columns = read_trace_csv(csv_path)
    names = {v: [f"{v}{i + 1}" for i in range(dim)] for v in "xyzw"}
    assert header == ["n", *CSV_SCALARS, *itertools.chain.from_iterable(names.values())]
    assert columns["n"] == trace.n.tolist()
    for column, name in CSV_SCALARS.items():
        values, none = trace.scalar(name)
        assert list(map(bits, columns[column])) == [
            None if k else bits(v) for v, k in zip(values.tolist(), none.tolist())
        ], column
    for v, vectors in zip("xyzw", (trace.x, trace.y, trace.z, trace.w)):
        read = np.array([columns[name] for name in names[v]], dtype=float).T.reshape(len(trace), dim)
        assert read.tobytes() == vectors.tobytes(), v
    with open(json_path) as fh:
        summary = json.load(fh)
    assert list(summary) == ["iterations", "final_x", "elapsed_s", "stop_reason"]
    assert summary["iterations"] == report.iterations and summary["stop_reason"] == report.stop_reason
    assert np.array(summary["final_x"], dtype=float).tobytes() == report.final_x.tobytes()
    assert bits(summary["elapsed_s"]) == bits(report.elapsed_s)


def kept_steps(records):
    """Per record after the first: whether its ``x`` has the bits of the one before."""
    return [b.x_next.tobytes() == a.x_next.tobytes() for a, b in zip(records, records[1:])]


def distinct_x_rows(records, block_rows):
    """Per block of ``block_rows`` records: its first record plus each later one whose ``x`` moved."""
    moved = [True] + [not kept for kept in kept_steps(records)]
    return [1 + sum(moved[k + 1:k + block_rows]) for k in range(0, len(records), block_rows)]


def stored_x_rows(trace):
    """Per block: how many distinct vectors its rows name as their ``x``."""
    return [len(set(x)) for *_, x in trace.chunks()]


def test_writers_match_stdlib_on_table1(table1_runs, tmp_path):
    # y, z and w are one array in every record, so their text is formed once.
    for run in table1_runs:
        assert all(rec.z_next is rec.y_next and rec.w_next is rec.y_next for rec in run.report.trace)
        assert_writers_match_stdlib(run.report, tmp_path)


def test_writers_match_stdlib_on_table2(table2_runs, tmp_path):
    # The three-halfspace step keeps z apart from y, and w is one of them.
    for run in table2_runs:
        trace = run.report.trace
        assert any(rec.z_next is not rec.y_next for rec in trace)
        assert all(rec.w_next is rec.y_next or rec.w_next is rec.z_next for rec in trace)
        assert_writers_match_stdlib(run.report, tmp_path)


def test_writers_match_stdlib_on_extragradient(tmp_path):
    bundle = builtin_example2()
    report = extragradient_solve(
        bundle, default_lambda(bundle.constants),
        StoppingRule("distance_to_target", 1e-3, 1000), [1.0, 3.0, 1.0],
    )
    assert report.trace and all(rec.epsilon is None and rec.alpha is None for rec in report.trace)
    assert_writers_match_stdlib(report, tmp_path)


def test_writers_match_stdlib_at_d64(tmp_path):
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    config = workloads.nash_cournot_config(1)
    config["starts"] = config["starts"][:1]
    config["stopping"]["max_iter"] = 40
    (run,) = run_grid(config_from_dict(config))
    assert run.report.iterations == 40 and run.report.final_x.shape == (64,)
    # Some steps keep x_n, so the writers reuse a stored x's text.
    records = list(run.report.trace)
    assert sum(kept_steps(records)) > 0
    stored = stored_x_rows(run.report.trace)
    assert stored == distinct_x_rows(records, 8) and sum(stored) < 40
    assert_writers_match_stdlib(run.report, tmp_path)


def test_writers_match_stdlib_on_an_empty_trace(tmp_path):
    assert_writers_match_stdlib(RunReport(0, np.array([1.0, -2.5]), 0.0, "MaxIter"), tmp_path)


def hand_made_reports():
    """``(records, report)`` pairs of hand-made records with the values the stdlib spells in its own way."""
    big = np.array([1e308, 1e308, -1.0])  # finite entries whose sum overflows
    y = np.array([np.nan, -0.0, np.inf])
    z = np.array([-np.inf, 5e-324, 0.1])
    late = np.array([0.5, -2.0, np.nan])  # a finite first entry
    records = [
        IterationRecord(0, y, z, z, big, np.inf, np.nan, -np.inf, 1.0),
        IterationRecord(1, big, big, big, y, np.float64(0.25), np.float64(-0.0),
                        np.float64(np.nan), np.float64(np.inf)),
        IterationRecord(2, z, y, big, late, None, 1e-300, None, None),
    ]
    single = [  # d = 1
        IterationRecord(0, np.array([-0.0]), np.array([np.nan]), np.array([1e308]),
                        np.array([2.0]), -0.0, 3.0, np.float64(1e-17), 0.5),
    ]
    # The extragradient baseline's pattern: z and w are x itself.
    baseline = [
        IterationRecord(4, late, big, big, big, None, 0.125, None, None),
        IterationRecord(5, z, y, y, y, None, -np.inf, 2.5, None),
    ]
    # An x that is y itself, then a kept x (the bits of the one before, in
    # another array) that is also the record's z.
    kept = late.copy()
    kept_x = [
        IterationRecord(6, late, z, late, late, 0.5, 1.0, None, 0.25),
        IterationRecord(7, big, kept, y, kept, 0.5, 2.0, None, 0.25),
    ]
    return [
        (records, RunReport(3, big, np.float64(0.5), "MaxIter", records)),
        (records[1:], RunReport(2, np.array([np.nan, np.inf, -0.0]), float("inf"), "DistanceToKnown",
                                records[1:])),
        (single, RunReport(1, np.array([-0.0]), 0.0, "MaxIter", single)),
        (baseline, RunReport(2, y, 0.0, "MaxIter", baseline)),
        (kept_x, RunReport(2, kept, 0.0, "MaxIter", kept_x)),
    ]


def test_writers_match_stdlib_on_hand_made_values(tmp_path):
    for _, report in hand_made_reports():
        assert_writers_match_stdlib(report, tmp_path)


def bits(value):
    """A record scalar's None-ness and its float64 bits (NaN payloads and -0.0 included)."""
    return None if value is None else np.float64(value).tobytes()


def assert_same_records(got, want):
    """Bit for bit the same values, the same None-ness and the same ``is`` aliasing."""
    assert len(got) == len(want)
    for back, rec in zip(got, want):
        assert type(back) is IterationRecord and back.n == rec.n and type(back.n) is int
        for name in VECTORS:
            assert getattr(back, name).tobytes() == getattr(rec, name).tobytes(), (rec.n, name)
            assert not getattr(back, name).flags.writeable
        for a, b in itertools.combinations(VECTORS, 2):
            assert (getattr(back, a) is getattr(back, b)) == (getattr(rec, a) is getattr(rec, b)), (a, b)
        for name in SCALARS:
            assert bits(getattr(back, name)) == bits(getattr(rec, name)), (rec.n, name)


def test_trace_round_trips_hand_made_records():
    for records, report in hand_made_reports():
        trace = report.trace
        assert isinstance(trace, Trace)
        assert_same_records(list(trace), records)
        assert_same_records(list(Trace.of(records, trace.dim)), records)
        assert_same_records(trace[:], records)
        assert_same_records(trace[1:], records[1:])
        assert_same_records(trace[::-1], records[::-1])
        assert_same_records([trace[-1], trace[-len(records)]], [records[-1], records[0]])
        assert trace[len(records):] == []
        for i in (len(records), -len(records) - 1):
            with pytest.raises(IndexError):
                trace[i]
        # The columns, each read from the vector table through its references.
        assert trace.n.tolist() == [rec.n for rec in records]
        for name, column in (("y_next", trace.y), ("z_next", trace.z), ("w_next", trace.w),
                             ("x_next", trace.x)):
            assert column.tobytes() == np.array([getattr(rec, name) for rec in records]).tobytes()
        for name in SCALARS:
            values, none = trace.scalar(name)
            assert none.tolist() == [getattr(rec, name) is None for rec in records]
            assert [bits(v) for v, n in zip(values.tolist(), none) if not n] == [
                bits(getattr(rec, name)) for rec in records if getattr(rec, name) is not None
            ]


def test_an_empty_trace():
    trace = RunReport(0, np.array([1.0, -2.5]), 0.0, "MaxIter").trace
    assert isinstance(trace, Trace) and len(trace) == 0 and not trace
    assert list(trace) == [] and trace[:] == []
    assert trace.y.shape == trace.z.shape == (0, 2)
    with pytest.raises(IndexError):
        trace[0]


def test_trace_rejects_vectors_it_cannot_hold():
    y = np.zeros(3)
    for bad in (np.zeros(2), np.zeros(3, dtype=np.float32), [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError):
            RunReport(1, y, 0.0, "MaxIter", [IterationRecord(1, y, y, y, bad, None, 0.0, None, None)])


def test_a_report_rejects_a_trace_of_another_dimension():
    # Its final_x would give the trace CSV a header of another width than its rows.
    with pytest.raises(ValueError):
        RunReport(1, np.zeros(3), 0.0, "MaxIter", Trace(2))
    assert RunReport(1, np.zeros(2), 0.0, "MaxIter", Trace(2)).trace.dim == 2


def assert_trace_holds(records, tmp_path):
    """The records round-trip through a trace, its columns and both writers."""
    report = RunReport(len(records), records[-1].x_next, 0.0, "MaxIter", records)
    assert_same_records(list(report.trace), records)
    for name, column in (("y_next", report.trace.y), ("z_next", report.trace.z), ("w_next", report.trace.w),
                         ("x_next", report.trace.x)):
        assert column.tobytes() == np.array([getattr(rec, name) for rec in records]).tobytes()
    # The text of a NaN holds no payload, and some of these records vary it.
    assert_writers_match_stdlib(report, tmp_path, read_back=False)
    return report.trace


def test_a_trace_across_blocks(tmp_path):
    # At d = 64 a block holds 8 rows, so 20 records span three blocks; a z or
    # w of its own sits in its row's block, and None comes and goes in a block.
    rng = np.random.default_rng(5)
    records = []
    for n in range(20):
        y, z, w, x = (rng.normal(size=64) for _ in range(4))
        z = (y, x, z)[n % 3]
        w = (y, z, x, w)[n % 4]
        records.append(IterationRecord(n, y, z, w, x, None if n % 5 == 0 else -0.5 * n,
                                       float(n), None if n % 2 else np.nan, 0.25))
    assert_trace_holds(records, tmp_path)
    # A record read back is a view of its block, so a read trace takes no more
    # records, whether its last block is full or not, and is left as it was.
    for trace in (Trace.of(records[:4], 64), Trace.of(records[:8], 64)):
        rows = len(trace)
        trace[0]
        with pytest.raises(BufferError):
            trace.append(records[rows])
        assert_same_records(list(trace), records[:rows])


def test_a_kept_x_is_stored_once(tmp_path):
    rng = np.random.default_rng(7)

    def record(n, x, z=None, w=None):
        y = rng.normal(size=len(x))
        z = y if z is None else z
        return IterationRecord(n, y, z, y if w is None else w, x, 0.5, 1.0 / (n + 1), None, 0.25)

    x = np.array([0.5, -1.5, 2.0])
    # A bitwise repeat held by a distinct array is stored once.
    repeats = [record(0, x), record(1, x.copy()), record(2, x.copy(), z=rng.normal(size=3)),
               record(3, x + 1.0)]
    assert stored_x_rows(assert_trace_holds(repeats, tmp_path)) == [2]

    # Value-equal repeats with other bits are stored apart: 0.0 and -0.0, and
    # two NaN payloads; a repeat of the same NaN bits is stored once.
    zero, nan = np.array([0.0, 1.0, 2.0]), np.array([np.nan, 1.0, 2.0])
    other_nan = nan.copy()
    other_nan.view(np.uint64)[0] ^= 1
    assert np.isnan(other_nan[0]) and other_nan.tobytes() != nan.tobytes()
    bits_apart = [record(0, zero), record(1, -zero), record(2, nan), record(3, other_nan),
                  record(4, other_nan.copy())]
    assert stored_x_rows(assert_trace_holds(bits_apart, tmp_path)) == [4]

    # A repeat whose z or w is its x keeps that aliasing and reads the stored row.
    copies = [x.copy() for _ in range(4)]
    aliased = [record(0, x), record(1, copies[0], z=copies[0]), record(2, copies[1], w=copies[1]),
               record(3, copies[2], z=copies[2], w=copies[2])]
    assert stored_x_rows(assert_trace_holds(aliased, tmp_path)) == [1]

    # At d = 64 a block holds 8 rows; a repeat on a block's first row is stored there.
    moving = rng.normal(size=(7, 64))
    kept = moving[-1]
    across = [record(n, moving[n]) for n in range(7)] + [record(n, kept.copy()) for n in range(7, 11)]
    trace = assert_trace_holds(across, tmp_path)
    assert stored_x_rows(trace) == distinct_x_rows(across, 8) == [7, 1]


def test_table1_stores_one_x_row_per_distinct_consecutive_x(table1_runs):
    # Cell (1, 3, 1) keeps x_n on about half its steps; a d = 3 block holds 170 rows.
    run = table1_runs[0]
    assert run.start.tolist() == [1.0, 3.0, 1.0]
    records = list(run.report.trace)
    assert sum(kept_steps(records)) > len(records) // 3
    assert stored_x_rows(run.report.trace) == distinct_x_rows(records, 170)
