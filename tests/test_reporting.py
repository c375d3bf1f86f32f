"""Byte tests of the streaming run JSON and trace CSV writers against the stdlib.

Each writer must write exactly what ``json.dump(..., indent=1)`` and
``csv.writer`` write for the same run (``oracles.run_json_bytes`` and
``oracles.trace_csv_bytes``), on the shipped grids, on the extragradient baseline, at
d = 64, and on hand-made reports with the values the stdlib spells in its
own way: NaN, infinities, ``None``, ``-0.0`` and numpy scalars.
"""

import importlib.util
from pathlib import Path

import numpy as np

from ephybrid.experiments import builtin_example2, config_from_dict, default_lambda, run_grid
from ephybrid.hybrid import IterationRecord, RunReport, StoppingRule, extragradient_solve
from ephybrid.reporting import trace_to_csv, write_report_json
from oracles import run_json_bytes, trace_csv_bytes


def assert_writers_match_stdlib(report, tmp_path):
    json_path, csv_path = tmp_path / "run.json", tmp_path / "trace.csv"
    write_report_json(report, json_path)
    trace_to_csv(report, csv_path)
    assert json_path.read_bytes() == run_json_bytes(report)
    assert csv_path.read_bytes() == trace_csv_bytes(report)


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
    assert_writers_match_stdlib(run.report, tmp_path)


def test_writers_match_stdlib_on_an_empty_trace(tmp_path):
    assert_writers_match_stdlib(RunReport(0, np.array([1.0, -2.5]), 0.0, "MaxIter"), tmp_path)


def test_writers_match_stdlib_on_hand_made_values(tmp_path):
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
    reports = [
        RunReport(3, big, np.float64(0.5), "MaxIter", records),
        RunReport(2, np.array([np.nan, np.inf, -0.0]), float("inf"), "DistanceToKnown", records[1:]),
        # d = 1
        RunReport(1, np.array([-0.0]), 0.0, "MaxIter", [
            IterationRecord(0, np.array([-0.0]), np.array([np.nan]), np.array([1e308]),
                            np.array([2.0]), -0.0, 3.0, np.float64(1e-17), 0.5),
        ]),
    ]
    for report in reports:
        assert_writers_match_stdlib(report, tmp_path)
