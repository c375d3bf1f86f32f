import importlib.util
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ephybrid
from ephybrid import cli
from ephybrid.experiments import (
    ExperimentConfig,
    ParseError,
    ValidationError,
    builtin_example1,
    builtin_example2,
    bundle_from_dict,
    config_from_dict,
    default_lambda,
    load_config,
    run_experiment,
    run_grid,
    table1_config,
    table2_config,
)
from ephybrid.hybrid import AlphaSchedule, StoppingRule
from ephybrid.problems import IdentityMapping, validate_conditions
from ephybrid.reporting import (
    ReportRow,
    emit_reports,
    format_point,
    report_to_dict,
    rows_from_json,
    trace_to_csv,
    write_report_json,
)
from ephybrid.sets import set_to_dict


def minimal_config(tmp_path, **overrides):
    data = {
        "problem": "example2",
        "algorithm": "hybrid",
        "params": {"alpha_schedule": "pow10"},
        "starts": [[-2.0, 3.0, -1.0]],
        "stopping": {"rule": "distance_to_target", "tol": 1e-3, "max_iter": 500},
    }
    data.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return path


def test_builtin_bundles_pass_condition_checks():
    assert validate_conditions(builtin_example1()) == []
    assert validate_conditions(builtin_example2()) == []


def test_builtin_example1_structure(example1):
    assert example1.constants.c1 == pytest.approx(1.39039, abs=5e-6)
    assert example1.feasible.contains([1.0, 0.0, 0.0], tol=0.0)
    assert not example1.feasible.contains([0.2, 0.2, 0.2], tol=0.0)
    assert example1.target is None


def test_builtin_example2_structure(example2):
    assert np.array_equal(example2.target, np.zeros(3))
    assert example2.bifunction(np.zeros(3), np.zeros(3)) == 0.0
    # the attached solution satisfies the equilibrium inequality on samples
    rng = np.random.default_rng(2)
    for _ in range(100):
        y = example2.feasible.project(rng.normal(scale=2.0, size=3))
        assert example2.bifunction(np.zeros(3), y) >= -1e-12


def test_load_config_defaults(tmp_path):
    path = minimal_config(tmp_path, params={})
    config = load_config(path)
    assert config.lam == pytest.approx(default_lambda(config.bundle.constants))
    assert config.k == 6.0
    assert config.schedules[0].kind == "ratio"
    assert config.stopping.kind == "distance_to_target"


def test_load_config_rejects_small_k(tmp_path):
    path = minimal_config(tmp_path, params={"k": 5.0})
    with pytest.raises(ValidationError, match="KTooSmall"):
        load_config(path)


def test_load_config_rejects_empty_starts(tmp_path):
    path = minimal_config(tmp_path, starts=[])
    with pytest.raises(ValidationError):
        load_config(path)


def test_load_config_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"problem": "example2",')
    with pytest.raises(ParseError, match="line"):
        load_config(path)


def test_load_config_rejects_wrong_structure(tmp_path):
    path = minimal_config(tmp_path)
    data = json.loads(path.read_text())
    del data["starts"]
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match="starts"):
        load_config(path)


def test_load_config_rejects_unknown_builtin(tmp_path):
    path = minimal_config(tmp_path, problem="example9")
    with pytest.raises(ValidationError):
        load_config(path)


def test_load_config_rejects_dimension_mismatch(tmp_path):
    path = minimal_config(tmp_path, starts=[[1.0, 2.0]])
    with pytest.raises(ValidationError, match="dimension"):
        load_config(path)


def test_inline_bundle_round_trip(example2):
    data = {
        "bifunction": {
            "P": example2.bifunction.P.tolist(),
            "Q": example2.bifunction.Q.tolist(),
            "q": example2.bifunction.q.tolist(),
        },
        "feasible": set_to_dict(example2.feasible),
        "mapping": {
            "type": "averaged_projections",
            "outer": set_to_dict(example2.mapping.outer),
            "inner": [set_to_dict(s) for s in example2.mapping.inner],
        },
        "target": [0.0, 0.0, 0.0],
        "label": "inline-copy",
    }
    bundle = bundle_from_dict(data)
    assert bundle.constants.c1 == pytest.approx(example2.constants.c1)
    assert np.array_equal(bundle.mapping(np.zeros(3)), np.zeros(3))


def test_config_from_inline_problem(example1):
    """The inline-problem path the nc64 game takes, with every default it can pick."""
    f = example1.bifunction
    problem = {
        "bifunction": {"P": f.P.tolist(), "Q": f.Q.tolist(), "q": f.q.tolist()},
        "feasible": set_to_dict(example1.feasible),
        "mapping": {"type": "identity"},
        "constants": {"c1": example1.constants.c1, "c2": example1.constants.c2},
    }
    rest = {"params": {"alpha_schedule": {"type": "constant", "value": 0.5}}, "starts": [[1.0, 3.0, 1.0]]}
    config = config_from_dict({"problem": problem, **rest})
    assert config.label == "inline"
    assert isinstance(config.bundle.mapping, IdentityMapping)
    assert config.bundle.constants == example1.constants
    assert config.lam == default_lambda(example1.constants)
    assert config.schedules == (AlphaSchedule("constant", 0.5),)
    # No stopping given and no target: the residual rule.
    assert config.stopping == StoppingRule("residual_w", 1e-4, 10000)
    # The inline copy of example1 runs bit for bit like the builtin.
    (inline,), (builtin,) = run_grid(config), run_grid(config_from_dict({"problem": "example1", **rest}))
    assert inline.report.iterations == builtin.report.iterations
    assert inline.report.final_x.tobytes() == builtin.report.final_x.tobytes()

    # Constants left out are derived from P and Q; a target makes the
    # default stopping rule the distance to it.
    del problem["constants"]
    config = config_from_dict({"problem": {**problem, "target": [0.0, 1.0, 0.0]}, "starts": [[1, 3, 1]]})
    assert config.bundle.constants == example1.constants
    assert config.stopping == StoppingRule("distance_to_target", 1e-3, 10000)


def test_benchmark_grids_pin_every_field():
    """The grids inherit the parser's defaults; a changed default must fail here."""
    t1, t2 = table1_config(), table2_config()
    assert t1.bundle.label == t1.label == "example1"
    assert t2.bundle.label == t2.label == "example2"
    assert t1.lam == pytest.approx(0.1438447187, rel=1e-9) == t2.lam
    assert [s.kind for s in t1.schedules] == ["ratio"]
    assert [s.kind for s in t2.schedules] == ["ratio", "pow10", "invlog"]
    assert (t1.cut_variant, t1.cuts_within_feasible) == ("two_halfspaces", False)
    assert (t2.cut_variant, t2.cuts_within_feasible) == ("three_halfspaces", True)
    assert [s.tolist() for s in t1.starts] == [[1.0, 3.0, 1.0], [-3.0, 4.0, 1.0], [3.0, -2.0, 1.0]]
    assert [s.tolist() for s in t2.starts] == [
        [1.0, 3.0, 1.0], [-3.0, 4.0, 1.0], [3.0, -2.0, 1.0], [-2.0, 3.0, -1.0],
    ]
    assert t1.stopping == StoppingRule("residual_w", 1e-4, 10000)
    assert t2.stopping == StoppingRule("distance_to_target", 1e-3, 10000)
    for config in (t1, t2):
        assert config.algorithm == "hybrid"
        assert (config.k, config.alpha_cap, config.slack_convention) == (6.0, 0.99, "standard")
        assert config.y0 is None
        assert not config.audit
        assert (config.csv_path, config.json_path, config.trace_dir) == (None, None, None)


def test_run_experiment_records_capped_rows(tmp_path):
    path = minimal_config(tmp_path, stopping={"rule": "distance_to_target", "tol": 1e-3, "max_iter": 1})
    rows = run_experiment(load_config(path))
    assert len(rows) == 1
    assert rows[0].stop_reason == "MaxIter"
    assert rows[0].iterations == 1


def test_run_experiment_grid_shape():
    rows = run_experiment(table2_config())
    assert len(rows) == 12
    assert all(r.stop_reason == "DistanceToKnown" for r in rows)
    labels = {r.schedule for r in rows}
    assert labels == {"(n-1)/(2(n+1))", "10^-n", "1/log10(n+1)"}


def test_extragradient_experiment_rows(tmp_path):
    path = minimal_config(tmp_path, algorithm="extragradient")
    rows = run_experiment(load_config(path))
    assert len(rows) == 1
    assert rows[0].schedule == "-"
    assert rows[0].stop_reason == "DistanceToKnown"


def test_emit_csv_format(tmp_path):
    row = ReportRow(
        start=(1.0, 3.0, 1.0),
        schedule="10^-n",
        iterations=7,
        elapsed_s=0.1234567891,
        final_x=(0.0000004, 0.9806232, 0.0194736),
        stop_reason="DistanceToKnown",
    )
    out = tmp_path / "rows.csv"
    emit_reports([row], "csv", out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0] == "start,schedule,iterations,elapsed_s,final_x,stop_reason"
    assert "(0.0000004; 0.9806232; 0.0194736)" in lines[1]
    assert "0.1234568" in lines[1]


def test_emit_json_round_trip(tmp_path):
    rows = [
        ReportRow((1.0, 2.0), "const=0.3", 11, 0.5, (0.1, 0.2), "ResidualW"),
        ReportRow((0.0, 0.0), "-", 3, 0.25, (0.0, 0.0), "MaxIter"),
    ]
    out = tmp_path / "rows.json"
    emit_reports(rows, "json", out)
    assert rows_from_json(out) == rows


def test_emit_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_reports([], "xml", tmp_path / "rows.xml")


def test_trace_csv_and_json(tmp_path, table2_runs):
    report = table2_runs[0].report
    csv_path = tmp_path / "trace.csv"
    trace_to_csv(report, csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,residual_w,epsilon,dist_to_target,alpha_n,x1,x2,x3"
    assert len(lines) == report.iterations + 1
    json_path = tmp_path / "run.json"
    write_report_json(report, json_path)
    payload = json.loads(json_path.read_text())
    assert payload["iterations"] == report.iterations
    assert payload["stop_reason"] == "DistanceToKnown"
    assert len(payload["trace"]) == report.iterations
    assert payload["trace"][0]["flags"]["membership_ok"] is True


def test_traces_are_deterministic(tmp_path, table1_runs):
    # table2 runs twice here; table1 once, against the session's shared run.
    pairs = [
        (run_grid(table2_config()), run_grid(table2_config())),
        (table1_runs, run_grid(table1_config())),
    ]
    for first, second in pairs:
        assert len(first) == len(second)
        for idx, (a, b) in enumerate(zip(first, second)):
            pa = tmp_path / f"a{idx}.csv"
            pb = tmp_path / f"b{idx}.csv"
            trace_to_csv(a.report, pa)
            trace_to_csv(b.report, pb)
            assert pa.read_bytes() == pb.read_bytes()
            assert a.report.iterations == b.report.iterations
            assert np.array_equal(a.report.final_x, b.report.final_x)


def test_tracer_targets_resolve():
    """Every name the benchmark's layer tracer wraps still exists.

    A renamed or deleted target would make its layer read zero in the
    traced benchmark run instead of failing anywhere.
    """
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = [t for names in tracer.TARGETS.values() for t in names]
    assert targets
    assert [t for t in targets if tracer._resolve(t) is None] == []


def test_table2_grid_solves_no_linear_program():
    """Every table2 cut projection goes through the dual QP: no LP, no scipy.optimize."""
    code = (
        "import sys\n"
        "from ephybrid import experiments\n"
        "experiments.run_grid(experiments.table2_config())\n"
        "sys.exit('scipy.optimize' in sys.modules)\n"
    )
    src = str(Path(ephybrid.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr or "scipy.optimize was imported"


def test_audit_grid_clean():
    runs = run_grid(replace(table2_config(), audit=True))
    assert all(r.report.stop_reason == "DistanceToKnown" for r in runs)


def test_cli_reproduce_table2(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert cli.main(["reproduce", "table2", "--out", str(out_dir)]) == 0
    captured = capsys.readouterr()
    assert "DistanceToKnown" in captured.out
    assert "clamped" in captured.err  # invlog schedule warning
    assert (out_dir / "table2.csv").exists()
    assert (out_dir / "table2.json").exists()
    assert len(list(out_dir.glob("table2_trace_*.csv"))) == 12
    assert len(list(out_dir.glob("table2_trace_*.json"))) == 12


def test_cli_solve_config(tmp_path, capsys):
    csv_out = tmp_path / "rows.csv"
    json_out = tmp_path / "rows.json"
    trace_dir = tmp_path / "traces"
    path = minimal_config(
        tmp_path,
        output={"csv": str(csv_out), "json": str(json_out), "trace_dir": str(trace_dir)},
    )
    assert cli.main(["solve", "--config", str(path)]) == 0
    assert csv_out.exists() and json_out.exists()
    assert len(list(trace_dir.glob("trace_*.csv"))) == 1
    assert len(list(trace_dir.glob("trace_*.json"))) == 1  # full run report per trace


INLINE_BOX_PROBLEM = {
    "bifunction": {"P": [[2.0, 0.0], [0.0, 2.0]], "Q": [[1.0, 0.0], [0.0, 1.0]], "q": [0.0, 0.0]},
    "feasible": {"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]},
}


def assert_config_error(tmp_path, capsys, error, **fields):
    """The parser raises ``error`` for an example1 config with ``fields``; the CLI exits 2."""
    data = {"problem": "example1", "starts": [[1, 3, 1]], **fields}
    with pytest.raises(error):
        config_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_validation_error_exit_code(tmp_path, capsys):
    path = minimal_config(tmp_path, params={"k": 5.0})
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "error" in capsys.readouterr().err
    # A seed of the wrong length, a distance rule on a problem without a
    # known target and an infinite k are caught by the parser, not the solver.
    for fields in (
        {"y0": [0, 0]},
        {"stopping": {"rule": "distance_to_target"}},
        {"params": {"k": float("inf")}},
    ):
        assert_config_error(tmp_path, capsys, ValidationError, **fields)


def test_cli_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{")
    assert cli.main(["solve", "--config", str(path)]) == 2
    for fields in (
        {"params": {"k": "abc"}},
        {"params": {"lambda": "x"}},
        {"params": {"alpha_schedule": {"type": "constant", "value": "x"}}},
        {"y0": [0, 0, "x"]},
        {"problem": {**INLINE_BOX_PROBLEM, "mapping": "identity"}},
        {"problem": {**INLINE_BOX_PROBLEM, "feasible": "box"}},
        {"output": {"csv": 7}},
        {"params": {"cuts_within_feasible": "false"}},
        {"audit": "false"},
    ):
        assert_config_error(tmp_path, capsys, ParseError, **fields)


def test_cli_audit_subcommand(tmp_path, capsys):
    path = minimal_config(tmp_path)
    assert cli.main(["audit", "--config", str(path)]) == 0
    assert "audit clean" in capsys.readouterr().out


def test_cli_invariant_violation_exit_code(tmp_path, capsys, monkeypatch):
    from ephybrid import hybrid

    def broken_solve(*args, **kwargs):
        raise hybrid.InvariantViolation("fabricated failure for the exit-code path")

    monkeypatch.setattr(hybrid, "solve", broken_solve)
    path = minimal_config(tmp_path)
    assert cli.main(["audit", "--config", str(path)]) == 3
    assert "invariant violation" in capsys.readouterr().err


def test_load_config_builtin_example1_defaults(tmp_path):
    path = minimal_config(
        tmp_path,
        problem="example1",
        stopping={"rule": "residual_w", "tol": 1e-4, "max_iter": 100},
    )
    config = load_config(path)
    assert config.lam == pytest.approx(1.0 / (5.0 * builtin_example1().constants.c1))
    assert config.k == 6.0
    assert config.stopping.kind == "residual_w"


def test_extragradient_trace_csv(tmp_path):
    from ephybrid.hybrid import StoppingRule, extragradient_solve

    bundle = builtin_example2()
    report = extragradient_solve(
        bundle, default_lambda(bundle.constants),
        StoppingRule("distance_to_target", 1e-3, 1000), [1.0, 3.0, 1.0],
    )
    out = tmp_path / "eg_trace.csv"
    trace_to_csv(report, out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == report.iterations + 1
    # no slack or averaging weight in the baseline: empty cells
    first = lines[1].split(",")
    assert first[2] == "" and first[4] == ""


def test_format_point_precision():
    assert format_point([0.98062319, -1.0]) == "(0.9806232; -1.0000000)"
