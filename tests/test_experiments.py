import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ephybrid
from ephybrid import cli, qp
from ephybrid.experiments import (
    ParseError,
    ValidationError,
    builtin_example1,
    builtin_example2,
    bundle_from_dict,
    config_from_dict,
    default_lambda,
    grid_row,
    load_config,
    run_grid,
    table1_config,
    table2_config,
)
from ephybrid.hybrid import AlphaSchedule, StoppingRule
from ephybrid.linalg import cholesky_spd
from ephybrid.problems import IdentityMapping
from ephybrid.reporting import (
    ReportRow,
    emit_reports,
    format_point,
    rows_from_json,
    trace_to_csv,
    write_report_json,
)

UNIT_BOX = {"type": "box", "lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]}
# example1's feasible set and example2's inner halfspaces, as tagged JSON.
EXAMPLE1_FEASIBLE = {
    "type": "polyhedron",
    "halfspaces": [{"type": "halfspace", "a": [-1.0, -1.0, -1.0], "b": -1.0}],
    "box": UNIT_BOX,
}
EXAMPLE2_INNER = [
    {"type": "halfspace", "a": [3.0, 2.0, 1.0], "b": -6.0},
    {"type": "halfspace", "a": [5.0, 4.0, 3.0], "b": -12.0},
    {"type": "halfspace", "a": [2.0, 1.0, 1.0], "b": -4.0},
]


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
        "feasible": UNIT_BOX,
        "mapping": {"type": "averaged_projections", "outer": UNIT_BOX, "inner": EXAMPLE2_INNER},
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
        "feasible": EXAMPLE1_FEASIBLE,
        "mapping": {"type": "identity"},
        "constants": {"c1": example1.constants.c1, "c2": example1.constants.c2},
    }
    rest = {"params": {"alpha_schedule": "pow10"}, "starts": [[1.0, 3.0, 1.0]]}
    config = config_from_dict({"problem": problem, **rest})
    assert config.bundle.label == ""
    assert isinstance(config.bundle.mapping, IdentityMapping)
    assert config.bundle.constants == example1.constants
    assert config.lam == default_lambda(example1.constants)
    assert config.schedules == (AlphaSchedule("pow10"),)
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
    assert t1.bundle.label == "example1"
    assert t2.bundle.label == "example2"
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
        assert config.k == 6.0
        assert config.y0 is None
        assert not config.audit
        assert (config.csv_path, config.json_path, config.trace_dir) == (None, None, None)


def test_grid_rows_record_capped_runs(tmp_path):
    path = minimal_config(tmp_path, stopping={"rule": "distance_to_target", "tol": 1e-3, "max_iter": 1})
    rows = [grid_row(run) for run in run_grid(load_config(path))]
    assert len(rows) == 1
    assert rows[0].stop_reason == "MaxIter"
    assert rows[0].iterations == 1


def test_grid_rows_of_table2():
    rows = [grid_row(run) for run in run_grid(table2_config())]
    assert len(rows) == 12
    assert all(r.stop_reason == "DistanceToKnown" for r in rows)
    labels = {r.schedule for r in rows}
    assert labels == {"(n-1)/(2(n+1))", "10^-n", "1/log10(n+1)"}


def test_extragradient_experiment_rows(tmp_path):
    path = minimal_config(tmp_path, algorithm="extragradient")
    rows = [grid_row(run) for run in run_grid(load_config(path))]
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
    # A record holds the step's arrays and scalars only, and reads back bit for bit.
    for rec, item in zip(report.trace, payload["trace"]):
        assert set(item) == {
            "n", "residual_w", "epsilon", "dist_to_target", "alpha", "x", "y", "z", "w"
        }
        for key, values in (("x", rec.x_next), ("y", rec.y_next), ("z", rec.z_next), ("w", rec.w_next)):
            assert np.array(item[key]).tobytes() == values.tobytes()
        assert (item["n"], item["residual_w"], item["epsilon"], item["dist_to_target"], item["alpha"]) == (
            rec.n, rec.residual_w, rec.epsilon, rec.dist_to_target, rec.alpha
        )


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


# Spans whose targets the solve never calls: the cut projection goes through
# qp.CutProjector, not Polyhedron.project, and no LP or SVD is left.
DEAD_SPANS = ("qp.phase1", "qp.indep", "sets.cutproj_qp")


def test_solve_path_reaches_every_live_layer_span():
    """The benchmark's layer tracer records calls on every live span of a table1 and a table2 pass.

    A name the tracer wraps that the solve stops calling (a call bound
    before the wrap, or a faster path round it) would make its layer read
    zero in the traced benchmark run instead of failing anywhere.
    """
    path = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    live = {
        "table1": ("hybrid.iterate", "hybrid.cuts", "sets.cutproj_closed", "qp.prox", "linalg.trisolve"),
        "table2": ("hybrid.iterate", "hybrid.cuts", "problems.mapping", "qp.prox", "linalg.trisolve"),
    }
    for name, config in (("table1", table1_config()), ("table2", table2_config())):
        tracer = module.Tracer()
        tracer.install()
        try:
            run_grid(config)
        finally:
            tracer.uninstall()
        assert tracer.absent == []
        calls = {span: entry["calls"] for span, entry in tracer.summary().items()}
        assert [span for span in live[name] if calls[span] == 0] == [], name
        assert [span for span in DEAD_SPANS if calls[span] != 0] == [], name


def test_public_names_resolve():
    """Every name in ``ephybrid.__all__`` exists, once each, and ``import *`` binds them all."""
    names = ephybrid.__all__
    assert len(set(names)) == len(names)
    assert [n for n in names if not hasattr(ephybrid, n)] == []
    scope = {}
    exec("from ephybrid import *", scope)
    assert set(names) <= set(scope)


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


# Iteration counts of the 28 ``tools/trace_digest.py`` cases, in its order:
# table1's three starts, its extragradient cross-check, table2's 12 cells
# and nc64's 12 runs.  Counts hold across machines, where digests may not.
DIGEST_ITERATIONS = [1518, 2410, 4932, 16] + [22, 25, 49, 46, 19, 80, 28, 16, 41, 6, 5, 11] + [150] * 12


def test_trace_digests_do_not_depend_on_thread_count():
    """``tools/trace_digest.py`` prints the same 28 digests on one BLAS thread and on two,
    with the pinned iteration counts."""
    script = Path(__file__).resolve().parent.parent / "tools" / "trace_digest.py"
    outputs = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, str(script)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert len(outputs[0].splitlines()) == 28
    assert outputs[0] == outputs[1]
    assert [int(line.split()[1]) for line in outputs[0].splitlines()] == DIGEST_ITERATIONS


def test_cutproj_replay_runs_this_checkout_against_itself():
    """``tools/cutproj_replay.py`` with one pair: the 348 recorded calls replay on both
    sides with the same face counts and the same seed tallies, which add up to the calls."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "tools" / "cutproj_replay.py"), str(root), str(root), "--pairs", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "table2: 12 runs, 348 cut projections recorded with base"
    base, new = (line.split() for line in lines[2:4])
    assert base[0] == "base" and new[0] == "new"
    assert base[2:] == new[2:]
    assert sum(map(int, base[4:])) == 348
    assert lines[-1] in ("new faster in 0/1 pairs", "new faster in 1/1 pairs")


def test_ab_time_runs_this_checkout_against_itself():
    """``tools/ab_time.py`` with one table1 pair: both sides run the same 8,860 iterations."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, str(root / "tools" / "ab_time.py"), str(root), str(root), "--pairs", "1"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1] == "workload table1  iterations base 8860  new 8860"
    assert lines[-3] in ("new faster in 0/1 pairs", "new faster in 1/1 pairs")


def test_table2_grid_runs_one_checked_factorization_per_run(monkeypatch):
    """The checked Cholesky factors each run's prox Hessian once and nothing else.

    Every face factor of the dual QP comes from the Gram matrix the solver
    formed itself, through the trusted core, so the table2 grid's 12 runs
    make 12 checked factorizations.
    """
    calls = []

    def counting(m):
        calls.append(m)
        return cholesky_spd(m)

    monkeypatch.setattr(qp, "cholesky_spd", counting)
    runs = run_grid(table2_config())
    assert len(runs) == 12
    assert len(calls) == 12


@pytest.mark.parametrize("cap, last", [(0.99, 9)])
def test_cli_invlog_note_names_the_last_clamped_iteration(tmp_path, capsys, cap, last):
    # 1/log10(n+1) exceeds the cap while n + 1 < 10^(1/cap).
    path = minimal_config(tmp_path, params={"alpha_schedule": "invlog"})
    assert cli.main(["solve", "--config", str(path)]) == 0
    assert f"exceeds the averaging cap for n <= {last}; those values are clamped to {cap}" in (
        capsys.readouterr().err
    )
    # The extragradient baseline's rows use no schedule: no note.
    path = minimal_config(
        tmp_path,
        problem="example1",
        algorithm="extragradient",
        params={"alpha_schedule": "invlog"},
        starts=[[1, 3, 1]],
        stopping={"rule": "residual_w", "tol": 1e-4},
    )
    assert cli.main(["solve", "--config", str(path)]) == 0
    assert "note" not in capsys.readouterr().err


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
    # An output path that is an existing file is an error line and exit 2.
    assert cli.main(["reproduce", "table2", "--out", str(out_dir / "table2.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


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


BOX_BIFUNCTION = INLINE_BOX_PROBLEM["bifunction"]
TWO_HALFSPACES = {
    "type": "two_halfspaces",
    "first": {"type": "halfspace", "a": [1.0, 0.0], "b": 1.0},
    "second": {"type": "halfspace", "a": [0.0, 1.0], "b": 1.0},
}
BAD_NUMBER_SETS = (
    {"type": "halfspace", "a": [1, "2"], "b": 1},
    {"type": "halfspace", "a": [1, 2], "b": "1"},
    {"type": "box", "lo": [0, True], "hi": [1, 1]},
    {"type": "whole_space", "dim": "2"},
    {"type": "whole_space", "dim": 2.5},
    {"type": "whole_space", "dim": True},
)
INLINE_NON_NUMBERS = (
    {"constants": {"c1": "2.5", "c2": 1.0}},
    {"constants": {"c1": 1.0, "c2": True}},
    {"bifunction": {**BOX_BIFUNCTION, "q": ["1", 0.0]}},
    {"bifunction": {**BOX_BIFUNCTION, "q": [True, 0.0]}},
    {"bifunction": {**BOX_BIFUNCTION, "P": [["2.0", 0.0], [0.0, 2.0]]}},
    {"bifunction": {**BOX_BIFUNCTION, "P": [[2.0, 0.0], [False, 2.0]]}},
    {"bifunction": {**BOX_BIFUNCTION, "Q": [[True, 0.0], [0.0, 1.0]]}},
    {"bifunction": {**BOX_BIFUNCTION, "Q": [[1.0, "0"], [0.0, 1.0]]}},
    {"target": ["0", "0"]},
    {"target": [0.0, False]},
    *({"feasible": s} for s in BAD_NUMBER_SETS),
    *(
        {"mapping": {"type": "averaged_projections", "outer": INLINE_BOX_PROBLEM["feasible"], "inner": [s]}}
        for s in BAD_NUMBER_SETS
    ),
)
UNIT_SQUARE = {"type": "box", "lo": [0.0, 0.0], "hi": [1.0, 1.0]}
INLINE_UNKNOWN_KEYS = (
    {"constans": {"c1": 5.0, "c2": 5.0}},
    {"constants": {"c1": 5.0, "c2": 5.0, "c3": 1.0}},
    {"bifunction": {**BOX_BIFUNCTION, "R": [[1.0, 0.0], [0.0, 1.0]]}},
    {"mapping": {"type": "identity", "outer": UNIT_SQUARE}},
    {"mapping": {"type": "averaged_projections", "outer": UNIT_SQUARE, "inner": [UNIT_SQUARE], "weights": [1.0]}},
    {"mapping": {"type": "rotation"}},
    {"mapping": {"type": "averaged_projections", "outer": UNIT_SQUARE, "inner": [{**UNIT_SQUARE, "lo_typo": 0}]}},
    {"feasible": {**UNIT_SQUARE, "hi_typo": 3}},
    {"feasible": {"type": "whole_space", "dim": 2, "lo": [0.0, 0.0]}},
    {"feasible": {"type": "polyhedron", "halfspaces": [{"type": "halfspace", "a": [1.0, 0.0], "bb": 1.0}]}},
    {"feasible": {"type": "polyhedron", "halfspaces": [], "box": UNIT_SQUARE, "boxes": []}},
)


def assert_config_error(tmp_path, capsys, error, **fields):
    """The parser raises ``error`` for an example1 config with ``fields``; the CLI exits 2."""
    data = {"problem": "example1", "starts": [[1, 3, 1]], **fields}
    with pytest.raises(error):
        config_from_dict(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_validation_error_exit_code(tmp_path, capsys, example1):
    path = minimal_config(tmp_path, params={"k": 5.0})
    assert cli.main(["solve", "--config", str(path)]) == 2
    assert "error" in capsys.readouterr().err
    # A seed of the wrong length, a distance rule on a problem without a
    # known target, an infinite tolerance or k, a schedule name the package
    # does not have and constants below example1's
    # |P^T - Q| / 2 = 1.39 are caught by the parser, not the solver.
    f = example1.bifunction
    small_constants = {
        "bifunction": {"P": f.P.tolist(), "Q": f.Q.tolist(), "q": f.q.tolist()},
        "feasible": EXAMPLE1_FEASIBLE,
        "constants": {"c1": 0.01, "c2": 0.01},
    }
    for fields in (
        {"y0": [0, 0]},
        {"stopping": {"rule": "distance_to_target"}},
        {"stopping": {"tol": float("inf")}},
        {"params": {"k": float("inf")}},
        {"params": {"alpha_schedule": "geometric"}},
        {"problem": small_constants},
    ):
        assert_config_error(tmp_path, capsys, ValidationError, **fields)


def test_cli_parse_error_exit_code(tmp_path, capsys):
    # Broken JSON, a missing file, a directory and a file that is not UTF-8
    # each end in one error line and exit 2, not in a traceback.
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes('{"problem": "caf\xe9"}'.encode("latin-1"))
    with pytest.raises(ParseError):
        load_config(latin1)
    for path in (broken, tmp_path / "missing.json", tmp_path, latin1):
        assert cli.main(["solve", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, (path, err)
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
        {"stopping": {"max_iter": 1.5}},
        {"stopping": {"max_iter": True}},
        {"stopping": {"max_iter": float("inf")}},
        {"stopping": {"max_iter": "10"}},
        {"stopping": {"tol": True}},
        {"stopping": {"tol": "1e-4"}},
        {"params": {"k": "6"}},
        {"params": {"k": True}},
        {"params": {"lambda": "0.05"}},
        {"params": {"lambda": False}},
        {"params": {"alpha_cap": "0.5"}},
        {"params": {"alpha_cap": True}},
        {"params": {"alpha_schedule": {"type": "constant", "value": True}}},
        {"params": {"alpha_schedule": {"type": "constant", "value": "0.5"}}},
        # Keys and a schedule form the format no longer has.
        {"params": {"alpha_cap": 0.5}},
        {"audit": True},
        {"params": {"alpha_schedule": {"type": "constant", "value": 0.5}}},
        {"starts": [["1", "3", "1"]]},
        {"starts": [[True, 3, 1]]},
        {"starts": ["131"]},
        {"y0": ["0", "0", "0"]},
        {"y0": [0, 0, False]},
        {"params": {"k": 10**400}},
        {"stopping": {"max_iter": 10**400}},
        # Inside an inline problem, too, only JSON numbers are numbers.
        *({"problem": {**INLINE_BOX_PROBLEM, **part}} for part in INLINE_NON_NUMBERS),
        # A key or a set type the format does not have.
        {"params": {"slack_convention": "standard"}},
        {"params": {"lamda": 0.01}},
        {"stoping": {"tol": 1}},
        {"stopping": {"tol": 1e-4, "max_iters": 10}},
        {"output": {"cvs": "rows.csv"}},
        {"problem": {**INLINE_BOX_PROBLEM, "feasible": TWO_HALFSPACES}},
        # Inside an inline problem, too: a misspelt key is not ignored.
        *({"problem": {**INLINE_BOX_PROBLEM, **part}} for part in INLINE_UNKNOWN_KEYS),
    ):
        assert_config_error(tmp_path, capsys, ParseError, **fields)


def test_cli_audit_subcommand(tmp_path, capsys):
    path = minimal_config(tmp_path)
    assert cli.main(["audit", "--config", str(path)]) == 0
    assert "audit clean" in capsys.readouterr().out


def test_cli_failed_run_exit_code(tmp_path, capsys, monkeypatch):
    # An inline polyhedron with x1 <= 0 and x1 >= 1 parses; its first prox
    # step finds the set empty, and the run exits 4 with one error line.
    empty = {
        "type": "polyhedron",
        "halfspaces": [
            {"type": "halfspace", "a": [1.0, 0.0], "b": 0.0},
            {"type": "halfspace", "a": [-1.0, 0.0], "b": -1.0},
        ],
    }
    path = minimal_config(
        tmp_path,
        problem={**INLINE_BOX_PROBLEM, "feasible": empty},
        starts=[[0.5, 0.5]],
        stopping={"rule": "residual_w", "tol": 1e-4},
    )
    assert cli.main(["solve", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: InfeasibleSet: ") and err.count("\n") == 1, err

    # Started at example2's solution with a prox seed away from it, the first
    # step's w is the start itself and its slack is negative: the contraction
    # cut has a zero normal and no point, and the run exits 4 too.
    path = minimal_config(
        tmp_path, y0=[0, 0, 1], starts=[[0, 0, 0]], stopping={"rule": "residual_w", "tol": 1e-4}
    )
    assert cli.main(["solve", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: EmptyOmega: iteration 1: ") and err.count("\n") == 1, err

    from ephybrid import hybrid

    for failure in (hybrid.EmptyOmega, qp.CyclingDetected):

        def failing_solve(*args, **kwargs):
            raise failure("fabricated failure for the exit-code path")

        monkeypatch.setattr(hybrid, "solve", failing_solve)
        assert cli.main(["solve", "--config", str(minimal_config(tmp_path))]) == 4
        err = capsys.readouterr().err
        assert err.startswith(f"error: {failure.__name__}: ") and err.count("\n") == 1, err


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
        stopping={"rule": "residual_w", "tol": 1e-4, "max_iter": 10000.0},
    )
    config = load_config(path)
    assert config.lam == pytest.approx(1.0 / (5.0 * builtin_example1().constants.c1))
    assert config.k == 6.0
    assert config.stopping.kind == "residual_w"
    assert config.stopping.max_iter == 10000 and type(config.stopping.max_iter) is int


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
