"""Command-line harness.

Subcommands::

    ephybrid solve --config <path>        run a JSON experiment config
    ephybrid reproduce table1|table2      run a built-in benchmark grid
    ephybrid audit --config <path>        run with invariant assertions

``reproduce`` writes ``<table>.csv``, ``<table>.json`` and
``<table>_trace_NN.{csv,json}`` to ``--out``.  Exit codes: 0 on success,
2 on any config or parameter error, 3 on an invariant violation in audit
mode (a config's own ``"audit": true`` audits under ``solve`` too).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import experiments, reporting
from .hybrid import InvariantViolation, ParameterError
from .problems import DegenerateConstants, NotMonotone


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ephybrid",
        description="Cutting-halfspace solver benchmarks for equilibrium and fixed-point problems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run an experiment described by a JSON config")
    p_solve.add_argument("--config", required=True, help="path to the experiment JSON")

    p_repro = sub.add_parser("reproduce", help="run a built-in benchmark grid")
    p_repro.add_argument("table", choices=["table1", "table2"])
    p_repro.add_argument("--out", default="reports", help="output directory (default: reports)")

    p_audit = sub.add_parser("audit", help="run a config with per-iteration invariant assertions")
    p_audit.add_argument("--config", required=True, help="path to the experiment JSON")

    args = parser.parse_args(argv)
    try:
        if args.command == "reproduce":
            return _cmd_reproduce(args.table, args.out)
        config = experiments.load_config(args.config)
        return _run(replace(config, audit=True) if args.command == "audit" else config)
    except (experiments.ParseError, experiments.ValidationError, ParameterError,
            DegenerateConstants, NotMonotone) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 3


def _cmd_reproduce(table: str, out_dir: str) -> int:
    config = experiments.table1_config() if table == "table1" else experiments.table2_config()
    os.makedirs(out_dir, exist_ok=True)
    config = replace(
        config,
        csv_path=os.path.join(out_dir, f"{table}.csv"),
        json_path=os.path.join(out_dir, f"{table}.json"),
        trace_dir=out_dir,
    )
    _run(config, trace_prefix=f"{table}_trace")
    print(f"wrote {table}.csv, {table}.json and per-run traces to {out_dir}/")
    return 0


def _run(config, trace_prefix: str = "trace") -> int:
    """Run the grid, print its rows and write the outputs the config names."""
    runs = experiments.run_grid(config)
    rows = [experiments.grid_row(run) for run in runs]
    _print_rows(rows)
    _warn_clamped_schedules(config)
    if config.csv_path:
        reporting.emit_reports(rows, "csv", config.csv_path)
    if config.json_path:
        reporting.emit_reports(rows, "json", config.json_path)
    if config.trace_dir:
        _write_traces(runs, config.trace_dir, trace_prefix)
    if config.audit:
        total = sum(run.report.iterations for run in runs)
        print(f"audit clean: {len(runs)} runs, {total} iterations, no invariant violations")
    return 0


def _write_traces(runs, trace_dir: str, prefix: str) -> None:
    os.makedirs(trace_dir, exist_ok=True)
    for idx, run in enumerate(runs):
        reporting.trace_to_csv(run.report, os.path.join(trace_dir, f"{prefix}_{idx:02d}.csv"))
        reporting.write_report_json(run.report, os.path.join(trace_dir, f"{prefix}_{idx:02d}.json"))


def _print_rows(rows) -> None:
    header = f"{'start':<28} {'schedule':<18} {'iter':>6} {'seconds':>10} {'stop':<16} final_x"
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            f"{reporting.format_point(row.start):<28} {row.schedule:<18} "
            f"{row.iterations:>6} {row.elapsed_s:>10.4f} {row.stop_reason:<16} "
            f"{reporting.format_point(row.final_x)}"
        )


def _warn_clamped_schedules(config) -> None:
    if any(s.kind == "invlog" for s in config.schedules):
        print(
            "note: the 1/log10(n+1) schedule exceeds the averaging cap for n <= 9; "
            f"those values are clamped to {config.alpha_cap}",
            file=sys.stderr,
        )


if __name__ == "__main__":
    raise SystemExit(main())
