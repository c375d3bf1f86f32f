"""ephybrid benchmark: one workload per invocation, serial, from a fresh process.

    python3 bench/run.py --workload table1|table2|nc64 [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is imported from the ``src`` directory next to
this one.  With ``--trace 0`` the run reports the end-to-end metrics and
installs no wrappers.  With ``--trace 1`` it alternates untraced and traced
passes and reports the per-layer split.  Both modes check every cell's output.
Human-readable detail goes to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only when every check passed.  See ``bench/README.md`` for the workloads,
the metrics and what each layer metric is expected to move.
"""

import os

# Pin every thread pool before numpy loads: the grid's thread pool would
# otherwise run cells on all cores, and the GIL turns that into noise.
THREAD_PINS = {"EPHYBRID_MAX_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5
# Reports written per pass: at least this many, and until they add up to this long.
REPORT_MIN_WRITES = 2
REPORT_MIN_S = 0.25
# Calibration kernel size, sampling period and the kernel's median time on
# the reference machine (2 vCPUs at 2.1 GHz, Python 3.11.7).
CALIBRATION_DIM = 12
CALIBRATION_REPEATS = 6
CALIBRATION_PERIOD_S = 0.05
CALIBRATION_MIN_SAMPLES = 9
CALIBRATION_REF_S = 0.00045


def import_package() -> float:
    """Import ``ephybrid`` from this checkout's ``src``; returns the seconds taken."""
    src = ROOT / "src"
    if not (src / "ephybrid" / "__init__.py").is_file():
        raise ImportError(f"no ephybrid package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import ephybrid

    elapsed = time.perf_counter() - t0
    if Path(ephybrid.__file__).resolve().parent != (src / "ephybrid").resolve():
        raise ImportError(f"imported ephybrid from {ephybrid.__file__}, not from {src}")
    return elapsed


def _calibration_kernel(gram) -> float:
    """Seconds taken by fixed work shaped like the solver's hot loops.

    A Python-level Cholesky factorization on small numpy slices, repeated:
    interpreter dispatch and tiny numpy calls, as in ``cholesky_spd`` and the
    active-set loop.  Of the kernels tried (a pure-Python loop, 32x32 matvecs,
    dict updates), this one tracked the solver's speed best on table1 and nc64.
    """
    import numpy as np

    t0 = time.perf_counter()
    n = gram.shape[0]
    for _ in range(CALIBRATION_REPEATS):
        lower = np.zeros_like(gram)
        for j in range(n):
            lower[j, j] = (gram[j, j] - lower[j, :j] @ lower[j, :j]) ** 0.5
            lower[j + 1:, j] = (gram[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    return time.perf_counter() - t0


class SpeedClock:
    """Wall time of a call, with the factor that rescales it to the reference speed.

    The shared host's speed drifts by up to 1.7x over tens of seconds, which no
    median inside one run removes.  While the call runs, a timer signal
    interrupts it every ``CALIBRATION_PERIOD_S`` to time the calibration kernel
    on the same thread, so the samples see the speed the call saw.  The factor
    is ``CALIBRATION_REF_S`` over the median sample; the time spent sampling is
    taken out of the wall time.
    """

    def __init__(self):
        import numpy as np

        self._gram = np.eye(CALIBRATION_DIM) * CALIBRATION_DIM + np.ones((CALIBRATION_DIM, CALIBRATION_DIM))
        self.factors: list[float] = []
        self._samples: list[float] = []
        self._overhead = 0.0

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self._samples.append(_calibration_kernel(self._gram))
        self._overhead += time.perf_counter() - t0

    def run(self, fn):
        """``(result, wall seconds, factor)``; wall times factor is the rescaled time."""
        self._samples, self._overhead = [], 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD_S, CALIBRATION_PERIOD_S)
        try:
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        wall -= self._overhead
        while len(self._samples) < CALIBRATION_MIN_SAMPLES:
            self._samples.append(_calibration_kernel(self._gram))
        factor = CALIBRATION_REF_S / statistics.median(self._samples)
        self.factors.append(factor)
        return result, wall, factor


def probe_setup(workload: str, seed: int) -> None:
    """Child side of the set-up measurement: set up, report, exit."""
    import_s = import_package()
    import workloads

    t0 = time.perf_counter()
    workloads.build(workload, seed)
    build_s = time.perf_counter() - t0
    print(json.dumps({"import_s": import_s, "build_s": build_s}), flush=True)


def measure_setup(workload: str, seed: int, clock: SpeedClock) -> dict[str, list[float]]:
    """Time fresh processes from launch until the first solve could start."""
    from workloads import BenchError

    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]

    def probe():
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        _, err = proc.communicate(timeout=120)
        if proc.returncode != 0 or not line:
            raise BenchError(f"set-up probe failed: {err.strip()}")
        return ready, json.loads(line)

    samples = {"setup_s": [], "import_s": [], "build_s": [], "setup_wall_s": []}
    for _ in range(SETUP_PROBES):
        (ready, child), _, factor = clock.run(probe)
        samples["setup_s"].append(ready * factor)
        samples["setup_wall_s"].append(ready)
        samples["import_s"].append(child["import_s"] * factor)
        samples["build_s"].append(child["build_s"] * factor)
    return samples


def write_reports(experiments, reporting, name: str, runs) -> tuple[float, int]:
    """Write what ``ephybrid reproduce`` writes; returns (seconds, bytes)."""
    OUT_DIR.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="reports-", dir=OUT_DIR))
    try:
        t0 = time.perf_counter()
        rows = [experiments.grid_row(run) for run in runs]
        reporting.emit_reports(rows, "csv", out / f"{name}.csv")
        reporting.emit_reports(rows, "json", out / f"{name}.json")
        for idx, run in enumerate(runs):
            reporting.trace_to_csv(run.report, out / f"{name}_trace_{idx:02d}.csv")
            reporting.write_report_json(run.report, out / f"{name}_trace_{idx:02d}.json")
        elapsed = time.perf_counter() - t0
        return elapsed, sum(p.stat().st_size for p in out.iterdir())
    finally:
        shutil.rmtree(out)


class Outcome:
    """Per-cell verdicts across passes."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, verdicts) -> None:
        self.attempted += len(verdicts)
        self.failures += [v for v in verdicts if v is not None]

    def fail_all(self, cells: int, reason: str) -> None:
        self.attempted += cells
        self.failures += [reason] * cells


class Pass(NamedTuple):
    seconds: float  # at the reference speed
    wall: float
    factor: float
    iterations: int
    runs: list


def solve_pass(experiments, config, check, outcome: Outcome, clock: SpeedClock) -> Pass | None:
    """One pass over the grid, checked; None if a cell raised."""
    try:
        runs, wall, factor = clock.run(lambda: experiments.run_grid(config))
    except Exception as exc:  # a raising cell fails the whole pass
        traceback.print_exc()
        outcome.fail_all(len(config.starts) * len(config.schedules), f"raised {type(exc).__name__}: {exc}")
        return None
    outcome.add(check(runs))
    return Pass(wall * factor, wall, factor, sum(run.report.iterations for run in runs), runs)


def end_to_end(name, config, check, seconds, setup, clock) -> tuple[dict, Outcome, dict]:
    from ephybrid import experiments, reporting

    def report_batch(runs):
        times = []
        while len(times) < REPORT_MIN_WRITES or sum(times) < REPORT_MIN_S:
            times.append(write_reports(experiments, reporting, name, runs)[0])
        return times

    outcome = Outcome()
    solve_s, us_per_iter, iterations, report_s, solve_wall = [], [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        done = solve_pass(experiments, config, check, outcome, clock)
        if done is None:
            break
        solve_s.append(done.seconds)
        solve_wall.append(done.wall)
        iterations.append(done.iterations)
        us_per_iter.append(1e6 * done.seconds / done.iterations)
        times, _, factor = clock.run(lambda: report_batch(done.runs))
        report_s += [t * factor for t in times]
        del done
        if time.perf_counter() >= deadline:
            break
    samples = {
        "setup_s": (setup["setup_s"], "s"),
        "solve_s": (solve_s, "s"),
        "us_per_iter": (us_per_iter, "us"),
        "iterations": (iterations, "count"),
        "report_s": (report_s, "s"),
        "peak_rss_mb": ([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0], "MB"),
    }
    extra = {
        "wall_median_s": {
            "setup": statistics.median(setup["setup_wall_s"]),
            "solve": statistics.median(solve_wall) if solve_wall else None,
        },
        "speed_factor": {"median": statistics.median(clock.factors),
                         "min": min(clock.factors), "max": max(clock.factors)},
    }
    return samples, outcome, extra


def traced(name, config, check, seconds, setup, clock) -> tuple[dict, Outcome, dict]:
    from ephybrid import experiments, reporting
    from tracer import Tracer

    tracer = Tracer()
    outcome = Outcome()
    plain, traced_passes, nbytes = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        done = solve_pass(experiments, config, check, outcome, clock)
        if done is None:
            break
        plain.append(done.seconds)
        del done
        tracer.install()
        try:
            done = solve_pass(experiments, config, check, outcome, clock)
            if done is not None:
                nbytes.append(write_reports(experiments, reporting, name, done.runs)[1])
        finally:
            tracer.uninstall()
        if done is None:
            break
        traced_passes.append(done._replace(runs=None))
        del done
        if time.perf_counter() >= deadline:
            break
    if not traced_passes:
        return {}, outcome, {}

    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"spans_{name}.npz")
    spans = tracer.summary()
    iterations = sum(p.iterations for p in traced_passes)
    factor = statistics.median(p.factor for p in traced_passes)

    def per_iter_us(seconds_total: float) -> float:
        return 1e6 * seconds_total * factor / iterations

    def calls_per_iter(span: str) -> float:
        return spans[span]["calls"] / iterations

    writes = len(nbytes)
    traced_s = statistics.median(p.seconds for p in traced_passes)
    metrics = {
        "hybrid.self_us_per_iter": (per_iter_us(spans["hybrid.iterate"]["self_s"]), "us"),
        "hybrid.cuts_us_per_iter": (per_iter_us(spans["hybrid.cuts"]["total_s"]), "us"),
        "hybrid.stall_frac": (tracer.stalls / iterations, "frac"),
        "sets.cutproj_closed_us": (per_iter_us(spans["sets.cutproj_closed"]["total_s"]), "us"),
        "sets.cutproj_qp_us": (per_iter_us(spans["sets.cutproj_qp"]["total_s"]), "us"),
        "sets.cutproj_qp_frac": (calls_per_iter("sets.cutproj_qp"), "frac"),
        "qp.prox_us": (per_iter_us(spans["qp.prox"]["total_s"]), "us"),
        "qp.prox_self_us": (per_iter_us(spans["qp.prox"]["self_s"]), "us"),
        "qp.phase1_per_iter": (calls_per_iter("qp.phase1"), "calls/iter"),
        "qp.phase1_us": (per_iter_us(spans["qp.phase1"]["total_s"]), "us"),
        "qp.indep_checks_per_iter": (calls_per_iter("qp.indep"), "calls/iter"),
        "qp.indep_us_per_iter": (per_iter_us(spans["qp.indep"]["total_s"]), "us"),
        "linalg.chol_per_iter": (calls_per_iter("linalg.chol"), "calls/iter"),
        "linalg.chol_us": (per_iter_us(spans["linalg.chol"]["total_s"]), "us"),
        "linalg.trisolve_per_iter": (calls_per_iter("linalg.trisolve"), "calls/iter"),
        "linalg.trisolve_us": (per_iter_us(spans["linalg.trisolve"]["total_s"]), "us"),
        "problems.mapping_us": (per_iter_us(spans["problems.mapping"]["total_s"]), "us"),
        "reporting.bytes": (statistics.median(nbytes), "bytes"),
        "reporting.trace_csv_s": (spans["reporting.trace_csv"]["total_s"] * factor / writes, "s"),
        "reporting.run_json_s": (spans["reporting.run_json"]["total_s"] * factor / writes, "s"),
        "experiments.build_s": (statistics.median(setup["build_s"]), "s"),
        "setup.import_s": (statistics.median(setup["import_s"]), "s"),
        "trace.overhead_frac": (traced_s / statistics.median(plain) - 1.0, "frac"),
    }
    solve_total = sum(p.wall for p in traced_passes)
    ranking = sorted(
        ((span, s["self_s"]) for span, s in spans.items() if not span.startswith("reporting.")),
        key=lambda item: -item[1],
    )
    extra = {
        "passes": {"untraced": len(plain), "traced": len(traced_passes)},
        "traced_iterations": iterations,
        "absent_targets": tracer.absent,
        "stall_count_unavailable": tracer.stall_unknown,
        "self_time_share": {span: round(t / solve_total, 4) for span, t in ranking},
        "spans_wall": spans,
    }
    return {k: ([v], unit) for k, (v, unit) in metrics.items()}, outcome, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    try:
        import_package()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import workloads

    try:
        if args.workload not in workloads.NAMES:
            raise workloads.BenchError(
                f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}"
            )
        clock = SpeedClock()
        setup = measure_setup(args.workload, args.seed, clock)
        config = workloads.build(args.workload, args.seed)
        check = workloads.make_check(args.workload, config)
    except workloads.BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    measure = traced if args.trace else end_to_end
    samples, outcome, extra = measure(args.workload, config, check, args.seconds, setup, clock)

    import numpy as np
    import scipy

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  seconds {args.seconds:g}")
    print("threads  " + "  ".join(f"{k}={os.environ[k]}" for k in THREAD_PINS))
    print(f"python {platform.python_version()}  numpy {np.__version__}  scipy {scipy.__version__}  "
          f"cpus {os.cpu_count()}  {platform.machine()}")
    print("times are rescaled to the reference speed (see the speed factors in the detail line)")
    print(f"{'metric':<28} {'median':>14} {'unit':<10} {'n':>3} {'min':>14} {'max':>14}")
    metrics = {}
    for metric, (values, unit) in samples.items():
        if not values:
            continue
        value = statistics.median(values)
        metrics[metric] = {"value": value, "unit": unit}
        print(f"{metric:<28} {value:>14.6g} {unit:<10} {len(values):>3} {min(values):>14.6g} {max(values):>14.6g}")
    print(f"cells {outcome.attempted} attempted, {len(outcome.failures)} failed"
          f" (fail_frac {len(outcome.failures) / max(outcome.attempted, 1):.4g})")
    for reason in sorted(set(outcome.failures)):
        print(f"FAILED: {reason}")
    print("detail " + json.dumps(extra, sort_keys=True))
    correct = not outcome.failures and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
