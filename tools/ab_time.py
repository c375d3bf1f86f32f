"""Time one workload's grid in two checkouts, alternating inside one process.

    python3 tools/ab_time.py BASE NEW [--workload table1|table2|nc64] [--pairs N] [--seed S]

``BASE`` and ``NEW`` are checkout roots.  Each one's ``src/ephybrid`` is copied
into a temporary directory under a package name of its own (``ephybrid_base``,
``ephybrid_new``); the package imports itself only relatively, so the two load
side by side.  Each pair runs ``experiments.run_grid`` on the workload once
per checkout, the order flipping from pair to pair, so a drift in the host's
speed falls on both sides alike.  Separate processes cannot resolve a gain of
a few percent on a host whose speed drifts by more than that between them;
back-to-back runs in one process can.

Prints, per pair, both times and their ratio NEW/BASE, then the median ratio,
its quartiles, how many pairs NEW won, and the median over pairs of the
difference NEW - BASE in microseconds per iteration.  Every summary line is
paired: each side's own median would move with the host's drift, which the
pairs cancel.  The iteration counts of the two checkouts are printed as well;
they differ only if the change moves the traces.  The ``nc64`` config comes
from ``BASE``'s ``bench/workloads.py``, seeded with ``--seed``.  Both BLAS
thread pools are pinned to one thread, as ``bench/run.py`` pins them: numpy's
and scipy's OpenBLAS builds each keep a pool, and their contention on a small
host spreads the times far wider than the differences being measured.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Pinned before numpy loads (with the first package import): OpenBLAS reads
# these once, when it starts.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)


def load(root: Path, name: str, into: Path):
    """``root``'s ``src/ephybrid`` imported as package ``name``; returns its ``experiments``."""
    src = root / "src" / "ephybrid"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"no package at {src}")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.experiments")


def config_spec(workload: str, base: Path, seed: int):
    """The workload's config: the name of a built-in grid, or the seeded ``nc64`` game's JSON."""
    if workload == "nc64":
        sys.path.insert(0, str(base / "src"))
        sys.path.insert(0, str(base / "bench"))
        import workloads

        return workloads.nash_cournot_config(seed)
    grids = {"table1": "TABLE1", "table2": "TABLE2"}
    if workload not in grids:
        raise SystemExit(f"unknown workload {workload!r}; choose from table1, table2, nc64")
    return grids[workload]


def timed(experiments, config) -> tuple[float, int]:
    """Seconds one ``run_grid`` pass takes and the iterations it ran."""
    gc.collect()
    t0 = time.perf_counter()
    runs = experiments.run_grid(config)
    elapsed = time.perf_counter() - t0
    return elapsed, sum(run.report.iterations for run in runs)


def summarize(base_s, new_s) -> None:
    """Print the median ratio NEW/BASE of paired times, its quartiles and how many pairs NEW won."""
    ratios = [n / b for b, n in zip(base_s, new_s)]
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(n < b for b, n in zip(base_s, new_s))
    print(f"median ratio new/base {statistics.median(ratios):.3f}  (quartiles {q1:.3f} .. {q3:.3f})")
    print(f"new faster in {wins}/{len(ratios)} pairs")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--workload", default="table1")
    parser.add_argument("--pairs", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        raise SystemExit("--pairs must be >= 1")

    print("threads  " + "  ".join(f"{k}={v}" for k, v in THREAD_PINS.items()))
    spec = config_spec(args.workload, args.base.resolve(), args.seed)
    with tempfile.TemporaryDirectory(prefix="ab_time-") as tmp:
        sys.path.insert(0, tmp)
        sides = []
        for name, root in (("ephybrid_base", args.base), ("ephybrid_new", args.new)):
            experiments = load(root.resolve(), name, Path(tmp))
            raw = getattr(experiments, spec) if isinstance(spec, str) else spec
            sides.append((experiments, experiments.config_from_dict(raw)))
        iterations = [timed(*side)[1] for side in sides]  # warm-up, untimed
        print(f"workload {args.workload}  iterations base {iterations[0]}  new {iterations[1]}")

        seconds = ([], [])
        for pair in range(args.pairs):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                seconds[side].append(timed(*sides[side])[0])
            base, new = seconds[0][-1], seconds[1][-1]
            print(f"pair {pair:3d}  base {base:.4f} s  new {new:.4f} s  ratio {new / base:.3f}")

    summarize(*seconds)
    difference = statistics.median(1e6 * (n / iterations[1] - b / iterations[0]) for b, n in zip(*seconds))
    print(f"median paired difference new - base {difference:+.2f} us/iteration")
    return 0


if __name__ == "__main__":
    sys.exit(main())
