"""Replay the table2 grid's cut projections in two checkouts, alternating inside one process.

    python3 tools/cutproj_replay.py BASE NEW [--pairs N]

``BASE`` and ``NEW`` are checkout roots, loaded side by side as
``tools/ab_time.py`` loads them.  Every ``qp.CutProjector.project`` call of
each table2 run is recorded once, with ``BASE``.  Each run's sequence of calls
is then replayed on a fresh projector of each checkout, built on that
checkout's table2 feasible set (the grid cuts within it).  The calls are
timed in pairs, one replay of the whole grid per checkout, the order flipping
from pair to pair, so a drift in the host's speed falls on both sides alike.

Prints, for each side: the median microseconds per call, the dual QP's face
lookups (``_DualQP.face``) and face factorizations (``gram_factor``) per call,
and how many calls ended on the latest seed (the previous call's final working
set), on the older seed (the distinct one before it) or on neither; faces are
compared as sets of row labels.  The counts come from one untimed replay with
counting wrappers.  Then the median ratio NEW/BASE of the per-pair times, its
quartiles and how many pairs NEW won.  This is the cut projection's layer
alone, with the prox step, the mapping and the trace left out.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import tempfile
import time
from pathlib import Path

from ab_time import load


def record(side) -> list[list]:
    """Every cut projection of each table2 run of ``side``, one ``[(x0, cuts), ...]`` per run."""
    qp, experiments, config = side
    calls = {}
    project = qp.CutProjector.project

    def recording(self, x0, cuts):
        rows = [None if row is None else (row[0].copy(), row[1]) for row in cuts]
        calls.setdefault(self, []).append((x0.copy(), rows))
        return project(self, x0, cuts)

    qp.CutProjector.project = recording
    try:
        experiments.run_grid(config)
    finally:
        qp.CutProjector.project = project
    return list(calls.values())


def replay(side, runs) -> float:
    """Seconds one replay of ``runs`` takes on fresh projectors of ``side``."""
    qp, _, config = side
    feasible = config.bundle.feasible
    gc.collect()
    t0 = time.perf_counter()
    for calls in runs:
        projector = qp.CutProjector(feasible)
        for x0, cuts in calls:
            projector.project(x0, cuts)
    return time.perf_counter() - t0


def counts(side, runs) -> dict[str, int]:
    """Face lookups and factorizations, and the calls ending on each seed, over one replay."""
    qp, _, config = side
    tally = dict.fromkeys(("lookups", "factorizations", "latest", "older", "neither"), 0)
    face, gram_factor = qp._DualQP.face, qp.gram_factor

    def counting_face(self, working):
        tally["lookups"] += 1
        return face(self, working)

    def counting_gram_factor(a):
        tally["factorizations"] += 1
        return gram_factor(a)

    qp._DualQP.face, qp.gram_factor = counting_face, counting_gram_factor
    try:
        for calls in runs:
            projector = qp.CutProjector(config.bundle.feasible)
            older = None
            for x0, cuts in calls:
                latest = projector._working
                projector.project(x0, cuts)
                final = projector._working
                if set(final) == set(latest):
                    tally["latest"] += 1
                elif older is not None and set(final) == set(older):
                    tally["older"] += 1
                else:
                    tally["neither"] += 1
                if final != latest:
                    older = latest
    finally:
        qp._DualQP.face, qp.gram_factor = face, gram_factor
    return tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--pairs", type=int, default=20)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        raise SystemExit("--pairs must be >= 1")

    with tempfile.TemporaryDirectory(prefix="cutproj_replay-") as tmp:
        sys.path.insert(0, tmp)
        sides = []
        for name, root in (("ephybrid_base", args.base), ("ephybrid_new", args.new)):
            experiments = load(root.resolve(), name, Path(tmp))
            qp = sys.modules[f"{name}.qp"]
            sides.append((qp, experiments, experiments.config_from_dict(experiments.TABLE2)))
        runs = record(sides[0])
        n_calls = sum(map(len, runs))
        print(f"table2: {len(runs)} runs, {n_calls} cut projections recorded with base")
        tallies = [counts(side, runs) for side in sides]
        for side in sides:
            replay(side, runs)  # warm-up, untimed

        seconds = ([], [])
        for pair in range(args.pairs):
            for side in (0, 1) if pair % 2 == 0 else (1, 0):
                seconds[side].append(replay(sides[side], runs))

    print(f"{'side':<5} {'us/call':>8} {'lookups/call':>13} {'factorizations/call':>20} "
          f"{'latest':>7} {'older':>6} {'neither':>8}")
    for label, times, tally in zip(("base", "new"), seconds, tallies):
        print(f"{label:<5} {1e6 * statistics.median(times) / n_calls:8.2f} "
              f"{tally['lookups'] / n_calls:13.3f} {tally['factorizations'] / n_calls:20.3f} "
              f"{tally['latest']:7d} {tally['older']:6d} {tally['neither']:8d}")
    ratios = [n / b for b, n in zip(*seconds)]
    q1, _, q3 = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else ratios * 3
    wins = sum(n < b for b, n in zip(*seconds))
    print(f"median ratio new/base {statistics.median(ratios):.3f}  (quartiles {q1:.3f} .. {q3:.3f})")
    print(f"new faster in {wins}/{args.pairs} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
