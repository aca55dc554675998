"""How much of each benchmark workload's learning time goes to drawing the Gaussian rows, and how much is left to
the learner.

    python3 scripts/draw_share.py                       # all workloads, 5 timed rounds each
    python3 scripts/draw_share.py --rounds 10 rank1-kicker

Runs relupca.run() on every planted instance of each workload (bench/workloads.py,
imported read-only; one round is one run() per instance, on the oracle stream
the benchmark uses), with BLAS on one thread.  After one untimed warm round it
times --rounds rounds and prints one tab-separated line per workload: its name,
the median seconds of run() per round, the median seconds per round spent in
the oracle generator's standard_normal calls, the median per-round share of
run() those calls take, the median seconds per round in the oracle's whole
draw (standard_normal, the rows' labels from evaluate and the SampleSet's
checks), and the median per-round share of run() left to the learner, outside
the oracle's draw.  Standard library and numpy only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


class _Timed:
    """One callable whose calls add their seconds to spent."""

    def __init__(self, fn):
        self._fn, self.spent = fn, 0.0

    def __call__(self, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return self._fn(*args, **kwargs)
        finally:
            self.spent += time.perf_counter() - t0


def one_round(workloads, run, instances) -> tuple[float, float, float]:
    """(seconds in run(), in standard_normal, in the oracle's draw) over one run() per instance."""
    total = normal_s = draw_s = 0.0
    for inst in instances:
        oracle = workloads.CountingOracle(inst)  # its burn-in draw is made here, outside the timing
        normal = _Timed(oracle._inner._rng.standard_normal)
        oracle._inner._rng = SimpleNamespace(standard_normal=normal)  # the oracle calls nothing else on its generator
        draw = oracle._inner.draw = _Timed(oracle._inner.draw)
        t0 = time.perf_counter()
        run(oracle, inst.config)
        total += time.perf_counter() - t0
        normal_s += normal.spent
        draw_s += draw.spent
    return total, normal_s, draw_s


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("names", nargs="*", help="workloads (default: all)")
    p.add_argument("--rounds", type=int, default=5)
    args = p.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from relupca import run

    for name in args.names or list(workloads.WORKLOADS):
        workload = workloads.WORKLOADS[name]
        instances = workloads.build(workload)
        workloads.warm_up(workload)
        one_round(workloads, run, instances)  # the warm round
        rounds = [one_round(workloads, run, instances) for _ in range(args.rounds)]
        run_s = statistics.median(t for t, _, _ in rounds)
        draw_s = statistics.median(d for _, d, _ in rounds)
        share = statistics.median(d / t for t, d, _ in rounds)
        oracle_s = statistics.median(o for _, _, o in rounds)
        learner_share = statistics.median((t - o) / t for t, _, o in rounds)
        print(f"{name}\trun_s={run_s:.4f}\tdraw_s={draw_s:.4f}\tdraw_share={share:.3f}"
              f"\toracle_s={oracle_s:.4f}\tlearner_share={learner_share:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
