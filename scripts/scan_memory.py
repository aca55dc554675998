"""Peak memory, wall time and accuracy of one learning run as the ambient dimension d grows.

    python3 scripts/scan_memory.py                     # d = 4, 10, 100, 200, 400
    python3 scripts/scan_memory.py --dims 100 800 --seed 5

Runs relupca.run() on rank2-highdim's planted instance and LearnConfig
(bench/workloads.py, imported read-only) with only d changed: N = 2e5 rows a
scan, whatever d.  Each d runs in a fresh interpreter with BLAS on one
thread, and prints one line: d, the child's peak RSS in MB (ru_maxrss, the
interpreter and the instance included), the returned hypothesis's hidden
units (result.terminal.units: the width that its error checks' memory scales
with), the rays of the basis the terminal fitted over (result.terminal.features,
which the hypothesis is narrowed from when wider), the seconds run() took,
the rows drawn, and the chordal distance from the learned frame to the
planted one (inf when their ranks differ).  Standard library and the package
only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _one(d: int, seed: int) -> dict:
    """run() at dimension d in this process; the figures as a dict."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import checks
    import workloads

    workload = dataclasses.replace(workloads.WORKLOADS["rank2-highdim"], dim=d, seeds=(seed,))
    inst = workloads.build(workload)[0]
    result, seconds, rows = workloads.learn(inst)
    return {
        "d": d,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "units": result.terminal.units,
        "features": result.terminal.features,
        "run_s": seconds,
        "rows": rows,
        "chordal": checks.chordal(result.frame.vectors, inst.planted),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--dims", type=int, nargs="+", default=[4, 10, 100, 200, 400])
    p.add_argument("--seed", type=int, default=0, help="the planted instance's seed (rank2-highdim runs 0 and 5)")
    p.add_argument("--one", type=int, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.one is not None:
        print(json.dumps(_one(args.one, args.seed)))
        return 0
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    print("d\tpeak_rss_mb\tunits\tfeatures\trun_s\trows\tchordal")
    for d in args.dims:
        done = subprocess.run([sys.executable, __file__, "--one", str(d), "--seed", str(args.seed)],
                              env=env, capture_output=True, text=True, check=True)
        row = json.loads(done.stdout.splitlines()[-1])
        print(f"{d}\t{row['peak_rss_mb']:.1f}\t{row['units']}\t{row['features']}\t{row['run_s']:.2f}\t{row['rows']}\t"
              f"{row['chordal']:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
