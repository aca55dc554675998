"""Reference figures for bench/README.md, measured once and not gated.

    python3 bench/reference.py seeds   # run() time for all ten criterion-7 seeds
    python3 bench/reference.py sweep   # rank2-highdim config at d = 10, 50, 100

``sweep`` ends with the log-log slope of run() time and of rows drawn
against d.  Both take minutes (``seeds`` about five), on one BLAS thread.
"""

from __future__ import annotations

import dataclasses
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _measure(workload):
    rows = []
    for i, inst in enumerate(workloads.build(workload)):
        result, seconds, drawn = workloads.learn(inst)
        holdout = np.random.default_rng([0, i]).standard_normal((50_000, workload.dim))
        v = checks.judge(result, inst.planted, inst.net.weights, inst.config.eps,
                         inst.config.n_check, holdout, workload.fit_bar)
        scanned = [rec.candidates_scanned for rec in result.trace]
        print(f"d={workload.dim:<4} {inst.label:<8} {seconds:7.2f} s  rows={drawn}  loop scanned={scanned}  "
              f"chordal={v.chordal:.3f}  fit_err={v.fit_err:.3f}  certified={result.certified}", flush=True)
        rows.append((seconds, drawn))
    return rows


def main(what: str) -> None:
    if what == "seeds":
        _measure(dataclasses.replace(workloads.WORKLOADS["rank2-terminal"], seeds=tuple(range(10))))
        return
    base = workloads.WORKLOADS["rank2-highdim"]
    dims, walls, samples = [], [], []
    for d in (10, 50, 100):
        rows = _measure(dataclasses.replace(base, dim=d))
        dims.append(d)
        walls.append(sum(r[0] for r in rows))
        samples.append(sum(r[1] for r in rows))
    logd = np.log(dims)
    print("wall_s  per d:", [round(w, 2) for w in walls], " slope", round(float(np.polyfit(logd, np.log(walls), 1)[0]), 2))
    print("samples per d:", samples, " slope", round(float(np.polyfit(logd, np.log(samples), 1)[0]), 2))


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in ("seeds", "sweep"):
        sys.exit(__doc__)
    main(sys.argv[1])
