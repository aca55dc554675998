"""Record one source tree's benchmark figures under a label in a BENCH_<n>.json file.

    python3 scripts/bench_record.py parent --tree ../parent-checkout --out BENCH_1.json
    python3 scripts/bench_record.py change --out BENCH_1.json

For every workload in the tree's BENCHMARK.json this runs ``bench/run.py``
three times with ``--trace 0`` (the end-to-end metrics: median and every
run) and once with ``--trace 1`` (the per-layer metrics).  It also records
the seconds ``run()`` took on each criterion-7 seed (the last column of
``scripts/outcome_digest.py``, whose lines are kept too), the tier-1 wall time and pass count, the core
count, the BLAS thread count, the Python and numpy versions, the tree's
commit, and ``src_lines``, the ``wc -l`` total of its ``src/relupca/*.py``.
Every child runs with BLAS on one thread.  The tree's own scripts and
benchmark are run, so a parent checkout is measured with its own code; the
file keeps the other labels already in it.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
REPEATS = 3
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def _env() -> dict:
    # relative, as in the tier-1 command: bench/tests runs a copy of the
    # benchmark elsewhere and expects the package not to import there
    env = dict(os.environ, PYTHONPATH="src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _run(tree: Path, args: list[str], check: bool = True) -> tuple[str, float]:
    """Run python with args in the tree; return stdout and wall seconds."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=tree, env=_env(),
                          capture_output=True, text=True)
    seconds = time.perf_counter() - start
    if check and done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    return done.stdout, seconds


def _bench(tree: Path, workload: str, seconds: float, trace: int, seed: int = 0) -> dict:
    out, _ = _run(tree, ["bench/run.py", "--workload", workload, "--seed", str(seed),
                         "--seconds", str(seconds), "--trace", str(trace)])
    return json.loads(out.strip().splitlines()[-1])


def _workload(tree: Path, name: str, seconds: float) -> dict:
    runs = [_bench(tree, name, seconds, 0) for _ in range(REPEATS)]
    end_to_end = {k: {"median": statistics.median(r["metrics"][k]["value"] for r in runs),
                      "runs": [r["metrics"][k]["value"] for r in runs], "unit": v["unit"]}
                  for k, v in runs[0]["metrics"].items()}
    traced = _bench(tree, name, seconds, 1)
    return {
        "attempted": [r["attempted"] for r in runs],
        "failed": [r["failed"] for r in runs],
        "correct": all(r["correct"] for r in runs),
        "end_to_end": end_to_end,
        "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
    }


def record(tree: Path) -> dict:
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    git = lambda *a: subprocess.run(["git", *a], cwd=tree, capture_output=True, text=True).stdout.strip()
    workloads = {w["name"]: _workload(tree, w["name"], spec["run_seconds"])
                 for w in spec["workloads"]}
    digest, _ = _run(tree, ["scripts/outcome_digest.py"])
    criterion7 = [float(line.split("\t")[-1]) for line in digest.splitlines()
                  if line.startswith("criterion-7 ")]
    tier1_out, tier1_s = _run(tree, TIER1, check=False)  # a failing suite is recorded, not fatal
    summary = tier1_out.strip().splitlines()[-1] if tier1_out.strip() else ""
    counts = {k: int(n) for n, k in re.findall(r"(\d+) (passed|failed|error)", summary)}
    return {
        "commit": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "src_lines": sum(p.read_bytes().count(b"\n") for p in (tree / "src" / "relupca").glob("*.py")),
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "repeats": REPEATS,
        "workloads": workloads,
        "criterion7_run_s": criterion7,
        "criterion7_run_s_total": sum(criterion7),
        "outcome_digest": digest.splitlines(),
        "tier1": {"wall_s": tier1_s, **counts,
                  "failures": [ln for ln in tier1_out.splitlines() if ln.startswith(("FAILED", "ERROR"))]},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("label", help="key of this record in the output file, e.g. parent or change")
    p.add_argument("--tree", type=Path, default=ROOT, help="source tree to measure (default: this one)")
    p.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json file to add the record to")
    args = p.parse_args(argv)
    entry = record(args.tree.resolve())
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[args.label] = entry
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
