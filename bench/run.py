"""Benchmark of relupca's learner: learning time, samples and accuracy per workload.

    python3 bench/run.py --workload rank2-terminal --seed 0 --seconds 20 --trace 0

Runs whole rounds of the workload's operations (one ``run()`` per planted
instance) until the next round would pass ``--seconds``, checks every output
with bench/checks.py, and prints one JSON object as the last line of stdout:
the end-to-end metrics with ``--trace 0``, the per-layer metrics from a
traced run with ``--trace 1``.  Per-operation lines go to stderr; the result
and, when traced, the spans are written under .bench_out/.  BLAS runs on one
thread.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

_T0 = time.perf_counter()

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
HOLDOUT_ROWS = 50_000


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _setup(name: str):
    """Import the package, build the instances, warm up; the set-up being timed."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    workload = workloads.WORKLOADS[name]
    instances = workloads.build(workload)
    workloads.warm_up(workload)
    return workload, instances


def _setup_again(args) -> float:
    """One more complete set-up in a fresh interpreter; returns its seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def _units(kind: str) -> dict[str, str]:
    """Metric name -> unit, in BENCHMARK.json's order, for "end_to_end" or "per_layer"."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _holdout(workload, index: int, seed: int):
    """The check batch for the workload's index-th instance; built per check, then dropped."""
    import numpy as np

    rng = np.random.default_rng([seed, index])
    return rng.standard_normal((HOLDOUT_ROWS, workload.dim))


def _layer_metrics(tracer, results, event_cost) -> dict:
    t, s, n, c = tracer.total, tracer.self_time, tracer.calls, tracer.counts
    scanned = sum(rec.candidates_scanned for r in results for rec in r.trace)
    pulled = c["loop_pulled"]
    terminal = t["filteredpca.terminal"]
    cands = c["terminal_pulled"]
    selector = t["lattice.selector_eval"]
    steps = c["loop_pulled"] + c["terminal_pulled"] + c["grid_points"]
    wrapped = sum(n.values()) - steps
    return {
        "filteredpca.loop_s": t["filteredpca.run"] - terminal,
        "filteredpca.loop_self_s": s["filteredpca.run"],
        "filteredpca.loop_candidates_scanned": scanned,
        "filteredpca.loop_candidates_pulled": pulled,
        "filteredpca.loop_useful_ratio": scanned / pulled if pulled else 0.0,
        "filteredpca.terminal_s": terminal,
        "filteredpca.terminal_self_s": s["filteredpca.terminal"],
        "filteredpca.terminal_candidates": cands,
        "filteredpca.terminal_candidates_per_s": cands / terminal if terminal else 0.0,
        "filteredpca.terminal_scan_ratio": cands / c["terminal_bound"] if c["terminal_bound"] else 0.0,
        "filteredpca.playoff_runs": c["terminal_draws"] - n["filteredpca.terminal"],
        "filteredpca.check_s": t["filteredpca.check"],
        "oracle.draw_s": t["oracle.draw"],
        "oracle.rows": c["oracle_rows"],
        "subspace.top_eig_s": t["subspace.top_eig"],
        "subspace.top_eig_calls": n["subspace.top_eig"],
        "subspace.top_eig_unconverged": c["top_eig_unconverged"],
        "subspace.grid_s": t["subspace.grid"],
        "subspace.grid_points": c["grid_points"],
        "enumeration.candidates_s": s["enumeration.candidates"],
        "network.evaluate_s": t["network.evaluate"],
        "network.evaluate_rows": c["evaluate_rows"],
        "lattice.selector_eval_s": selector,
        "lattice.selector_rows_per_s": c["selector_rows"] / selector if selector else 0.0,
        "trace.overhead_s": wrapped * event_cost[0] + steps * event_cost[1],
    }


def main(argv=None) -> int:
    args = _parse(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    try:
        workload, instances = _setup(args.workload)
    except ImportError as err:
        print(f"bench: cannot import the package from {ROOT / 'src'}: {err}", file=sys.stderr)
        return 2
    except KeyError:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup_times = [time.perf_counter() - _T0]
    if args.setup_only:
        print(setup_times[0])
        return 0
    setup_times += [_setup_again(args) for _ in range(SETUP_REPEATS - 1)]

    import checks
    import tracing
    import workloads

    tracer = tracing.Tracer() if args.trace else None
    event_cost = tracing.per_event_cost() if tracer is not None else None
    rounds, layer_rounds = [], []
    attempted = failed = 0
    correct = True
    timed_start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        round_wall, rows, chordals, fits, results = 0.0, 0, [], [], []
        if tracer is not None:
            tracer.reset()
        with tracing.instrument(tracer) if tracer is not None else contextlib.nullcontext():
            for i, inst in enumerate(instances):
                attempted += 1
                if tracer is not None:
                    tracer.op = f"{len(rounds)}:{inst.label}"
                try:
                    result, seconds, drawn = workloads.learn(inst, tracer)
                except Exception as err:  # an operation that raises counts as failed
                    failed += 1
                    traceback.print_exc()
                    print(f"{args.workload} {inst.label}: FAILED, raised {err!r}", file=sys.stderr)
                    continue
                round_wall += seconds
                rows += drawn
                results.append(result)
                v = checks.judge(result, inst.planted, inst.net.weights, inst.config.eps,
                                 inst.config.n_check, _holdout(workload, i, args.seed), workload.fit_bar)
                chordals.append(v.chordal)
                fits.append(v.fit_err)
                failed += v.fault is not None
                correct &= v.fault is not None or v.wrong is None
                status = f"FAILED ({v.fault})" if v.fault else (f"WRONG ({v.wrong})" if v.wrong else "ok")
                print(f"{args.workload} {inst.label}: {seconds:.2f}s rows={drawn} chordal={v.chordal:.4f} "
                      f"fit_err={v.fit_err:.4f} certified={result.certified} "
                      f"reason={result.failure_reason!r} {status}", file=sys.stderr)
        rounds.append({"wall_s": round_wall, "samples": rows,
                       "subspace_err": statistics.fmean(chordals) if chordals else float("inf"),
                       "fit_err": statistics.fmean(fits) if fits else float("inf")})
        if tracer is not None:
            layer_rounds.append(_layer_metrics(tracer, results, event_cost))
        now = time.perf_counter()
        if (now - timed_start) + (now - round_start) > args.seconds:
            break

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "samples": statistics.median_low(r["samples"] for r in rounds),
            "subspace_err": statistics.median(r["subspace_err"] for r in rounds),
            "fit_err": statistics.median(r["fit_err"] for r in rounds),
        }
        units = _units("end_to_end")
    else:
        units = _units("per_layer")
        values = {k: statistics.median(r[k] for r in layer_rounds) for k in units}
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    out = {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(out, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"trace-{stem}.json").write_text(json.dumps(tracer.spans) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
