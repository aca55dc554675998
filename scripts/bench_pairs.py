"""Time one workload on a parent tree and on this tree in alternating pairs; add them to a BENCH_<n>.json file.

    python3 scripts/bench_pairs.py --parent ../parent-checkout --workload rank2-terminal \\
        --seed 7 --pairs 10 --out BENCH_2.json

Each pair runs ``bench/run.py --trace 0`` once on each tree, with the parent
first in even pairs and this tree first in odd ones, and the benchmark's own
run length.  For every end-to-end metric the file gets each side's runs in
pair order, their median and quartiles, the number of pairs the change won
(ties count for neither side), the change's median relative to the parent's,
and whether that ratio is within the metric's BENCHMARK.json bound (worse by
at most the bound).  It also gets each run's ``correct`` and ``failed``, and
one summary line per metric is printed.  The runs go under the key
``pairs_<workload>``, so one file holds the pairs of several workloads.
Every child runs with BLAS on one thread, as in scripts/bench_record.py.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
from pathlib import Path

from bench_record import ROOT, _bench


def _side(runs: list[dict], metric: str) -> dict:
    values = [r["metrics"][metric]["value"] for r in runs]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def _relative(parent: float, change: float) -> float:
    """The change's median over the parent's; 1.0 when they are equal, inf over a parent of 0."""
    if change == parent:
        return 1.0
    return change / parent if parent else math.inf


def _within_bound(relative: float, better: str, bound: float) -> bool:
    """Whether a median ratio is worse than the parent's by no more than bound."""
    return relative <= 1.0 + bound if better == "lower" else relative >= 1.0 - bound


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="the parent commit's source tree")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True, help="benchmark seed, one not used while developing")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json file to add the pairs to")
    args = p.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            runs[side].append(_bench(trees[side], args.workload, spec["run_seconds"], 0, args.seed))
    metrics = {}
    for m in spec["end_to_end"]:
        name, sign = m["name"], (1 if m["better"] == "lower" else -1)
        parent, change = _side(runs["parent"], name), _side(runs["change"], name)
        wins = sum(sign * (c - q) < 0 for q, c in zip(parent["runs"], change["runs"]))
        relative = _relative(parent["median"], change["median"])
        ok = _within_bound(relative, m["better"], m["bound"])
        metrics[name] = {"unit": m["unit"], "parent": parent, "change": change, "change_wins": wins,
                         "relative_median": relative, "bound": m["bound"], "within_bound": ok}
        print(f"{args.workload} {name}: parent {parent['median']:.4g} -> change {change['median']:.4g} "
              f"{m['unit']} ({relative - 1.0:+.1%}, bound {m['bound']:.0%} {m['better']}-is-better: "
              f"{'within' if ok else 'OUTSIDE'}); change won {wins}/{args.pairs}")
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc[f"pairs_{args.workload}"] = {
        "workload": args.workload, "seed": args.seed, "pairs": args.pairs, "trace": 0,
        "order": "parent first in even pairs, change first in odd pairs",
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
        "correct": {side: [r["correct"] for r in rs] for side, rs in runs.items()},
        "metrics": metrics,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    bad = {side: sum(not r["correct"] or r["failed"] > 0 for r in rs) for side, rs in runs.items()}
    print(f"{args.workload} runs not correct or with failed operations: "
          f"parent {bad['parent']}/{args.pairs}, change {bad['change']}/{args.pairs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
