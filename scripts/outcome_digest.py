"""Print one digest line per learning run, to compare the outcomes of two source trees.

    python3 scripts/outcome_digest.py > digest.txt

Runs relupca.run() on every benchmark instance (bench/workloads.py, imported
read-only), on all ten criterion-7 seeds, and on one depth-3 run, with BLAS on
one thread.  The depth-3 run (a random net of widths (2, 1) at d = 10, net
seed 1, in criterion 7's config with size 3, l = 1 and a terminal eps' of
0.3) is the one run here whose second scan rejects its fit and scores the loop
grid on a batch of its own.  Each
line is tab-separated: the instance; SHA-256 prefixes of the learned frame,
of the hypothesis, of (eps_hat, certified, failure_reason, rows drawn) and of
the trace; certified and eps_hat in plain text; the loop's decisions in plain
text, "k=<directions found>" then "<scanned>:<accepted index>" per iteration;
and last the seconds run() took.  Two trees had identical outcomes when the
lines agree on every field but the last:

    diff <(cut -f1-8 a.txt) <(cut -f1-8 b.txt)

A change that only moves rounding alters the hashes in their low bits but
keeps the decisions:

    diff <(cut -f1,6,8 a.txt) <(cut -f1,6,8 b.txt)
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _hypothesis_bytes(hypothesis) -> bytes:
    if hypothesis is None:
        return b"none"
    return b"".join(repr(w.shape).encode() + w.tobytes() for w in hypothesis.weights)


def digest(result, rows: int) -> list[str]:
    """Short SHA-256 prefixes of the frame, the hypothesis, the verdict and the trace."""
    verdict = repr((result.eps_hat, result.certified, result.failure_reason, rows)).encode()
    parts = (result.frame.vectors.tobytes(), _hypothesis_bytes(result.hypothesis), verdict,
             repr(result.trace).encode())
    return [hashlib.sha256(p).hexdigest()[:12] for p in parts]


def decisions(result) -> str:
    """Directions found, then each iteration's candidates scanned and accepted index."""
    steps = [f"{r.candidates_scanned}:{r.accepted_candidate}" for r in result.trace]
    return " ".join([f"k={len(result.frame)}", *steps])


def main() -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy loads
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import workloads
    from relupca import LearnConfig, make_instance

    groups = [(name, workloads.build(w)) for name, w in workloads.WORKLOADS.items() if name != "rank2-terminal"]
    # rank2-terminal is criterion 7's recipe on seeds 1 and 2; run all ten seeds once
    criterion7 = dataclasses.replace(workloads.WORKLOADS["rank2-terminal"], seeds=tuple(range(10)))
    groups.append(("criterion-7", workloads.build(criterion7)))
    # criterion 7's seed-1 conventions (oracle 101 after a 4 096-row burn-in, run seed 201) on a depth-3 net
    net, planted = make_instance({"kind": "random", "widths": [2, 1], "dim": 10, "b": 1.0, "net_seed": 1})
    config = LearnConfig(dim=10, k=2, seed=201, **dict(criterion7.learn, size=3, l=1, final_eps_prime=0.3))
    groups.append(("depth-3", [workloads.Instance("seed 1", net, planted.vectors, 101, 4096, config)]))
    for name, instances in groups:
        for inst in instances:
            result, seconds, rows = workloads.learn(inst)
            fields = [f"{name} {inst.label}", *digest(result, rows), str(result.certified),
                      repr(result.eps_hat), decisions(result), f"{seconds:.2f}"]
            print("\t".join(fields), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
