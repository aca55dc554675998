"""Print one digest line per learning run, to compare the outcomes of two source trees.

    python3 scripts/outcome_digest.py > digest.txt

Runs relupca.run() on every benchmark instance (bench/workloads.py, imported
read-only) and on all ten criterion-7 seeds, with BLAS on one thread.  Each
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

    groups = [(name, w) for name, w in workloads.WORKLOADS.items() if name != "rank2-terminal"]
    # rank2-terminal is criterion 7's recipe on seeds 1 and 2; run all ten seeds once
    criterion7 = dataclasses.replace(workloads.WORKLOADS["rank2-terminal"], seeds=tuple(range(10)))
    groups.append(("criterion-7", criterion7))
    for name, workload in groups:
        for inst in workloads.build(workload):
            result, seconds, rows = workloads.learn(inst)
            fields = [f"{name} {inst.label}", *digest(result, rows), str(result.certified),
                      repr(result.eps_hat), decisions(result), f"{seconds:.2f}"]
            print("\t".join(fields), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
