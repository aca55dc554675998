"""Small end-to-end smoke run: plant a direction, learn it back, print the report.

Builds a d=4 instance F(x) = |<v, x>|, runs the recovery loop at modest sample
sizes, executes all four verification suites, and writes the
report JSON plus a CSV extract next to the working directory (or --out-dir).

Usage: python3 scripts/run_smoke.py [--out-dir /tmp/smoke]
"""

import argparse
import math
import pathlib

from relupca import LearnConfig
from relupca.harness import ExperimentSpec, run_experiment


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", default=".", help="where report.json / report.csv go")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    learn = LearnConfig(
        dim=4, k=1, size=2, l=0, b=math.sqrt(2.0), lam=2.0, eps=0.1, delta=0.05,
        n_samples=20_000, n_check=5_000, tau_mode="quantile", seed=args.seed,
    )
    spec = ExperimentSpec(
        name="smoke",
        instance={"kind": "abs", "dim": 4},
        learn=learn,
        verify=("anti_concentration", "stability", "matrix_concentration", "lipschitz_key"),
        trials=3,
        seed=args.seed,
        report_path=str(out / "report.json"),
        csv_path=str(out / "report.csv"),
    )
    report = run_experiment(spec)
    rec = report.recovery
    print(f"directions found: {rec['k_found']}/{spec.learn.k}")
    print(f"chordal distance to planted: {rec['chordal_to_planted']:.4f}")
    print(f"eps_hat: {rec['eps_hat']:.4f} (|F| ~ {rec['norm_f']:.4f})")
    print(f"certified: {rec['certified']}")
    for frag in report.fragments:
        print(f"suite {frag['name']}: passed={frag.get('passed')}")
    print(f"all assertions passed: {report.all_passed}")
    print(f"wrote {spec.report_path} and {spec.csv_path}")


if __name__ == "__main__":
    main()
