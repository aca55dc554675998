"""Command-line entry points: learning runs, verification suites, instance tooling."""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import click
import numpy as np

from .harness import SUITES, Report, make_instance, run_experiment, run_suite, spec_from_json
from .lattice import from_network, serialize_lattice
from .network import (
    BOOLEAN_MAX_BITS,
    _hypercube_points,
    boolean_compile,
    deserialize,
    evaluate,
    serialize,
)


@click.group()
def main():
    """Recover low-dimensional structure of ReLU networks from Gaussian samples."""


def _echo_fragment(frag: dict) -> bool:
    name = frag.get("name", "fragment")
    passed = bool(frag.get("passed", False))
    detail = {k: v for k, v in frag.items() if k not in ("name", "passed") and not isinstance(v, list)}
    click.echo(f"{name}: {'PASS' if passed else 'FAIL'} {json.dumps(detail, sort_keys=True, default=str)}")
    return passed


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True),
              help="Experiment spec JSON (see docs/formats.md).")
@click.option("--report", "report_path", type=click.Path(), default=None, help="Write the report JSON here.")
@click.option("--csv", "csv_path", type=click.Path(), default=None, help="Write the CSV extract here.")
@click.option("--emit-samples", "samples_path", type=click.Path(), default=None,
              help="Dump the first training batch as CSV rows: d coordinates, then y.")
def learn(config_path, report_path, csv_path, samples_path):
    """Run the full recovery pipeline from an experiment spec; a malformed spec is a usage error."""
    with open(config_path) as fh:
        text = fh.read()
    try:
        spec = spec_from_json(text)
    except ValueError as err:
        raise click.UsageError(str(err))
    spec = replace(spec, report_path=report_path or spec.report_path, csv_path=csv_path or spec.csv_path)
    report = run_experiment(spec)
    if samples_path is not None:
        from .filteredpca import gaussian_oracle

        net, _ = make_instance(spec.instance, spec.seed)
        batch = gaussian_oracle(net, spec.seed).draw(spec.learn.n_samples)
        np.savetxt(samples_path, np.column_stack([batch.x, batch.y]),
                   delimiter=",", fmt="%.17g")
    rec = report.recovery
    click.echo(f"directions found: {rec['k_found']}/{rec['k_target']}")
    if rec["chordal_to_planted"] is not None:
        click.echo(f"chordal distance to planted subspace: {rec['chordal_to_planted']:.6f}")
    click.echo(f"estimated error: {rec['eps_hat']:.6f} (certified: {rec['certified']})")
    if rec["failure_reason"]:
        click.echo(f"note: {rec['failure_reason']}")
    for frag in report.fragments:
        _echo_fragment(frag)
    sys.exit(0 if report.all_passed else 1)


@main.command()
@click.option("--suite", "suites", multiple=True, type=click.Choice(SUITES),
              help="Suites to run (default: all).")
@click.option("--dim", default=6, show_default=True)
@click.option("--trials", default=20000, show_default=True)
@click.option("--seed", default=0, show_default=True)
def verify(suites, dim, trials, seed):
    """Run the empirical verification suites on canned instances."""
    suites = suites or SUITES
    net, planted = make_instance({"kind": "abs", "dim": dim}, seed)
    ok = True
    for suite in suites:
        ok = _echo_fragment(run_suite(suite, net, planted, trials, 15, seed)) and ok
    sys.exit(0 if ok else 1)


@main.command("gen-instance")
@click.option("--kind", type=click.Choice(["random", "spike", "abs", "abs_pair", "mixed"]), required=True)
@click.option("--dim", type=int, default=None)
@click.option("--k", type=int, default=None)
@click.option("--units", type=int, default=None)
@click.option("--widths", type=str, default=None, help="Comma-separated hidden widths for kind=random.")
@click.option("--lam", type=float, default=None, help="Slope parameter for kind=spike.")
@click.option("--b", type=float, default=1.0, show_default=True)
@click.option("--net-seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def gen_instance(kind, dim, k, units, widths, lam, b, net_seed, out_path):
    """Generate a planted instance and write it as network JSON."""
    if widths is not None:
        try:
            widths = [int(w) for w in widths.split(",")]
        except ValueError:
            raise click.BadParameter(f"{widths!r} is not a comma-separated list of integers", param_hint="'--widths'")
    recipe = {"kind": kind, "net_seed": net_seed, "b": b}
    given = {"dim": dim, "k": k, "units": units, "widths": widths, "lam": lam}
    recipe.update((key, value) for key, value in given.items() if value is not None)
    try:
        net, planted = make_instance(recipe, net_seed)
    except ValueError as err:
        raise click.UsageError(str(err))
    meta = {"recipe": recipe, "planted_frame": planted.vectors.tolist()}
    with open(out_path, "wb") as fh:
        fh.write(serialize(net, meta=meta))
    click.echo(f"wrote {out_path}: input_dim={net.input_dim}, widths={net.hidden_widths}, "
               f"planted rank {len(planted)}")


@main.command("compile-boolean")
@click.option("--table", type=str, default=None,
              help="Bit string of length 2^n; index i uses the sign pattern of i's bits.")
@click.option("--random-bits", type=click.IntRange(1, BOOLEAN_MAX_BITS), default=None,
              help="Random table on this many bits.")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", required=True, type=click.Path())
def compile_boolean(table, random_bits, seed, out_path):
    """Compile a +/-1 truth table into an exact ReLU network."""
    if (table is None) == (random_bits is None):
        raise click.UsageError("give exactly one of --table or --random-bits")
    if table is not None:
        size = len(table)
        n = size.bit_length() - 1
        if size != 2**n or not 1 <= n <= BOOLEAN_MAX_BITS or not set(table) <= {"0", "1"}:
            raise click.BadParameter(f"must be a 0/1 string of length 2^n with 1 <= n <= {BOOLEAN_MAX_BITS}",
                                     param_hint="'--table'")
        values = np.array([1.0 if ch == "1" else -1.0 for ch in table])
    else:
        n = random_bits
        values = np.random.default_rng(seed).choice([-1.0, 1.0], size=2**n)
    net = boolean_compile(values)
    points = _hypercube_points(n)
    worst = float(np.max(np.abs(evaluate(net, points) - values)))
    with open(out_path, "wb") as fh:
        fh.write(serialize(net, meta={"bits": n, "table": values.tolist()}))
    click.echo(f"wrote {out_path}: {n} bits, widths={net.hidden_widths}, max deviation {worst:.3g}")


@main.command("to-lattice")
@click.option("--net", "net_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def to_lattice(net_path, out_path):
    """Convert a serialized network into its max-min (lattice) form."""
    with open(net_path, "rb") as fh:
        net, _meta = deserialize(fh.read())
    lp = from_network(net)
    with open(out_path, "wb") as fh:
        fh.write(serialize_lattice(lp))
    click.echo(f"wrote {out_path}: {lp.num_leaves} leaves, {len(lp.clauses)} clauses")


@main.command("report-summarize")
@click.argument("report_path", type=click.Path(exists=True))
def report_summarize(report_path):
    """Print the pass/fail summary of a report file; a malformed report (Report.from_json) is a usage error."""
    with open(report_path) as fh:
        text = fh.read()
    try:
        report = Report.from_json(text)
    except ValueError as err:
        raise click.UsageError(str(err))
    rec = report.recovery
    click.echo(f"run: {report.spec.get('name', '?')} (instance {rec['instance_kind']})")
    click.echo(f"directions found: {rec['k_found']}/{rec['k_target']}, "
               f"eps_hat={rec['eps_hat']:.6g}, certified={rec['certified']}")
    for it in rec["iterations"]:
        tau, lam = ("-" if v is None else format(v, ".6g") for v in (it["tau"], it["lam_value"]))
        click.echo(f"iteration {it['index']}: scanned={it['candidates_scanned']}, "
                   f"distinct={it['candidates_distinct']}, accepted={it['accepted_candidate']}, "
                   f"tau={tau}, lambda={lam}")
    for frag in report.fragments:
        _echo_fragment(frag)
    click.echo(f"all assertions passed: {report.all_passed}")
    sys.exit(0 if report.all_passed else 1)


if __name__ == "__main__":
    main()
