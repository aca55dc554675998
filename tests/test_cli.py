import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from relupca.cli import main
from relupca.filteredpca import LearnConfig
from relupca.harness import ExperimentSpec, spec_to_json
from relupca.lattice import deserialize_lattice
from relupca.network import _hypercube_points, deserialize, evaluate


@pytest.fixture
def runner():
    return CliRunner()


def write_small_spec(path):
    learn = LearnConfig(
        dim=4,
        k=1,
        size=2,
        l=0,
        b=math.sqrt(2.0),
        lam=2.0,
        eps=0.1,
        delta=0.05,
        n_samples=20_000,
        n_check=5_000,
        tau_mode="quantile",
        seed=0,
    )
    spec = ExperimentSpec(
        name="cli-smoke",
        instance={"kind": "abs", "dim": 4},
        learn=learn,
        verify=("anti_concentration",),
        trials=2,
        seed=0,
    )
    path.write_text(spec_to_json(spec))


def test_help_lists_subcommands(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for cmd in ("learn", "verify", "gen-instance", "compile-boolean", "to-lattice", "report-summarize"):
        assert cmd in result.output


def test_learn_smoke(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    write_small_spec(spec_path)
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    result = runner.invoke(
        main,
        ["learn", "--config", str(spec_path), "--report", str(report_path), "--csv", str(csv_path)],
    )
    assert result.exit_code == 0, result.output
    assert "directions found: 1/1" in result.output
    assert "certified: True" in result.output
    assert "anti_concentration: PASS" in result.output
    assert report_path.exists() and csv_path.exists()


def test_learn_emit_samples_writes_training_batch(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    write_small_spec(spec_path)
    samples_path = tmp_path / "samples.csv"
    result = runner.invoke(
        main, ["learn", "--config", str(spec_path), "--emit-samples", str(samples_path)]
    )
    assert result.exit_code == 0, result.output
    rows = np.loadtxt(samples_path, delimiter=",")
    assert rows.shape == (20_000, 5)
    from relupca.harness import make_instance

    net, _ = make_instance({"kind": "abs", "dim": 4}, 0)
    assert np.allclose(rows[:, 4], evaluate(net, rows[:, :4]), atol=1e-12)


def test_learn_budget_override_fails_cleanly(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    write_small_spec(spec_path)
    result = runner.invoke(
        main, ["learn", "--config", str(spec_path), "--budget-max-candidates", "2"]
    )
    assert result.exit_code == 1
    assert "budget" in result.output


def test_learn_rejects_unknown_spec_key(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    write_small_spec(spec_path)
    doc = json.loads(spec_path.read_text())
    doc["learn"]["mode"] = "paper-strict"
    spec_path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["learn", "--config", str(spec_path)])
    assert result.exit_code == 2
    assert "unknown learn key(s): mode" in result.output


def test_verify_single_suite(runner):
    result = runner.invoke(main, ["verify", "--suite", "anti_concentration", "--trials", "5000"])
    assert result.exit_code == 0, result.output
    assert "anti_concentration: PASS" in result.output


def test_gen_instance_round_trips(runner, tmp_path):
    out = tmp_path / "net.json"
    result = runner.invoke(
        main, ["gen-instance", "--kind", "abs", "--dim", "5", "--out", str(out)]
    )
    assert result.exit_code == 0, result.output
    assert "planted rank 1" in result.output
    net, meta = deserialize(out.read_bytes())
    assert net.input_dim == 5
    planted = np.array(meta["planted_frame"])
    assert planted.shape == (1, 5)
    assert np.linalg.norm(planted[0]) == pytest.approx(1.0, abs=1e-9)


def test_compile_boolean_xor_is_exact(runner, tmp_path):
    out = tmp_path / "xor.json"
    result = runner.invoke(main, ["compile-boolean", "--table", "0110", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "max deviation 0" in result.output
    net, meta = deserialize(out.read_bytes())
    points = _hypercube_points(2)
    want = np.array([-1.0, 1.0, 1.0, -1.0])
    assert np.array_equal(evaluate(net, points), want)
    assert meta["table"] == want.tolist()


def test_compile_boolean_rejects_bad_table(runner, tmp_path):
    out = tmp_path / "bad.json"
    result = runner.invoke(main, ["compile-boolean", "--table", "012", "--out", str(out)])
    assert result.exit_code != 0
    assert not out.exists()


def test_to_lattice_converts_generated_net(runner, tmp_path):
    net_path = tmp_path / "net.json"
    lat_path = tmp_path / "net.lattice.json"
    assert runner.invoke(
        main, ["gen-instance", "--kind", "abs", "--dim", "3", "--out", str(net_path)]
    ).exit_code == 0
    result = runner.invoke(main, ["to-lattice", "--net", str(net_path), "--out", str(lat_path)])
    assert result.exit_code == 0, result.output
    lp = deserialize_lattice(lat_path.read_bytes())
    net, _ = deserialize(net_path.read_bytes())
    rng = np.random.default_rng(0)
    x = rng.standard_normal((100, 3))
    from relupca.lattice import lattice_eval

    assert np.allclose(lattice_eval(lp, x), evaluate(net, x), atol=1e-9)


def test_report_summarize(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    write_small_spec(spec_path)
    report_path = tmp_path / "report.json"
    assert runner.invoke(
        main, ["learn", "--config", str(spec_path), "--report", str(report_path)]
    ).exit_code == 0
    result = runner.invoke(main, ["report-summarize", str(report_path)])
    assert result.exit_code == 0, result.output
    assert "all assertions passed: True" in result.output
    # corrupting a fragment flips the exit code
    doc = json.loads(report_path.read_text())
    doc["all_passed"] = False
    report_path.write_text(json.dumps(doc))
    assert runner.invoke(main, ["report-summarize", str(report_path)]).exit_code == 1
