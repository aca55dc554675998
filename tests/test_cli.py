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


def write_small_spec(path, instance=None, **learn_values):
    """The small abs spec; instance and learn_values replace its recipe and learn fields as written."""
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
    doc = json.loads(spec_to_json(spec))
    doc["learn"].update(learn_values)
    if instance is not None:
        doc["instance"] = instance
    path.write_text(json.dumps(doc))


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
    write_small_spec(spec_path, max_candidates=2)
    result = runner.invoke(main, ["learn", "--config", str(spec_path)])
    assert result.exit_code == 1
    assert "budget" in result.output
    # a budget below one is a malformed config, not a failed run
    write_small_spec(spec_path, max_candidates=0)
    result = runner.invoke(main, ["learn", "--config", str(spec_path)])
    assert result.exit_code == 2
    assert "max_candidates must be an integer of at least 1, got 0" in result.output


def test_learn_rejects_a_nonpositive_eps_prime(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    write_small_spec(spec_path, eps_prime=0)
    result = runner.invoke(main, ["learn", "--config", str(spec_path)])
    assert result.exit_code == 2
    assert "eps_prime must be a number in (0, inf), got 0" in result.output


@pytest.mark.parametrize(
    "instance, message",
    [
        ({"kind": "abs"}, "abs instance recipe field 'dim' must be an integer of at least 1, got None"),
        ({"kind": "mixed", "dim": 4, "k": 2, "units": 0},
         "mixed instance recipe field 'units' must be an integer of at least 2, got 0"),
        ({"kind": "abs", "dim": 5}, "instance dimension 5 does not match learn.dim 4"),
        ({"kind": "random", "widths": [3, True], "dim": 4},
         "random instance recipe field 'widths' must be an integer of at least 1, got True"),
        ({"kind": "mixed", "dim": 4, "k": 2, "b": True},
         "mixed instance recipe field 'b' must be a number in (0, inf), got True"),
    ],
)
def test_learn_reports_a_bad_instance_as_a_usage_error(runner, tmp_path, instance, message):
    spec_path = tmp_path / "spec.json"
    write_small_spec(spec_path, instance=instance)
    result = runner.invoke(main, ["learn", "--config", str(spec_path)])
    assert result.exit_code == 2
    assert message in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)


def test_learn_rejects_unknown_spec_key(runner, tmp_path):
    spec_path = tmp_path / "spec.json"
    write_small_spec(spec_path)
    doc = json.loads(spec_path.read_text())
    doc["learn"]["mode"] = "paper-strict"
    spec_path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["learn", "--config", str(spec_path)])
    assert result.exit_code == 2
    assert "unknown learn key(s): mode" in result.output


@pytest.mark.parametrize("key, value, message", [
    *(pytest.param("trials", t, f"trials must be an integer of at least 1, got {t!r}", id=str(t))
      for t in (0, -1, 2.5, "5", True)),
    # open() would take an integer for a file descriptor, and tuple() would split a string into characters
    pytest.param("report_path", 1, "report_path must be a string or null, got 1", id="report_path"),
    pytest.param("csv_path", 2, "csv_path must be a string or null, got 2", id="csv_path"),
    # numpy's "expected non-negative integer", after a whole scan, once reported it
    pytest.param("seed", -1, "seed must be an integer of at least 0, got -1", id="seed"),
    pytest.param("verify", "stability", "verify must be a list of suite names, got 'stability'", id="verify"),
    pytest.param("verify", [{}], "verify must be a list of suite names, got [{}]", id="verify-object"),
    pytest.param("verify", [["stability"]], "verify must be a list of suite names, got [['stability']]",
                 id="verify-list"),
])
def test_learn_reports_bad_trials_as_a_usage_error(runner, tmp_path, key, value, message):
    """A spec's trials, report_path, csv_path and verify are checked where the spec is read, before anything is
    learned."""
    spec_path, report_path = tmp_path / "spec.json", tmp_path / "report.json"
    write_small_spec(spec_path)
    doc = json.loads(spec_path.read_text())
    doc[key] = value
    spec_path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["learn", "--config", str(spec_path), "--report", str(report_path)])
    assert result.exit_code == 2
    assert message in result.output
    assert "directions found" not in result.output and not report_path.exists()


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


def test_gen_instance_random_reads_dim(runner, tmp_path):
    out = tmp_path / "net.json"
    args = ["gen-instance", "--kind", "random", "--widths", "3,2", "--out", str(out)]
    result = runner.invoke(main, [*args, "--dim", "4"])
    assert result.exit_code == 0, result.output
    net, meta = deserialize(out.read_bytes())
    assert net.input_dim == 4 and net.hidden_widths == (3, 2)
    assert meta["recipe"] == {"kind": "random", "net_seed": 0, "b": 1.0, "dim": 4, "widths": [3, 2]}
    result = runner.invoke(main, args)  # no --dim
    assert result.exit_code == 2
    assert "random instance recipe field 'dim' must be an integer" in result.output


@pytest.mark.parametrize("widths, message", [
    ("3,x", "Invalid value for '--widths': '3,x' is not a comma-separated list of integers"),
    ("3,0", "random instance recipe field 'widths'"),
])
def test_gen_instance_reports_bad_widths_as_a_usage_error(runner, tmp_path, widths, message):
    out = tmp_path / "net.json"
    result = runner.invoke(main, ["gen-instance", "--kind", "random", "--dim", "4", "--widths", widths,
                                  "--out", str(out)])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)  # not a traceback's exit 1
    assert message in result.output
    assert not out.exists()


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


@pytest.mark.parametrize("args, message", [
    (["--random-bits", "7"], "Invalid value for '--random-bits': 7 is not in the range 1<=x<=6"),
    (["--random-bits", "0"], "Invalid value for '--random-bits': 0 is not in the range 1<=x<=6"),
    (["--random-bits", "-1"], "Invalid value for '--random-bits': -1 is not in the range 1<=x<=6"),
    (["--table", "0"], "Invalid value for '--table': must be a 0/1 string of length 2^n with 1 <= n <= 6"),
    (["--table", "01" * 64], "Invalid value for '--table': must be a 0/1 string of length 2^n with 1 <= n <= 6"),
    (["--random-bits", "2", "--seed", "-1"], "Invalid value for '--seed': -1 is not in the range x>=0"),
])
def test_compile_boolean_reports_bad_sizes_as_usage_errors(runner, tmp_path, args, message):
    out = tmp_path / "bad.json"
    result = runner.invoke(main, ["compile-boolean", *args, "--out", str(out)])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)  # not a traceback's exit 1
    assert message in result.output
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


def _net_file(runner, tmp_path, content):
    """A network file for to-lattice: content written as is, or (a list) gen-instance's arguments."""
    path = tmp_path / "net.json"
    if isinstance(content, str):
        path.write_text(content)
    else:
        assert runner.invoke(main, ["gen-instance", *content, "--out", str(path)]).exit_code == 0
    return path


@pytest.mark.parametrize("args, message", [
    pytest.param(["to-lattice", '{"layers": 5}'], "missing network document key(s): input_dim, depth",
                 id="to-lattice-missing-keys"),
    pytest.param(["to-lattice", "not json"], "network document parse error at line 1 column 1: Expecting value",
                 id="to-lattice-not-json"),
    pytest.param(["to-lattice", ["--kind", "random", "--dim", "3", "--widths", "8,8"]],
                 "network size 16 exceeds the cap of 12 hidden units", id="to-lattice-over-the-cap"),
    pytest.param(["verify", "--dim", "0"], "Invalid value for '--dim': 0 is not in the range x>=1", id="verify-dim"),
    pytest.param(["verify", "--suite", "stability", "--trials", "0"],
                 "Invalid value for '--trials': 0 is not in the range x>=1", id="verify-trials"),
    pytest.param(["verify", "--seed", "-1"], "Invalid value for '--seed': -1 is not in the range x>=0",
                 id="verify-seed"),
])
def test_to_lattice_and_verify_report_bad_input_as_a_usage_error(runner, tmp_path, args, message):
    out = tmp_path / "net.lattice.json"
    if args[0] == "to-lattice":
        args = ["to-lattice", "--net", str(_net_file(runner, tmp_path, args[1])), "--out", str(out)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)  # not a traceback's exit 1
    assert message in result.output
    assert not out.exists()


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
    it = json.loads(report_path.read_text())["recovery"]["iterations"][0]
    assert (
        f"iteration 0: scanned={it['candidates_scanned']}, distinct={it['candidates_distinct']}, "
        f"accepted={it['accepted_candidate']}, tau={it['tau']:.6g}, lambda={it['lam_value']:.6g}"
    ) in result.output.splitlines()
    term = json.loads(report_path.read_text())["recovery"]["terminal"]
    assert (
        f"terminal: features={term['features']}, units={term['units']}, returned=basis, "
        f"select_err={term['select_err']:.6g}, held-out basis=-, refined=-"
    ) in result.output.splitlines()
    # corrupting a fragment flips the exit code
    doc = json.loads(report_path.read_text())
    doc["all_passed"] = False
    report_path.write_text(json.dumps(doc))
    assert runner.invoke(main, ["report-summarize", str(report_path)]).exit_code == 1


def test_report_summarize_reads_a_budget_failure(runner, tmp_path):
    """A budget failure's report has eps_hat Infinity and a null tau where the fit's dictionary exceeded the budget,
    so that the scan scored nothing: report-summarize prints it with exit 1, as an uncertified run, not 2."""
    spec_path, report_path = tmp_path / "spec.json", tmp_path / "report.json"
    write_small_spec(spec_path, k=2, eps=1e-7)
    assert runner.invoke(main, ["learn", "--config", str(spec_path), "--report", str(report_path)]).exit_code == 1
    assert '"eps_hat": Infinity' in report_path.read_text()
    result = runner.invoke(main, ["report-summarize", str(report_path)])
    assert result.exit_code == 1, result.output
    assert "iteration 1: scanned=0, distinct=0, accepted=None, tau=-, lambda=-" in result.output.splitlines()
    assert "directions found: 1/2, eps_hat=inf, certified=False" in result.output.splitlines()


_TERMINAL = {"features": 0, "rows": 256, "select_err": 1.0, "units": 0, "returned": "basis",
             "basis_heldout_err": None, "refined_heldout_err": None}
_RECOVERY = {"instance_kind": "abs", "k_found": 0, "k_target": 1, "eps_hat": 0.5, "certified": False, "iterations": [],
             "terminal": _TERMINAL}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"spec": {}}, "missing report key(s): all_passed, fingerprint, fragments, recovery, timings"),
        ({"spec": {}, "fingerprint": {}, "recovery": {}, "fragments": [], "timings": {}, "all_passed": True,
          "passed": True}, "unknown report key(s): passed"),
        ([], "report must be a JSON object"),
        ({"spec": {}, "fingerprint": {}, "recovery": [], "fragments": [], "timings": {}, "all_passed": True},
         "recovery must be a JSON object"),
        ({"spec": {}, "fingerprint": {}, "recovery": {}, "fragments": [], "timings": {}, "all_passed": True},
         "missing recovery key(s): instance_kind, k_found, k_target, eps_hat, certified, iterations"),
        ({"spec": {}, "fingerprint": {}, "recovery": {"instance_kind": "abs", "k_found": 0, "k_target": 1,
          "eps_hat": True, "certified": False, "iterations": [], "terminal": _TERMINAL}, "fragments": [],
          "timings": {}, "all_passed": True}, "recovery key eps_hat must be a number above -inf, got True"),
        ({"spec": {}, "fingerprint": {}, "recovery": {"instance_kind": "abs", "k_found": 0, "k_target": 1,
          "eps_hat": 0.5, "certified": False, "iterations": [{"index": 0, "tau": None, "candidates_scanned": 0,
          "accepted_candidate": None, "lam_value": None, "candidates_distinct": 0}], "terminal": _TERMINAL},
          "fragments": [], "timings": {}, "all_passed": True}, "missing recovery iteration 0 key(s): nearness"),
        *(({"spec": spec, "fingerprint": {}, "recovery": _RECOVERY, "fragments": fragments, "timings": {},
            "all_passed": True}, message) for spec, fragments, message in (
            ([], [], "spec must be a JSON object"),
            ({}, [1], "report fragment 0 must be a JSON object"),
            ({}, 5, "report key fragments must be a list, got 5"),
        )),
        *(({"spec": {}, "fingerprint": {}, "recovery": dict(_RECOVERY, terminal=terminal), "fragments": [],
            "timings": {}, "all_passed": True}, message) for terminal, message in (
            ([], "recovery terminal must be a JSON object"),
            ({"features": 0}, "missing recovery terminal key(s): rows, select_err, units, returned, "
                              "basis_heldout_err, refined_heldout_err"),
            (dict(_TERMINAL, refined_heldout_err="0.1"),
             "recovery terminal key refined_heldout_err must be a number above -inf, got '0.1'"),
        )),
    ],
)
def test_report_summarize_reports_a_malformed_report_as_a_usage_error(runner, tmp_path, doc, message):
    report_path = tmp_path / "report.json"
    report_path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["report-summarize", str(report_path)])
    assert result.exit_code == 2
    assert message in result.output
    assert result.exception is None or isinstance(result.exception, SystemExit)
