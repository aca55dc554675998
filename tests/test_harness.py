import json
import math

import numpy as np
import pytest

from relupca.filteredpca import _CHUNK_FLOATS, LearnConfig, _masked_moment
from relupca.harness import (
    ExperimentSpec,
    _filtered_moment_stream,
    Report,
    make_instance,
    report_equal_modulo_timing,
    run_experiment,
    run_suite,
    spec_from_json,
    spec_to_json,
    verify_anti_concentration,
    verify_lipschitz_key,
    verify_matrix_concentration,
    verify_stability,
    write_csv,
)
from relupca.lattice import from_network, perturb_leaves
from relupca.network import ReluNetwork, evaluate, operator_norm
from relupca.subspace import Frame, chordal_distance


def abs_net(v):
    v = np.asarray(v, dtype=float)
    return ReluNetwork((np.vstack([v, -v]), np.array([[1.0, 1.0]])))


# ---------------------------------------------------------------- tail mass

def test_tail_mass_of_coordinate_function():
    frag = verify_anti_concentration(
        lambda x: x[:, 0], s=1.0, m=1, lam=1.0, sigma2=1.0, trials=1_000_000, seed=0
    )
    # Pr[|g| > 1] = erfc(1/sqrt(2)) = 0.3173105078629141 for standard Gaussian g
    assert frag["estimate"] == pytest.approx(0.3173105078629141, abs=0.01)
    assert frag["bound"] == pytest.approx(math.exp(-3.0), rel=1e-12)
    assert frag["ratio"] == pytest.approx(0.3173 / math.exp(-3.0), rel=0.05)
    assert frag["passed"]


def test_tail_mass_can_fail_with_vacuous_constant():
    frag = verify_anti_concentration(
        lambda x: x[:, 0], s=1.0, m=1, lam=1.0, sigma2=1.0, trials=10_000, seed=0, c_ac=100.0
    )
    assert not frag["passed"]


def test_tail_mass_validates_arguments():
    with pytest.raises(ValueError):
        verify_anti_concentration(lambda x: x[:, 0], s=1.0, m=0, lam=1.0, sigma2=1.0, trials=10)
    with pytest.raises(ValueError):
        verify_anti_concentration(lambda x: x[:, 0], s=1.0, m=1, lam=0.0, sigma2=1.0, trials=10)


# ---------------------------------------------------------------- stability

def test_stability_for_perturbed_pair(rng):
    net = abs_net([0.6, 0.8, 0.0])
    base = from_network(net)
    near = perturb_leaves(base, 0.01, seed=1)
    frag = verify_stability(near, base, base, tau=1.0, trials=50_000, seed=0)
    assert frag["eta"] == pytest.approx(0.01, rel=1e-9)
    assert frag["bound"] == pytest.approx(9.0 * 0.01 * frag["m"] ** 2 / 1.0)
    assert frag["passed"]
    # the disagreement event needs |g - f| > tau, impossible when g == f
    same = verify_stability(base, base, base, tau=1.0, trials=1_000, seed=0)
    assert same["estimate"] == 0.0
    assert same["passed"]
    # a callable that returns a column holds one value per row, as the network does
    column = lambda x: evaluate(net, x)[:, None]  # noqa: E731
    frags = [verify_stability(near, base, f, tau=1.0, trials=2_000, seed=0) for f in (net, column)]
    assert frags[0]["estimate"] == frags[1]["estimate"]


def test_stability_requires_aligned_structures(rng):
    a = from_network(abs_net([1.0, 0.0]))  # two hidden units
    b = from_network(
        ReluNetwork((np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), np.array([[1.0, 1.0, 1.0]])))
    )  # three hidden units: leaf counts differ
    from relupca.errors import StructureMismatch

    with pytest.raises(StructureMismatch):
        verify_stability(a, b, a, tau=1.0, trials=10)


def test_stability_suite_that_cannot_run_is_not_passed():
    net, planted = make_instance({"kind": "mixed", "dim": 6, "k": 2, "units": 14}, 0)
    assert net.size == 14  # above from_network's cap of 12 hidden units
    frag = run_suite("stability", net, planted, trials=1_000, concentration_trials=1, seed=0)
    assert frag["name"] == "stability"
    assert frag["passed"] is False
    assert "exceeds the cap of 12 hidden units" in frag["skipped"]
    small, planted = make_instance({"kind": "abs", "dim": 4}, 0)
    frag = run_suite("stability", small, planted, trials=1_000, concentration_trials=1, seed=0)
    assert frag["passed"] and "skipped" not in frag


# ---------------------------------------------------------------- concentration

def test_moment_error_shrinks_at_root_n_rate():
    frag = verify_matrix_concentration(
        lambda x: np.ones(x.shape[0]), d=6, n_values=[500, 5_000], trials=10, seed=0
    )
    assert frag["passed"]
    assert frag["slope"] == pytest.approx(-0.5, abs=0.15)
    assert frag["median_errors"][0] > frag["median_errors"][1]


def test_moment_error_zero_filter_degenerate_case():
    frag = verify_matrix_concentration(
        lambda x: np.zeros(x.shape[0]), d=4, n_values=[100, 1_000], trials=3, seed=0
    )
    assert frag["passed"]
    assert frag["slope"] is None
    assert frag["median_errors"] == [0.0, 0.0]


def test_filtered_moment_stream_reads_one_stream_in_the_scans_chunks():
    """The check draws n rows in the scan's chunks (_CHUNK_FLOATS // d rows) and sums their moments: the rows are
    those of one draw of all n, so the sum equals _masked_moment of that draw to 1e-12 relative."""
    d, chunk = 6, _CHUNK_FLOATS // 6
    n, sizes = 3 * chunk + 17, []

    def keep(x):
        sizes.append(len(x))
        return np.abs(x[:, 0]) > 1.0

    got = _filtered_moment_stream(keep, d, n, np.random.default_rng(4))
    assert sizes == [chunk, chunk, chunk, 17]
    x = np.random.default_rng(4).standard_normal((n, d))
    want = _masked_moment(x[np.abs(x[:, 0]) > 1.0], np.eye(d), n)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_moment_filter_must_return_an_indicator():
    with pytest.raises(ValueError, match="filter_fn"):
        verify_matrix_concentration(
            lambda x: np.full(x.shape[0], 0.5), d=4, n_values=[100], trials=1, seed=0
        )
    for d in (0, 2.5, -1, True):  # 0, 2.5 and -1 once raised ZeroDivisionError, TypeError, numpy's error
        with pytest.raises(ValueError, match="^d must be"):
            verify_matrix_concentration(lambda x: np.ones(x.shape[0]), d=d, n_values=[100], trials=1)


# ---------------------------------------------------------------- slab search

def test_lipschitz_gap_zero_when_frame_covers_truth():
    v = np.array([1.0, 0.0, 0.0, 0.0])
    net = abs_net(v)
    frag = verify_lipschitz_key(net, Frame.from_span(v[None, :]), trials=20_000, seed=0)
    assert frag["passed"]
    assert frag["max_gap"] == pytest.approx(0.0, abs=1e-12)
    assert frag["slab_dim"] == 0


def test_lipschitz_bound_on_empty_frame():
    v = np.array([0.6, 0.8, 0.0, 0.0])
    net = abs_net(v)
    frag = verify_lipschitz_key(net, Frame.empty(4), trials=20_000, seed=0)
    # slab caps the unexplained component at unit norm, so the gap stays
    # below the product of layer norms (2 for this network)
    assert frag["passed"]
    assert frag["slab_dim"] == 1
    assert frag["max_gap"] <= frag["lipschitz_upper"] + 1e-9


# ---------------------------------------------------------------- instances

def test_make_instance_abs_pair_is_orthogonal():
    net, frame = make_instance({"kind": "abs_pair", "dim": 6}, 0)
    assert net.input_dim == 6
    assert len(frame) == 2
    assert abs(frame.vectors[0] @ frame.vectors[1]) < 1e-9


def test_make_instance_mixed_is_well_conditioned():
    for seed in range(5):
        net, frame = make_instance(
            {"kind": "mixed", "dim": 8, "k": 2, "units": 2, "b": 1.0}, seed
        )
        assert operator_norm(net.weights[0]) == pytest.approx(1.0, abs=1e-9)
        assert len(frame) == 2
        signs = np.sign(net.weights[1][0])
        assert set(signs) == {-1.0, 1.0}  # genuinely mixed output signs
        sv = np.linalg.svd(net.weights[0], compute_uv=False)
        assert sv[1] >= 0.4 * sv[0]


def test_make_instance_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_instance({"kind": "nope"}, 0)


@pytest.mark.parametrize(
    "recipe, field",
    [
        ({"kind": "abs"}, "'dim'"),
        ({"kind": "abs", "dim": 0}, "'dim'"),
        ({"kind": "abs", "dim": 4, "net_seed": -1}, "'net_seed'"),
        ({"kind": "abs_pair", "dim": 1}, "'dim'"),
        ({"kind": "mixed", "dim": 4, "k": 2, "units": 0}, "'units'"),
        ({"kind": "mixed", "dim": 4, "k": 5}, "'k'"),
        ({"kind": "mixed", "dim": 4, "k": 2, "b": 0.0}, "'b'"),
        ({"kind": "random", "widths": [3], "input_dim": 4}, "'dim'"),
        ({"kind": "random", "widths": "3,2", "dim": 4}, "'widths'"),
        ({"kind": "spike", "lam": "2"}, "'lam'"),
        ({"dim": 4}, "'kind'"),
    ],
)
def test_make_instance_names_the_bad_recipe_field(recipe, field):
    with pytest.raises(ValueError, match=field):
        make_instance(recipe, 0)


# ---------------------------------------------------------------- specs + reports

def small_spec(tmp_path=None, **overrides):
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
    kw = dict(
        name="smoke",
        instance={"kind": "abs", "dim": 4},
        learn=learn,
        verify=("anti_concentration", "stability", "matrix_concentration", "lipschitz_key"),
        trials=3,
        seed=0,
    )
    kw.update(overrides)
    return ExperimentSpec(**kw)


def test_spec_json_round_trip():
    spec = small_spec()
    again = spec_from_json(spec_to_json(spec))
    assert again == spec


def test_spec_validates_suites_and_recipe():
    with pytest.raises(ValueError):
        small_spec(verify=("unknown_suite",))
    with pytest.raises(ValueError):
        small_spec(instance={"dim": 4})


def test_spec_from_json_names_unknown_keys():
    doc = json.loads(spec_to_json(small_spec()))
    doc["learn"]["tau_mod"] = "quantile"
    with pytest.raises(ValueError, match="tau_mod"):
        spec_from_json(json.dumps(doc))
    doc = json.loads(spec_to_json(small_spec()))
    doc["trails"] = 3
    with pytest.raises(ValueError, match="trails"):
        spec_from_json(json.dumps(doc))
    # specs that still carry the removed mode / nu0 / xi knobs are refused by name
    doc = json.loads(spec_to_json(small_spec()))
    doc["learn"].update(mode="practical", nu0=None, xi=None)
    with pytest.raises(ValueError, match="mode, nu0, xi"):
        spec_from_json(json.dumps(doc))
    # and so are the subsampling rate and the knobs now fixed as constants
    doc = json.loads(spec_to_json(small_spec()))
    doc["learn"].update(c=2.0, acc_fraction=0.25, num_leaves=2, tau_quantile=0.95, subsample=None)
    with pytest.raises(ValueError, match="acc_fraction, c, num_leaves, subsample, tau_quantile"):
        spec_from_json(json.dumps(doc))


def test_spec_from_json_rejects_non_integer_seeds():
    for where in ("spec", "learn"):
        doc = json.loads(spec_to_json(small_spec()))
        (doc if where == "spec" else doc["learn"])["seed"] = "7"
        with pytest.raises(ValueError, match="seed"):
            spec_from_json(json.dumps(doc))


def test_csv_writer_uses_17_significant_digits(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(path, ["section", "key", "value"], [("a", "third", 1.0 / 3.0)])
    lines = path.read_text().splitlines()
    assert lines[0] == "section,key,value"
    assert lines[1] == "a,third,0.33333333333333331"


def test_run_experiment_end_to_end(tmp_path):
    report_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    spec = small_spec(report_path=str(report_path), csv_path=str(csv_path))
    report = run_experiment(spec)
    assert report.all_passed
    assert report.recovery["certified"]
    assert report.recovery["k_found"] == 1
    assert report.recovery["chordal_to_planted"] < 0.1
    assert {f["name"] for f in report.fragments} == {
        "anti_concentration",
        "stability",
        "matrix_concentration",
        "lipschitz_key",
    }
    # the report holds each effective value of the learn loop once: the configured
    # ones under spec.learn, the method's constants and derived values under constants
    constants = report.recovery["constants"]
    assert set(constants) == {"c", "acc_fraction", "tau_quantile", "tau_formula", "final_eps_prime",
                              "lambda_acc_calibrated", "lambda_acc_effective"}
    learn = report.spec["learn"]  # the keys constants no longer copies (lambda_acc as lambda_acc_configured)
    removed = {"candidate_mode": "network", "tau_mode": "quantile", "lambda_acc": None, "eps": 0.1,
               "delta": 0.05, "eps_prime": 0.5, "n_samples": 20_000, "n_check": 5_000,
               "final_select_samples": 256, "max_candidates": 10_000_000, "seed": 0}
    assert {key: learn[key] for key in removed} == removed
    assert constants["lambda_acc_effective"] == constants["lambda_acc_calibrated"]
    assert constants["final_eps_prime"] == spec.learn.default_final_eps_prime()
    # artifacts exist and the JSON body round-trips
    text = report_path.read_text()
    assert report_equal_modulo_timing(text, report.to_json())
    back = Report.from_json(text)
    assert back.recovery == report.recovery
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "section,key,value"
    assert len(lines) > 10
    # the terminal fit explains itself: the rays it fitted (the hypothesis's hidden units), the rows it was fitted
    # on, and its error there
    terminal = report.recovery["terminal"]
    assert set(terminal) == {"features", "rows", "select_err"}
    assert terminal["features"] == 2 and terminal["rows"] == 256  # a one-vector frame: the rays +v and -v
    assert isinstance(terminal["select_err"], float) and terminal["select_err"] >= 0
    assert {"terminal,features,2", "terminal,rows,256",
            f"terminal,select_err,{terminal['select_err']:.17g}"} <= set(lines)
    # each iteration counts the moments its scan formed, at most one per candidate scanned
    for i, it in enumerate(report.recovery["iterations"]):
        assert 1 <= it["candidates_distinct"] <= it["candidates_scanned"]
        assert f"iteration,candidates_distinct[{i}],{it['candidates_distinct']}" in lines


def test_reports_byte_identical_modulo_timing(tmp_path):
    a = run_experiment(small_spec())
    b = run_experiment(small_spec())
    assert report_equal_modulo_timing(a.to_json(), b.to_json())
    # and actually different somewhere: timings are wall-clock
    assert a.timings != b.timings or a.to_json() == b.to_json()


def test_report_inequality_detected():
    a = run_experiment(small_spec())
    doc = json.loads(a.to_json())
    doc["recovery"]["eps_hat"] = 123.0
    assert not report_equal_modulo_timing(a.to_json(), json.dumps(doc))
