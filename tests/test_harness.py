import json
import math

import numpy as np
import pytest

from relupca.enumeration import enumerate_kickers, enumerate_networks
from relupca.filteredpca import _CHUNK_FLOATS, GaussianOracle, LearnConfig, _masked_moment
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
from relupca.lattice import LatticePolynomial, OrderType, SelectorKicker, from_network, perturb_leaves
from relupca.network import Architecture, ReluNetwork, evaluate, operator_norm, random_network, spike_network
from relupca.subspace import (
    Frame,
    approx_top_svd,
    chordal_distance,
    epsilon_net_ball,
    epsilon_net_bound,
    epsilon_net_matrices,
    epsilon_net_matrix_blocks,
)


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
    for s in (math.nan, -0.5):  # NaN once ran and reported passed: False
        with pytest.raises(ValueError, match="^s must be"):
            verify_anti_concentration(lambda x: x[:, 0], s=s, m=1, lam=1.0, sigma2=1.0, trials=10)


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


# ---------------------------------------------------------------- argument checks

ABS = abs_net([1.0, 0.0])
LINE = Frame.from_span(np.eye(2)[:1])
LP = from_network(ABS)


@pytest.mark.parametrize("field, call", [
    pytest.param("seed", lambda: GaussianOracle(ABS, 2.7), id="oracle-seed-2.7"),
    pytest.param("seed", lambda: GaussianOracle(ABS, True), id="oracle-seed-true"),
    pytest.param("n", lambda: GaussianOracle(ABS, 0).draw(True), id="draw-n-true"),
    pytest.param("clause index", lambda: LatticePolynomial(np.eye(2), ((0.9,), (1,))), id="lattice-clause-0.9"),
    pytest.param("clause index", lambda: LatticePolynomial(np.eye(2), ((0,), (True,))), id="lattice-clause-true"),
    pytest.param("table value", lambda: SelectorKicker(np.eye(2)[:1], {OrderType((1,)): 0.9}, LINE),
                 id="selector-pick-0.9"),
    pytest.param("n_values entry", lambda: verify_matrix_concentration(lambda x: np.ones(len(x)), 2, [1000.7], 1),
                 id="concentration-n-1000.7"),
    pytest.param("tau", lambda: verify_stability(LP, LP, ABS, math.nan, 10), id="stability-tau-nan"),
    pytest.param("eps_prime", lambda: enumerate_networks(LINE, math.nan, 1, 0, 1.0), id="networks-eps-prime-nan"),
    pytest.param("lam", lambda: enumerate_kickers(LINE, 0.5, 2, math.nan), id="kickers-lam-nan"),
    pytest.param("num_leaves", lambda: enumerate_kickers(LINE, 0.5, True, 1.0), id="kickers-leaves-true"),
    pytest.param("eps", lambda: epsilon_net_bound(2, 1.0, math.nan), id="net-bound-eps-nan"),
    pytest.param("b", lambda: epsilon_net_matrix_blocks(1, 2, math.nan, 0.5), id="matrix-blocks-b-nan"),
    pytest.param("b", lambda: epsilon_net_matrix_blocks(1, 2, -1.0, 0.5), id="matrix-blocks-b--1"),
    pytest.param("rows", lambda: epsilon_net_matrix_blocks(0, 2, 1.0, 0.5), id="matrix-blocks-rows-0"),
    pytest.param("dim", lambda: epsilon_net_ball(0, 1.0, 0.5), id="net-ball-dim-0"),
    pytest.param("radius", lambda: epsilon_net_ball(2, -1.0, 0.5), id="net-ball-radius--1"),
    pytest.param("rows", lambda: epsilon_net_matrices(0, 2, 1.0, 0.5), id="matrices-rows-0"),
    pytest.param("b", lambda: epsilon_net_matrices(1, 2, math.nan, 0.5), id="matrices-b-nan"),
    pytest.param("eta", lambda: approx_top_svd(lambda v: v, 2, 1, math.nan, 0.1, 0), id="top-svd-eta-nan"),
    pytest.param("k", lambda: approx_top_svd(lambda v: v, 2, True, 0.1, 0.1, 0), id="top-svd-k-true"),
    pytest.param("trials", lambda: verify_lipschitz_key(ABS, LINE, True), id="lipschitz-trials-true"),
    pytest.param("b", lambda: random_network(Architecture((2,), 2), math.nan, 0), id="random-b-nan"),
    pytest.param("lam", lambda: spike_network(math.nan), id="spike-lam-nan"),
    pytest.param("eta", lambda: perturb_leaves(LP, math.nan), id="perturb-eta-nan"),
])
def test_library_entry_points_name_a_bad_number(field, call):
    """Each of these was accepted (2.7 read as 2, True as 1), refused without naming the field, or refused only when
    its stream was first iterated; every library constructor and entry point now checks its integers and numbers
    through errors.checked, at the call."""
    with pytest.raises(ValueError, match=f"^{field} must be"):
        call()


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


def test_spike_recipe_embeds_the_fixture_on_a_random_plane():
    """dim 2, the default, is spike_network itself; at dim 10 the net reads x through an orthonormal pair that spans
    the planted frame, one pair per net_seed."""
    plain, frame = make_instance({"kind": "spike", "lam": 10.0}, 0)
    want = spike_network(10.0)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(plain.weights, want.weights)) and len(frame) == 2
    nets = [make_instance({"kind": "spike", "lam": 10.0, "dim": 10, "net_seed": s}, 0) for s in (0, 1)]
    for net, planted in nets:
        pair = np.linalg.lstsq(want.weights[0], net.weights[0], rcond=None)[0]  # W_0 = spike's W_0 @ pair
        np.testing.assert_allclose(want.weights[0] @ pair, net.weights[0], atol=1e-12)
        np.testing.assert_allclose(pair @ pair.T, np.eye(2), atol=1e-12)
        assert net.weights[1].tobytes() == want.weights[1].tobytes()
        assert chordal_distance(Frame.from_span(pair), planted) < 1e-9
    assert chordal_distance(nets[0][1], nets[1][1]) > 0.1


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
        ({"kind": "spike", "lam": 2.0, "dim": 1}, "'dim'"),
        ({"kind": "random", "widths": [3, 0], "dim": 4}, "'widths'"),
        ({"kind": "random", "widths": [True], "dim": 4}, "'widths'"),
        ({"kind": "mixed", "dim": 4, "k": 2, "b": True}, "'b'"),
        ({"kind": "abs", "dim": np.int64(4), "net_seed": np.float64(1.0)}, "'net_seed'"),
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
