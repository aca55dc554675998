import dataclasses
import itertools
import math
import types
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relupca import filteredpca
from relupca.enumeration import CandidateList, KickerBlock, _candidate, enumerate_kickers, enumerate_networks
from relupca.filteredpca import (
    GaussianOracle,
    LearnConfig,
    SampleSet,
    _chunk_errors,
    _final_search,
    _iter_predictions,
    _mask_key,
    _masked_moment,
    _pick_tau,
    _scored,
    as_function,
    estimate_l2_error,
    filter_matrix,
    gaussian_oracle,
    idealized_filter_matrix,
    run,
)
from relupca.harness import make_instance
from relupca.lattice import SelectorKicker, all_order_types, order_type, selector_eval
from relupca.network import ReluNetwork, evaluate, zero_network
from relupca.subspace import (
    Frame,
    approx_top_svd,
    chordal_distance,
    complement_project,
    epsilon_net_ball,
    project,
)


def abs_net(v):
    """F(x) = |<v, x>| as relu(v.x) + relu(-v.x)."""
    v = np.asarray(v, dtype=float)
    return ReluNetwork((np.vstack([v, -v]), np.array([[1.0, 1.0]])))


# ---------------------------------------------------------------- sample stream

def test_sample_set_validation():
    with pytest.raises(ValueError):
        SampleSet(np.zeros((3, 2)), np.zeros(2))  # length mismatch
    with pytest.raises(ValueError):
        SampleSet(np.array([[np.nan, 0.0]]), np.zeros(1))


def test_sample_set_copies_writable_input():
    x, y = np.zeros((3, 2)), np.zeros(3)
    s = SampleSet(x, y)
    for mine, theirs in ((s.x, x), (s.y, y)):
        assert not mine.flags.writeable
        assert not np.shares_memory(mine, theirs)
    x[0, 0] = y[0] = 1.0
    assert s.x[0, 0] == 0.0 and s.y[0] == 0.0
    # a read-only view is no guarantee: the memory it views is still writable
    view = x[:, :]
    view.flags.writeable = False
    assert not np.shares_memory(SampleSet(view, y).x, x)
    assert not np.shares_memory(SampleSet(x.tolist(), y).x, x)


def test_sample_set_keeps_frozen_batch_and_still_checks_it():
    x = np.zeros((3, 2))
    x.flags.writeable = False
    assert SampleSet(x, np.zeros(3)).x is x
    bad = np.array([[np.nan, 0.0]])
    bad.flags.writeable = False
    with pytest.raises(ValueError, match="finite"):
        SampleSet(bad, np.zeros(1))
    with pytest.raises(ValueError, match="length"):
        SampleSet(x, np.zeros(2))
    flat = np.zeros(3)
    flat.flags.writeable = False
    with pytest.raises(ValueError, match=r"\(N, d\)"):
        SampleSet(flat, np.zeros(3))


def test_oracle_is_deterministic_and_sequential():
    net = abs_net([1.0, 0.0])
    a1 = gaussian_oracle(net, 3).draw(10)
    a2 = gaussian_oracle(net, 3).draw(10)
    assert np.array_equal(a1.x, a2.x)
    assert np.array_equal(a1.y, a2.y)
    oracle = gaussian_oracle(net, 3)
    b1, b2 = oracle.draw(10), oracle.draw(10)
    assert b1.source == "gaussian[0:10]"
    assert b2.source == "gaussian[10:20]"
    assert not np.array_equal(b1.x, b2.x)


def test_oracle_labels_match_network():
    net = abs_net([0.0, 1.0])
    batch = gaussian_oracle(net, 0).draw(100)
    assert np.allclose(batch.y, evaluate(net, batch.x))


def test_relu_mean_matches_gaussian_moment():
    # E relu(g) = 1/sqrt(2*pi) = 0.3989422804014327 for standard Gaussian g
    net = ReluNetwork((np.array([[1.0, 0.0]]), np.array([[1.0]])))
    batch = gaussian_oracle(net, 11).draw(400_000)
    assert float(np.mean(batch.y)) == pytest.approx(0.3989422804014327, abs=0.004)


# ---------------------------------------------------------------- candidate views

def test_as_function_dispatch(rng):
    net = abs_net([1.0, 0.0])
    x = rng.standard_normal((5, 2))
    assert np.allclose(as_function(net)(x), evaluate(net, x))
    assert np.allclose(as_function(lambda z: z[:, 0])(x), x[:, 0])
    with pytest.raises(TypeError):
        as_function(42)


def test_estimate_l2_error_zero_for_truth():
    net = abs_net([1.0, 0.0, 0.0])
    assert estimate_l2_error(net, gaussian_oracle(net, 5), 1000) == 0.0
    # against the zero function the error is the norm of F itself, about 1
    err = estimate_l2_error(zero_network(3), gaussian_oracle(net, 5), 50_000)
    assert err == pytest.approx(1.0, abs=0.02)


# ---------------------------------------------------------------- filter matrix

def test_filter_matrix_finds_planted_direction():
    d = 6
    v = np.zeros(d)
    v[0] = 1.0
    net = abs_net(v)
    oracle = gaussian_oracle(net, 7)
    samples = oracle.draw(100_000)
    m = filter_matrix(samples, Frame.empty(d), zero_network(d), tau=1.0)
    evals, evecs = np.linalg.eigh(m)
    top = evecs[:, -1]
    assert abs(top @ v) > 0.99
    assert evals[-1] > 0.3


def test_filter_matrix_annihilates_frame_directions(rng):
    d = 5
    net = abs_net(np.eye(d)[0])
    samples = gaussian_oracle(net, 9).draw(20_000)
    frame = Frame.from_span(np.eye(d)[:2])
    m = filter_matrix(samples, frame, zero_network(d), tau=0.5)
    for w in frame.vectors:
        assert abs(w @ m @ w) < 1e-10
    assert np.allclose(m, m.T, atol=1e-12)


def test_filter_matrix_rejects_bad_tau():
    net = abs_net([1.0, 0.0])
    samples = gaussian_oracle(net, 1).draw(100)
    with pytest.raises(ValueError):
        filter_matrix(samples, Frame.empty(2), zero_network(2), tau=0.0)


def test_idealized_filter_uses_true_restriction():
    d = 4
    net = abs_net(np.eye(d)[0])
    m = idealized_filter_matrix(gaussian_oracle(net, 2), net, Frame.empty(d), tau=1.0, n=50_000)
    top = np.linalg.eigh(m)[1][:, -1]
    assert abs(top[0]) > 0.99


def test_empty_mask_gives_zero_matrix():
    net = abs_net([1.0, 0.0])
    samples = gaussian_oracle(net, 1).draw(1000)
    tau = float(np.max(np.abs(samples.y))) + 1.0  # nothing survives the filter
    m = filter_matrix(samples, Frame.empty(2), zero_network(2), tau=tau)
    assert np.all(m == 0.0)


@pytest.mark.parametrize("ell", [0, 1, 2, 3])
def test_masked_moment_matches_the_complement_reference(ell, rng):
    """q (X_m^T X_m) q on raw rows equals the moment of the complement-projected rows."""
    d, n = 6, 500
    x = rng.standard_normal((n, d))
    frame = Frame.from_span(rng.standard_normal((ell, d))) if ell else Frame.empty(d)
    q = np.eye(d) - frame.projector()
    xc = complement_project(frame, x)
    for mask in (np.zeros(n, bool), np.ones(n, bool), rng.uniform(size=n) < 0.3):
        ref = (xc[mask].T @ xc[mask] - int(mask.sum()) * q) / n
        got = _masked_moment(x, q, mask, n)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(got, got.T)


def _block_preds(cands, x, budget):
    """Every candidate's predictions at x, (candidates, N), from _scored's pieces of a CandidateList."""
    return np.concatenate([w @ h.T for chunk in _scored(cands.factory(), x, budget) for _, _, w, h in chunk])


def test_loop_candidates_score_raw_rows_as_projected_rows(rng):
    """Every loop candidate reads x only through the frame, so run() may score the raw rows."""
    frame = Frame.from_span(rng.standard_normal((2, 5)))
    x = rng.standard_normal((300, 5))
    x_proj = project(frame, x)
    grids = [
        enumerate_networks(frame, 0.9, 2, 0, 1.0),
        enumerate_networks(frame, 0.9, 2, 1, 1.0),
        enumerate_kickers(frame, 0.9, 2, 1.0),
    ]
    for cands in grids:
        raw = _block_preds(cands, x, filteredpca._LOOP_CHUNK_ELEMS)
        proj = _block_preds(cands, x_proj, filteredpca._LOOP_CHUNK_ELEMS)
        assert raw.shape == proj.shape and raw.shape[0] > 1
        assert np.max(np.abs(raw - proj)) <= 1e-12


# ---------------------------------------------------------------- configuration

def test_threshold_formula():
    cfg = LearnConfig(dim=4, k=2, size=2, l=0, b=1.0, lam=1.5, eps=0.1, delta=0.05)
    assert cfg.tau == pytest.approx(2.0 * math.sqrt(2.0) * 1.5)


def test_final_granularity_formula():
    cfg = LearnConfig(dim=4, k=4, size=2, l=1, b=2.0, lam=1.0, eps=0.2, delta=0.05)
    assert cfg.default_final_eps_prime() == pytest.approx(0.2 / (2.0**2 * 2.0 * 2.0))
    override = LearnConfig(
        dim=4, k=4, size=2, l=1, b=2.0, lam=1.0, eps=0.2, delta=0.05, final_eps_prime=0.3
    )
    assert override.default_final_eps_prime() == 0.3


def test_config_validation():
    with pytest.raises(ValueError):
        LearnConfig(dim=4, k=5, size=2, l=0, b=1.0, lam=1.0, eps=0.1, delta=0.05)
    with pytest.raises(ValueError, match="max_candidates"):
        LearnConfig(dim=4, k=1, size=2, l=0, b=1.0, lam=1.0, eps=0.1, delta=0.05, max_candidates=0)
    base = dict(dim=4, k=1, size=2, l=0, b=1.0, lam=1.0, eps=0.1, delta=0.05)
    # each of these was once accepted, and run() then failed without naming the
    # field (or, with k = 1 and eps_prime = 0, certified without reading it)
    for field, value in [
        ("n_samples", 0), ("n_check", 0), ("final_select_samples", 0), ("n_samples", 2.5),
        ("n_check", True), ("eps_prime", 0.0), ("eps_prime", math.nan), ("eps_prime", math.inf),
        ("final_eps_prime", -1.0), ("final_eps_prime", 0.0), ("b", math.nan), ("b", math.inf),
        ("lam", math.nan), ("dim", 4.5), ("size", 2.5), ("l", 0.5), ("k", True),
        ("lambda_acc", -1.0), ("lambda_acc", math.nan), ("max_candidates", math.nan),
        ("max_candidates", 2.5), ("max_candidates", True), ("max_candidates", math.inf),
        ("delta", 1.0), ("eps", 1e-7),  # below the resolution of the Gram-form terminal errors
    ]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            LearnConfig(**{**base, field: value})


# ---------------------------------------------------------------- recovery loop

def small_recovery_config(**overrides):
    base = dict(
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
    base.update(overrides)
    return LearnConfig(**base)


def test_recovery_on_planted_line():
    v = np.array([0.6, 0.8, 0.0, 0.0])
    net = abs_net(v)
    planted = Frame.from_span(v[None, :])
    result = run(gaussian_oracle(net, 42), small_recovery_config(), planted_frame=planted)
    assert len(result.frame) == 1
    assert abs(result.frame.vectors[0] @ v) >= 0.95
    assert result.certified
    assert result.eps_hat <= 0.3
    assert result.trace[0].accepted_candidate is not None
    assert result.trace[0].nearness == pytest.approx(0.0, abs=0.05)


def test_recovery_is_deterministic():
    v = np.array([1.0, 0.0, 0.0, 0.0])
    net = abs_net(v)
    r1 = run(gaussian_oracle(net, 5), small_recovery_config())
    r2 = run(gaussian_oracle(net, 5), small_recovery_config())
    assert np.array_equal(r1.frame.vectors, r2.frame.vectors)
    assert r1.eps_hat == r2.eps_hat
    assert [t.accepted_candidate for t in r1.trace] == [t.accepted_candidate for t in r2.trace]


def test_recovery_of_zero_function():
    net = zero_network(3)
    cfg = LearnConfig(
        dim=3, k=0, size=1, l=0, b=1.0, lam=1.0, eps=0.1, delta=0.05, n_check=1000
    )
    result = run(gaussian_oracle(net, 0), cfg)
    assert len(result.frame) == 0
    assert result.eps_hat == 0.0
    assert result.certified


def test_budget_exhaustion_reports_failure():
    v = np.array([1.0, 0.0, 0.0, 0.0])
    net = abs_net(v)
    cfg = small_recovery_config(max_candidates=3)
    result = run(gaussian_oracle(net, 1), cfg)
    assert not result.certified
    assert result.failure_reason is not None
    assert "budget" in result.failure_reason
    # with k = 2 the budget stops the loop's second scan: nothing accepted there
    result = run(gaussian_oracle(net, 1), small_recovery_config(k=2, max_candidates=3))
    assert "budget exhausted at iteration 1" in result.failure_reason
    assert [t.accepted_candidate for t in result.trace] == [0, None]


def _power_step(m, seed):
    """Seeded power iteration on m: its vector, w M w, and its |lambda| estimate."""
    top = approx_top_svd(lambda v: m @ v, m.shape[0], 1, eta=1e-9, delta=0.05, seed=seed)
    w = top.frame.vectors[0]
    return w, float(w @ m @ w), float(top.values[0])


def _gapped(rng, dim, tops, comp=None):
    """Symmetric matrix with eigenvalues tops, 0 on comp when given, and the rest in [-0.1, 0.1]."""
    lead = [] if comp is None else [comp]
    u = np.linalg.qr(np.column_stack([*lead, rng.standard_normal((dim, dim - len(lead)))]))[0]
    rest = rng.uniform(-0.1, 0.1, dim - len(lead) - len(tops))
    m = (u * np.concatenate([[0.0] * len(lead), tops, rest])) @ u.T
    return (m + m.T) / 2.0


@pytest.mark.parametrize("seed", range(6))
def test_eigen_step_orients_like_power_iteration(monkeypatch, seed):
    """On gapped moments the loop accepts and orients as seeded power iteration would.

    Iteration 0 calibrates on its one moment and accepts it.  In iteration 1
    the first moment's dominant eigenvalue is negative (-2, with +1 above the
    threshold as well): power iteration converges to the -2 pair, so it is
    rejected.  The second is accepted.  Values agree to 1e-9 relative and
    frame vectors, sign included, to 1e-6.
    """
    rng = np.random.default_rng(seed)
    m0 = _gapped(rng, 5, [rng.uniform(0.8, 2.0)])
    u0, _, _ = _power_step(m0, seed * 1_000_003)
    bad = _gapped(rng, 5, [-2.0, 1.0], u0)
    good = _gapped(rng, 5, [rng.uniform(0.8, 2.0)], u0)
    moments = iter([m0, bad, good])
    monkeypatch.setattr(filteredpca, "_masked_moment", lambda *args: next(moments))
    config = small_recovery_config(dim=5, k=2, final_eps_prime=1.0, seed=seed)
    result = run(gaussian_oracle(abs_net([1.0, 0.0, 0.0, 0.0, 0.0]), seed), config)
    assert [t.accepted_candidate for t in result.trace] == [0, 1]
    _, bad_lam, _ = _power_step(bad, seed * 1_000_003 + 7919)
    assert bad_lam == pytest.approx(-2.0, rel=1e-9)
    for ell, (m, idx) in enumerate([(m0, 0), (good, 1)]):
        w, lam, _ = _power_step(m, seed * 1_000_003 + 7919 * ell + idx)
        assert result.trace[ell].lam_value == pytest.approx(lam, rel=1e-9)
        assert np.max(np.abs(result.frame.vectors[ell] - w)) <= 1e-6


_DIFF_INSTANCE = {"kind": "mixed", "dim": 6, "k": 2, "units": 2, "b": 1.0}


def _diff_config():
    """A d = 6 mixed run whose second scan accepts candidate 85 of a grid full of repeated rows."""
    return LearnConfig(
        dim=6, k=2, size=2, l=0, b=1.0, lam=1.0, eps=0.05, delta=0.05, n_samples=20_000,
        n_check=2_000, tau_mode="quantile", final_eps_prime=0.3, seed=0,
    )


def _recording_run(monkeypatch, config, fresh_keys=False):
    """run() on the d = 6 mixed instance, recording every moment formed and every candidate's mask.

    With fresh_keys every candidate gets a repeat key of its own, so every
    moment is formed: the brute-force reference.  Returns (result, moments,
    per-scan lists of masks).
    """
    net, _ = make_instance(_DIFF_INSTANCE, 0)
    moments, scans = [], []
    fresh = itertools.count()

    def recording_moment(*args):
        moments.append(_masked_moment(*args))
        return moments[-1]

    def recording_rows(*args):
        scans.append([])
        yield from _iter_predictions(*args)

    def recording_key(mask):
        scans[-1].append(mask.copy())
        return next(fresh).to_bytes(8, "little") if fresh_keys else _mask_key(mask)

    monkeypatch.setattr(filteredpca, "_masked_moment", recording_moment)
    monkeypatch.setattr(filteredpca, "_iter_predictions", recording_rows)
    monkeypatch.setattr(filteredpca, "_mask_key", recording_key)
    return run(gaussian_oracle(net, 0), config), moments, scans


def test_exact_eigen_step_matches_power_iteration(monkeypatch):
    """Solving every candidate's moment with approx_top_svd and its own seed accepts what run() accepts.

    run() forms one moment per distinct mask; each repeat is decided on its
    first occurrence's moment, so all 87 candidates are checked.  Same
    accepted index in every iteration, the same calibrated threshold and
    lambda to 1e-9 relative, and the same frame vector, sign included, to 1e-6.
    """
    config = _diff_config()
    result, moments, scans = _recording_run(monkeypatch, config)
    lambda_acc = result.constants["lambda_acc_effective"]
    assert [t.candidates_scanned for t in result.trace] == [len(masks) for masks in scans] == [1, 86]
    assert len(moments) == sum(len({m.tobytes() for m in masks}) for masks in scans) == 22
    _, _, first_abs = _power_step(moments[0], config.seed * 1_000_003)
    assert lambda_acc == pytest.approx(config.acc_fraction * first_abs, rel=1e-9)
    formed = iter(moments)
    for ell, (record, masks) in enumerate(zip(result.trace, scans)):
        scan_moments: dict = {}  # mask bytes -> its first occurrence's moment
        accepted = None
        for idx, mask in enumerate(masks):
            key = mask.tobytes()
            if key not in scan_moments:
                scan_moments[key] = next(formed)
            w, lam, _ = _power_step(scan_moments[key], config.seed * 1_000_003 + 7919 * ell + idx)
            if lam >= lambda_acc:
                accepted = (idx, w, lam)
                break
        idx, w, lam = accepted
        assert idx == record.accepted_candidate
        assert record.lam_value == pytest.approx(lam, rel=1e-9)
        assert np.max(np.abs(result.frame.vectors[ell] - w)) <= 1e-6


def test_repeat_skip_matches_a_brute_force_scan(monkeypatch):
    """run() equals a scan that forms every candidate's moment: same decisions, tau, lambda and frame bytes."""
    config = _diff_config()
    result, moments, _ = _recording_run(monkeypatch, config)
    reference, every_moment, _ = _recording_run(monkeypatch, config, fresh_keys=True)
    assert (len(moments), len(every_moment)) == (22, 87)
    assert [t.candidates_distinct for t in result.trace] == [1, 21]
    assert [t.candidates_distinct for t in reference.trace] == [1, 86]
    uncounted = [dataclasses.replace(t, candidates_distinct=0) for t in result.trace]
    assert uncounted == [dataclasses.replace(t, candidates_distinct=0) for t in reference.trace]
    assert result.frame.vectors.tobytes() == reference.frame.vectors.tobytes()
    assert result.constants == reference.constants
    assert result.eps_hat == reference.eps_hat


def _abs_block(v, *out):
    """The network block relu(v.x) * a + relu(-v.x) * b, one row per (a, b) in out."""
    return (np.array([v, -v]), np.array(out, dtype=float))


def _scan_row(block, x):
    """A one-row block's prediction row as the scan forms it: W_out @ relu(x W_0^T)^T."""
    return (block[-1] @ np.maximum(x @ block[0].T, 0.0).T)[0]


def test_repeat_as_the_last_candidate_keeps_its_first_tau(monkeypatch):
    """A scan with no acceptance that ends on a repeat records the repeated row's tau, not its neighbour's."""
    v = np.array([1.0, 0.0, 0.0, 0.0])
    a, b = _abs_block(v, (1.0, 1.0)), _abs_block(v, (0.5, -0.5))  # |x.v| and x.v / 2
    f_a, f_b = (lambda x: _scan_row(a, x)), (lambda x: _scan_row(b, x))
    stream = [a, b, a]
    monkeypatch.setattr(filteredpca, "_candidates", lambda *args: CandidateList(lambda: iter(stream), 3))
    calls = []
    monkeypatch.setattr(filteredpca, "_masked_moment", lambda *args: calls.append(1) or _masked_moment(*args))
    oracle = gaussian_oracle(abs_net([0.0, 1.0, 0.0, 0.0]), 0)
    result = run(oracle, small_recovery_config(lambda_acc=1e9))
    batch = gaussian_oracle(abs_net([0.0, 1.0, 0.0, 0.0]), 0).draw(20_000)  # the scan's batch
    record = result.trace[0]
    assert (record.accepted_candidate, record.candidates_scanned, len(calls)) == (None, 3, 2)
    assert record.candidates_distinct == 2
    assert record.tau == float(np.quantile(np.abs(batch.y - f_a(batch.x)), 0.95))
    assert record.tau != float(np.quantile(np.abs(batch.y - f_b(batch.x)), 0.95))


def test_rows_with_one_mask_form_one_moment(monkeypatch):
    """Rows whose bytes differ but whose masks agree form one moment; the record keeps the later row's tau."""
    v = np.array([1.0, 0.0, 0.0, 0.0])
    a, b = _abs_block(v, (1.0, 1.0)), _abs_block(v, (1.0 + 1e-9, 1.0 + 1e-9))  # |x.v| and |x.v| (1 + 1e-9)
    f_a, f_b = (lambda x: _scan_row(a, x)), (lambda x: _scan_row(b, x))
    monkeypatch.setattr(filteredpca, "_candidates", lambda *args: CandidateList(lambda: iter([a, b]), 2))
    calls = []
    monkeypatch.setattr(filteredpca, "_masked_moment", lambda *args: calls.append(1) or _masked_moment(*args))
    oracle = gaussian_oracle(abs_net([0.0, 1.0, 0.0, 0.0]), 0)
    result = run(oracle, small_recovery_config(lambda_acc=1e9))
    batch = gaussian_oracle(abs_net([0.0, 1.0, 0.0, 0.0]), 0).draw(20_000)  # the scan's batch
    resid = [np.abs(batch.y - f(batch.x)) for f in (f_a, f_b)]
    tau_a, tau_b = (float(np.quantile(r, 0.95)) for r in resid)
    assert f_a(batch.x).tobytes() != f_b(batch.x).tobytes() and tau_a != tau_b
    assert np.array_equal(resid[0] > tau_a, resid[1] > tau_b)
    record = result.trace[0]
    assert (record.accepted_candidate, record.candidates_scanned, len(calls)) == (None, 2, 1)
    assert record.candidates_distinct == 1
    assert record.tau == tau_b


def _numpy_tau(r, q):
    return max(float(np.quantile(r, q)), 1e-12)


def _assert_same_tau(r, q):
    got, want = _pick_tau(types.SimpleNamespace(tau_mode="quantile", tau_quantile=q), r), _numpy_tau(r, q)
    assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


_TAU_CUTOFF = 4 * filteredpca._TAU_SAMPLE  # rows this long are prefiltered


@settings(max_examples=100)
@given(st.data())
def test_pick_tau_matches_numpy_quantile(data):
    """Quantile-mode tau is max(np.quantile(r, q), 1e-12) to the bit, on both sides of the prefilter cutoff."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    n = data.draw(st.one_of(st.integers(1, 50), st.integers(_TAU_CUTOFF - 50, _TAU_CUTOFF + 50),
                            st.integers(_TAU_CUTOFF, 300_000)), label="n")
    kind = data.draw(st.sampled_from(["gaussian", "ties", "equal", "zeros"]), label="kind")
    r = np.abs(rng.standard_normal(n)) * rng.uniform(0.1, 10.0)
    if kind == "ties":  # a handful of distinct values, so the cut and tau fall inside runs of equal entries
        r = np.floor(r * data.draw(st.integers(1, 4), label="levels"))
    elif kind == "equal":
        r = np.full(n, rng.uniform(0.0, 3.0))
    elif kind == "zeros":
        r = np.zeros(n)
    q = data.draw(st.sampled_from([0.95, 0.5, 0.05]) | st.floats(0.001, 0.999), label="q")
    _assert_same_tau(r, q)


@pytest.mark.parametrize("n", [_TAU_CUTOFF - 1, _TAU_CUTOFF, 200_000])
def test_pick_tau_edges(n):
    """hi = n - 1 and NaN give np.quantile's tau; the prefilter runs on a plain long row."""
    rng = np.random.default_rng(n)
    r = np.abs(rng.standard_normal(n))
    with mock.patch.object(filteredpca.np, "compress", wraps=np.compress) as compress:
        _assert_same_tau(r, 0.95)
        assert compress.called == (n >= _TAU_CUTOFF)
        q = (n - 1.5) / (n - 1)  # (n - 1) q = n - 1.5: lo = n - 2, hi = n - 1
        assert math.floor((n - 1) * q) == n - 2
        _assert_same_tau(r, q)
    r[n // 3] = np.nan
    assert math.isnan(_pick_tau(types.SimpleNamespace(tau_mode="quantile", tau_quantile=0.95), r))
    assert math.isnan(_numpy_tau(r, 0.95))


@pytest.mark.parametrize("r, q", [
    ([1.226006602106081, 1.8345954095818053], 0.95),  # gamma >= 0.5: b - (b - a) * (1 - gamma)
    ([1.6554051876408835, 0.8183982727383226], 0.05),  # gamma < 0.5: a + (b - a) * gamma
])
def test_pick_tau_interpolates_as_numpy(r, q):
    """Each branch of np.quantile's interpolation, on a pair where the other branch rounds differently."""
    _assert_same_tau(np.array(r), q)


@pytest.mark.parametrize("below", [-1, 0, 1])
def test_pick_tau_at_the_cut(below):
    """lo + below entries fall below the subsample's cut: kept up to lo, all of r partitioned past it."""
    n, q = _TAU_CUTOFF, 0.95
    lo = math.floor((n - 1) * q)
    stride = n // filteredpca._TAU_SAMPLE
    sample = np.random.default_rng(0).permutation(n // stride).astype(float)  # cut = the rank-th value
    p = lo / n
    rank = math.floor(sample.size * p - 5.0 * math.sqrt(sample.size * p * (1.0 - p)))
    r = np.full(n, 1e6)
    r[::stride] = sample
    rest = np.flatnonzero(r == 1e6)
    r[rest[: lo + below - rank]] = rank - 0.5  # with the sample's rank entries, lo + below under the cut
    assert np.count_nonzero(r < rank) == lo + below
    with mock.patch.object(filteredpca.np, "compress", wraps=np.compress) as compress:
        _assert_same_tau(r, q)
    assert compress.called == (below <= 0)


class ShiftThirdDraw:
    """Oracle whose third batch (loop, select, check) has every label raised by 1."""

    def __init__(self, inner):
        self.inner = inner
        self.draws = 0

    @property
    def input_dim(self):
        return self.inner.input_dim

    def draw(self, n):
        batch = self.inner.draw(n)
        self.draws += 1
        if self.draws == 3:
            return SampleSet(batch.x, batch.y + 1.0, seed=batch.seed, source=batch.source)
        return batch


def test_failed_check_after_selection_hit_gives_a_reason():
    net, _ = make_instance({"kind": "abs", "dim": 4}, 0)
    oracle = ShiftThirdDraw(gaussian_oracle(net, 0))
    result = run(oracle, small_recovery_config())
    assert oracle.draws == 3  # the selection batch had a hit, so no playoff draw
    assert not result.certified
    assert result.eps_hat > 0.3
    assert result.failure_reason is not None
    assert f"eps_hat {result.eps_hat:.6g} > 3*eps 0.3" in result.failure_reason


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kicker_mode_recovers_a_line(seed):
    net, planted = make_instance({"kind": "abs", "dim": 4}, seed)
    cfg = small_recovery_config(candidate_mode="kicker", final_eps_prime=0.25, seed=seed)
    result = run(gaussian_oracle(net, seed), cfg)
    assert result.certified, result.failure_reason
    assert len(result.frame) == 1
    assert chordal_distance(result.frame, planted) <= 0.1


def test_kicker_failure_names_a_grid_too_coarse_for_a_unit_leaf():
    """At final_eps_prime 0.5 and lam 2 the terminal kicker grid has spacing 2, so no unit-scale leaf fits."""
    net, _ = make_instance({"kind": "abs", "dim": 4}, 0)
    cfg = small_recovery_config(candidate_mode="kicker", final_eps_prime=0.5)
    result = run(gaussian_oracle(net, 0), cfg)
    assert not result.certified and len(result.frame) == 1
    assert result.eps_hat > 0.9
    assert result.failure_reason == (
        "no terminal candidate reached 3*eps; returning the playoff winner; the terminal kicker grid "
        "cannot hold a unit-scale leaf: its spacing 2*final_eps_prime*lam/sqrt(ell) is 2 > 1 "
        "at final_eps_prime 0.5"
    )


def test_oracle_dimension_checked():
    net = abs_net([1.0, 0.0])
    with pytest.raises(ValueError):
        run(gaussian_oracle(net, 0), small_recovery_config())  # config says dim 4


def test_constants_are_recorded():
    """constants holds only what the config's fields do not: the method's constants and derived values."""
    v = np.array([1.0, 0.0, 0.0, 0.0])
    config = small_recovery_config()
    cons = run(gaussian_oracle(abs_net(v), 3), config).constants
    lam_acc = cons["lambda_acc_calibrated"]
    assert lam_acc > 0
    assert cons == {
        "c": 2.0, "acc_fraction": 0.25, "tau_quantile": 0.95, "tau_formula": config.tau,
        "final_eps_prime": config.default_final_eps_prime(),
        "lambda_acc_calibrated": lam_acc, "lambda_acc_effective": lam_acc,
    }
    # a configured threshold is not calibrated, and is the effective one
    config = small_recovery_config(lambda_acc=0.5, final_eps_prime=0.3)
    cons = run(gaussian_oracle(abs_net(v), 3), config).constants
    assert "lambda_acc_calibrated" not in cons
    assert (cons["lambda_acc_effective"], cons["final_eps_prime"]) == (0.5, 0.3)


# ---------------------------------------------------------------- batched evaluation


@given(st.data())
def test_pred_chunks_match_reference_evaluation(data):
    """Every network block row's predictions equal evaluate() on its own network, and
    every kicker block row's equal selector_eval() on its own SelectorKicker; the
    loop's residuals and the chunk errors agree too.

    Candidates come back in input order.  A kicker block comes back whole and
    alone, also where it breaks a run of blocks whose first layer continues after
    it.  Network chunks hold one piece, then at most twice the previous count, and
    no more candidates than the budget allows (at least one), so small budgets
    split blocks: chunk edges fall inside a block.  A payload may come again later
    in the stream.  _iter_predictions yields the same rows, each writable and its
    own, as the scan overwrites each row with its residual; a kicker block scored
    again gives the same bytes.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    d = data.draw(st.integers(1, 4), label="d")
    x = rng.standard_normal((data.draw(st.integers(1, 6), label="rows"), d))
    y = rng.standard_normal(len(x))
    stream = []
    for _ in range(data.draw(st.integers(1, 4), label="groups")):
        widths = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3), label="widths")
        dims = (d, *widths)
        prefix = [rng.standard_normal((o, i)) for i, o in zip(dims, dims[1:])]
        reusable = bool(stream) and stream[-1][0].shape == prefix[0].shape
        if reusable and data.draw(st.booleans(), label="reuse W0"):
            prefix[0] = stream[-1][0]  # a run that continues the previous group's first layer
        shared = data.draw(st.integers(0, len(widths)), label="shared layers")
        w_out = rng.standard_normal((data.draw(st.integers(1, 4), label="block rows"), widths[-1]))
        share_out = data.draw(st.booleans(), label="blocks share W_out")  # one Gram pass for the run
        for _ in range(data.draw(st.integers(1, 5), label="blocks")):
            hidden = [w if j < shared else rng.standard_normal(w.shape) for j, w in enumerate(prefix)]
            stream.append((*hidden, w_out if share_out else rng.standard_normal(w_out.shape)))
    kickers = list(enumerate_kickers(Frame.from_span(rng.standard_normal((1, d))), 0.9, 2, 1.0).factory())
    others = [kickers[data.draw(st.integers(0, len(kickers) - 1), label="kicker")] for _ in range(2)]
    breaks = data.draw(st.lists(st.integers(0, len(stream)), max_size=4), label="breaks")
    for at in sorted(breaks, reverse=True):  # may split a run: its first layer goes on after
        stream.insert(at, others[data.draw(st.integers(0, 1), label="other")])
    for _ in range(data.draw(st.integers(0, 3), label="repeats")):  # the same payload again, later
        src = data.draw(st.integers(0, len(stream) - 1), label="repeat of")
        stream.insert(data.draw(st.integers(src + 1, len(stream)), label="repeat at"), stream[src])
    budget = len(x) * data.draw(st.integers(1, 8), label="budget widths")
    candidates, preds, errs = [], [], []
    cap = 1
    for chunk in _scored(iter(stream), x, elem_budget=budget):
        if not any(isinstance(p, KickerBlock) for p, _, _, _ in chunk):
            assert len(chunk) <= cap
            used = sum(len(w) * len(x) * max(m.shape[0] for m in p[:-1]) for p, _, w, _ in chunk)
            assert sum(len(w) for _, _, w, _ in chunk) == 1 or used <= budget
        else:
            [(p, lo, w, _)] = chunk
            assert lo == 0 and w is p.picks
        cap *= 2
        for p, lo, w, h in chunk:
            assert h.shape == (len(x), w.shape[1]) and not h.flags.writeable
            candidates.extend((p, lo + r) for r in range(len(w)))
            preds.extend(w @ h.T)
        errs.extend(_chunk_errors(chunk, y))
    flat = [(p, r) for p in stream for r in range(len(p[-1]))]
    assert len(candidates) == len(flat)
    assert all(p is q and r == s for (p, r), (q, s) in zip(candidates, flat))
    types = all_order_types(2)
    tables = list(itertools.product(range(2), repeat=len(types)))  # a kicker block's rows, in order
    want = []
    for p, r in flat:
        if isinstance(p, KickerBlock):
            sk = SelectorKicker(p.selector.leaves, dict(zip(types, tables[r])), p.selector.frame)
            want.append(selector_eval(sk, x))
        else:
            want.append(evaluate(ReluNetwork((*p[:-1], p[-1][r : r + 1])), x))
    np.testing.assert_allclose(preds, want, rtol=0, atol=1e-12)
    np.testing.assert_allclose(errs, np.sqrt(np.mean((np.array(want) - y) ** 2, axis=1)), rtol=0, atol=1e-9)
    scan = []
    with mock.patch.object(filteredpca, "_LOOP_CHUNK_ELEMS", budget):
        for row in _iter_predictions(CandidateList(lambda: iter(stream), len(flat)), x):
            assert row.flags.writeable
            scan.append(row.copy())
            row.fill(np.nan)  # as the scan overwrites it: no later row may change
    assert len(scan) == len(flat)
    np.testing.assert_allclose(scan, want, rtol=0, atol=1e-12)
    for i, (p, r) in enumerate(flat):
        if isinstance(p, KickerBlock):  # a kicker block scored again gives the same bytes
            first = next(j for j, (q, s) in enumerate(flat) if q is p and s == r)
            assert scan[i].tobytes() == scan[first].tobytes()


@pytest.mark.parametrize("size, l, eps_prime", [(2, 0, 0.9), (3, 1, 1.5), (3, 2, 0.9)])
def test_pred_chunks_match_reference_on_grid_streams(size, l, eps_prime, rng):
    """The same check on enumerate_networks' own block streams, whose blocks share first layers."""
    frame = Frame.from_span(rng.standard_normal((2, 4)))
    cands = enumerate_networks(frame, eps_prime, size, l, 1.0, max_candidates=None)
    x = rng.standard_normal((5, 4))
    preds = _block_preds(cands, x, 5 * 50)
    flat = list(cands)
    assert len(preds) == len(flat) > len(list(cands.factory()))
    for net, row in zip(flat, preds):
        np.testing.assert_allclose(row, evaluate(net, x), rtol=0, atol=1e-12)


@pytest.mark.parametrize("size, l, eps_prime", [(2, 0, 0.5), (2, 1, 0.7), (3, 1, 0.9)])
def test_gram_errors_match_direct_evaluation(size, l, eps_prime, rng):
    """On enumerate_networks' streams, each row's Gram error is the direct RMS error to 1e-9."""
    frame = Frame.from_span(rng.standard_normal((2, 5)))
    target = ReluNetwork((rng.standard_normal((2, 5)), rng.standard_normal((1, 2))))
    x = rng.standard_normal((512, 5))
    y = evaluate(target, x)
    cands = enumerate_networks(frame, eps_prime, size, l, 1.0, max_candidates=None)
    errs = np.concatenate([_chunk_errors(chunk, y) for chunk in _scored(cands.factory(), x, 512 * 8)])
    direct = np.array([np.sqrt(np.mean((evaluate(net, x) - y) ** 2)) for net in cands])
    assert len(errs) == len(direct) > 100
    np.testing.assert_allclose(errs, direct, rtol=0, atol=1e-9)


# The terminal scan on a small product grid over a two-dimensional frame in
# d = 4: 120 first layers (2 x 2 in frame coordinates, lifted), each a block
# of the same 100 output rows, the shape enumerate_networks streams.  Its
# layers are random, not netted: clipping makes many grid candidates
# identical, and identical candidates cannot show which of them a scan
# picked.
_GRID_ROWS = 1024
_GRID_FRAME = Frame.from_span(np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 1.0]]))


def _grid_layers():
    rng = np.random.default_rng(5)
    firsts = [w @ _GRID_FRAME.vectors for w in rng.standard_normal((120, 2, 2))]
    tails = list(rng.standard_normal((100, 1, 2)))
    # candidate (51, 60) computes exactly what candidate (50, 30) does
    firsts[51] = 2.0 * firsts[50]
    tails[60] = tails[30] / 2.0
    return firsts, tails


def _grid_search(monkeypatch, target, eps):
    """_final_search over the block grid (oracle seed 3); returns (its result, the flat stream)."""
    firsts, tails = _grid_layers()
    w_out = np.concatenate(tails)
    blocks = [(w0, w_out) for w0 in firsts]
    grid = CandidateList(factory=lambda: iter(blocks), count_bound=len(firsts) * len(tails))
    monkeypatch.setattr(filteredpca, "enumerate_networks", lambda *args, **kwargs: grid)
    config = LearnConfig(
        dim=4, k=2, size=2, l=0, b=1.0, lam=1.0, eps=eps, delta=0.05,
        final_select_samples=_GRID_ROWS, n_check=2_000,
    )
    stream = [(w0, t) for w0 in firsts for t in tails]
    return _final_search(GaussianOracle(target, 3), config, _GRID_FRAME), stream


def _key(weights):
    return tuple(w.tobytes() for w in weights)


def _brute_force_errors(stream, batch):
    """RMS error of each candidate on the batch, scored one at a time through evaluate()."""
    return np.array([
        np.sqrt(np.mean((evaluate(ReluNetwork(ws), batch.x) - batch.y) ** 2)) for ws in stream
    ])


def _chunk_ends(blocks, rows):
    """Where the terminal scan's chunks over these blocks end, in stream positions."""
    x = np.zeros((rows, blocks[0][0].shape[1]))
    sizes = [sum(len(w) for _, _, w, _ in c) for c in _scored(blocks, x, filteredpca._TERMINAL_CHUNK_ELEMS)]
    return np.cumsum(sizes)


def test_final_search_first_hit_matches_brute_force(monkeypatch):
    firsts, tails = _grid_layers()
    target = ReluNetwork((firsts[50], tails[30]))
    (hypothesis, _, certified, _, record), stream = _grid_search(monkeypatch, target, eps=1e-6)
    errs = _brute_force_errors(stream, GaussianOracle(target, 3).draw(_GRID_ROWS))
    hits = np.flatnonzero(errs <= 3e-6)
    assert hits.tolist() == [5030, 5160]  # mid-block, in blocks 50 and 51
    ends = _chunk_ends([(w0, np.concatenate(tails)) for w0 in firsts], _GRID_ROWS)
    chunk = int(np.searchsorted(ends, hits[0], side="right"))
    assert ends[chunk - 1] < hits[0] < hits[1] < ends[chunk]  # one chunk, neither at its start
    assert certified
    assert _key(hypothesis.weights) == _key(stream[hits[0]])
    assert record == filteredpca.TerminalRecord(scored=int(ends[chunk]), first_hit=5030, playoff=False)


def test_final_search_first_hit_in_a_split_block(monkeypatch):
    """A hit in the part of a block that a chunk edge cut off maps back to its own row."""
    firsts, tails = _grid_layers()
    ends = _chunk_ends([(w0, np.concatenate(tails)) for w0 in firsts], _GRID_ROWS)
    cut = int(next(e for e in ends if e % len(tails)))  # a chunk edge inside a block
    block, row = divmod(cut + (len(tails) - cut % len(tails)) // 2, len(tails))
    target = ReluNetwork((firsts[block], tails[row]))
    (hypothesis, _, certified, _, record), stream = _grid_search(monkeypatch, target, eps=1e-6)
    assert certified and record.first_hit == block * len(tails) + row
    assert _key(hypothesis.weights) == _key(stream[record.first_hit])


def test_final_search_playoff_matches_brute_force(monkeypatch):
    rng = np.random.default_rng(6)
    target = ReluNetwork((rng.standard_normal((2, 2)) @ _GRID_FRAME.vectors, np.array([[1.0, -0.7]])))
    scored = []

    def recording_evaluate(net, x):
        if net is not target:
            scored.append(_key(net.weights))
        return evaluate(net, x)

    monkeypatch.setattr(filteredpca, "evaluate", recording_evaluate)
    (hypothesis, _, _, reason, record), stream = _grid_search(monkeypatch, target, eps=0.01)
    assert "playoff winner" in reason
    assert record == filteredpca.TerminalRecord(scored=len(stream), first_hit=None, playoff=True)
    oracle = GaussianOracle(target, 3)
    errs = _brute_force_errors(stream, oracle.draw(_GRID_ROWS))
    order = sorted(range(len(stream)), key=lambda i: (errs[i], i))
    assert errs[order[0]] > 0.03  # no hit, so the playoff decides
    assert np.all(np.diff(errs[order[:33]]) > 1e-9)  # no near-ties that rounding could swap
    index = {_key(ws): i for i, ws in enumerate(stream)}
    assert [index[k] for k in scored[:-1]] == order[:32]  # the playoff set, in its order
    playoff_errs = _brute_force_errors([stream[i] for i in order[:32]], oracle.draw(8 * _GRID_ROWS))
    winner = order[int(np.argmin(playoff_errs))]
    assert _key(hypothesis.weights) == scored[-1] == _key(stream[winner])


@given(st.data())
def test_kicker_block_rows_equal_selector_eval(data):
    """Each row of a kicker block's W @ H.T is selector_eval of that row's SelectorKicker, bit for bit.

    Tables are drawn at random over 1 to 3 leaves, two of which may be equal.
    Rows of x are Gaussian at scales 1e-3 to 1e3, rows whose first and last
    leaf values tie within the rule 1e-12 * max(1, max |row|) (so those leaves
    share a rank), or exact zeros.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    d = data.draw(st.integers(1, 4), label="d")
    frame = Frame.from_span(rng.standard_normal((data.draw(st.integers(1, d), label="ell"), d)))
    m = data.draw(st.integers(1, 3), label="leaves")
    leaves = rng.standard_normal((m, len(frame))) @ frame.vectors
    if m > 1 and data.draw(st.booleans(), label="two equal leaves"):
        leaves[1] = leaves[0]
    types = all_order_types(m)
    table = st.lists(st.integers(0, m - 1), min_size=len(types), max_size=len(types))
    tables = data.draw(st.lists(table, min_size=1, max_size=6), label="tables")
    picks = (np.array(tables)[:, :, None] == np.arange(m)).astype(float).reshape(len(tables), -1)
    block = KickerBlock(SelectorKicker(leaves, {}, frame), picks)
    kinds = data.draw(st.lists(st.sampled_from(["gauss", "tie", "zero"]), min_size=1, max_size=12), label="rows")
    x = rng.standard_normal((len(kinds), d)) * 10.0 ** rng.integers(-3, 4, size=(len(kinds), 1))
    diff = leaves[0] - leaves[-1]
    for i, kind in enumerate(kinds):
        if kind == "zero":
            x[i] = 0.0
        elif kind == "tie" and diff @ diff > 0:
            x[i] -= (diff @ x[i]) / (diff @ diff) * diff  # leaf 0 and leaf m - 1 meet
            gap = data.draw(st.floats(-0.4, 0.4), label="gap") * 1e-12 * max(1.0, np.max(np.abs(leaves @ x[i])))
            x[i] += gap / (diff @ diff) * diff
            ranks = order_type(leaves @ x[i]).ranks
            assert ranks[0] == ranks[-1]
    [[(payload, lo, w, h)]] = list(_scored(iter([block]), x, 1))
    assert payload is block and lo == 0 and w is block.picks and h.shape == (len(x), m * len(types))
    preds = w @ h.T
    scan = [row.copy() for row in _iter_predictions(CandidateList(lambda: iter([block]), len(tables)), x)]
    for r, tab in enumerate(tables):
        sk = SelectorKicker(leaves, dict(zip(types, tab)), frame)
        want = selector_eval(sk, x)
        np.testing.assert_array_equal(preds[r], want)
        np.testing.assert_array_equal(scan[r], want)
        built = _candidate(block, r)
        assert built.table == sk.table and built.leaves.tobytes() == sk.leaves.tobytes()


def _kicker_stream(frame, eps_prime, lam):
    """enumerate_kickers' candidates built one at a time as SelectorKickers, in stream order."""
    types = all_order_types(2)
    vectors = list(epsilon_net_ball(len(frame), lam, eps_prime * lam))
    return [
        SelectorKicker(np.array(coords) @ frame.vectors, dict(zip(types, table)), frame)
        for coords in itertools.product(vectors, repeat=2)
        for table in itertools.product(range(2), repeat=len(types))
    ]


def _selector_key(sk):
    return sk.leaves.tobytes(), tuple(sorted((omega.ranks, pick) for omega, pick in sk.table.items()))


def _selector_errors(stream, batch):
    """RMS error of each selector on the batch, scored one at a time through selector_eval()."""
    return np.array([np.sqrt(np.mean((selector_eval(sk, batch.x) - batch.y) ** 2)) for sk in stream])


def _kicker_search(monkeypatch, target, frame, eps, lam, final_eps_prime):
    """_final_search in kicker mode (oracle seed 3), recording every selector that selector_eval scores."""
    scored = []

    def recording_selector_eval(sk, x):
        scored.append(_selector_key(sk))
        return selector_eval(sk, x)

    monkeypatch.setattr(filteredpca, "selector_eval", recording_selector_eval)
    config = LearnConfig(
        dim=frame.dim, k=len(frame), size=2, l=0, b=1.0, lam=lam, eps=eps, delta=0.05,
        candidate_mode="kicker", final_eps_prime=final_eps_prime, n_check=2_000,
    )
    out = _final_search(GaussianOracle(target, 3), config, frame)
    return out, config, scored


def test_kicker_final_search_first_hit_matches_brute_force(monkeypatch):
    """The kicker terminal scan hits where selector_eval on every candidate first reaches 3*eps."""
    v = np.array([0.6, 0.0, 0.8, 0.0])
    frame = Frame.from_span(v[None, :])
    target = abs_net(v)
    (hypothesis, _, certified, _, record), config, scored = _kicker_search(monkeypatch, target, frame, 0.01, 2.0, 0.25)
    stream = _kicker_stream(frame, 0.25, config.lam)
    errs = _selector_errors(stream, GaussianOracle(target, 3).draw(config.final_select_samples))
    hits = np.flatnonzero(errs <= 3 * config.eps)
    rows = len(all_order_types(2)) ** 2 * 2  # 8 tables per leaf tuple
    assert hits.size and hits[0] % rows not in (0, rows - 1)  # mid-block
    assert record == filteredpca.TerminalRecord(scored=(hits[0] // rows + 1) * rows, first_hit=int(hits[0]),
                                                playoff=False)
    assert certified and _selector_key(hypothesis) == _selector_key(stream[hits[0]])
    assert scored == [_selector_key(stream[hits[0]])]  # selector_eval ran for the error check only


def test_kicker_final_search_playoff_matches_brute_force(monkeypatch):
    """With no hit, the playoff set is the 32 lowest selector_eval errors and the winner is theirs."""
    u = np.array([0.9, 0.4, 0.2, 0.1]) @ _GRID_FRAME.projector()
    u /= np.linalg.norm(u)
    target = abs_net(u)
    (hypothesis, _, _, reason, record), config, scored = _kicker_search(
        monkeypatch, target, _GRID_FRAME, 0.01, 1.0, 0.5)
    stream = _kicker_stream(_GRID_FRAME, 0.5, config.lam)
    oracle = GaussianOracle(target, 3)
    errs = _selector_errors(stream, oracle.draw(config.final_select_samples))
    assert "playoff winner" in reason
    assert record == filteredpca.TerminalRecord(scored=len(stream), first_hit=None, playoff=True)
    order = sorted(range(len(stream)), key=lambda i: (errs[i], i))
    assert errs[order[0]] > 3 * config.eps  # no hit, so the playoff decides
    assert errs[order[32]] - errs[order[31]] > 1e-9  # rounding cannot move the cut
    index = {_selector_key(sk): i for i, sk in enumerate(stream)}
    assert [index[k] for k in scored[:-1]] == order[:32]  # the playoff set, in its order
    playoff_errs = _selector_errors([stream[i] for i in order[:32]], oracle.draw(8 * config.final_select_samples))
    winner = order[int(np.argmin(playoff_errs))]
    assert _selector_key(hypothesis) == scored[-1] == _selector_key(stream[winner])


def test_final_search_playoff_on_a_clipped_grid(monkeypatch, unfiltered_network_stream):
    """On enumerate_networks' own grid, whose clipped points repeat, the playoff set is
    32 distinct tuples and holds every tuple of the unfiltered stream's 32 best."""
    w0 = np.random.default_rng(6).standard_normal((2, 2))
    w0 /= np.linalg.norm(w0, axis=1, keepdims=True)
    target = ReluNetwork((w0 @ _GRID_FRAME.vectors, np.array([[1.0, -0.7]])))
    scored = []

    def recording_evaluate(net, x):
        if net is not target:
            scored.append(_key(net.weights))
        return evaluate(net, x)

    monkeypatch.setattr(filteredpca, "evaluate", recording_evaluate)
    config = LearnConfig(
        dim=4, k=2, size=2, l=0, b=1.0, lam=1.0, eps=0.01, delta=0.05, final_eps_prime=0.7,
        final_select_samples=256, n_check=2_000,
    )
    _, _, _, reason, record = _final_search(GaussianOracle(target, 3), config, _GRID_FRAME)
    assert record.playoff and record.first_hit is None
    assert "playoff winner" in reason
    playoff = scored[:-1]  # the last scored network is the winner's error check
    assert len(playoff) == len(set(playoff)) == 32
    reference = unfiltered_network_stream(_GRID_FRAME, 0.7, 2, 0, 1.0)
    errs = _brute_force_errors(reference, GaussianOracle(target, 3).draw(256))
    order = sorted(range(len(reference)), key=lambda i: (errs[i], i))
    best = {_key(reference[i]) for i in order[:32]}
    assert len(best) < 32  # the unfiltered 32 best repeat candidates
    distinct = sorted({_key(ws): err for ws, err in zip(reference, errs)}.values())
    assert distinct[31] - distinct[len(best) - 1] > 1e-9  # rounding cannot reorder the cut
    assert best <= set(playoff)


def test_scored_hidden_activations_are_read_only(rng):
    """No consumer can write a yielded H (blocks share h0) or W, and scanning leaves the blocks as they were."""
    x = rng.standard_normal((8, 4))
    kickers = list(enumerate_kickers(_GRID_FRAME, 0.9, 2, 1.0).factory())[:20]
    before_blocks = [(b.selector.leaves.copy(), b.picks.copy()) for b in kickers]
    lists = [
        enumerate_networks(_GRID_FRAME, 0.9, 2, 0, 1.0),
        CandidateList(factory=lambda: iter(kickers), count_bound=len(kickers) * len(kickers[0].picks)),
    ]
    for cands in lists:
        before = _block_preds(cands, x, 8 * 4)
        for chunk in _scored(cands.factory(), x, 8 * 4):
            for _, _, w, h in chunk:
                for arr in (w, h):
                    with pytest.raises(ValueError, match="read-only"):
                        arr[:] = np.nan
        assert np.array_equal(_block_preds(cands, x, 8 * 4), before)
    for b, (leaves, picks) in zip(kickers, before_blocks):
        assert np.array_equal(b.selector.leaves, leaves) and np.array_equal(b.picks, picks)
