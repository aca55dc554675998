import collections
import dataclasses
import gc
import itertools
import math
import mmap
import sys
import time
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from relupca import filteredpca
from relupca.enumeration import (
    CandidateList,
    KickerBlock,
    _candidate,
    enumerate_kickers,
    enumerate_networks,
    ray_basis,
)
from relupca.filteredpca import (
    GaussianOracle,
    LearnConfig,
    SampleSet,
    _final_search,
    _gated,
    _gram,
    _iter_predictions,
    _mask_key,
    _masked_moment,
    _pick_tau,
    _scan_moments,
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
    project,
    seeded_start,
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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_sample_set_rejects_every_non_finite_value(bad):
    for x, y in ((np.array([[1.0, bad], [0.0, 2.0]]), np.zeros(2)), (np.ones((2, 2)), np.array([0.0, bad]))):
        with pytest.raises(ValueError, match="samples must be finite"):
            SampleSet(x, y)


def test_sample_set_accepts_finite_values_whose_sum_overflows():
    big = np.finfo(float).max
    x, y = np.array([[big, big], [-big, -big]]), np.array([big, big])
    with np.errstate(over="ignore"):
        assert math.isinf(np.array([big, big]).sum())
    s = SampleSet(x, y)
    assert np.array_equal(s.x, x) and np.array_equal(s.y, y)
    x[1] = big  # every entry finite, the sum +inf
    assert SampleSet(x, y).n == 2
    x[0, 0] = -np.inf  # a sum of +inf and -inf is NaN
    with pytest.raises(ValueError, match="samples must be finite"):
        SampleSet(x, y)


def test_sample_set_copies_writable_input():
    x, y = np.zeros((3, 2)), np.zeros(3)
    s = SampleSet(x, y)
    for mine, theirs in ((s.x, x), (s.y, y)):
        assert not mine.flags.writeable
        assert not np.shares_memory(mine, theirs)
    x[0, 0] = y[0] = 1.0
    assert s.x[0, 0] == 0.0 and s.y[0] == 0.0
    # a read-only view is no guarantee: the memory it views is still writable
    view, y_view = x[:, :], y[:]
    view.flags.writeable = y_view.flags.writeable = False
    borrowed = SampleSet(view, y_view)
    assert not np.shares_memory(borrowed.x, x) and not np.shares_memory(borrowed.y, y)
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


def test_oracle_batches_keep_their_own_pages():
    """An oracle batch's x is the generator's standard normals, read-only and owning its data, which SampleSet keeps
    uncopied; a read-only array over pages that a caller still holds is copied."""
    batch = gaussian_oracle(abs_net([1.0, 0.0, 0.0]), 3).draw(1_000)
    assert batch.x.tobytes() == np.random.default_rng(3).standard_normal((1_000, 3)).tobytes()
    assert batch.x.base is None and batch.x.flags.owndata and not batch.x.flags.writeable
    assert SampleSet(batch.x, batch.y).x is batch.x
    pages = mmap.mmap(-1, 8 * 6)
    x = np.ndarray((3, 2), buffer=pages)
    x.flags.writeable = False
    kept = SampleSet(x, np.zeros(3)).x
    pages.write(np.ones(6).tobytes())
    assert not np.shares_memory(kept, x) and not np.any(kept)


def test_oracle_is_deterministic_and_sequential():
    """Two oracles on one seed draw the same batch; two draws of 10 rows are one draw of 20, byte for byte."""
    net = abs_net([1.0, 0.0])
    a1 = gaussian_oracle(net, 3).draw(10)
    a2 = gaussian_oracle(net, 3).draw(10)
    assert np.array_equal(a1.x, a2.x)
    assert np.array_equal(a1.y, a2.y)
    oracle = gaussian_oracle(net, 3)
    b1, b2 = oracle.draw(10), oracle.draw(10)
    whole = gaussian_oracle(net, 3).draw(20)
    assert np.vstack([b1.x, b2.x]).tobytes() == whole.x.tobytes()
    assert np.concatenate([b1.y, b2.y]).tobytes() == whole.y.tobytes()
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
    with pytest.raises(ValueError, match="^tau must be"):  # NaN once returned a zero moment
        filter_matrix(samples, Frame.empty(2), zero_network(2), tau=math.nan)


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
        got = _masked_moment(*_gram(x, mask), q, n)
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)
        assert np.array_equal(got, got.T)


def _block_preds(cands, x):
    """Every candidate's predictions at x, (candidates, N), from _iter_predictions over a CandidateList's blocks.

    x is in ambient coordinates; the blocks are scored on Z = X F^T, as run() scores them.
    """
    return np.array(list(_iter_predictions(cands.factory(), x @ cands.frame.vectors.T)))


def test_loop_candidates_score_raw_rows_as_projected_rows(rng):
    """Every loop candidate reads x only through the frame, so run() may score the raw rows' frame
    coordinates Z = X F^T: the blocks' rows equal each lifted candidate at the raw rows and at the
    projected rows."""
    frame = Frame.from_span(rng.standard_normal((2, 5)))
    x = rng.standard_normal((300, 5))
    x_proj = project(frame, x)
    grids = [
        enumerate_networks(frame, 0.9, 2, 0, 1.0),
        enumerate_networks(frame, 0.9, 2, 1, 1.0),
        enumerate_kickers(frame, 0.9, 2, 1.0),
    ]
    for cands in grids:
        assert cands.frame is frame
        scored = _block_preds(cands, x)
        raw = np.array([as_function(c)(x) for c in cands])
        proj = np.array([as_function(c)(x_proj) for c in cands])
        assert scored.shape == raw.shape == proj.shape and raw.shape[0] > 1
        assert np.max(np.abs(scored - raw)) <= 1e-12
        assert np.max(np.abs(scored - proj)) <= 1e-12


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
        ("delta", 1.0), ("eps", 0.0), ("eps", 1.0), ("eps", "0.1"), ("delta", None),
        ("eps", True), ("b", True), ("seed", True), ("seed", 1.0), ("seed", -1),
    ]:
        with pytest.raises(ValueError, match=f"^{field} must be"):
            LearnConfig(**{**base, field: value})
    assert LearnConfig(**{**base, "eps": 1e-7}).eps == 1e-7  # no floor: see test_a_tiny_eps_fails_with_a_reason
    numpy_scalars = LearnConfig(**{**base, "dim": np.int64(4), "eps": np.float64(0.1), "max_candidates": np.int32(5)})
    assert (numpy_scalars.dim, numpy_scalars.eps, numpy_scalars.max_candidates) == (4, 0.1, 5)


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


@pytest.mark.parametrize("k, reason", [(1, "terminal enumeration budget exhausted"),
                                       (2, "enumeration budget exhausted at iteration 1")])
def test_a_tiny_eps_fails_with_a_reason(k, reason):
    """eps = 1e-7 makes the fit's dictionary grid exceed the candidate budget: the terminal's at k = 1, the loop's
    fit at k = 2; the run ends uncertified and says why."""
    result = run(gaussian_oracle(abs_net([0.6, 0.8, 0.0, 0.0]), 0), small_recovery_config(k=k, eps=1e-7))
    assert not result.certified and result.failure_reason.startswith(reason)
    if k == 2:  # the loop's fit was never scored, so its iteration records no tau
        assert (result.trace[1].candidates_scanned, result.trace[1].tau) == (0, None)


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
    """On gapped moments the loop accepts on |lambda| and orients as seeded power iteration would.

    Iteration 0 calibrates on its one moment and accepts it.  In iteration 1
    the first moment's dominant eigenvalue is negative (-2, with +1 above the
    threshold as well): power iteration converges to the -2 pair, and |-2|
    clears the threshold, so it is accepted with lambda = -2 and the frame
    grows by that pair's vector; the moment after it is never read.  Values
    agree to 1e-9 relative and frame vectors to 1e-6: sign included for the
    positive pair, and for the negative one, whose sign power iteration flips
    each sweep, oriented towards the seeded start.
    """
    rng = np.random.default_rng(seed)
    m0 = _gapped(rng, 5, [rng.uniform(0.8, 2.0)])
    u0, _, _ = _power_step(m0, seed * 1_000_003)
    neg = _gapped(rng, 5, [-2.0, 1.0], u0)
    unread = _gapped(rng, 5, [rng.uniform(0.8, 2.0)], u0)
    moments = iter([m0, neg, unread])
    monkeypatch.setattr(filteredpca, "_masked_moment", lambda *args: next(moments))
    config = small_recovery_config(dim=5, k=2, final_eps_prime=1.0, seed=seed)
    result = run(gaussian_oracle(abs_net([1.0, 0.0, 0.0, 0.0, 0.0]), seed), config)
    assert [t.accepted_candidate for t in result.trace] == [0, 0]
    assert next(moments) is unread
    assert result.constants["lambda_acc_effective"] < 2.0
    for ell, m in enumerate([m0, neg]):
        w, lam, _ = _power_step(m, seed * 1_000_003 + 7919 * ell)
        assert result.trace[ell].lam_value == pytest.approx(lam, rel=1e-9)
        if lam < 0:
            assert lam == pytest.approx(-2.0, rel=1e-9)
            start = seeded_start(5, 1, seed * 1_000_003 + 7919 * ell)[:, 0]
            w = w if w @ start >= 0 else -w
        assert np.max(np.abs(result.frame.vectors[ell] - w)) <= 1e-6


def test_embedded_spike_plane_is_recovered():
    """spike_network(10) embedded on a random plane of R^10: criterion 7's run recovers the plane within chordal 0.1
    on at least 4 of seeds 0-4.  Past the first axis the masked rows lie in the spike's wedge, where the other
    planted coordinate is small, so the moment along it is negative: only acceptance on |lambda| finds it."""
    chordal = []
    for seed in range(5):
        recipe = {"kind": "spike", "lam": 10.0, "dim": 10, "net_seed": seed}
        result = _criterion_7_run(seed, recipe)
        planted = make_instance(recipe, seed)[1]
        chordal.append(chordal_distance(result.frame, planted) if len(result.frame) == 2 else math.inf)
    assert sum(c <= 0.1 for c in chordal) >= 4, chordal


_DIFF_INSTANCE = {"kind": "mixed", "dim": 6, "k": 2, "units": 2, "b": 1.0}


def _diff_config():
    """A d = 6 mixed run whose second scan, past a rejected fit (_reject_the_fit), accepts candidate 86: the grid's
    candidate 85 on the fall-through batch, in a grid full of repeated rows."""
    return LearnConfig(
        dim=6, k=2, size=2, l=0, b=1.0, lam=1.0, eps=0.05, delta=0.05, n_samples=20_000,
        n_check=2_000, tau_mode="quantile", final_eps_prime=0.3, seed=0,
    )


def _reject_the_fit(monkeypatch):
    """Make the least-squares fit on a one-vector frame the grid's first candidate there (_candidates), a row that
    the d = 6 mixed and the d = 10 and 100 abs scans reject, so that those scans go on through the grid, on a
    batch of their own.  A fit on any other frame, the terminal's on two vectors included, is kept."""
    fit = filteredpca._fit_block

    def first_grid_row(config, frame, z, y):
        if len(frame) != 1:
            return fit(config, frame, z, y)
        block = next(filteredpca._candidates(config, frame).factory())
        return (*block[:-1], block[-1][:1])

    monkeypatch.setattr(filteredpca, "_fit_block", first_grid_row)


def _recording_run(monkeypatch, config, fresh_keys=False):
    """run() on the d = 6 mixed instance past a rejected fit, recording every moment formed and every candidate's mask.

    With fresh_keys every candidate gets a repeat key of its own, so every
    moment is formed: the brute-force reference.  Returns (result, moments,
    per-scan lists of masks); a scan's candidate 0 is scored on its own
    batch, one chunk here, and keys nothing: its mask is its residuals above
    its tau on that chunk, and its moment is that mask's whole-batch moment
    to 1e-12 relative (_whole_batch_scan).  The rest are scored on the
    fall-through batch, and their masks are the ones they key.
    """
    _reject_the_fit(monkeypatch)
    net, _ = make_instance(_DIFF_INSTANCE, 0)
    moments, masks = [], []
    fresh = itertools.count()
    oracle = _RowCounter(gaussian_oracle(net, 0))

    def recording_moment(*args):
        moments.append(_masked_moment(*args))
        return moments[-1]

    def recording_scan(oracle_, config_, frame, q):  # candidate 0's mask, read from its one chunk
        scan = _scan_moments(oracle_, config_, frame, q)
        tau, m = next(scan)
        assert oracle.sizes[-1] == config.n_samples
        _, mask, want = _whole_batch_scan(config, frame, q, oracle.last, oracle.last, tau)
        _assert_close_moment(m, want)
        masks.append(mask)
        yield tau, m
        yield from scan

    def recording_key(mask):
        masks.append(mask.copy())
        return next(fresh).to_bytes(8, "little") if fresh_keys else _mask_key(mask)

    monkeypatch.setattr(filteredpca, "_masked_moment", recording_moment)
    monkeypatch.setattr(filteredpca, "_mask_key", recording_key)
    monkeypatch.setattr(filteredpca, "_scan_moments", recording_scan)
    result = run(oracle, config)
    ends = list(itertools.accumulate(t.candidates_scanned for t in result.trace))
    assert ends[-1] == len(masks)  # one mask per candidate scanned
    return result, moments, [masks[a:b] for a, b in zip([0, *ends], ends)]


def test_exact_eigen_step_matches_power_iteration(monkeypatch):
    """Solving every candidate's moment with approx_top_svd and its own seed accepts what run() accepts.

    run() forms one moment per distinct mask; each repeat is decided on its
    first occurrence's moment, so all 88 candidates are checked.  Same
    accepted index in every iteration, the same calibrated threshold and
    lambda to 1e-9 relative, and the same frame vector, sign included, to 1e-6.
    """
    config = _diff_config()
    result, moments, scans = _recording_run(monkeypatch, config)
    lambda_acc = result.constants["lambda_acc_effective"]
    assert [t.candidates_scanned for t in result.trace] == [1, 87]
    # the rejected fit and the grid's first row are one candidate, scored on two batches
    assert not np.array_equal(scans[1][0], scans[1][1])
    assert len(moments) == sum(len({(idx > 0, m.tobytes()) for idx, m in enumerate(masks)}) for masks in scans) == 23
    _, _, first_abs = _power_step(moments[0], config.seed * 1_000_003)
    assert lambda_acc == pytest.approx(config.acc_fraction * first_abs, rel=1e-9)
    formed = iter(moments)
    for ell, (record, masks) in enumerate(zip(result.trace, scans)):
        scan_moments: dict = {}  # (batch, mask bytes) -> its first occurrence's moment
        accepted = None
        for idx, mask in enumerate(masks):
            key = (idx > 0, mask.tobytes())  # candidate 0's batch, or the fall-through batch
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
    assert (len(moments), len(every_moment)) == (23, 88)
    assert [t.candidates_distinct for t in result.trace] == [1, 22]
    assert [t.candidates_distinct for t in reference.trace] == [1, 87]
    uncounted = [dataclasses.replace(t, candidates_distinct=0) for t in result.trace]
    assert uncounted == [dataclasses.replace(t, candidates_distinct=0) for t in reference.trace]
    assert result.frame.vectors.tobytes() == reference.frame.vectors.tobytes()
    assert result.constants == reference.constants
    assert result.eps_hat == reference.eps_hat


def _abs_block(v, *out):
    """The network block relu(v.x) * a + relu(-v.x) * b, one row per (a, b) in out."""
    return (np.array([v, -v]), np.array(out, dtype=float))


_LINE = np.array([1.0])  # the coordinate of a one-vector frame


def _scan_row(block, z):
    """A one-row block's prediction row as the scan forms it: W_out @ relu(z W_0^T)^T."""
    return (block[-1] @ np.maximum(z @ block[0].T, 0.0).T)[0]


def _grid_past_a_rejected_fit(monkeypatch, stream, **overrides):
    """run() at k = 2 on |x_2| (d = 4), where the ell = 0 scan accepts (_accept_the_first_moment) and the ell = 1 scan
    rejects its fit, a copy of stream's first block (_reject_the_fit), then every block of stream, the grid, on the
    fall-through batch; overrides go to small_recovery_config.  Returns (the ell = 1 record, the moments that scan
    formed, its batch's y and frame coordinates)."""
    net = abs_net([0.0, 1.0, 0.0, 0.0])
    monkeypatch.setattr(filteredpca, "_candidates", lambda _, frame: CandidateList(lambda: iter(stream), 3, frame))
    _reject_the_fit(monkeypatch)
    formed = _accept_the_first_moment(monkeypatch)
    config = small_recovery_config(k=2, lambda_acc=1e9, **overrides)
    result = run(gaussian_oracle(net, 0), config)
    oracle = gaussian_oracle(net, 0)
    oracle.draw(2 * config.n_samples)  # the two scans' candidate 0 batches, drawn in chunks
    batch = oracle.draw(config.n_samples)
    return result.trace[1], formed[1:], batch.y, batch.x @ result.frame.vectors.T


def test_repeat_as_the_last_candidate_keeps_its_first_tau(monkeypatch):
    """A scan with no acceptance that ends on a repeat records the repeated row's tau, not its neighbour's.
    Candidate 0, the fit (a copy of a), is scored on its own batch, so it forms a moment and repeats nothing."""
    a, b = _abs_block(_LINE, (1.0, 1.0)), _abs_block(_LINE, (0.5, -0.5))  # |z| and z / 2
    record, formed, y, z = _grid_past_a_rejected_fit(monkeypatch, [a, b, a])
    assert (record.accepted_candidate, record.candidates_scanned, len(formed)) == (None, 4, 3)
    assert record.candidates_distinct == 3
    assert record.tau == float(np.quantile(np.abs(y - _scan_row(a, z)), 0.95))
    assert record.tau != float(np.quantile(np.abs(y - _scan_row(b, z)), 0.95))


def test_rows_with_one_mask_form_one_moment(monkeypatch):
    """Rows whose bytes differ but whose masks agree form one moment; the record keeps the later row's tau.
    Candidate 0, the fit (a copy of a), is scored on its own batch, a and b on the fall-through batch."""
    a, b = _abs_block(_LINE, (1.0, 1.0)), _abs_block(_LINE, (1.0 + 1e-9, 1.0 + 1e-9))  # |z| and |z| (1 + 1e-9)
    record, formed, y, z = _grid_past_a_rejected_fit(monkeypatch, [a, b])
    resid = [np.abs(y - _scan_row(block, z)) for block in (a, b)]
    tau_a, tau_b = (float(np.quantile(r, 0.95)) for r in resid)
    assert _scan_row(a, z).tobytes() != _scan_row(b, z).tobytes() and tau_a != tau_b
    assert np.array_equal(resid[0] > tau_a, resid[1] > tau_b)
    assert (record.accepted_candidate, record.candidates_scanned, len(formed)) == (None, 3, 2)
    assert record.candidates_distinct == 2
    assert record.tau == tau_b


# Grid blocks whose rows are |x_2| less the fit's |z| (residuals near 0), |x_2| itself (the zero net), and overshoots
# on either side.
_GRID_ROWS = [_abs_block(_LINE, *out) for out in ([(1.0, 1.0), (0.0, 0.0)], [(0.5, -0.5), (1.0, 0.0)], [(2.0, 3.0)])]


def test_every_grid_tau_is_numpys(monkeypatch):
    """On the fall-through batch every grid candidate's tau is max(np.quantile(r, 0.95), 1e-12) of its own residuals
    r, to the bit (_GRID_ROWS)."""
    taus, pick = [], filteredpca._pick_tau
    monkeypatch.setattr(filteredpca, "_pick_tau", lambda *args: taus.append(pick(*args)) or taus[-1])
    record, _, y, z = _grid_past_a_rejected_fit(monkeypatch, _GRID_ROWS)
    assert record.candidates_scanned == 1 + 5 and len(taus) == 2 + 5  # two scans' candidate 0, then the grid
    rows = [_scan_row((block[0], out[None]), z) for block in _GRID_ROWS for out in block[-1]]
    want = [_numpy_tau(np.abs(y - row), 0.95) for row in rows]
    assert np.array(taus[2:]).tobytes() == np.array(want).tobytes()


def test_the_formula_mode_grid_cuts_at_config_tau(monkeypatch):
    """In formula mode every candidate's tau is config.tau, on the fall-through batch too (_GRID_ROWS), and each
    grid row keys the mask r > config.tau of its own residuals r."""
    taus, pick = [], filteredpca._pick_tau
    monkeypatch.setattr(filteredpca, "_pick_tau", lambda *args: taus.append(pick(*args)) or taus[-1])
    keys = _recording_keys(monkeypatch)
    record, _, y, z = _grid_past_a_rejected_fit(monkeypatch, _GRID_ROWS, tau_mode="formula", lam=0.1)
    tau = small_recovery_config(k=2, lam=0.1).tau
    assert record.candidates_scanned == 1 + 5 and taus == [tau] * (2 + 5) and record.tau == tau
    masks = [np.abs(y - _scan_row((block[0], out[None]), z)) > tau for block in _GRID_ROWS for out in block[-1]]
    assert len(keys) == 5 and all(np.array_equal(key, mask) for key, mask in zip(keys, masks))
    assert any(0 < np.count_nonzero(mask) < len(y) for mask in masks)


def test_the_first_scan_builds_no_grid(monkeypatch):
    """The ell = 0 scan scores the zero net alone, once, on its chunks: with _candidates raising, a k = 1 run
    completes and certifies, equal to a run without the patch."""
    net, config = abs_net([0.6, 0.8, 0.0, 0.0]), small_recovery_config()
    want = run(gaussian_oracle(net, 0), config)

    def no_grid(*args):
        raise AssertionError("the ell = 0 scan built a grid")

    monkeypatch.setattr(filteredpca, "_candidates", no_grid)
    result = run(gaussian_oracle(net, 0), config)
    assert result.certified and result.trace == want.trace and result.eps_hat == want.eps_hat
    assert result.frame.vectors.tobytes() == want.frame.vectors.tobytes()


def _numpy_tau(r, q):
    return max(float(np.quantile(r, q)), 1e-12)


def _row_tau(config, r):
    """The tau of a whole row of residuals r, read as the scan reads a grid row's: _tau_cut of a sample, then
    _pick_tau of the values of r between the cuts."""
    cuts = filteredpca._tau_cut(config, filteredpca._sample(r), r.size)
    inside, over = filteredpca._split(r, cuts)
    return _pick_tau(config, r[inside], r.size, cuts, int(np.count_nonzero(over)))


def _assert_same_tau(r, q, band=None, cut=-math.inf, upper=math.inf, above=0):
    """_row_tau of r, or _pick_tau of band (the values of r in (cut, upper], with above more over upper), is
    max(np.quantile(r, q), 1e-12) to the bit; NaN when that is NaN."""
    config = types.SimpleNamespace(tau_mode="quantile", tau_quantile=q)
    got = _row_tau(config, r) if band is None else _pick_tau(config, band, r.size, (cut, upper), above)
    want = _numpy_tau(r, q)
    same = np.float64(got).tobytes() == np.float64(want).tobytes() or math.isnan(got) and math.isnan(want)
    assert type(got) is float and same, (got, want)


_TAU_STRIDE_4 = 4 * filteredpca._TAU_SAMPLE  # rows this long are cut on every fourth entry, shorter ones on fewer


@settings(max_examples=100)
@given(st.data())
def test_pick_tau_matches_numpy_quantile(data):
    """Quantile-mode tau is max(np.quantile(r, q), 1e-12) to the bit, from rows of 1 entry to 300 000, and NaN when r
    holds a NaN.  From band, the values of r between a lower and an upper cut, shuffled, as a scan keeps them, with
    above more over the upper cut (_top_quantile), it is so too when skip = n - |band| - above <= lo = floor((n -
    1) q) and hi < n - above, or when the order statistics it reads among the skip values left out equal the lower
    cut; otherwise it is between the cuts."""
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    n = data.draw(st.one_of(st.integers(1, 50), st.integers(_TAU_STRIDE_4 - 50, _TAU_STRIDE_4 + 50),
                            st.integers(_TAU_STRIDE_4, 300_000)), label="n")
    kind = data.draw(st.sampled_from(["gaussian", "ties", "equal", "zeros", "nan", "spike"]), label="kind")
    r = np.abs(rng.standard_normal(n)) * rng.uniform(0.1, 10.0)
    if kind == "ties":  # a handful of distinct values, so the cut and tau fall inside runs of equal entries
        r = np.floor(r * data.draw(st.integers(1, 4), label="levels"))
    elif kind == "spike":  # a spike net's |y|: mostly rounding-level ties, a few percent large
        r = np.where(rng.uniform(size=n) < 0.02, r, 1e-16 * rng.integers(0, 3, size=n))
    elif kind == "equal":
        r = np.full(n, rng.uniform(0.0, 3.0))
    elif kind == "zeros":
        r = np.zeros(n)
    elif kind == "nan":
        r[rng.integers(0, n, size=data.draw(st.integers(1, 3), label="nans"))] = np.nan
    q = data.draw(st.sampled_from([0.95, 0.5, 0.05]) | st.floats(0.001, 0.999), label="q")
    _assert_same_tau(r, q)
    lo = math.floor((n - 1) * q)
    at = data.draw(st.sampled_from([-1, lo - 1, lo, lo + 1, n - 1]) | st.integers(-1, n - 1), label="cut rank")
    up = max(data.draw(st.sampled_from([n, lo, lo + 1, n - 1]) | st.integers(0, n), label="upper cut rank"), at)
    ordered = np.sort(r)  # NaN sorts last
    cut = -math.inf if at < 0 else float(ordered[min(at, n - 1)])
    upper = math.inf if up >= n else float(ordered[up])
    over = r > upper
    band = rng.permutation(r[np.logical_not(r <= cut) ^ over])  # every NaN among them
    above = int(np.count_nonzero(over))
    skip = n - band.size - above
    ranks = (lo, min(lo + 1, n - 1))
    read = ordered[[j for j in ranks if j < skip]]
    if np.all(read == cut) and max(ranks) < n - above or np.isnan(r).any():
        _assert_same_tau(r, q, band, cut, upper, above)
    else:  # a cut stands in for an order statistic beyond it
        config = types.SimpleNamespace(tau_mode="quantile", tau_quantile=q)
        assert cut <= _pick_tau(config, band, n, (cut, upper), above) <= max(upper, 1e-12)


@pytest.mark.parametrize("n", [_TAU_STRIDE_4 - 1, _TAU_STRIDE_4, 200_000])
def test_pick_tau_edges(n):
    """hi = n - 1 and NaN give np.quantile's tau, on either side of a step in the cut's stride."""
    rng = np.random.default_rng(n)
    r = np.abs(rng.standard_normal(n))
    _assert_same_tau(r, 0.95)
    q = (n - 1.5) / (n - 1)  # (n - 1) q = n - 1.5: lo = n - 2, hi = n - 1
    assert math.floor((n - 1) * q) == n - 2
    _assert_same_tau(r, q)
    r[n // 3] = np.nan
    assert math.isnan(_row_tau(types.SimpleNamespace(tau_mode="quantile", tau_quantile=0.95), r))
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
    """lo + below entries fall below the subsample's cut, and one equals it.  Up to lo, order statistic lo is kept or
    is the cut itself, so tau is np.quantile's; past it, order statistic lo is below the cut, which stands in for it
    and for hi (the cut's own entry): tau is the cut, above np.quantile's."""
    n, q = _TAU_STRIDE_4, 0.95
    lo = math.floor((n - 1) * q)
    stride = n // filteredpca._TAU_SAMPLE
    sample = np.random.default_rng(0).permutation(n // stride).astype(float)  # cut = the rank-th value
    m, p = sample.size, lo / n  # _tau_cut's lower rank among the m sampled values
    rank = math.ceil(m * lo / n - filteredpca._TAU_MARGIN * math.sqrt(m * p * (1.0 - p) * (n - m) / n)) - 1
    r = np.full(n, 1e6)
    r[::stride] = sample
    rest = np.flatnonzero(r == 1e6)
    r[rest[: lo + below - rank]] = rank - 0.5  # with the sample's rank entries, lo + below under the cut
    assert np.count_nonzero(r < rank) == lo + below and np.count_nonzero(r == rank) == 1
    if below <= 0:
        _assert_same_tau(r, q)
    else:
        assert _row_tau(types.SimpleNamespace(tau_mode="quantile", tau_quantile=q), r) == rank > _numpy_tau(r, q)


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
            return SampleSet(batch.x, batch.y + 1.0)
        return batch


def test_failed_check_after_selection_hit_gives_a_reason():
    net, _ = make_instance({"kind": "abs", "dim": 4}, 0)
    oracle = ShiftThirdDraw(gaussian_oracle(net, 0))
    result = run(oracle, small_recovery_config())
    assert oracle.draws == 3  # the loop's batch, the selection batch and the check
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
        "terminal_units": 2 * config.size + 1, "refine_iterations": 60, "refine_margin": 0.05,
    }
    # a configured threshold is not calibrated, and is the effective one
    config = small_recovery_config(lambda_acc=0.5, final_eps_prime=0.3)
    cons = run(gaussian_oracle(abs_net(v), 3), config).constants
    assert "lambda_acc_calibrated" not in cons
    assert (cons["lambda_acc_effective"], cons["final_eps_prime"]) == (0.5, 0.3)


# ---------------------------------------------------------------- terminal fit

_GRID_FRAME = Frame.from_span(np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 1.0]]))


def _terminal_config(frame, **overrides):
    base = dict(dim=frame.dim, k=len(frame), size=2, l=0, b=1.0, lam=1.0, eps=0.02, delta=0.05,
                final_eps_prime=0.16, final_select_samples=512, n_check=2_000)
    return LearnConfig(**{**base, **overrides})


def test_terminal_fit_on_a_line_solves_the_two_by_two_normal_equations():
    """On a one-vector frame every dictionary row is c v with c of either sign, so the fit's
    predictions are alpha relu(t) + beta relu(-t) at t = <v, x>, with alpha and beta from the
    diagonal 2 x 2 normal equations: relu(t) and relu(-t) are never both non-zero."""
    v = np.array([0.6, 0.0, 0.8, 0.0])
    frame = Frame.from_span(v[None, :])
    # a target off the line, so the fit leaves a residual
    target = ReluNetwork((np.array([[0.6, 0.3, 0.8, 0.0], [-0.5, 0.0, -0.9, 0.6]]), np.array([[1.0, -0.7]])))
    config = _terminal_config(frame, b=math.sqrt(2.0), final_eps_prime=0.25)
    hypothesis, _, _, _, record = _final_search(GaussianOracle(target, 3), config, frame)
    select = GaussianOracle(target, 3).draw(config.final_select_samples)
    t = select.x @ frame.vectors[0]
    pos, neg = np.maximum(t, 0.0), np.maximum(-t, 0.0)
    alpha, beta = (select.y @ pos) / (pos @ pos), (select.y @ neg) / (neg @ neg)
    want = alpha * pos + beta * neg
    assert record.features == 2  # one row per ray: a positive and a negative multiple of v
    np.testing.assert_allclose(evaluate(hypothesis, select.x), want, rtol=1e-10, atol=0)
    assert record.select_err == pytest.approx(np.sqrt(np.mean((select.y - want) ** 2)), rel=1e-10)


def _first_per_direction(rows):
    """Indices of the rows that are the first non-zero row with their direction (rounded to 1e-9)."""
    seen, keep = set(), []
    for i, row in enumerate(rows):
        norm = np.linalg.norm(row)
        key = tuple(np.round(row / norm, 9)) if norm else None
        if key is not None and key not in seen:
            seen.add(key)
            keep.append(i)
    return keep


def _one_unit_rows(frame, eps, radius=1.0):
    """The first-layer rows of the one-unit network grid over frame, in stream order, as one (n, ell) array."""
    return np.concatenate([block[0] for block in enumerate_networks(frame, eps, 1, 0, radius).factory()])


def test_terminal_fit_is_the_dictionary_times_the_lstsq_coefficients():
    """The terminal's reference fit, _fit_block's block on the selection rows' frame coordinates, is the ray basis of
    the one-unit grid with lstsq's coefficients on its features, both byte for byte, and its lifted predictions there
    are the feature matrix times the coefficients.  The record counts the basis's rows; its 38 rays are more than
    2 size + ell = 6, so the record's held-out basis error is that block's on the next final_select_samples rows."""
    rng = np.random.default_rng(6)
    target = ReluNetwork((rng.standard_normal((3, 4)), np.array([[1.0, -0.7, 0.4]])))
    config = _terminal_config(_GRID_FRAME)
    hypothesis, _, _, _, record = _final_search(GaussianOracle(target, 3), config, _GRID_FRAME)
    rows = _one_unit_rows(_GRID_FRAME, 0.16)
    w0 = rows[ray_basis(rows, 0.16)]
    # collinear and zero rows dropped, then one of each pair of opposite rays but -e_1 and -e_2
    assert (int(np.count_nonzero(np.any(rows, axis=1))), len(_first_per_direction(rows)), len(w0)) == (108, 72, 38)
    oracle = GaussianOracle(target, 3)
    select, held = oracle.draw(config.final_select_samples), oracle.draw(config.final_select_samples)
    h = np.maximum(select.x @ _GRID_FRAME.vectors.T @ w0.T, 0.0)
    coef = np.linalg.lstsq(h, select.y, rcond=None)[0]
    block = filteredpca._fit_block(config, _GRID_FRAME, select.x @ _GRID_FRAME.vectors.T, select.y)
    np.testing.assert_array_equal(block[0], w0)
    np.testing.assert_array_equal(block[1], coef[None, :])
    lifted = ReluNetwork((block[0] @ _GRID_FRAME.vectors, block[1]))
    np.testing.assert_allclose(evaluate(lifted, select.x), h @ coef, rtol=0, atol=1e-12)
    assert (record.features, record.rows) == (38, config.final_select_samples)
    h_held = np.maximum(held.x @ _GRID_FRAME.vectors.T @ w0.T, 0.0)
    assert record.basis_heldout_err == pytest.approx(np.sqrt(np.mean((held.y - h_held @ coef) ** 2)), rel=1e-12)
    assert record.select_err == pytest.approx(np.sqrt(np.mean((select.y - evaluate(hypothesis, select.x)) ** 2)),
                                              rel=1e-12)


def _ray_basis_reference(ints):
    """Brute force on the grid's integer vectors: (rays, basis), the indices of the non-zero rows that no earlier
    row shares a ray with (every 2 x 2 minor vanishes and the two point the same way), and those of them whose first
    non-zero entry is positive or which are a negative multiple of an axis vector e_j."""

    def same_ray(u, v):
        return not np.any(np.outer(u, v) - np.outer(v, u)) and u @ v > 0

    rays = [i for i, u in enumerate(ints) if np.any(u) and not any(same_ray(u, ints[j]) for j in range(i))]
    basis = [i for i in rays if ints[i][np.flatnonzero(ints[i])[0]] > 0 or np.count_nonzero(ints[i]) == 1]
    return rays, basis


@pytest.mark.parametrize("ell, eps, radius", [(1, 0.25, 2.0**0.5), (2, 0.16, 1.0), (2, 0.5, 1.0), (3, 0.3, 1.0)])
def test_terminal_dictionary_keeps_the_first_row_of_each_ray(ell, eps, radius):
    """ray_basis keeps, in stream order, the first row of each ray with a positive first non-zero entry and of
    each ray -e_j, as a brute-force search on the grid's integer vectors finds them: P + ell of the 2P rays,
    and at ell = 1 the first row of each of the two rays, in order.  It refuses rows off the grid.  The
    fit block is those rows, with lstsq's coefficients on their features, byte for byte, and where the basis is at
    most 2 size + ell rays wide (only at ell = 1 here) the hypothesis is that block lifted, byte for byte."""
    frame = Frame.from_span(np.random.default_rng(ell).standard_normal((ell, ell + 2)))
    rows = _one_unit_rows(frame, eps, radius)
    spacing = 2.0 * eps / math.sqrt(ell)
    ints = np.rint(rows / spacing)
    assert np.array_equal(ints * spacing, rows)  # the rows are the spacing times integer vectors
    rays, keep = _ray_basis_reference(ints.astype(np.int64))
    assert rays == _first_per_direction(rows) and len(rays) % 2 == 0
    assert ray_basis(rows, eps).tolist() == keep and len(keep) == len(rays) // 2 + ell
    assert ell > 1 or keep == rays
    with pytest.raises(ValueError, match="not on the one-unit network grid"):
        ray_basis(1.5 * rows, eps)  # rows off the grid are refused, not keyed wrongly
    target = abs_net(frame.vectors[0])
    config = _terminal_config(frame, b=radius, final_eps_prime=eps)
    hypothesis, _, _, _, record = _final_search(GaussianOracle(target, 3), config, frame)
    w0 = rows[keep]
    select = GaussianOracle(target, 3).draw(config.final_select_samples)
    coef = np.linalg.lstsq(np.maximum(select.x @ frame.vectors.T @ w0.T, 0.0), select.y, rcond=None)[0]
    block = filteredpca._fit_block(config, frame, select.x @ frame.vectors.T, select.y)
    assert record.features == len(keep) and block[0].tobytes() == w0.tobytes()
    assert block[1].tobytes() == coef[None, :].tobytes()
    assert (len(keep) <= config.terminal_units(ell)) == (ell == 1)
    if ell == 1:
        assert hypothesis.weights[0].tobytes() == (w0 @ frame.vectors).tobytes()
        assert hypothesis.weights[1].tobytes() == coef[None, :].tobytes() and record.returned == "basis"


_FIT_FRAMES = {
    1: Frame.from_span(np.array([[1.0, 1.0, 0.0, 0.0]])),
    2: _GRID_FRAME,
    3: Frame.from_span(np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 1.0], [1.0, 0.0, 0.0, -1.0]])),
}


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_dropping_collinear_rows_keeps_the_fitted_function(ell):
    """The ray basis spans the same columns as every grid row, so the least-squares predictions of the fit block,
    lifted, agree to rounding.  Its feature matrix has full column rank; the dictionary of one row per ray has the
    same rank, which is below its width at ell >= 2.  At ell = 1 the terminal returns that block, lifted."""
    eps = 0.3 if ell == 3 else 0.16
    frame = _FIT_FRAMES[ell]
    rng = np.random.default_rng(6)
    target = ReluNetwork((rng.standard_normal((3, 4)), np.array([[1.0, -0.7, 0.4]])))
    config = _terminal_config(frame, final_eps_prime=eps)
    terminal = _final_search(GaussianOracle(target, 3), config, frame)[0]
    select = GaussianOracle(target, 3).draw(config.final_select_samples)
    w0, w1 = filteredpca._fit_block(config, frame, select.x @ frame.vectors.T, select.y)
    hypothesis = ReluNetwork((w0 @ frame.vectors, w1))
    if ell == 1:
        assert all(a.tobytes() == b.tobytes() for a, b in zip(terminal.weights, hypothesis.weights))
    every = _one_unit_rows(frame, eps) @ frame.vectors
    h = np.maximum(select.x @ every.T, 0.0)
    full = h @ np.linalg.lstsq(h, select.y, rcond=None)[0]
    np.testing.assert_allclose(evaluate(hypothesis, select.x), full, rtol=0, atol=1e-9 * np.max(np.abs(full)))
    kept = np.maximum(select.x @ hypothesis.weights[0].T, 0.0)
    rays = h[:, _first_per_direction(every)]
    assert np.linalg.matrix_rank(kept) == kept.shape[1] == np.linalg.matrix_rank(rays)
    assert (rays.shape[1] > kept.shape[1]) == (ell >= 2)


def test_terminal_fit_on_an_empty_frame_is_the_zero_net():
    target = abs_net([1.0, 0.0, 0.0, 0.0])
    config = _terminal_config(Frame.empty(4), k=1)
    hypothesis, eps_hat, certified, _, record = _final_search(GaussianOracle(target, 3), config, Frame.empty(4))
    assert all(not np.any(w) for w in hypothesis.weights)
    select = GaussianOracle(target, 3).draw(config.final_select_samples)
    assert record == filteredpca.TerminalRecord(0, config.final_select_samples, float(np.sqrt(np.mean(select.y**2))))
    assert not certified and eps_hat > 0.5


def _criterion_7_config(seed, **overrides):
    """Criterion 7's config for seed, with overrides."""
    config = dict(
        dim=10, k=2, size=2, l=0, b=1.0, lam=1.0, eps=0.02, delta=0.05, n_samples=200_000, n_check=20_000,
        seed=200 + seed, tau_mode="quantile", eps_prime=0.5, final_eps_prime=0.16, final_select_samples=512,
        max_candidates=20_000_000,
    )
    return LearnConfig(**{**config, **overrides})


def _criterion_7_run(seed, recipe=None, **overrides):
    """run() with criterion 7's config on its recipe (the rank2-terminal benchmark's: mixed, d = 10), or on recipe
    when given, after a 4 096-row burn-in."""
    net, _ = make_instance(recipe or {"kind": "mixed", "dim": 10, "k": 2, "units": 2, "b": 1.0}, seed)
    oracle = GaussianOracle(net, 100 + seed)
    oracle.draw(4096)
    return run(oracle, _criterion_7_config(seed, **overrides))


def test_criterion_7_seed_1_certifies():
    """The seed a grid search over size-2 networks left uncertified (eps_hat 0.0650 > 0.06)."""
    start = time.perf_counter()
    result = _criterion_7_run(1)
    seconds = time.perf_counter() - start
    assert result.certified, result.failure_reason
    assert result.failure_reason is None
    assert result.eps_hat <= 3 * 0.02
    assert seconds < 2.0


def test_a_loop_grid_over_budget_is_built_only_when_a_scan_reaches_it():
    """Criterion 7's seed-1 run at eps_prime 0.3 and a budget of 1 000: the loop grid's count bound, 2 025, exceeds
    the budget, but each fit's dictionary (at most 981 rays) does not, and the fit is accepted at iteration 1 before
    the grid would be scanned, so the run certifies."""
    result = _criterion_7_run(1, eps_prime=0.3, max_candidates=1000)
    assert result.certified, result.failure_reason
    assert [(r.candidates_scanned, r.accepted_candidate) for r in result.trace] == [(1, 0), (1, 0)]


def test_underdetermined_terminal_fit_is_named_in_the_reason():
    """With no more selection rows than dictionary rows the fit interpolates, and a failed check says so."""
    result = _criterion_7_run(2, final_select_samples=2)
    assert len(result.frame) == 2 and result.terminal.rows == 2
    assert not result.certified
    assert result.failure_reason.endswith(
        f"; the fit is underdetermined: {result.terminal.features} dictionary rows for "
        "final_select_samples 2 at final_eps_prime 0.16"
    )
    assert result.terminal.features >= 2


@pytest.mark.parametrize("ell", [1, 2])
def test_fit_block_row_equals_the_lifted_fit(ell, rng):
    """The loop's first candidate on a non-empty frame: the fit block's row, as the scan forms it at Z, equals
    evaluate of the lifted network at the raw rows to 1e-12 relative; its output row is lstsq on the batch's first
    final_select_samples rows, byte for byte.  The terminal's reference fit is the same helper's block on its
    selection batch, and the record counts its rays.  At ell = 1 (2 rays, at most 2 size + ell) the hypothesis is
    that block lifted, byte for byte; at ell = 2 (38 rays) the record's held-out basis error is that block's on the
    next final_select_samples rows, to the bit."""
    frame = Frame.from_span(rng.standard_normal((ell, 4)))
    target = ReluNetwork((rng.standard_normal((3, 4)), np.array([[1.0, -0.7, 0.4]])))
    config = _terminal_config(frame)
    batch = GaussianOracle(target, 3).draw(2_000)
    z = batch.x @ frame.vectors.T
    w0, w1 = filteredpca._fit_block(config, frame, z, batch.y)
    assert len(w0) == (2 if ell == 1 else 38)
    [row] = _iter_predictions([(w0, w1)], z)
    want = evaluate(ReluNetwork((w0 @ frame.vectors, w1)), batch.x)
    assert np.max(np.abs(row - want)) <= 1e-12 * max(1.0, np.max(np.abs(row)))
    first = slice(config.final_select_samples)
    h = np.maximum(z[first] @ w0.T, 0.0)
    assert w1.tobytes() == np.linalg.lstsq(h, batch.y[first], rcond=None)[0][None, :].tobytes()
    hypothesis, _, _, _, record = _final_search(GaussianOracle(target, 3), config, frame)
    oracle = GaussianOracle(target, 3)
    select, held = oracle.draw(config.final_select_samples), oracle.draw(config.final_select_samples)
    w0, w1 = filteredpca._fit_block(config, frame, select.x @ frame.vectors.T, select.y)
    assert record.features == len(w0)
    if ell == 1:
        assert hypothesis.weights[0].tobytes() == (w0 @ frame.vectors).tobytes()
        assert hypothesis.weights[1].tobytes() == w1.tobytes() and record.returned == "basis"
    else:
        [row] = _iter_predictions([(w0, w1)], held.x @ frame.vectors.T)
        assert record.basis_heldout_err == float(np.sqrt(np.mean((row - held.y) ** 2)))


def _frame_target(angles, signs):
    """A depth-2 net on _GRID_FRAME's span: one unit relu(<cos t f_1 + sin t f_2, x>) of each sign per angle t."""
    directions = np.stack([np.cos(angles), np.sin(angles)], axis=1) @ _GRID_FRAME.vectors
    return ReluNetwork((directions, np.asarray(signs, dtype=float)[None, :]))


def test_narrow_fit_predictions_equal_the_lifted_network():
    """On a 38-ray basis (2 size + ell = 6) the terminal returns the refined block of _narrow, lifted through the
    frame byte for byte, and evaluate of it at the selection rows equals the refinement's own predictions at their
    frame coordinates to 1e-12 relative.  The record says so, and counts its 6 units and the basis's 38 rays."""
    target = _frame_target(np.array([0.3, 2.2]), [1.0, -0.8])
    config = _terminal_config(_GRID_FRAME)
    hypothesis, _, certified, _, record = _final_search(GaussianOracle(target, 3), config, _GRID_FRAME)
    select = GaussianOracle(target, 3).draw(config.final_select_samples)
    z = select.x @ _GRID_FRAME.vectors.T
    w0 = filteredpca._fit_block(config, _GRID_FRAME, z, select.y)[0]
    block, history = filteredpca._narrow(config, w0, z, select.y, 6)
    assert (record.returned, record.units, record.features) == ("refined", 6, 38) and certified
    assert record.refined_heldout_err <= (1.0 + LearnConfig.refine_margin) * record.basis_heldout_err
    assert hypothesis.weights[0].tobytes() == (block[0] @ _GRID_FRAME.vectors).tobytes()
    assert hypothesis.weights[1].tobytes() == block[1].tobytes()
    own = np.maximum(z @ block[0].T, 0.0) @ block[1][0]  # f = relu(Z V^T) a, as the refinement forms it
    assert history[-1] == pytest.approx(np.sqrt(np.mean((select.y - own) ** 2)), rel=1e-12)
    assert np.max(np.abs(evaluate(hypothesis, select.x) - own)) <= 1e-12 * np.max(np.abs(own))


@pytest.mark.parametrize("seed", range(5))
def test_refinement_never_raises_the_fit_rows_error(seed):
    """Levenberg-Marquardt takes a step only when it lowers the fit rows' squared error: the RMS error _narrow
    records at the start and after each of at most refine_iterations iterations never rises."""
    rng = np.random.default_rng(seed)
    target = ReluNetwork((rng.standard_normal((3, 4)), rng.standard_normal((1, 3))))
    config = _terminal_config(_GRID_FRAME)
    select = GaussianOracle(target, seed).draw(config.final_select_samples)
    z = select.x @ _GRID_FRAME.vectors.T
    w0 = filteredpca._fit_block(config, _GRID_FRAME, z, select.y)[0]
    (v, a), history = filteredpca._narrow(config, w0, z, select.y, config.terminal_units(2))
    assert v.shape == (6, 2) and a.shape == (1, 6)
    assert 2 <= len(history) <= LearnConfig.refine_iterations + 1
    assert np.all(np.diff(history) <= 0.0)
    assert history[-1] == pytest.approx(filteredpca._block_rms((v, a), z, select.y), rel=1e-12)


def test_a_refined_fit_that_validates_worse_returns_the_basis_fit():
    """A planted net of 12 units of alternating sign on the frame, at size 1: 2 size + ell = 4 refined units cannot
    follow it, so their held-out error exceeds the basis fit's by more than refine_margin, and the terminal returns
    the basis fit, lifted byte for byte, and records "basis"."""
    target = _frame_target(np.arange(12) * np.pi / 6 + 0.1, [(-1.0) ** i for i in range(12)])
    config = _terminal_config(_GRID_FRAME, size=1)
    hypothesis, _, _, _, record = _final_search(GaussianOracle(target, 3), config, _GRID_FRAME)
    select = GaussianOracle(target, 3).draw(config.final_select_samples)
    w0, w1 = filteredpca._fit_block(config, _GRID_FRAME, select.x @ _GRID_FRAME.vectors.T, select.y)
    assert (record.returned, record.units, record.features) == ("basis", 38, 38)
    assert record.refined_heldout_err > (1.0 + LearnConfig.refine_margin) * record.basis_heldout_err
    assert hypothesis.weights[0].tobytes() == (w0 @ _GRID_FRAME.vectors).tobytes()
    assert hypothesis.weights[1].tobytes() == w1.tobytes()


class _LastBatch:
    """An oracle that keeps the last batch it drew."""

    def __init__(self, oracle):
        self.oracle, self.input_dim, self.last = oracle, oracle.input_dim, None

    def draw(self, n):
        self.last = self.oracle.draw(n)
        return self.last


def test_criterion_7_hypotheses_are_narrow_and_check_within_the_margin(monkeypatch):
    """On criterion 7's ten seeds the hypothesis has at most 2 size + ell = 6 units, and its check error is at most
    (1 + refine_margin) times the basis fit's (the terminal's _fit_block block, lifted) on the same check rows."""
    blocks = []
    fit_block = filteredpca._fit_block
    monkeypatch.setattr(filteredpca, "_fit_block", lambda *args: blocks.append(fit_block(*args)) or blocks[-1])
    for seed in range(10):
        net, _ = make_instance({"kind": "mixed", "dim": 10, "k": 2, "units": 2, "b": 1.0}, seed)
        oracle = _LastBatch(GaussianOracle(net, 100 + seed))
        oracle.draw(4096)
        result = run(oracle, _criterion_7_config(seed))
        assert len(result.frame) == 2 and len(result.hypothesis.weights[0]) <= 6
        w0, w1 = blocks[-1]  # the terminal's reference fit
        basis = ReluNetwork((w0 @ result.frame.vectors, w1))
        check = oracle.last
        basis_err = float(np.sqrt(np.mean((check.y - evaluate(basis, check.x)) ** 2)))
        assert result.eps_hat <= (1.0 + LearnConfig.refine_margin) * basis_err


@pytest.mark.parametrize("ell, eps", [(1, 0.25), (2, 0.16), (3, 0.3)])
def test_folding_opposite_rays_keeps_the_function(ell, eps):
    """The ray basis B of a one-unit grid (radius 1) computes every function of its dictionary D of one row per
    ray, as folding D's opposite rays with relu(-t) = relu(t) - t would: for Gaussian coefficients c, the same
    with about half of them zero, and c on only the rows outside B, the lstsq fit of relu(Z D^T) c on relu(Z B^T)
    over 10^4 Gaussian rows matches it to 1e-10 * max(1, max |row|).  At ell = 1 B is D; at ell >= 2 it has
    P + ell of D's 2P rows, and some row outside B is not the exact negation of a row of D."""
    rows = _one_unit_rows(Frame(np.eye(ell)), eps)
    rays, kept = _first_per_direction(rows), ray_basis(rows, eps)
    dictionary, basis, outside = rows[rays], rows[kept], ~np.isin(rays, kept)
    assert len(basis) == len(dictionary) // 2 + ell and np.count_nonzero(outside) == len(dictionary) - len(basis)
    rng = np.random.default_rng(ell)
    z = rng.standard_normal((10_000, ell))
    features = np.maximum(z @ basis.T, 0.0)
    gauss = rng.standard_normal(len(dictionary))
    for coef in (gauss, np.where(rng.random(len(dictionary)) < 0.5, 0.0, gauss), np.where(outside, gauss, 0.0)):
        want = np.maximum(z @ dictionary.T, 0.0) @ coef
        got = features @ np.linalg.lstsq(features, want, rcond=None)[0]
        assert np.max(np.abs(got - want)) <= 1e-10 * max(1.0, np.max(np.abs(want)))
    negations = {(-row).tobytes() for row in dictionary}
    assert ell == 1 or any(row.tobytes() not in negations for row in dictionary[outside])


class _RowCounter:
    """An oracle that records the size of every batch it draws, and keeps the last."""

    def __init__(self, inner):
        self.inner, self.sizes, self.last = inner, [], None
        self.input_dim = inner.input_dim

    def draw(self, n):
        self.sizes.append(n)
        self.last = self.inner.draw(n)
        return self.last


def _accept_the_first_moment(monkeypatch):
    """Scale the first moment run() forms, the empty frame's, by 1e12, so that it clears any threshold with the
    same top eigenvector; every later moment is run()'s own.  Returns the list of moments formed."""
    formed = []

    def moment(*args):
        formed.append(_masked_moment(*args))
        return formed[-1] * (1e12 if len(formed) == 1 else 1.0)

    monkeypatch.setattr(filteredpca, "_masked_moment", moment)
    return formed


def test_a_rejected_fit_falls_through_to_the_grid(monkeypatch):
    """With lambda_acc = 1e9 the scan on a one-vector frame rejects its fit and then every grid candidate: it
    counts 1 + the grid's candidates and forms one moment per distinct mask among them all.  The grid reads a
    batch of its own, so a copy of the fit at its head forms a moment of its own there."""
    net = abs_net([0.6, 0.8, 0.0, 0.0])
    config = small_recovery_config(k=2, lambda_acc=1e9)
    formed = _accept_the_first_moment(monkeypatch)
    rows = _RowCounter(gaussian_oracle(net, 0))
    result = run(rows, config)
    grid = sum(1 for _ in enumerate_networks(result.frame, config.eps_prime, config.size, config.l, config.b))
    record = result.trace[1]
    assert (record.candidates_scanned, record.accepted_candidate) == (1 + grid, None)
    assert record.candidates_distinct == len(formed) - 1 > 1
    n = config.n_samples  # each scan's batch, the fall-through batch, the selection batch and the check
    assert rows.sizes == [n, n, n, config.final_select_samples, config.n_check]

    fits, fit, grid_of = [], filteredpca._fit_block, filteredpca._candidates

    def fit_copy_first(config, frame):  # the grid, with a copy of the scan's fit at its head
        grid = grid_of(config, frame)
        return CandidateList(lambda: itertools.chain([fits[-1]], grid.factory()), grid.count_bound + 1, frame)

    monkeypatch.setattr(filteredpca, "_fit_block", lambda *args: fits.append(fit(*args)) or fits[-1])
    monkeypatch.setattr(filteredpca, "_candidates", fit_copy_first)
    formed = _accept_the_first_moment(monkeypatch)
    copied = run(gaussian_oracle(net, 0), config)
    assert len(fits) == 2  # the loop's fit and the terminal's
    assert copied.trace[1] == dataclasses.replace(
        record, candidates_scanned=2 + grid, candidates_distinct=record.candidates_distinct + 1)
    assert len(formed) - 1 == record.candidates_distinct + 1


def _streaming_setup(monkeypatch, tau_mode, ell, chunk_floats=160_000, dim=10, n=50_000):
    """A mixed scan at dim (10 by default) and N = n (50 000), over the planted frame's first ell vectors, drawn in
    chunks of chunk_floats // dim rows (16 000 by default: three and a remainder of 2 000; None: the module's own
    budget).  Returns (net, config, frame, q)."""
    if chunk_floats is not None:
        monkeypatch.setattr(filteredpca, "_CHUNK_FLOATS", chunk_floats)
    net, planted = make_instance({"kind": "mixed", "dim": dim, "k": 2, "units": 2, "b": 1.0}, 0)
    config = LearnConfig(dim=dim, k=2, size=2, l=0, b=1.0, lam=0.1, eps=0.05, delta=0.05, n_samples=n,
                         tau_mode=tau_mode, final_eps_prime=0.3)
    frame = Frame(planted.vectors[:ell]) if ell else Frame.empty(dim)
    return net, config, frame, np.eye(dim) - frame.projector()


def _candidate_0_resid(config, frame, batch, fit_rows):
    """The residuals of a scan's candidate 0 (the zero net, or the fit on fit_rows' first rows) on a batch drawn
    whole."""
    if len(frame):
        block = filteredpca._fit_block(config, frame, fit_rows.x @ frame.vectors.T, fit_rows.y)
    else:
        block = next(filteredpca._zero_candidates(config.dim).factory())
    return np.abs(batch.y - next(_iter_predictions([block], batch.x @ frame.vectors.T)))


def _whole_batch_scan(config, frame, q, batch, fit_rows, tau=None):
    """Candidate 0 of a scan on a batch drawn whole (_candidate_0_resid), with tau config.tau in formula mode and
    max(np.quantile(r, q), 1e-12) in quantile mode, unless tau is given: (tau, mask, moment), the moment from the
    masked rows' Gram in one product."""
    resid = _candidate_0_resid(config, frame, batch, fit_rows)
    if tau is None:
        tau = config.tau if config.tau_mode == "formula" else _numpy_tau(resid, config.tau_quantile)
    mask = resid > tau
    return tau, mask, _masked_moment(*_gram(batch.x, mask), q, batch.n)


def _recording_keys(monkeypatch):
    """Record every mask the scan keys; returns the list."""
    keys = []
    monkeypatch.setattr(filteredpca, "_mask_key", lambda mask: keys.append(mask.copy()) or _mask_key(mask))
    return keys


def _scaled_past(batch, rows):
    """The batch with x and y times 4 past its first rows rows, so that more of its residuals clear a cut."""
    scale = np.where(np.arange(batch.n) < rows, 1.0, 4.0)
    return SampleSet(batch.x * scale[:, None], batch.y * scale)


def _recording_counts(monkeypatch):
    """Record the masked row count of every moment formed; returns the list."""
    counts = []
    monkeypatch.setattr(filteredpca, "_masked_moment", lambda gram, count, *args: counts.append(count)
                        or _masked_moment(gram, count, *args))
    return counts


def _assert_close_moment(m, want):
    """A moment from a Gram summed chunk by chunk equals the whole-batch one to 1e-12 of its largest entry."""
    assert np.max(np.abs(m - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("ell", [0, 1])
@pytest.mark.parametrize("case", [  # (dim, n_samples, _CHUNK_FLOATS or None for the module's, grow)
    pytest.param((10, 50_000, 160_000, False), id="160000"),  # 4 chunks, N not a multiple of 16 000
    pytest.param((10, 50_000, 2_000_000, False), id="2000000"),  # 1 chunk
    pytest.param((10, 50_000, None, False), id="d10"),  # 2 chunks, which were 1 with 2e6 floats
    pytest.param((4, 150_000, None, False), id="d4"),  # 3 chunks, which were 1 with 2e6 floats
    pytest.param((10, 50_000, 160_000, True), id="grow"),  # chunks past the first scaled up: a miss above the band
])
@pytest.mark.parametrize("tau_mode", ["formula", "quantile"])
def test_streamed_scan_equals_a_whole_batch_scan(monkeypatch, tau_mode, case, ell):
    """Candidate 0 scored on its batch drawn in chunks has the tau (to the bit), the masked row count and, to 1e-12
    relative, the moment of a whole-batch scan of the same rows.  Of x the scan keeps only the band's rows, in one
    writable buffer of its own (_rows_made), under a tenth of the batch.  Candidate 0 keys no mask.  The first cuts
    are read from a strided sample of the first chunk's residuals, past the fit's own rows at ell = 1.

    In the grow case the first chunk's residuals are smaller than the rest, so the rows are not exchangeable: in
    quantile mode tau's order statistics are above the band, so tau reads as the upper cut, below np.quantile's,
    and the mask is every row above that cut."""
    dim, n, chunk_floats, grow = case
    net, config, frame, q = _streaming_setup(monkeypatch, tau_mode, ell, chunk_floats, dim, n)
    chunks = _chunks(config)
    assert len(chunks) == {160_000: 4, 2_000_000: 1, None: 2 if dim == 10 else 3}[chunk_floats]
    oracle = _Predrawn(net, 3, chunks)
    if grow:
        oracle.batches[1:] = [_scaled_past(batch, 0) for batch in oracle.batches[1:]]
    keys, counts = _recording_keys(monkeypatch), _recording_counts(monkeypatch)
    buffers = _rows_made(monkeypatch)["_scan_moments"]
    cuts, read, tau_cut = [], [], filteredpca._tau_cut

    def recording_cut(cfg, band, *args):
        read.append(band.copy())
        cuts.append(tau_cut(cfg, band, *args))
        return cuts[-1]

    monkeypatch.setattr(filteredpca, "_tau_cut", recording_cut)
    tau, m = next(filteredpca._scan_moments(oracle, config, frame, q))
    assert not oracle.batches
    monkeypatch.undo()
    batch = gaussian_oracle(net, 3).draw(n)
    if grow:
        batch = _scaled_past(batch, chunks[0])
    first = _candidate_0_resid(config, frame, batch, batch)[config.final_select_samples if ell else 0 : chunks[0]]
    assert read[0].tobytes() == filteredpca._sample(first).tobytes()
    want_tau, want_mask, want_m = _whole_batch_scan(config, frame, q, batch, batch)
    if grow and tau_mode == "quantile":  # a miss above the band
        assert tau == cuts[-1][1] < want_tau
        _, want_mask, want_m = _whole_batch_scan(config, frame, q, batch, batch, tau)
    else:
        assert np.float64(tau).tobytes() == np.float64(want_tau).tobytes()
    assert 0 < np.count_nonzero(want_mask) < batch.n
    assert not keys and counts == [np.count_nonzero(want_mask)]
    _assert_close_moment(m, want_m)
    assert len(buffers) == 1 and buffers[0] < batch.n / 10


def test_ties_at_the_upper_cut_grow_the_band(monkeypatch):
    """Residuals tied at the upper cut stay in the band however it narrows: here 4.1 % of the rows, which overflow
    the band's buffer, so it grows, once.  tau (the tie itself) is np.quantile's to the bit, and the masked count
    and, to 1e-12 relative, the moment are a whole-batch scan's.  The ell = 0 scan's residuals are |y|: y is uniform
    on [0, 1), save that every y in [0.949, 0.99) is 0.97, so the cuts' margins straddle the start of the tie."""
    net, config, frame, q = _streaming_setup(monkeypatch, "quantile", 0)
    oracle = _Predrawn(net, 3, _chunks(config))
    u = np.random.default_rng(3).uniform(size=config.n_samples)
    y = np.where((u >= 0.949) & (u < 0.99), 0.97, u)
    x = np.concatenate([batch.x for batch in oracle.batches])
    ends = np.cumsum([batch.n for batch in oracle.batches])[:-1]
    oracle.batches = [SampleSet(batch.x, part) for batch, part in zip(oracle.batches, np.split(y, ends))]
    counts, buffers = _recording_counts(monkeypatch), _rows_made(monkeypatch)["_scan_moments"]
    tau, m = next(filteredpca._scan_moments(oracle, config, frame, q))
    assert tau == 0.97 == _numpy_tau(y, 0.95)
    mask = y > tau
    assert counts == [np.count_nonzero(mask)] and len(buffers) == 2 and buffers[0] < 0.041 * y.size < buffers[1]
    _assert_close_moment(m, _masked_moment(*_gram(x, mask), q, y.size))


def test_spike_ties_at_the_cut_score_candidate_0_once(monkeypatch):
    """spike_network(50) embedded at d = 10 (criterion 7's config, seed 0): almost every |y| of the ell = 0 scan is a
    rounding-level tie, and order statistic lo falls among the ties at or below the cut.  The scan reads it as the
    cut, which those ties equal, so it draws only its n_samples rows, its tau is np.quantile's to the bit (here the
    1e-12 floor), and its masked row count and, to 1e-12 relative, its moment are a whole-batch scan's."""
    net, config = make_instance({"kind": "spike", "lam": 50.0, "dim": 10, "net_seed": 0}, 0)[0], _criterion_7_config(0)
    frame, q = Frame.empty(10), np.eye(10)
    oracle = _RowCounter(gaussian_oracle(net, 100))
    counts = _recording_counts(monkeypatch)
    scan = filteredpca._scan_moments(oracle, config, frame, q)
    tau, m = next(scan)
    assert next(scan, None) is None and sum(oracle.sizes) == config.n_samples
    batch = gaussian_oracle(net, 100).draw(config.n_samples)
    assert np.float64(tau).tobytes() == np.float64(_numpy_tau(np.abs(batch.y), 0.95)).tobytes()
    want_tau, want_mask, want_m = _whole_batch_scan(config, frame, q, batch, batch)
    assert tau == want_tau and counts == [np.count_nonzero(want_mask)]
    _assert_close_moment(m, want_m)


# ---------------------------------------------------------------- batched evaluation


def _ambient_kicker(block, frame):
    """A kicker block lifted out of frame coordinates: it reads an ambient x, as a block over the identity frame."""
    return KickerBlock(SelectorKicker(block.selector.leaves @ frame.vectors, {}, frame), block.picks)


@given(st.data())
def test_pred_chunks_match_reference_evaluation(data):
    """Every network block row's predictions equal evaluate() on its own network, and
    every kicker block row's equal selector_eval() on its own SelectorKicker.

    Rows come in stream order, one per candidate.  Kicker blocks break runs of
    network blocks, some of which share a first layer or their output rows, and a
    payload may come again later in the stream.  Each row is writable and its own,
    as the scan overwrites each row with its residual: no later row changes when
    one is overwritten.  A kicker block scored again gives the same bytes.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    d = data.draw(st.integers(1, 4), label="d")
    x = rng.standard_normal((data.draw(st.integers(1, 6), label="rows"), d))
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
        share_out = data.draw(st.booleans(), label="blocks share W_out")
        for _ in range(data.draw(st.integers(1, 5), label="blocks")):
            hidden = [w if j < shared else rng.standard_normal(w.shape) for j, w in enumerate(prefix)]
            stream.append((*hidden, w_out if share_out else rng.standard_normal(w_out.shape)))
    line = Frame.from_span(rng.standard_normal((1, d)))
    kickers = [_ambient_kicker(b, line) for b in enumerate_kickers(line, 0.9, 2, 1.0).factory()]
    others = [kickers[data.draw(st.integers(0, len(kickers) - 1), label="kicker")] for _ in range(2)]
    breaks = data.draw(st.lists(st.integers(0, len(stream)), max_size=4), label="breaks")
    for at in sorted(breaks, reverse=True):  # may split a run: its first layer goes on after
        stream.insert(at, others[data.draw(st.integers(0, 1), label="other")])
    for _ in range(data.draw(st.integers(0, 3), label="repeats")):  # the same payload again, later
        src = data.draw(st.integers(0, len(stream) - 1), label="repeat of")
        stream.insert(data.draw(st.integers(src + 1, len(stream)), label="repeat at"), stream[src])
    flat = [(p, r) for p in stream for r in range(len(p[-1]))]
    types = all_order_types(2)
    tables = list(itertools.product(range(2), repeat=len(types)))  # a kicker block's rows, in order
    want = []
    for p, r in flat:
        if isinstance(p, KickerBlock):
            sk = SelectorKicker(p.selector.leaves, dict(zip(types, tables[r])), p.selector.frame)
            want.append(selector_eval(sk, x))
        else:
            want.append(evaluate(ReluNetwork((*p[:-1], p[-1][r : r + 1])), x))
    scan = []
    for row in _iter_predictions(stream, x):
        assert row.shape == (len(x),) and row.flags.writeable
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
    """The same check on enumerate_networks' own block streams, whose blocks share first layers:
    scored in frame coordinates, each row equals evaluate() of the lifted candidate at x."""
    frame = Frame.from_span(rng.standard_normal((2, 4)))
    cands = enumerate_networks(frame, eps_prime, size, l, 1.0, max_candidates=None)
    x = rng.standard_normal((5, 4))
    preds = _block_preds(cands, x)
    flat = list(cands)
    assert len(preds) == len(flat) > len(list(cands.factory()))
    for net, row in zip(flat, preds):
        np.testing.assert_allclose(row, evaluate(net, x), rtol=0, atol=1e-12)


@pytest.mark.parametrize("ell, size, l", [(1, 2, 0), (2, 2, 0), (2, 3, 1), (3, 2, 1)])
def test_frame_coordinate_network_rows_equal_the_lifted_networks(ell, size, l, rng):
    """At d = 10, network blocks scored on Z = X F^T give each lifted candidate's evaluate() at x,
    to 1e-12 relative, with depth-3 blocks (l = 1)."""
    d = 10
    frame = Frame.from_span(rng.standard_normal((ell, d)))
    cands = enumerate_networks(frame, 0.9, size, l, 1.0, max_candidates=None)
    assert all(block[0].shape[1] == ell for block in cands.factory())
    x = 3.0 * rng.standard_normal((64, d))
    preds = _block_preds(cands, x)
    flat = list(cands)
    assert len(preds) == len(flat) > len(list(cands.factory()))
    for net, row in zip(flat, preds):
        want = evaluate(net, x)
        assert net.input_dim == d
        assert np.max(np.abs(row - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))


@pytest.mark.parametrize("ell, eps_prime", [(1, 0.5), (2, 0.9), (3, 1.5)])
def test_frame_coordinate_kicker_rows_equal_the_lifted_selectors(ell, eps_prime, rng):
    """At d = 10, kicker blocks scored on Z = X F^T give selector_eval of each lifted SelectorKicker
    at x, to 1e-12 relative, on the rows whose gaps between distinct leaf values exceed the tie rule
    1e-12 * max(1, max |row|) tenfold: there both computations see the same order type."""
    d = 10
    frame = Frame.from_span(rng.standard_normal((ell, d)))
    cands = enumerate_kickers(frame, eps_prime, 2, 1.0)
    x = 3.0 * rng.standard_normal((200, d))
    preds = _block_preds(cands, x)
    flat = list(cands)
    assert len(preds) == len(flat) > len(list(cands.factory()))
    checked = 0
    for sk, row in zip(flat, preds):
        vals = x @ sk.leaves.T
        gap = np.abs(vals[:, 0] - vals[:, 1])
        same_leaf = np.array_equal(sk.leaves[0], sk.leaves[1])
        keep = same_leaf | (gap > 10 * 1e-12 * np.fmax(1.0, np.max(np.abs(vals), axis=1)))
        want = selector_eval(sk, x)
        assert np.max(np.abs(row - want)[keep]) <= 1e-12 * max(1.0, np.max(np.abs(want)))
        checked += int(keep.sum())
    assert checked >= 0.99 * len(flat) * len(x)


@given(st.data())
def test_kicker_block_rows_equal_selector_eval(data):
    """Each row that _iter_predictions yields for a kicker block at the frame coordinates z is selector_eval
    of that row's frame-coordinate SelectorKicker at z, bit for bit, and the list lifts that row through the frame.

    Tables are drawn at random over 1 to 3 leaves, two of which may be equal.
    Rows of z are Gaussian at scales 1e-3 to 1e3, rows whose first and last
    leaf values tie within the rule 1e-12 * max(1, max |row|) (so those leaves
    share a rank), or exact zeros.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16), label="seed"))
    d = data.draw(st.integers(1, 4), label="d")
    ell = data.draw(st.integers(1, d), label="ell")
    frame = Frame.from_span(rng.standard_normal((ell, d)))
    coords = Frame(np.eye(ell))  # the frame-coordinate selectors' frame
    m = data.draw(st.integers(1, 3), label="leaves")
    leaves = rng.standard_normal((m, ell))
    if m > 1 and data.draw(st.booleans(), label="two equal leaves"):
        leaves[1] = leaves[0]
    types = all_order_types(m)
    table = st.lists(st.integers(0, m - 1), min_size=len(types), max_size=len(types))
    tables = data.draw(st.lists(table, min_size=1, max_size=6), label="tables")
    picks = (np.array(tables)[:, :, None] == np.arange(m)).astype(float).reshape(len(tables), -1)
    block = KickerBlock(SelectorKicker(leaves, {}, coords), picks)
    kinds = data.draw(st.lists(st.sampled_from(["gauss", "tie", "zero"]), min_size=1, max_size=12), label="rows")
    z = rng.standard_normal((len(kinds), ell)) * 10.0 ** rng.integers(-3, 4, size=(len(kinds), 1))
    diff = leaves[0] - leaves[-1]
    for i, kind in enumerate(kinds):
        if kind == "zero":
            z[i] = 0.0
        elif kind == "tie" and diff @ diff > 0:
            z[i] -= (diff @ z[i]) / (diff @ diff) * diff  # leaf 0 and leaf m - 1 meet
            gap = data.draw(st.floats(-0.4, 0.4), label="gap") * 1e-12 * max(1.0, np.max(np.abs(leaves @ z[i])))
            z[i] += gap / (diff @ diff) * diff
            ranks = order_type(leaves @ z[i]).ranks
            assert ranks[0] == ranks[-1]
    assert _gated(block, z).shape == (len(z), m * len(types))
    cands = CandidateList(lambda: iter([block]), len(tables), frame)
    scan = list(_iter_predictions([block], z))
    assert len(scan) == len(tables)
    for r, (tab, lifted) in enumerate(zip(tables, cands)):
        sk = SelectorKicker(leaves, dict(zip(types, tab)), coords)
        np.testing.assert_array_equal(scan[r], selector_eval(sk, z))
        built = _candidate(block, r, coords)
        assert built.table == sk.table and built.leaves.tobytes() == sk.leaves.tobytes()
        assert lifted.table == sk.table and lifted.frame is frame
        assert lifted.leaves.tobytes() == (leaves @ frame.vectors).tobytes()


def test_scanning_leaves_the_blocks_unchanged(rng):
    """Scanning, with every yielded row overwritten as the scan does, leaves the blocks and their rows as they were."""
    x = rng.standard_normal((8, 4))
    kickers = list(enumerate_kickers(_GRID_FRAME, 0.9, 2, 1.0).factory())[:20]
    before_blocks = [(b.selector.leaves.copy(), b.picks.copy()) for b in kickers]
    lists = [
        enumerate_networks(_GRID_FRAME, 0.9, 2, 0, 1.0),
        CandidateList(lambda: iter(kickers), len(kickers) * len(kickers[0].picks), _GRID_FRAME),
    ]
    for cands in lists:
        before = _block_preds(cands, x)
        for row in _iter_predictions(cands.factory(), x @ cands.frame.vectors.T):
            row[:] = np.nan
        assert np.array_equal(_block_preds(cands, x), before)
    for b, (leaves, picks) in zip(kickers, before_blocks):
        assert np.array_equal(b.selector.leaves, leaves) and np.array_equal(b.picks, picks)


class _CountingZ(np.ndarray):
    """Frame coordinates that count the products that read them, as Z or as its transpose: one per block's first
    layer."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul and any(isinstance(a, _CountingZ) for a in inputs):
            _CountingZ.products += 1
        plain = [a.view(np.ndarray) if isinstance(a, _CountingZ) else a for a in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


def test_each_block_forms_its_hidden_activation_once(monkeypatch, rng):
    """A block's H is formed once however many rows it has: one product with Z per block (a network
    block's first layer, a kicker block's leaves) and one _gated call per kicker block.  The network
    block's rows x N x width (60 x 20 000 x 2) exceed 2e6 elements, which a scorer that splits
    blocks into chunks of that budget would score in pieces, forming H again for each."""
    n = 20_000
    line = Frame.from_span(rng.standard_normal((1, 3)))
    net_block = (np.array([[1.0], [-1.0]]), rng.standard_normal((60, 2)))
    kicker = next(iter(enumerate_kickers(line, 0.9, 2, 1.0).factory()))
    stream = [net_block, kicker, net_block]
    gated = []
    monkeypatch.setattr(filteredpca, "_gated", lambda *args: gated.append(1) or _gated(*args))
    monkeypatch.setattr(_CountingZ, "products", 0)
    z = rng.standard_normal((n, 1)).view(_CountingZ)
    rows = sum(1 for _ in _iter_predictions(stream, z))
    assert rows == 2 * 60 + len(kicker.picks)
    assert (len(gated), _CountingZ.products) == (1, 3)


class _Predrawn:
    """An oracle whose batches, one per size in sizes, are drawn before run(), so it allocates none."""

    def __init__(self, net, seed, sizes):
        oracle = GaussianOracle(net, seed)
        self.input_dim = net.input_dim
        self.batches = [oracle.draw(n) for n in sizes]

    def draw(self, n):
        batch = self.batches.pop(0)
        assert batch.n == n
        return batch


def _chunks(config):
    """The sizes of the chunks a scan draws its batch in."""
    n, rows = config.n_samples, max(filteredpca._CHUNK_FLOATS // config.dim, config.final_select_samples)
    return [min(rows, n - start) for start in range(0, n, rows)]


def _rows_made(monkeypatch):
    """Record the rows of every 2-D array that np.empty makes in filteredpca, by the function that makes it: draw
    (an oracle batch's x), _scan_moments (a scan's band buffer) or _compact (its bounce buffer).  Returns the
    dict of the lists they are appended to."""
    made = collections.defaultdict(list)

    class Numpy:  # numpy as filteredpca sees it
        def __getattr__(self, name):
            return getattr(np, name)

        def empty(self, shape, *args, **kwargs):
            if isinstance(shape, tuple) and len(shape) == 2:
                made[sys._getframe(1).f_code.co_name].append(shape[0])
            return np.empty(shape, *args, **kwargs)

    monkeypatch.setattr(filteredpca, "np", Numpy())
    return made


def test_loop_scan_memory_does_not_grow_with_d(monkeypatch):
    """The loop's peak traced allocation, net of the rows of x that it holds (the batches and chunks,
    drawn before tracing; the larger of a streamed scan's band buffer and the largest gather of
    masked rows, the fall-through batch's |m| x d), stays within what
    one-row scoring holds: Z, one block's hidden activation (N x widest hidden layer), two
    prediction rows (the one scanned and the next) and 16 bytes a row, at d = 10 (two chunks) and
    d = 100 (twenty) with the same N, and grows by less than 1 MB (the d x d moments) from one to
    the other.  The second scan, on a one-vector frame, runs past a rejected fit to the grid's last
    candidate, on the fall-through batch."""
    n = 50_000
    _reject_the_fit(monkeypatch)
    final = filteredpca._final_search
    net_peaks = []
    for d in (10, 100):
        v = np.zeros(d)
        v[:2] = (0.6, 0.8)
        config = small_recovery_config(dim=d, k=2, n_samples=n, n_check=1_000, final_select_samples=64)
        chunks = _chunks(config)
        assert len(chunks) == (2 if d == 10 else 20)
        oracle = _Predrawn(abs_net(v), 0, [*chunks, *chunks, n, 64, 64, 1_000])
        kept, gathered, peaks = _rows_made(monkeypatch)["_scan_moments"], [0], []

        def gram(x, mask):
            gathered.append(int(np.count_nonzero(mask)))
            return _gram(x, mask)

        def terminal(*args):  # the loop is over: its peak so far
            peaks.append(tracemalloc.get_traced_memory()[1])
            return final(*args)

        monkeypatch.setattr(filteredpca, "_gram", gram)
        monkeypatch.setattr(filteredpca, "_final_search", terminal)
        tracemalloc.start()
        try:
            result = run(oracle, config)
        finally:
            tracemalloc.stop()
        assert [(t.candidates_scanned, t.accepted_candidate) for t in result.trace] == [(1, 0), (251, 250)]
        assert not oracle.batches and len(kept) == 2  # one band buffer a scan, none outgrown
        net_peaks.append(peaks[0] - 8 * d * max(*gathered, *kept))
        z_bytes = 8 * n * (config.k - 1)  # the last scan's frame holds k - 1 vectors
        h_bytes = 8 * n * config.size  # l = 0: the one hidden layer is size wide
        assert net_peaks[-1] <= z_bytes + h_bytes + 2 * 8 * n + 16 * n
    assert net_peaks[1] <= net_peaks[0] + 1_000_000


def _band_peaks(monkeypatch):
    """Record the band's row count just before each narrowing (_compact) and when tau is read (_pick_tau): the
    largest of them is the band's largest row count.  Returns the list."""
    counts, compact, pick = [], filteredpca._compact, filteredpca._pick_tau
    monkeypatch.setattr(filteredpca, "_compact", lambda x, keep: counts.append(keep.size) or compact(x, keep))
    monkeypatch.setattr(filteredpca, "_pick_tau", lambda config, band, *args: counts.append(band.size)
                        or pick(config, band, *args))
    return counts


def test_a_scan_at_d_400_holds_a_fraction_of_its_batch(monkeypatch):
    """One quantile-tau scan at d = 400 and N = 2e5, whose whole batch would be 640 MB: its peak traced allocation,
    the chunks it draws and its band included, stays under what the band needs: one 655-row chunk with its labels,
    Z and residuals (2.1 MB), a band of at most N / 100 = 2 000 rows with their residuals (6.4 MB), and eight d x d
    matrices (the Gram, q, the moment's and the eigen-step's temporaries: 10.2 MB), with 1 MB for the rest.  The
    band's buffer is one, of fewer than 2 000 rows, and the band never outgrows it."""
    d, n = 400, 200_000
    v = np.zeros(d)
    v[:2] = (0.6, 0.8)
    config = small_recovery_config(dim=d, k=1, n_samples=n, n_check=1_000, final_select_samples=64)
    final, peaks = filteredpca._final_search, []

    def terminal(*args):  # the scan is over: its peak so far
        peaks.append(tracemalloc.get_traced_memory()[1])
        return final(*args)

    monkeypatch.setattr(filteredpca, "_final_search", terminal)
    made, band = _rows_made(monkeypatch), _band_peaks(monkeypatch)
    tracemalloc.start()
    try:
        result = run(gaussian_oracle(abs_net(v), 0), config)
    finally:
        tracemalloc.stop()
    rows = len(_chunks(config)), _chunks(config)[0]
    assert result.trace[0].accepted_candidate == 0 and rows == (306, 655)
    assert len(made["draw"]) == 306 + 3  # the chunks, the selection batch and the check's two chunks
    assert len(made["_scan_moments"]) == 1 and max(band) <= made["_scan_moments"][0] < n // 100
    assert peaks[0] <= 8 * (655 * (d + 3) + (n // 100) * (d + 1) + 8 * d * d) + 2**20


def test_band_rows_grow_like_the_square_root_of_n(monkeypatch):
    """The same d = 10 quantile scan at N = 5e4 and at N = 8e5 (16 times the rows): the band's largest row count
    grows by less than sqrt(16) = 4 times."""
    largest = []
    for n in (50_000, 800_000):
        net, config, frame, q = _streaming_setup(monkeypatch, "quantile", 0, None, 10, n)
        band = _band_peaks(monkeypatch)
        next(filteredpca._scan_moments(gaussian_oracle(net, 3), config, frame, q))
        largest.append(max(band))
    assert largest[1] < 4 * largest[0], largest


def test_terminal_fit_holds_no_moment_of_the_loop(monkeypatch):
    """Every moment the loop formed, the last scan's included, is freed before the terminal fit starts."""
    refs = []
    final = filteredpca._final_search

    def moment(*args):
        m = _masked_moment(*args)
        refs.append(weakref.ref(m))
        return m

    def terminal(*args):
        gc.collect()
        assert refs and all(ref() is None for ref in refs)
        return final(*args)

    monkeypatch.setattr(filteredpca, "_masked_moment", moment)
    monkeypatch.setattr(filteredpca, "_final_search", terminal)
    result = run(gaussian_oracle(abs_net(np.array([0.6, 0.8, 0.0, 0.0])), 0), small_recovery_config(k=2))
    assert len(result.trace) == 2
