import math

import numpy as np
import pytest

from relupca.filteredpca import (
    GaussianOracle,
    LearnConfig,
    SampleSet,
    as_function,
    estimate_l2_error,
    filter_matrix,
    gaussian_oracle,
    idealized_filter_matrix,
    run,
)
from relupca.harness import make_instance
from relupca.network import ReluNetwork, evaluate, zero_network
from relupca.subspace import Frame, chordal_distance


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


# ---------------------------------------------------------------- configuration

def test_threshold_formula():
    cfg = LearnConfig(dim=4, k=2, size=2, l=0, b=1.0, lam=1.5, eps=0.1, delta=0.05, c=2.0)
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


def test_oracle_dimension_checked():
    net = abs_net([1.0, 0.0])
    with pytest.raises(ValueError):
        run(gaussian_oracle(net, 0), small_recovery_config())  # config says dim 4


def test_constants_are_recorded():
    v = np.array([1.0, 0.0, 0.0, 0.0])
    result = run(gaussian_oracle(abs_net(v), 3), small_recovery_config())
    cons = result.constants
    for key in ("tau_formula", "lambda_acc_effective", "final_eps_prime", "seed"):
        assert key in cons
    assert cons["lambda_acc_effective"] is not None
