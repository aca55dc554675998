import numpy as np
import pytest

from relupca.enumeration import (
    CandidateList,
    EnumBudget,
    architectures,
    enumerate_kickers,
    enumerate_networks,
)
from relupca.errors import BudgetError
from relupca.lattice import SelectorKicker
from relupca.network import ReluNetwork, evaluate
from relupca.subspace import Frame

LINE = Frame.from_span(np.array([[1.0, 0.0, 0.0]]))


# ---------------------------------------------------------------- architectures

def test_architectures_enumerates_compositions():
    assert architectures(3, 1) == [(1, 2), (2, 1)]
    assert architectures(2, 0) == [(2,)]
    assert architectures(5, 2) == [
        (1, 1, 3),
        (1, 2, 2),
        (1, 3, 1),
        (2, 1, 2),
        (2, 2, 1),
        (3, 1, 1),
    ]
    assert architectures(1, 2) == []  # not enough units for three layers


def test_architectures_validates_input():
    with pytest.raises(ValueError):
        architectures(0, 0)
    with pytest.raises(ValueError):
        architectures(3, -1)


# ---------------------------------------------------------------- network candidates

def test_network_candidates_exact_count_on_scalar_layers():
    # ell = 1, size = 1, l = 0: both layers are 1x1, operator norm == |entry|,
    # so the declared bound is met exactly: 5 grid values per layer, 25 total
    cands = enumerate_networks(LINE, eps_prime=0.5, size=1, l=0, b=1.0)
    assert cands.count_bound == 25
    emitted = list(cands)
    assert len(emitted) == 25
    assert all(isinstance(net, ReluNetwork) for net in emitted)


def test_network_candidates_live_on_the_frame(rng):
    cands = enumerate_networks(LINE, eps_prime=0.5, size=1, l=0, b=1.0)
    x = rng.standard_normal((16, 3))
    on_frame = x @ LINE.projector().T
    for net in cands:
        assert net.input_dim == 3
        assert np.allclose(evaluate(net, x), evaluate(net, on_frame), atol=1e-12)


def test_network_candidate_entries_clipped():
    cands = enumerate_networks(LINE, eps_prime=0.5, size=1, l=0, b=1.0)
    for net in cands:
        for w in net.weights[1:]:
            nz = w[np.abs(w) > 0]
            assert np.all(np.abs(nz) > 0.5)


def test_candidate_list_is_reiterable():
    cands = enumerate_networks(LINE, eps_prime=0.5, size=1, l=0, b=1.0)
    first = [tuple(w.tobytes() for w in net.weights) for net in cands]
    second = [tuple(w.tobytes() for w in net.weights) for net in cands]
    assert first == second


def test_raw_factory_matches_wrapped_networks():
    cands = enumerate_networks(LINE, eps_prime=0.5, size=1, l=0, b=1.0)
    for net, weights in zip(cands, cands.raw_factory()):
        for a, b in zip(net.weights, weights):
            assert np.array_equal(a, b)


def test_network_budget_fails_fast():
    with pytest.raises(BudgetError):
        enumerate_networks(
            LINE, eps_prime=0.5, size=1, l=0, b=1.0, budget=EnumBudget(max_candidates=10)
        )


def test_subsample_is_seeded_and_repeatable():
    budget = EnumBudget(max_candidates=100, subsample=0.5, subsample_seed=7)
    cands = enumerate_networks(LINE, eps_prime=0.5, size=1, l=0, b=1.0, budget=budget)
    first = [net.weights[0].tobytes() for net in cands]
    second = [net.weights[0].tobytes() for net in cands]
    assert first == second
    assert 0 < len(first) < 25


def test_deep_candidates_cover_both_architectures():
    frame = Frame.from_span(np.array([[1.0, 0.0]]))
    cands = enumerate_networks(frame, eps_prime=0.9, size=3, l=1, b=1.0)
    assert cands.meta["architectures"] == [(1, 2), (2, 1)]
    widths = {net.hidden_widths for net in cands}
    assert widths == {(1, 2), (2, 1)}


# ---------------------------------------------------------------- kicker candidates

def test_kicker_candidates_exact_count():
    # 3 grid vectors per leaf, 2 leaves, 3 order types on 2 values, 2^3 tables
    cands = enumerate_kickers(LINE, eps_prime=0.5, num_leaves=2, lam=1.0)
    assert cands.count_bound == 3**2 * 2**3
    emitted = list(cands)
    assert len(emitted) == 72
    assert all(isinstance(sk, SelectorKicker) for sk in emitted)


def test_kicker_leaves_lie_in_frame_span():
    cands = enumerate_kickers(LINE, eps_prime=0.5, num_leaves=2, lam=1.0)
    sk = next(iter(cands))
    assert sk.leaves.shape == (2, 3)
    assert np.allclose(sk.leaves @ LINE.projector().T, sk.leaves, atol=1e-12)


def test_kicker_requires_frame_and_leaves():
    with pytest.raises(ValueError):
        enumerate_kickers(Frame.empty(3), eps_prime=0.5, num_leaves=2, lam=1.0)
    with pytest.raises(ValueError):
        enumerate_kickers(LINE, eps_prime=0.5, num_leaves=0, lam=1.0)
