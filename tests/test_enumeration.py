import itertools

import numpy as np
import pytest

from relupca.enumeration import (
    CandidateList,
    KickerBlock,
    architectures,
    enumerate_kickers,
    enumerate_networks,
)
from relupca.errors import BudgetError
from relupca.lattice import SelectorKicker, all_order_types
from relupca.network import ReluNetwork, evaluate
from relupca.subspace import Frame, epsilon_net_matrices

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
    with pytest.raises(ValueError, match="^l must be"):  # True was once read as 1
        architectures(3, True)


# ---------------------------------------------------------------- network candidates

def test_network_candidates_exact_count_on_scalar_layers():
    # ell = 1, size = 1, l = 0: both layers are 1x1, operator norm == |entry|,
    # so the declared bound is met exactly: 5 grid values per layer, 25 total,
    # in 5 blocks (one per first layer) of the 5 output weights
    cands = enumerate_networks(LINE, eps_prime=0.5, size=1, l=0, b=1.0)
    assert cands.count_bound == 25
    blocks = list(cands.factory())
    assert [ws[-1].shape for ws in blocks] == [(5, 1)] * 5
    emitted = list(cands)
    assert len(emitted) == 25
    assert all(isinstance(net, ReluNetwork) and net.hidden_widths == (1,) for net in emitted)
    assert [net.weights[-1][0, 0] for net in emitted[:5]] == blocks[0][-1][:, 0].tolist()


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


def test_raw_factory_shares_prefix_objects():
    # enumerate_networks' stream: each first layer is one run of consecutive blocks, its W_0 the
    # grid's next distinct clipped first layer, and an architecture's blocks share one read-only W_out
    frame = Frame.from_span(np.array([[1.0, 0.0]]))
    stream = list(enumerate_networks(frame, eps_prime=0.9, size=3, l=1, b=1.0).factory())
    runs = [stream[0][0]]
    for prev, ws in zip(stream, stream[1:]):
        if not np.array_equal(ws[0], prev[0]):
            runs.append(ws[0])
    firsts = {}  # the grid's first layers, clipped, each where it first occurs
    for widths in architectures(3, 1):
        for w0 in epsilon_net_matrices(widths[0], 1, 1.0 + 0.9, 0.9):
            w0 = np.where(np.abs(w0) <= 0.9, 0.0, w0)
            firsts.setdefault((w0.shape, w0.tobytes()), w0)
    assert len(runs) == len(firsts) and all(np.array_equal(a, b) for a, b in zip(runs, firsts.values()))
    assert len(runs) < len(stream)  # runs do share: the deeper layers vary faster
    for widths in ((1, 2), (2, 1)):
        outs = {id(ws[-1]) for ws in stream if tuple(w.shape[0] for w in ws[:-1]) == widths}
        assert len(outs) == 1
    assert all(len(ws[-1]) > 1 and not ws[-1].flags.writeable for ws in stream)


def _tuple_key(weights):
    return tuple((w.shape, w.tobytes()) for w in weights)


@pytest.mark.parametrize("size, l, eps_prime", [(2, 0, 0.7), (3, 1, 0.5)])
def test_raw_factory_is_the_unfiltered_stream_without_repeats(size, l, eps_prime, unfiltered_network_stream):
    """The flattened blocks are the clipped grid without its later byte-duplicates, in order."""
    frame = Frame.from_span(np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 1.0, -1.0, 1.0]]))
    cands = enumerate_networks(frame, eps_prime, size, l, 1.0, max_candidates=None)
    reference = unfiltered_network_stream(frame, eps_prime, size, l, 1.0)
    first = {}
    for ws in reference:
        first.setdefault(_tuple_key(ws), ws)
    expected = list(first.values())  # in order of first occurrence
    emitted = [net.weights for net in cands]
    assert len(expected) < len(reference)  # clipping does collapse grid points here
    assert len(emitted) == len(expected) <= cands.count_bound
    for got, want in zip(emitted, expected):
        assert len(got) == len(want)
        assert all(a.shape == b.shape and np.array_equal(a, b) for a, b in zip(got, want))
    assert len({_tuple_key(ws) for ws in emitted}) == len(emitted)  # no two tuples byte-equal


def test_network_budget_fails_fast():
    # the count bound is checked when the list is built, before any grid point
    with pytest.raises(BudgetError, match="network count bound 25 exceeds budget 10"):
        enumerate_networks(LINE, eps_prime=0.5, size=1, l=0, b=1.0, max_candidates=10)
    exact = enumerate_networks(LINE, eps_prime=0.5, size=1, l=0, b=1.0, max_candidates=25)
    assert len(list(exact)) == 25
    uncapped = enumerate_networks(LINE, eps_prime=0.5, size=1, l=0, b=1.0, max_candidates=None)
    assert uncapped.count_bound == 25


def test_deep_candidates_cover_both_architectures():
    frame = Frame.from_span(np.array([[1.0, 0.0]]))
    cands = enumerate_networks(frame, eps_prime=0.9, size=3, l=1, b=1.0)
    widths = {net.hidden_widths for net in cands}
    assert widths == {(1, 2), (2, 1)}


# ---------------------------------------------------------------- kicker candidates

def test_kicker_candidates_exact_count():
    # 3 grid vectors per leaf, 2 leaves, 3 order types on 2 values, 2^3 tables:
    # one block per leaf tuple, each holding every table
    cands = enumerate_kickers(LINE, eps_prime=0.5, num_leaves=2, lam=1.0)
    assert cands.count_bound == 3**2 * 2**3
    blocks = list(cands.factory())
    assert len(blocks) == 3**2 and all(isinstance(b, KickerBlock) and b.selector.table == {} for b in blocks)
    picks = blocks[0].picks
    assert picks.shape == (2**3, 2 * 3) and not picks.flags.writeable
    assert all(b.picks is picks for b in blocks)  # one pick matrix for every block
    assert sum(len(b.picks) for b in blocks) == 72
    emitted = list(cands)
    assert len(emitted) == 72
    assert all(isinstance(sk, SelectorKicker) for sk in emitted)
    # row r is the r-th table in itertools.product order, on its block's leaves lifted through the frame
    types = all_order_types(2)
    tables = list(itertools.product(range(2), repeat=len(types)))
    for i, sk in enumerate(emitted):
        block, row = divmod(i, len(tables))
        assert sk.table == dict(zip(types, tables[row]))
        assert sk.leaves.tobytes() == (blocks[block].selector.leaves @ LINE.vectors).tobytes()
        assert sk.frame is LINE and blocks[block].selector.leaves.shape == (2, 1)


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
