import numpy as np
import pytest
from hypothesis import given, strategies as st

from relupca.errors import BudgetError, OrderTypeMissing, StructureMismatch
from relupca.lattice import (
    LatticePolynomial,
    OrderType,
    SelectorKicker,
    all_order_types,
    deserialize_lattice,
    from_network,
    lattice_eval,
    lattice_sum,
    order_type,
    perturb_leaves,
    relu_wrap,
    scale,
    selector_eval,
    selector_from_lattice,
    serialize_lattice,
    structural_distance,
)
from relupca.network import Architecture, ReluNetwork, evaluate, random_network
from relupca.subspace import Frame


def tiny_net(rng, widths=(2,), d=3):
    dims = (d, *widths, 1)
    mats = [rng.standard_normal((dout, din)) for din, dout in zip(dims, dims[1:])]
    return ReluNetwork(tuple(mats))


# ---------------------------------------------------------------- basic algebra

def test_single_relu_structure():
    v = np.array([1.0, -2.0])
    lp = from_network(ReluNetwork((v[None, :], np.array([[1.0]]))))
    # one linear leaf plus the zero leaf, each its own clause: max(v.x, 0)
    assert lp.num_leaves == 2
    assert lp.clauses == ((0,), (1,))
    assert np.array_equal(lp.leaves[0], v)
    assert np.array_equal(lp.leaves[1], np.zeros(2))


def test_negated_relu_becomes_min():
    v = np.array([1.0, -2.0])
    lp = from_network(ReluNetwork((v[None, :], np.array([[1.0]]))))
    neg = scale(lp, -1.0)
    # the two singleton clauses have a single minimal transversal {0, 1}
    assert neg.clauses == ((0, 1),)
    x = np.array([0.3, 0.4])
    assert lattice_eval(neg, x) == pytest.approx(min(-v @ x, 0.0), abs=1e-12)


def test_relu_difference_structure():
    u = np.array([1.0, 0.0])
    w = np.array([0.0, 1.0])
    net = ReluNetwork((np.vstack([u, w]), np.array([[1.0, -1.0]])))
    lp = from_network(net)
    # pairing [u,0] x [-w,0] gives leaves (u-w, u, -w, 0) and two product clauses
    assert lp.num_leaves == 4
    assert lp.clauses == ((0, 1), (2, 3))
    assert np.allclose(lp.leaves, [[1, -1], [1, 0], [0, -1], [0, 0]])


@given(st.integers(0, 500))
def test_lattice_matches_network(seed):
    rng = np.random.default_rng(seed)
    widths = [(2,), (3,), (2, 2)][seed % 3]
    net = tiny_net(rng, widths=widths)
    lp = from_network(net)
    x = rng.standard_normal((64, 3))
    want = evaluate(net, x)
    got = lattice_eval(lp, x)
    assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))


def test_relu_wrap_evaluates_max_with_zero(rng):
    net = tiny_net(rng)
    lp = from_network(net)
    wrapped = relu_wrap(lp)
    x = rng.standard_normal((32, 3))
    assert np.allclose(lattice_eval(wrapped, x), np.maximum(lattice_eval(lp, x), 0.0))


@given(st.integers(0, 300), st.floats(-3.0, 3.0))
def test_scale_is_pointwise_multiplication(seed, lam):
    rng = np.random.default_rng(seed)
    lp = from_network(tiny_net(rng))
    x = rng.standard_normal((16, 3))
    want = lam * lattice_eval(lp, x)
    got = lattice_eval(scale(lp, lam), x)
    assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))


def test_double_negation_and_cancellation(rng):
    lp = from_network(tiny_net(rng))
    x = rng.standard_normal((32, 3))
    back = scale(scale(lp, -1.0), -1.0)
    assert np.all(np.abs(lattice_eval(back, x) - lattice_eval(lp, x)) <= 1e-9)
    zero = lattice_sum([lp, scale(lp, -1.0)])
    assert np.all(np.abs(lattice_eval(zero, x)) <= 1e-9)


def test_sum_is_pointwise_addition(rng):
    a = from_network(tiny_net(rng))
    b = from_network(tiny_net(rng))
    x = rng.standard_normal((32, 3))
    want = lattice_eval(a, x) + lattice_eval(b, x)
    got = lattice_eval(lattice_sum([a, b]), x)
    assert np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want)))


# ---------------------------------------------------------------- structure

def test_sign_aligned_networks_share_clauses(rng):
    arch = Architecture((2, 2), input_dim=3)
    net_a = random_network(arch, 1.0, seed=5)
    jitter = rng.uniform(0.5, 1.5, size=sum(w.size for w in net_a.weights))
    pos = 0
    mats = []
    for w in net_a.weights:
        block = jitter[pos : pos + w.size].reshape(w.shape)
        mats.append(w * block)  # entrywise positive factor keeps every sign
        pos += w.size
    net_b = ReluNetwork(tuple(mats))
    lp_a, lp_b = from_network(net_a), from_network(net_b)
    assert lp_a.clauses == lp_b.clauses
    dist = structural_distance(lp_a, lp_b)
    assert dist == pytest.approx(np.max(np.linalg.norm(lp_a.leaves - lp_b.leaves, axis=1)))


def test_structural_distance_requires_identical_structure(rng):
    a = from_network(tiny_net(rng, widths=(2,)))
    b = from_network(tiny_net(rng, widths=(3,)))
    with pytest.raises(StructureMismatch):
        structural_distance(a, b)


def test_perturb_leaves_hits_requested_distance(rng):
    lp = from_network(tiny_net(rng))
    for eta in (0.01, 0.05):
        near = perturb_leaves(lp, eta, seed=4)
        assert near.clauses == lp.clauses
        assert structural_distance(lp, near) == pytest.approx(eta, rel=1e-12)
    # same seed, doubled eta -> exactly doubled leaf deviations
    d1 = perturb_leaves(lp, 0.01, seed=4).leaves - lp.leaves
    d2 = perturb_leaves(lp, 0.02, seed=4).leaves - lp.leaves
    assert np.allclose(d2, 2 * d1, rtol=1e-12)


def test_leaf_budget_enforced():
    with pytest.raises(BudgetError):
        LatticePolynomial(np.zeros((4097, 2)), ((0,),))


# ---------------------------------------------------------------- order types

def test_order_type_ranks():
    assert order_type([3.0, 1.0, 2.0]).ranks == (3, 1, 2)
    assert order_type([1.0, 1.0 + 5e-13, 2.0], tie_tol=1e-12).ranks == (1, 1, 2)
    assert order_type([1.0, 1.0, 1.0]).ranks == (1, 1, 1)


def test_order_type_canonical_validation():
    with pytest.raises(ValueError):
        OrderType((1, 3))  # rank 2 is skipped


def test_all_order_types_counts():
    # number of rank patterns with ties on n elements: 1, 3, 13, 75
    assert [len(all_order_types(n)) for n in (1, 2, 3, 4)] == [1, 3, 13, 75]
    assert all_order_types(2)[0].ranks == (1, 1)


# ---------------------------------------------------------------- selectors

def test_selector_reproduces_lattice(rng):
    net = tiny_net(rng, widths=(2,), d=3)
    lp = from_network(net)
    frame = Frame.from_span(np.eye(3))
    sk = selector_from_lattice(lp, frame, num_witness=50_000, seed=1)
    x = rng.standard_normal((2_000, 3))
    assert np.allclose(selector_eval(sk, x), lattice_eval(lp, x), atol=1e-9)


def test_selector_missing_order_type_raises():
    frame = Frame.from_span(np.eye(2))
    leaves = np.eye(2)
    table = {order_type([1.0, 0.0]): 0}  # only covers rank pattern (2, 1)
    sk = SelectorKicker(leaves, table, frame)
    assert selector_eval(sk, np.array([1.0, 0.0])) == 1.0
    with pytest.raises(OrderTypeMissing):
        selector_eval(sk, np.array([0.0, 1.0]))


def test_selector_leaves_must_lie_in_frame():
    frame = Frame.from_span(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        SelectorKicker(np.array([[0.0, 1.0, 0.0]]), {}, frame)


# ---------------------------------------------------------------- cleanup + io

def test_lattice_serialization_round_trip(rng):
    lp = from_network(tiny_net(rng))
    blob = serialize_lattice(lp)
    back = deserialize_lattice(blob)
    assert back.clauses == lp.clauses
    assert np.array_equal(back.leaves, lp.leaves)
    assert serialize_lattice(back) == blob


def test_lattice_deserialize_rejects_garbage():
    with pytest.raises(ValueError):
        deserialize_lattice(b"[1, 2, 3")
