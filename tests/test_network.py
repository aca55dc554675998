import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relupca.network import (
    Architecture,
    ReluNetwork,
    _hypercube_points,
    boolean_compile,
    deserialize,
    evaluate,
    lipschitz_upper,
    operator_norm,
    random_network,
    restrict,
    serialize,
    spike_network,
    zero_network,
)
from relupca.subspace import Frame


def random_net(rng, widths=(3, 2), d=4):
    mats = []
    dims = (d, *widths, 1)
    for din, dout in zip(dims, dims[1:]):
        mats.append(rng.standard_normal((dout, din)))
    return ReluNetwork(tuple(mats))


# ---------------------------------------------------------------- operator norm

def test_operator_norm_matches_dense_svd(rng):
    for _ in range(20):
        a = rng.standard_normal((rng.integers(1, 8), rng.integers(1, 8)))
        exact = np.sqrt(np.linalg.eigvalsh(a.T @ a)[-1])  # not the SVD operator_norm calls
        assert operator_norm(a) == pytest.approx(exact, rel=1e-8, abs=1e-12)


def test_operator_norm_zero_matrix():
    assert operator_norm(np.zeros((3, 2))) == 0.0
    assert operator_norm(np.zeros((0, 3))) == 0.0
    with pytest.raises(ValueError, match="matrix"):
        operator_norm(np.ones(3))


# ---------------------------------------------------------------- construction

def test_network_shape_validation():
    with pytest.raises(ValueError):
        ReluNetwork((np.zeros((2, 3)),))  # needs at least two matrices
    with pytest.raises(ValueError):
        ReluNetwork((np.zeros((2, 3)), np.zeros((1, 3))))  # chain mismatch
    with pytest.raises(ValueError):
        ReluNetwork((np.zeros((2, 3)), np.zeros((2, 2))))  # output width != 1
    # each was once accepted: widths truncated by int() and input_dim never checked
    for widths, input_dim, field in (((2.7,), 3, "widths entry"), ((True,), 3, "widths entry"),
                                     ((2,), 2.5, "input_dim")):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            Architecture(widths, input_dim)


def test_network_arrays_frozen(rng):
    net = random_net(rng)
    with pytest.raises(ValueError):
        net.weights[0][0, 0] = 5.0


def test_architecture_size():
    arch = Architecture((3, 2), input_dim=5)
    assert arch.size == 5
    assert arch.num_hidden_layers == 2


# ---------------------------------------------------------------- evaluation

def test_evaluate_single_equals_batch(rng):
    net = random_net(rng)
    x = rng.standard_normal((10, 4))
    batch = evaluate(net, x)
    singles = np.array([evaluate(net, row) for row in x])
    assert np.allclose(batch, singles, rtol=0, atol=1e-12)


@given(st.floats(min_value=0.0, max_value=100.0), st.integers(0, 10_000))
def test_positive_homogeneity(scale, seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng)
    x = rng.standard_normal(4)
    lhs = evaluate(net, scale * x)
    rhs = scale * evaluate(net, x)
    assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(rhs))


@given(st.integers(0, 10_000))
def test_lipschitz_bound_holds_pointwise(seed):
    rng = np.random.default_rng(seed)
    net = random_net(rng)
    lip = lipschitz_upper(net)
    x, y = rng.standard_normal((2, 4))
    gap = abs(evaluate(net, x) - evaluate(net, y))
    assert gap <= lip * np.linalg.norm(x - y) * (1 + 1e-9) + 1e-12


def test_lipschitz_upper_is_product_of_norms(rng):
    net = random_net(rng)
    prod = np.prod([np.linalg.norm(w, 2) for w in net.weights])
    assert lipschitz_upper(net) == pytest.approx(prod, rel=1e-9)


def test_zero_network_evaluates_zero(rng):
    net = zero_network(5)
    assert np.all(evaluate(net, rng.standard_normal((7, 5))) == 0.0)


# ---------------------------------------------------------------- restriction

def test_restrict_projects_first_layer(rng):
    net = random_net(rng)
    frame = Frame.from_span(rng.standard_normal((2, 4)))
    rnet = restrict(net, frame)
    x = rng.standard_normal((50, 4))
    proj = x @ frame.projector().T
    assert np.allclose(evaluate(rnet, x), evaluate(net, proj), atol=1e-10)


def test_restrict_idempotent(rng):
    net = random_net(rng)
    frame = Frame.from_span(rng.standard_normal((2, 4)))
    once = restrict(net, frame)
    twice = restrict(once, frame)
    for a, b in zip(once.weights, twice.weights):
        assert np.allclose(a, b, atol=1e-12)


# ---------------------------------------------------------------- generators

def test_random_network_operator_norms_pinned():
    arch = Architecture((3, 2), input_dim=5)
    net = random_network(arch, 1.7, seed=3)
    for w in net.weights:
        assert operator_norm(w) == pytest.approx(1.7, abs=1e-10)


def test_random_network_deterministic():
    arch = Architecture((2, 2), input_dim=4)
    a = random_network(arch, 1.0, seed=9)
    b = random_network(arch, 1.0, seed=9)
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


# ---------------------------------------------------------------- spike fixture

def test_spike_probe_values():
    net = spike_network(10.0)
    assert evaluate(net, np.array([0.0, 0.1])) == pytest.approx(0.0, abs=1e-12)
    assert evaluate(net, np.array([1.0, 0.1])) == pytest.approx(2.0, abs=1e-12)
    assert evaluate(net, np.array([-0.5, -0.5])) == pytest.approx(0.0, abs=1e-12)


def test_spike_support_probability_matches_geometry():
    # the support is a union of angular sectors; its Gaussian mass is
    # (atan(3/lam) + atan(1/lam)) / pi, about 4/(pi*lam) for large lam
    rng = np.random.default_rng(77)
    for lam in (10.0, 100.0):
        net = spike_network(lam)
        x = rng.standard_normal((400_000, 2))
        est = np.mean(np.abs(evaluate(net, x)) > 1e-12)
        exact = (math.atan(3.0 / lam) + math.atan(1.0 / lam)) / math.pi
        assert est == pytest.approx(exact, abs=4 * math.sqrt(exact / 400_000) + 1e-4)


# ---------------------------------------------------------------- boolean compiler

def test_hypercube_point_order():
    pts = _hypercube_points(2)
    assert pts.shape == (4, 2)
    assert np.array_equal(pts[0], [-1, -1])
    assert np.array_equal(pts[1], [1, -1])
    assert np.array_equal(pts[2], [-1, 1])
    assert np.array_equal(pts[3], [1, 1])


def test_boolean_compile_parity_exact():
    rng = np.random.default_rng(20)
    for n in range(1, 7):
        pts = _hypercube_points(n)
        # parity, a random +-1 table, and a real-valued table that is not dyadic
        for table in (np.prod(pts, axis=1), rng.choice([-1.0, 1.0], size=2**n), rng.standard_normal(2**n)):
            net = boolean_compile(table)
            assert np.array_equal(evaluate(net, pts), table)
            assert net.hidden_widths == (2 * n, 2**n)


def test_boolean_compile_constant_table():
    table = np.ones(4)
    net = boolean_compile(table)
    assert np.array_equal(evaluate(net, _hypercube_points(2)), table)


def test_boolean_compile_rejects_large_tables():
    for size in (1, 3, 2**7):  # not 2^n with 1 <= n <= 6
        with pytest.raises(ValueError):
            boolean_compile(np.ones(size))


# ---------------------------------------------------------------- clipping

# ---------------------------------------------------------------- serialization

def test_serialize_round_trip(rng):
    net = random_net(rng)
    blob = serialize(net, meta={"note": "x"})
    back, meta = deserialize(blob)
    assert meta == {"note": "x"}
    for a, b in zip(net.weights, back.weights):
        assert np.array_equal(a, b)
    assert serialize(back, meta=meta) == blob  # byte stable


def test_deserialize_rejects_malformed():
    with pytest.raises(ValueError):
        deserialize(b"not json at all {")
    blob = serialize(zero_network(3))
    doc = json.loads(blob)
    doc["input_dim"] = 7  # contradicts the stored matrices
    with pytest.raises(ValueError):
        deserialize(json.dumps(doc).encode())
    # depth and input_dim are integers, checked by errors.checked: a float is not truncated and true is not 1
    for field, value in (("depth", 2.7), ("depth", True), ("input_dim", 3.9), ("input_dim", True)):
        with pytest.raises(ValueError, match=f"network document field {field} must be an integer"):
            deserialize(json.dumps({**json.loads(blob), field: value}).encode())
