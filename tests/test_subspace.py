import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relupca.subspace import (
    Frame,
    approx_top_svd,
    chordal_distance,
    complement_project,
    epsilon_net_ball,
    epsilon_net_bound,
    epsilon_net_matrices,
    extend_frame,
    procrustes_distance,
    project,
)


# ---------------------------------------------------------------- frames

def test_from_span_orthonormalizes(rng):
    frame = Frame.from_span(rng.standard_normal((3, 6)))
    gram = frame.vectors @ frame.vectors.T
    assert np.allclose(gram, np.eye(3), atol=1e-10)


def test_from_span_drops_dependent_rows():
    rows = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    frame = Frame.from_span(rows)
    assert len(frame) == 2


def test_frame_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Frame(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        Frame(np.array([[2.0, 0.0]]))


def test_projector_idempotent_symmetric(rng):
    frame = Frame.from_span(rng.standard_normal((2, 5)))
    p = frame.projector()
    assert np.allclose(p, p.T, atol=1e-12)
    assert np.allclose(p @ p, p, atol=1e-10)


def test_project_plus_complement_is_identity(rng):
    frame = Frame.from_span(rng.standard_normal((2, 5)))
    x = rng.standard_normal((20, 5))
    assert np.allclose(project(frame, x) + complement_project(frame, x), x, atol=1e-10)
    # the complement really is orthogonal to the span
    assert np.max(np.abs(complement_project(frame, x) @ frame.vectors.T)) < 1e-10


def test_empty_frame_projects_to_zero(rng):
    frame = Frame.empty(4)
    x = rng.standard_normal(4)
    assert np.all(project(frame, x) == 0.0)
    assert np.allclose(complement_project(frame, x), x)


def test_extend_frame_grows_orthonormally(rng):
    frame = Frame.from_span(rng.standard_normal((1, 4)))
    bigger = extend_frame(frame, rng.standard_normal(4))
    assert len(bigger) == 2
    assert np.allclose(bigger.vectors @ bigger.vectors.T, np.eye(2), atol=1e-10)
    assert np.allclose(bigger.vectors[0], frame.vectors[0])


def test_extend_frame_rejects_in_span_vector():
    frame = Frame.from_span(np.array([[1.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        extend_frame(frame, np.array([2.0, 0.0, 0.0]))


# ---------------------------------------------------------------- distances

def test_distances_on_known_line_pairs():
    e1 = Frame.from_span(np.array([[1.0, 0.0]]))
    e2 = Frame.from_span(np.array([[0.0, 1.0]]))
    diag = Frame.from_span(np.array([[1.0, 1.0]]))
    assert chordal_distance(e1, e1) == pytest.approx(0.0, abs=1e-12)
    assert chordal_distance(e1, e2) == pytest.approx(1.0, abs=1e-12)
    assert procrustes_distance(e1, e2) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert chordal_distance(e1, diag) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert procrustes_distance(e1, diag) == pytest.approx(
        math.sqrt(2.0 - math.sqrt(2.0)), abs=1e-12
    )


@given(st.integers(0, 2_000))
def test_distance_inequalities(seed):
    rng = np.random.default_rng(seed)
    ell = int(rng.integers(1, 4))
    u1 = Frame.from_span(rng.standard_normal((ell, 6)))
    u2 = Frame.from_span(rng.standard_normal((ell, 6)))
    dc = chordal_distance(u1, u2)
    dp = procrustes_distance(u1, u2)
    assert dc <= dp + 1e-9
    assert dp <= math.sqrt(2.0) * dc + 1e-9
    # projector gap in Frobenius norm equals sqrt(2) * chordal
    gap = np.linalg.norm(u1.projector() - u2.projector())
    assert gap == pytest.approx(math.sqrt(2.0) * dc, abs=1e-8)


# ---------------------------------------------------------------- power iteration

def test_top_svd_on_known_diagonal():
    m = np.diag([3.0, 1.0, 0.0])
    res = approx_top_svd(lambda v: m @ v, 3, 1, eta=1e-9, delta=0.05, seed=0)
    assert res.values[0] == pytest.approx(3.0, rel=1e-6)
    assert abs(res.frame.vectors[0, 0]) == pytest.approx(1.0, abs=1e-6)


@given(st.integers(0, 500))
def test_top_svd_matches_dense_eigh(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((6, 6))
    m = a @ a.T  # PSD with a.s. distinct spectrum
    k = 2
    res = approx_top_svd(lambda v: m @ v, 6, k, eta=1e-9, delta=0.05, seed=seed)
    evals = np.linalg.eigvalsh(m)[::-1]
    assert np.allclose(res.values, evals[:k], rtol=1e-5)


def test_top_svd_deterministic():
    m = np.diag([2.0, 1.0, 0.5, 0.1])
    a = approx_top_svd(lambda v: m @ v, 4, 2, eta=1e-9, delta=0.05, seed=42)
    b = approx_top_svd(lambda v: m @ v, 4, 2, eta=1e-9, delta=0.05, seed=42)
    assert np.array_equal(a.frame.vectors, b.frame.vectors)
    assert np.array_equal(a.values, b.values)


def test_top_svd_zero_operator():
    res = approx_top_svd(lambda v: np.zeros_like(v), 3, 1, eta=1e-9, delta=0.05, seed=1)
    assert res.converged
    assert np.all(res.values == 0.0)


# ---------------------------------------------------------------- grid nets

def test_interval_net_is_exactly_three_points():
    assert epsilon_net_bound(1, 1.0, 0.5) == 3
    pts = sorted(float(p[0]) for p in epsilon_net_ball(1, 1.0, 0.5))
    assert pts == [-1.0, 0.0, 1.0]


def test_net_count_equals_declared_bound():
    for dim, radius, eps in [(1, 1.0, 0.5), (2, 1.0, 0.4), (3, 1.2, 0.5)]:
        bound = epsilon_net_bound(dim, radius, eps)
        count = sum(1 for _ in epsilon_net_ball(dim, radius, eps))
        assert count == bound


def test_net_covers_the_ball(rng):
    dim, radius, eps = 3, 1.0, 0.4
    pts = np.array(list(epsilon_net_ball(dim, radius, eps)))
    x = rng.standard_normal((100, dim))
    x *= (radius * rng.uniform(0, 1, size=100) ** (1 / dim) / np.linalg.norm(x, axis=1))[:, None]
    dists = np.min(np.linalg.norm(x[:, None, :] - pts[None, :, :], axis=2), axis=1)
    assert np.max(dists) <= eps + 1e-12


def test_net_stream_is_repeatable():
    a = list(epsilon_net_ball(2, 1.0, 0.4))
    b = list(epsilon_net_ball(2, 1.0, 0.4))
    assert len(a) == len(b)
    assert all(np.array_equal(p, q) for p, q in zip(a, b))


def test_matrix_net_respects_operator_radius():
    b, eps = 1.0, 0.6
    mats = list(epsilon_net_matrices(2, 2, b, eps))
    assert mats, "net should be non-empty"
    for m in mats:
        assert np.linalg.norm(m, 2) <= b + eps + 1e-12


def test_matrix_net_covers_small_operators(rng):
    b, eps = 1.0, 0.6
    mats = np.array(list(epsilon_net_matrices(2, 2, b, eps)))
    for _ in range(50):
        a = rng.standard_normal((2, 2))
        a *= rng.uniform(0, b) / np.linalg.norm(a, 2)
        gaps = np.linalg.norm((mats - a[None]).reshape(len(mats), -1), axis=1)
        assert gaps.min() <= eps + 1e-12
