"""Frames, projectors, subspace distances, block power iteration, grid nets."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import checked

__all__ = [
    "Frame",
    "TopSVDResult",
    "approx_top_svd",
    "chordal_distance",
    "complement_project",
    "epsilon_net_ball",
    "epsilon_net_bound",
    "epsilon_net_matrices",
    "epsilon_net_matrix_blocks",
    "extend_frame",
    "procrustes_distance",
    "project",
    "seeded_start",
]


@dataclass(frozen=True, eq=False)
class Frame:
    """Ordered list of orthonormal vectors in R^d, stored as rows; may be empty."""

    vectors: np.ndarray  # shape (ell, dim)

    def __post_init__(self):
        v = np.array(self.vectors, dtype=float, copy=True)
        if v.ndim != 2:
            raise ValueError("vectors must form a 2-d array of shape (ell, dim)")
        if v.shape[0] > 0:
            norms = np.linalg.norm(v, axis=1)
            if np.max(np.abs(norms - 1.0)) > 1e-9:
                raise ValueError("frame vectors must be unit length")
            gram = v @ v.T
            np.fill_diagonal(gram, 0.0)
            if np.max(np.abs(gram)) > 1e-9:
                raise ValueError("frame vectors must be pairwise orthogonal")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @classmethod
    def empty(cls, dim: int) -> "Frame":
        return cls(np.zeros((0, dim)))

    @classmethod
    def from_span(cls, vectors) -> "Frame":
        """Orthonormalize the rows in order, dropping dependent ones.

        Modified Gram-Schmidt with one reorthogonalization pass, so the first
        kept vector is the first row normalized and the orientation is stable.
        """
        a = np.atleast_2d(np.asarray(vectors, dtype=float))
        kept: list[np.ndarray] = []
        for row in a:
            r = row.astype(float, copy=True)
            for _ in range(2):
                for q in kept:
                    r -= (q @ r) * q
            norm = np.linalg.norm(r)
            if norm > 1e-12 * max(1.0, float(np.linalg.norm(row))):
                kept.append(r / norm)
        if not kept:
            return cls(np.zeros((0, a.shape[1])))
        return cls(np.array(kept))

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def projector(self) -> np.ndarray:
        """The d x d orthogonal projector onto the span."""
        return self.vectors.T @ self.vectors


def project(frame: Frame, x):
    """Orthogonal projection onto span(frame); accepts (d,) vectors or (n, d) batches."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != frame.dim:
        raise ValueError("dimension mismatch")
    if len(frame) == 0:
        return np.zeros_like(x)
    return (x @ frame.vectors.T) @ frame.vectors


def complement_project(frame: Frame, x):
    """Projection onto the orthogonal complement of span(frame)."""
    x = np.asarray(x, dtype=float)
    return x - project(frame, x)


def extend_frame(frame: Frame, vector) -> Frame:
    """Append a new direction after projecting out the current span."""
    resid = complement_project(frame, np.asarray(vector, dtype=float))
    norm = np.linalg.norm(resid)
    if norm < 1e-9:
        raise ValueError("new direction lies in the span of the frame")
    return Frame(np.vstack([frame.vectors, resid / norm]))


def chordal_distance(u1: Frame, u2: Frame) -> float:
    """sqrt(ell - ||U1^T U2||_F^2) for two rank-ell frames."""
    if len(u1) != len(u2) or u1.dim != u2.dim:
        raise ValueError("frames must have matching shapes")
    cross = u1.vectors @ u2.vectors.T
    val = len(u1) - float(np.sum(cross * cross))
    return math.sqrt(max(val, 0.0))


def procrustes_distance(u1: Frame, u2: Frame) -> float:
    """Frobenius distance between the bases after the best orthogonal alignment.

    The optimal rotation is the polar factor of U1^T U2, giving the closed form
    sqrt(2*ell - 2*nuclear_norm(U1^T U2)).
    """
    if len(u1) != len(u2) or u1.dim != u2.dim:
        raise ValueError("frames must have matching shapes")
    cross = u1.vectors @ u2.vectors.T
    sing = np.linalg.svd(cross, compute_uv=False)
    val = 2.0 * len(u1) - 2.0 * float(np.sum(sing))
    return math.sqrt(max(val, 0.0))


@dataclass(frozen=True, eq=False)
class TopSVDResult:
    """Output of approx_top_svd; `converged` is False when the cap hit first."""

    frame: Frame
    values: np.ndarray
    converged: bool


def seeded_start(dim: int, k: int, seed) -> np.ndarray:
    """approx_top_svd's start block for a seed: the Q factor of a (dim, k) Gaussian draw."""
    return np.linalg.qr(np.random.default_rng(seed).standard_normal((dim, k)))[0]


def approx_top_svd(matvec, dim: int, k: int, eta: float, delta: float, seed) -> TopSVDResult:
    """Top-k singular pairs of a symmetric operator by seeded block power iteration.

    matvec must implement v -> M v for a fixed symmetric M.  The iteration cap
    is 10*log(dim/(eta*delta)); convergence is declared when every Rayleigh
    quotient moves by at most 1e-12 (relative) between sweeps.  The returned
    frame is orthonormal regardless of convergence.
    """
    if checked("k", k, 1) > checked("dim", dim, 1):
        raise ValueError(f"k must be at most dim = {dim}, got {k!r}")
    checked("eta", eta, 0.0, math.inf)
    checked("delta", delta, 0.0, math.inf)
    q = seeded_start(dim, k, seed)
    cap = max(1, math.ceil(10.0 * math.log(dim / (eta * delta))))
    rayleigh = np.full(k, np.inf)
    converged = False
    for _ in range(cap):
        z = np.column_stack([matvec(q[:, j]) for j in range(k)])
        if not np.any(z):
            return TopSVDResult(Frame(q.T), np.zeros(k), True)
        new_rayleigh = np.einsum("ij,ij->j", q, z)
        q_next, r = np.linalg.qr(z)
        signs = np.sign(np.diag(r))
        signs[signs == 0.0] = 1.0
        q = q_next * signs
        scale = max(1.0, float(np.max(np.abs(new_rayleigh))))
        if np.max(np.abs(new_rayleigh - rayleigh)) <= 1e-12 * scale:
            converged = True
            break
        rayleigh = new_rayleigh
    values = np.array([float(np.linalg.norm(matvec(q[:, j]))) for j in range(k)])
    return TopSVDResult(Frame(q.T), values, converged)


def _grid_geometry(dim: int, radius: float, eps: float):
    """Spacing and the integer squared-norm cutoff of the (radius+eps)-ball grid; the one rule of the grid arguments:
    dim an integer of at least 1, eps a finite number above 0 and radius a finite number of at least 0."""
    checked("dim", dim, 1)
    checked("eps", eps, 0.0, math.inf)
    if checked("radius", radius, -math.inf, math.inf) < 0:
        raise ValueError(f"radius must be a number of at least 0, got {radius!r}")
    spacing = 2.0 * eps / math.sqrt(dim)
    t = int(math.floor(((radius + eps) / spacing) ** 2 + 1e-9))
    return spacing, t


def epsilon_net_bound(dim: int, radius: float, eps: float) -> int:
    """Exact size of the grid net: lattice points with sum of squares <= cutoff.

    Counted by dynamic programming over the integer squared norm, so it equals
    the number of points epsilon_net_ball yields.  Falls back to the bounding
    box count when the cutoff is too large to tabulate.
    """
    _, t = _grid_geometry(dim, radius, eps)
    maxj = math.isqrt(t)
    if (t + 1) * dim * max(maxj, 1) > 200_000_000:
        return (2 * maxj + 1) ** dim
    counts = [0] * (t + 1)
    counts[0] = 1
    for _ in range(dim):
        new = [0] * (t + 1)
        for tt, c in enumerate(counts):
            if not c:
                continue
            new[tt] += c
            for j in range(1, maxj + 1):
                nt = tt + j * j
                if nt > t:
                    break
                new[nt] += 2 * c
        counts = new
    return sum(counts)


def _ball_grid_chunks(dim: int, radius: float, eps: float):
    """A stream of (B, dim) blocks of net points, integer-filtered to the ball; the arguments are checked at the call.

    The bounding box is walked in itertools.product order (last coordinate
    fastest), 8192 box points at a time, by unravelling their flat indices.
    """
    spacing, t = _grid_geometry(dim, radius, eps)
    maxj = math.isqrt(t)
    shape = (2 * maxj + 1,) * dim
    total = math.prod(shape)

    def chunks():
        for start in range(0, total, 8192):
            z = np.stack(np.unravel_index(np.arange(start, min(start + 8192, total)), shape), axis=1) - maxj
            keep = (z * z).sum(axis=1) <= t
            if np.any(keep):
                yield spacing * z[keep].astype(float)

    return chunks()


def epsilon_net_ball(dim: int, radius: float, eps: float):
    """Deterministic grid covering the radius-R ball to within eps in L2, as a stream of points; the arguments are
    checked at the call (_grid_geometry).

    Yields grid points of spacing 2*eps/sqrt(dim) with norm at most radius+eps.
    Rounding any point of the ball to the grid moves each coordinate by at most
    eps/sqrt(dim), so coverage holds by construction; the rounded point stays
    within radius+eps and is therefore in the net.  Membership is decided in
    integer arithmetic, so the count matches epsilon_net_bound exactly.
    """
    return (point.copy() for block in _ball_grid_chunks(dim, radius, eps) for point in block)


def epsilon_net_matrix_blocks(rows: int, cols: int, b: float, eps: float):
    """epsilon_net_matrices as a stream of (B, rows, cols) arrays, in the same order; rows and cols are integers of
    at least 1, and b is a finite number of at least 0, checked at the call."""
    if checked("b", b, -math.inf, math.inf) < 0:
        raise ValueError(f"b must be a number of at least 0, got {b!r}")
    radius = b * math.sqrt(min(checked("rows", rows, 1), checked("cols", cols, 1)))
    mats = (block.reshape(-1, rows, cols) for block in _ball_grid_chunks(rows * cols, radius, eps))
    return (m[np.linalg.svd(m, compute_uv=False)[:, 0] <= b + eps] for m in mats)


def epsilon_net_matrices(rows: int, cols: int, b: float, eps: float):
    """Deterministic grid covering operator-norm-<= b matrices to within eps (operator norm), as a stream of
    matrices; the arguments are checked at the call, as in epsilon_net_matrix_blocks.

    Runs through the Frobenius norm: the operator ball of radius b sits inside
    the Frobenius ball of radius b*sqrt(min(rows, cols)), and operator distance
    is at most Frobenius distance.  Only points with operator norm at most
    b+eps are emitted; the covering point of any matrix in the ball survives.
    """
    return (m.copy() for mats in epsilon_net_matrix_blocks(rows, cols, b, eps) for m in mats)
