"""Bias-free feedforward ReLU networks: evaluation, generators, serialization."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import checked, json_document, json_object
from .subspace import Frame

__all__ = [
    "Architecture",
    "ReluNetwork",
    "boolean_compile",
    "deserialize",
    "evaluate",
    "lipschitz_upper",
    "operator_norm",
    "random_network",
    "restrict",
    "serialize",
    "spike_network",
    "zero_network",
]


def operator_norm(mat) -> float:
    """Largest singular value of a matrix (LAPACK SVD); 0.0 for an empty one."""
    a = np.asarray(mat, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a matrix")
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


@dataclass(frozen=True)
class Architecture:
    """Hidden-layer widths (k_0, ..., k_L) over R^d; the output width is always 1."""

    widths: tuple[int, ...]
    input_dim: int

    def __post_init__(self):
        object.__setattr__(self, "widths", tuple(checked("widths entry", w, 1) for w in self.widths))
        if not self.widths:
            raise ValueError("widths must be non-empty")
        checked("input_dim", self.input_dim, 1)

    @property
    def size(self) -> int:
        """Total number of hidden units."""
        return sum(self.widths)

    @property
    def num_hidden_layers(self) -> int:
        return len(self.widths)


@dataclass(frozen=True, eq=False)
class ReluNetwork:
    """Weight stack (W_0, ..., W_{L+1}) computing x -> W_{L+1} relu(... relu(W_0 x)).

    There are no bias terms, so the function is positively homogeneous and
    vanishes at the origin.  The last matrix has a single row.
    """

    weights: tuple[np.ndarray, ...]

    def __post_init__(self):
        ws = tuple(np.array(w, dtype=float, copy=True) for w in self.weights)
        if len(ws) < 2:
            raise ValueError("need at least two weight matrices")
        for w in ws:
            if w.ndim != 2:
                raise ValueError("weights must be matrices")
            if not np.all(np.isfinite(w)):
                raise ValueError("weights must be finite")
        for lower, upper in zip(ws, ws[1:]):
            if upper.shape[1] != lower.shape[0]:
                raise ValueError(f"layer shapes do not chain: {lower.shape} then {upper.shape}")
        if ws[-1].shape[0] != 1:
            raise ValueError("output width must be 1")
        for w in ws:
            w.flags.writeable = False
        object.__setattr__(self, "weights", ws)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w in self.weights[:-1])

    @property
    def size(self) -> int:
        """Total number of hidden units."""
        return sum(self.hidden_widths)


def _rows(x, d: int) -> tuple[np.ndarray, bool]:
    """(x as an (n, d) float batch, whether x was one length-d vector), the batch rule of every evaluator; any other
    shape raises a ValueError."""
    x = np.asarray(x, dtype=float)
    rows = x[None, :] if x.ndim == 1 else x
    if rows.ndim != 2 or rows.shape[1] != d:
        raise ValueError(f"expected input dimension {d}, got shape {x.shape}")
    return rows, x.ndim == 1


def evaluate(net: ReluNetwork, x):
    """Apply the network; x may be a length-d vector or an (n, d) batch."""
    h, single = _rows(x, net.input_dim)
    h = h.T  # feature-major, (width, n): each layer is W @ H, so BLAS runs along the batch
    for w in net.weights[:-1]:
        h = w @ h
        np.maximum(h, 0.0, out=h)  # in place: no second (width, n) buffer
    out = net.weights[-1][0] @ h
    return float(out[0]) if single else out


def lipschitz_upper(net: ReluNetwork) -> float:
    """Product of the layer operator norms: a certified Lipschitz bound for evaluate."""
    out = 1.0
    for w in net.weights:
        out *= operator_norm(w)
    return out


def restrict(net: ReluNetwork, frame: Frame) -> ReluNetwork:
    """Precompose with the orthogonal projection onto span(frame).

    The result computes net(P x); only the first weight matrix changes (to W_0 P).
    An empty frame yields the constant-zero function.
    """
    if frame.dim != net.input_dim:
        raise ValueError("frame dimension does not match network input")
    return ReluNetwork((net.weights[0] @ frame.projector(),) + net.weights[1:])


def zero_network(input_dim: int) -> ReluNetwork:
    """The constant-zero function as a minimal network."""
    return ReluNetwork((np.zeros((1, input_dim)), np.zeros((1, 1))))


def random_network(arch: Architecture, b: float, seed) -> ReluNetwork:
    """Gaussian-weight network with every layer rescaled to operator norm exactly b."""
    checked("b", b, 0.0, math.inf)
    rng = np.random.default_rng(seed)
    dims = (arch.input_dim, *arch.widths, 1)
    weights = []
    for n_in, n_out in zip(dims, dims[1:]):
        w = rng.standard_normal((n_out, n_in))
        w *= b / operator_norm(w)
        weights.append(w)
    return ReluNetwork(tuple(weights))


def spike_network(lam: float) -> ReluNetwork:
    """Two-dimensional fixture that vanishes outside a band of angular width ~4/lam.

    F(x) = relu(x1 + lam*x2) + relu(-3*x1 + lam*x2) - 2*relu(-x1 + lam*x2).
    The three terms cancel whenever lam*x2 falls outside the interval between
    -x1 and 3*x1 (and its mirror for x1 < 0), so Pr[F(x) != 0] under a standard
    Gaussian is (arctan(3/lam) + arctan(1/lam)) / pi, which scales like 1/lam.
    """
    checked("lam", lam, 0.0, math.inf)
    w0 = np.array([[1.0, lam], [-3.0, lam], [-1.0, lam]])
    w1 = np.array([[1.0, 1.0, -2.0]])
    return ReluNetwork((w0, w1))


BOOLEAN_MAX_BITS = 6  # boolean_compile's cap: its indicator layer has 2^n units


def _hypercube_points(n: int) -> np.ndarray:
    """All 2^n sign vectors; row i has coordinate j equal to +1 iff bit j of i is set."""
    idx = np.arange(2**n)
    bits = (idx[:, None] >> np.arange(n)[None, :]) & 1
    return 2.0 * bits - 1.0


def boolean_compile(truth_table) -> ReluNetwork:
    """Compile a function on the signed hypercube {-1,+1}^n into a depth-3 ReLU network.

    truth_table lists the 2^n outputs; entry i is the value at the point whose
    j-th coordinate is +1 iff bit j of i is set.  The network is exact on every
    hypercube point for every finite table; values off the hypercube are
    unconstrained.  n is capped at BOOLEAN_MAX_BITS.

    The first layer is relu(x_j) and relu(-x_j).  The second has one unit per
    point p, in _hypercube_points order: relu(<p, x> - (n-1)|x_0|), which on the
    cube is relu(1 - 2 hamming(p, x)), so 1 at p and 0 at every other point.
    The output row is the table, weighting each point's indicator by its value.
    """
    table = np.asarray(truth_table, dtype=float).ravel()
    size = table.size
    n = int(size).bit_length() - 1
    if size < 2 or size != 2**n:
        raise ValueError("truth table length must be 2^n with n >= 1")
    if n > BOOLEAN_MAX_BITS:
        raise ValueError(f"n={n} exceeds the compilation cap of {BOOLEAN_MAX_BITS} bits")
    eye = np.eye(n)
    points = _hypercube_points(n)
    second = np.hstack([points, -points])
    second[:, [0, n]] -= n - 1  # the -(n-1)|x_0| term: |x_0| = relu(x_0) + relu(-x_0)
    return ReluNetwork((np.vstack([eye, -eye]), second, table[None, :]))


def serialize(net: ReluNetwork, meta: dict | None = None) -> bytes:
    """Stable text encoding: fixed field order, shortest round-trip floats."""
    doc = {
        "input_dim": net.input_dim,
        "depth": len(net.weights),
        "layers": [w.tolist() for w in net.weights],
    }
    if meta:
        doc["meta"] = {key: meta[key] for key in sorted(meta)}
    return (json.dumps(doc, separators=(", ", ": ")) + "\n").encode()


def deserialize(data) -> tuple[ReluNetwork, dict]:
    """Inverse of serialize (str or bytes); a ValueError names the line and column of a parse error, or the field:
    depth and input_dim are integers of at least 2 and 1 that the matrices must match, meta (if given) an object."""
    doc = json_document(data, "network document", required=("input_dim", "depth", "layers"))
    depth = checked("network document field depth", doc["depth"], 2)
    input_dim = checked("network document field input_dim", doc["input_dim"], 1)
    try:
        layers = tuple(np.array(layer, dtype=float) for layer in doc["layers"])
    except (TypeError, ValueError) as err:
        raise ValueError(f"network document field layers must be a list of matrices: {err}") from err
    if len(layers) != depth:
        raise ValueError(f"depth field says {depth} layers, found {len(layers)}")
    net = ReluNetwork(layers)
    if net.input_dim != input_dim:
        raise ValueError(f"input_dim field says {input_dim}, matrices say {net.input_dim}")
    return net, json_object(doc.get("meta", {}), "network document field meta")
