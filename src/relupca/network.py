"""Bias-free feedforward ReLU networks: evaluation, generators, serialization."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

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
        object.__setattr__(self, "widths", tuple(int(w) for w in self.widths))
        if not self.widths or any(w < 1 for w in self.widths):
            raise ValueError("widths must be positive")
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")

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


def evaluate(net: ReluNetwork, x):
    """Apply the network; x may be a length-d vector or an (n, d) batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    h = x[None, :] if single else x
    if h.ndim != 2 or h.shape[1] != net.input_dim:
        raise ValueError(f"expected input dimension {net.input_dim}, got shape {x.shape}")
    for w in net.weights[:-1]:
        h = np.maximum(h @ w.T, 0.0)
    out = h @ net.weights[-1].T
    return float(out[0, 0]) if single else out[:, 0]


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
    if b <= 0:
        raise ValueError("b must be positive")
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
    if lam <= 0:
        raise ValueError("lam must be positive")
    w0 = np.array([[1.0, lam], [-3.0, lam], [-1.0, lam]])
    w1 = np.array([[1.0, 1.0, -2.0]])
    return ReluNetwork((w0, w1))


def _hypercube_points(n: int) -> np.ndarray:
    """All 2^n sign vectors; row i has coordinate j equal to +1 iff bit j of i is set."""
    idx = np.arange(2**n)
    bits = (idx[:, None] >> np.arange(n)[None, :]) & 1
    return 2.0 * bits - 1.0


def boolean_compile(truth_table, max_bits: int = 6) -> ReluNetwork:
    """Compile a function on the signed hypercube {-1,+1}^n into a ReLU network.

    truth_table lists the 2^n outputs; entry i is the value at the point whose
    j-th coordinate is +1 iff bit j of i is set.  The network agrees with the
    table on every hypercube point (exactly, for dyadic-valued tables); values
    off the hypercube are unconstrained.

    The construction expands the table over parity characters and builds each
    product of coordinates one factor at a time with the identity
    a*b = relu(a+b) + relu(-a-b) - relu(b) - relu(-b), valid for a, b in {-1,+1}.
    Signed values ride through intermediate layers as relu pairs, and the
    constant character is realised as relu(x0) + relu(-x0) = |x0| = 1.
    """
    table = np.asarray(truth_table, dtype=float).ravel()
    size = table.size
    n = int(size).bit_length() - 1
    if size < 2 or size != 2**n:
        raise ValueError("truth table length must be 2^n with n >= 1")
    if n > max_bits:
        raise ValueError(f"n={n} exceeds the compilation cap of {max_bits} bits")

    points = _hypercube_points(n)
    masks = range(2**n)
    coeffs = {}
    for mask in masks:
        sel = [j for j in range(n) if mask >> j & 1]
        chi = points[:, sel].prod(axis=1) if sel else np.ones(size)
        c = float(np.dot(table, chi) / size)
        if c != 0.0:
            coeffs[mask] = c

    # Every needed product must be reachable by repeatedly dropping its top bit.
    needed = set()
    stack = [m for m in coeffs if bin(m).count("1") >= 2]
    while stack:
        m = stack.pop()
        if m in needed or bin(m).count("1") < 2:
            continue
        needed.add(m)
        stack.append(m & ~(1 << (m.bit_length() - 1)))
    by_size = {}
    for m in needed:
        by_size.setdefault(bin(m).count("1"), []).append(m)
    max_size = max(by_size) if by_size else 1

    # avail maps a bitmask to the row vector expressing its value over the
    # current layer's outputs; singletons start as input coordinates.
    avail = {1 << j: np.eye(n)[j] for j in range(n)}
    layers = []
    num_hidden = max(1, max_size - 1)
    for level in range(1, num_hidden + 1):
        rows = []
        pair_index = {}
        for mask in sorted(avail):
            pair_index[mask] = len(rows)
            rows.append(avail[mask])
            rows.append(-avail[mask])
        new_products = sorted(by_size.get(level + 1, []))
        for mask in new_products:
            top = 1 << (mask.bit_length() - 1)
            arg = avail[top] + avail[mask & ~top]
            pair_index[mask] = len(rows)
            rows.append(arg)
            rows.append(-arg)
        layers.append(np.array(rows))
        width = len(rows)
        next_avail = {}
        for mask, base in pair_index.items():
            func = np.zeros(width)
            if mask in avail:  # carried value: relu(q) - relu(-q)
                func[base], func[base + 1] = 1.0, -1.0
            else:  # fresh product: |a+b| - |b| with b the top coordinate
                top = 1 << (mask.bit_length() - 1)
                func[base], func[base + 1] = 1.0, 1.0
                tb = pair_index[top]
                func[tb] -= 1.0
                func[tb + 1] -= 1.0
            next_avail[mask] = func
        avail = next_avail

    width = layers[-1].shape[0]
    out = np.zeros(width)
    one = np.zeros(width)
    one[0], one[1] = 1.0, 1.0  # relu pair of the first carried coordinate: |x0| = 1
    for mask, c in coeffs.items():
        out += c * (one if mask == 0 else avail[mask])
    layers.append(out[None, :])
    return ReluNetwork(tuple(layers))


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
    """Inverse of serialize; raises ValueError with position info on malformed input."""
    text = data.decode() if isinstance(data, (bytes, bytearray)) else data
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"parse error at line {err.lineno} column {err.colno}: {err.msg}") from err
    if not isinstance(doc, dict):
        raise ValueError("network document must be an object")
    try:
        layers = tuple(np.array(layer, dtype=float) for layer in doc["layers"])
        depth = int(doc["depth"])
        input_dim = int(doc["input_dim"])
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"malformed network document: {err}") from err
    if len(layers) != depth:
        raise ValueError(f"depth field says {depth} layers, found {len(layers)}")
    net = ReluNetwork(layers)
    if net.input_dim != input_dim:
        raise ValueError(f"input_dim field says {input_dim}, matrices say {net.input_dim}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError("meta field must be an object")
    return net, meta
