"""Max-min lattice polynomials: construction from ReLU networks, algebra, selectors.

A lattice polynomial is max over clauses of min over the clause's leaves of
<leaf, x>.  Clause index structure is determined entirely by how a polynomial
was constructed, so two structurally parallel constructions (for instance two
networks of equal architecture and matching weight signs) yield identical
clause lists with index-aligned leaves.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, OrderTypeMissing, StructureMismatch
from .network import ReluNetwork
from .subspace import Frame, project

__all__ = [
    "LatticePolynomial",
    "MAX_CLAUSES",
    "MAX_LEAVES",
    "OrderType",
    "SelectorKicker",
    "all_order_types",
    "deserialize_lattice",
    "from_network",
    "lattice_eval",
    "lattice_sum",
    "order_type",
    "relu_wrap",
    "scale",
    "selector_eval",
    "selector_from_lattice",
    "serialize_lattice",
    "structural_distance",
]

MAX_LEAVES = 4096
MAX_CLAUSES = 10**6


@dataclass(frozen=True, eq=False)
class LatticePolynomial:
    """Leaf vectors (M, n) plus a list of clauses (non-empty index tuples)."""

    leaves: np.ndarray
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        leaves = np.array(self.leaves, dtype=float, copy=True)
        if leaves.ndim != 2 or leaves.shape[0] < 1:
            raise ValueError("leaves must be a non-empty (M, n) array")
        if not np.all(np.isfinite(leaves)):
            raise ValueError("leaves must be finite")
        m = leaves.shape[0]
        clauses = tuple(tuple(sorted(set(int(i) for i in clause))) for clause in self.clauses)
        if not clauses:
            raise ValueError("need at least one clause")
        for clause in clauses:
            if not clause:
                raise ValueError("clauses must be non-empty")
            if clause[0] < 0 or clause[-1] >= m:
                raise ValueError("clause index out of range")
        if m > MAX_LEAVES:
            raise BudgetError(f"{m} leaves exceeds the budget of {MAX_LEAVES}")
        if len(clauses) > MAX_CLAUSES:
            raise BudgetError(f"{len(clauses)} clauses exceeds the budget of {MAX_CLAUSES}")
        leaves.flags.writeable = False
        object.__setattr__(self, "leaves", leaves)
        object.__setattr__(self, "clauses", clauses)

    @property
    def num_leaves(self) -> int:
        return self.leaves.shape[0]

    @property
    def dim(self) -> int:
        return self.leaves.shape[1]

    @functools.cached_property
    def _clause_index(self):
        flat = np.fromiter(itertools.chain.from_iterable(self.clauses), dtype=np.intp)
        offsets = np.zeros(len(self.clauses), dtype=np.intp)
        np.cumsum([len(c) for c in self.clauses[:-1]], out=offsets[1:])
        return flat, offsets


def lattice_eval(lp: LatticePolynomial, x):
    """max over clauses of min over clause leaves of <leaf, x>; batched like evaluate."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.ndim != 2 or pts.shape[1] != lp.dim:
        raise ValueError(f"expected input dimension {lp.dim}, got shape {x.shape}")
    flat, offsets = lp._clause_index
    out = np.empty(pts.shape[0])
    chunk = max(1, int(2e7) // max(1, flat.size))
    for start in range(0, pts.shape[0], chunk):
        vals = pts[start : start + chunk] @ lp.leaves.T
        mins = np.minimum.reduceat(vals[:, flat], offsets, axis=1)
        out[start : start + chunk] = mins.max(axis=1)
    return float(out[0]) if single else out


def relu_wrap(lp: LatticePolynomial) -> LatticePolynomial:
    """max(lp, 0): append the zero leaf and its singleton clause."""
    leaves = np.vstack([lp.leaves, np.zeros((1, lp.dim))])
    return LatticePolynomial(leaves, lp.clauses + ((lp.num_leaves,),))


def _prune_minimal(sets_):
    """Inclusion-minimal members of a family of index sets, canonically ordered."""
    kept: list[frozenset] = []
    for s in sorted(set(sets_), key=lambda t: (len(t), sorted(t))):
        if not any(k <= s for k in kept):
            kept.append(s)
    return kept


def _minimal_transversals(clauses, max_count: int):
    """All inclusion-minimal hitting sets of the clause family (incremental)."""
    current = [frozenset()]
    for clause in clauses:
        members = frozenset(clause)
        grown = []
        for t in current:
            if t & members:
                grown.append(t)
            else:
                grown.extend(t | {i} for i in clause)
        current = _prune_minimal(grown)
        if len(current) > max_count:
            raise BudgetError(f"transversal count passed {max_count} before completion")
    return current


def scale(lp: LatticePolynomial, lam: float) -> LatticePolynomial:
    """Pointwise multiple lam * lp.

    For lam >= 0 the clause list is unchanged.  For lam < 0 the max and min
    swap roles, and the result is re-normalised to max-of-min form: the new
    clauses are the inclusion-minimal transversals of the old clause list
    (one pick per old clause).  Either way the new clause structure depends
    only on the old clause index structure and the sign of lam.
    """
    leaves = lp.leaves * lam
    if lam >= 0:
        return LatticePolynomial(leaves, lp.clauses)
    transversals = _minimal_transversals(lp.clauses, MAX_CLAUSES)
    clauses = tuple(tuple(sorted(t)) for t in transversals)
    return LatticePolynomial(leaves, clauses)


def _sum2(a: LatticePolynomial, b: LatticePolynomial) -> LatticePolynomial:
    """Pointwise sum of two polynomials via paired leaves and clause products."""
    if a.dim != b.dim:
        raise ValueError("summands must share a domain")
    ma, mb = a.num_leaves, b.num_leaves
    if ma * mb > MAX_LEAVES:
        raise BudgetError(f"sum needs {ma * mb} leaves, budget is {MAX_LEAVES}")
    leaves = (a.leaves[:, None, :] + b.leaves[None, :, :]).reshape(ma * mb, a.dim)
    if len(a.clauses) * len(b.clauses) > MAX_CLAUSES:
        raise BudgetError("clause product exceeds budget")
    products = []
    for ca in a.clauses:
        base = [i * mb for i in ca]
        for cb in b.clauses:
            products.append(frozenset(i + j for i in base for j in cb))
    clauses = tuple(tuple(sorted(t)) for t in _prune_minimal(products))
    return LatticePolynomial(leaves, clauses)


def lattice_sum(lps) -> LatticePolynomial:
    """Pointwise sum; leaf tuples are flattened left-to-right (mixed radix)."""
    lps = list(lps)
    if not lps:
        raise ValueError("need at least one summand")
    out = lps[0]
    for lp in lps[1:]:
        out = _sum2(out, lp)
    return out


def from_network(net: ReluNetwork) -> LatticePolynomial:
    """Exact lattice representation of a bias-free ReLU network.

    Structural recursion: each first-layer unit is a wrapped linear leaf, each
    later unit wraps a signed sum of the previous layer's polynomials, and the
    output row is a final signed sum.  Equal-architecture networks whose weight
    entries agree in sign everywhere go through identical branches, so they
    produce identical clause lists and index-aligned leaves.
    """
    if net.size > 12:
        raise BudgetError(f"network size {net.size} exceeds the cap of 12 hidden units")
    units = [
        relu_wrap(LatticePolynomial(row[None, :], ((0,),))) for row in net.weights[0]
    ]
    for w in net.weights[1:-1]:
        units = [relu_wrap(_signed_sum(units, row)) for row in w]
    return _signed_sum(units, net.weights[-1][0])


def _signed_sum(units, coeffs) -> LatticePolynomial:
    return lattice_sum(scale(lp, float(c)) for lp, c in zip(units, coeffs))


def structural_distance(lp1: LatticePolynomial, lp2: LatticePolynomial) -> float:
    """max_i ||v_i - v'_i|| over index-aligned leaves; needs identical clause lists."""
    if lp1.dim != lp2.dim:
        raise StructureMismatch("domains differ")
    if lp1.num_leaves != lp2.num_leaves or lp1.clauses != lp2.clauses:
        raise StructureMismatch("clause structures differ")
    return float(np.max(np.linalg.norm(lp1.leaves - lp2.leaves, axis=1)))


def perturb_leaves(lp: LatticePolynomial, eta: float, seed: int = 0) -> LatticePolynomial:
    """Structurally identical copy with leaves shifted by max row norm exactly eta.

    The raw shift depends only on the seed, so the same seed at 2*eta gives
    exactly doubled deviations (handy for scaling checks).
    """
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if eta == 0:
        return LatticePolynomial(lp.leaves, lp.clauses)
    rng = np.random.default_rng(seed)
    delta = rng.standard_normal(lp.leaves.shape)
    delta *= eta / np.max(np.linalg.norm(delta, axis=1))
    return LatticePolynomial(lp.leaves + delta, lp.clauses)


@dataclass(frozen=True)
class OrderType:
    """Canonical rank tuple: ties share a rank and ranks run 1..max contiguously."""

    ranks: tuple[int, ...]

    def __post_init__(self):
        ranks = tuple(int(r) for r in self.ranks)
        if not ranks:
            raise ValueError("order type needs at least one element")
        if set(ranks) != set(range(1, max(ranks) + 1)):
            raise ValueError(f"ranks {ranks} are not canonical")
        object.__setattr__(self, "ranks", ranks)

    def __len__(self) -> int:
        return len(self.ranks)


def _rank_patterns(vals: np.ndarray):
    """Order types of the rows of an (n, m) array, each distinct one built once.

    Returns the distinct types, the first row realising each, and each row's
    index into the types.  Ranks are dense, and merging is single-linkage on
    each sorted row: consecutive sorted values at gap <= 1e-12 * max(1, max
    |row|) join the same rank, so float noise cannot split a tie.  This is the
    one tie rule: order_type, selector_eval and selector_from_lattice all use it.
    """
    tol = 1e-12 * np.fmax(1.0, np.max(np.abs(vals), axis=1, keepdims=True))
    order = np.argsort(vals, axis=1, kind="stable")
    steps = np.diff(np.take_along_axis(vals, order, axis=1), axis=1) > tol
    ranks = np.empty(vals.shape, dtype=np.intp)
    np.put_along_axis(ranks, order, np.cumsum(np.insert(steps, 0, True, axis=1), axis=1), axis=1)
    # one byte string per row: np.unique sorts these ~10x faster than rows (axis=0)
    keys = ranks.view(f"S{ranks.itemsize * ranks.shape[1]}")[:, 0]
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    return [OrderType(tuple(r)) for r in ranks[first].tolist()], first, group


def order_type(values) -> OrderType:
    """Rank pattern of the values; near-equal entries share a rank (see _rank_patterns)."""
    vals = np.asarray(values, dtype=float).ravel()
    if vals.size == 0:
        raise ValueError("need at least one value")
    return _rank_patterns(vals[None, :])[0][0]


@functools.lru_cache(maxsize=None)
def all_order_types(n: int) -> tuple[OrderType, ...]:
    """Every order type on n elements, in lexicographic rank order."""
    if n < 1:
        raise ValueError("n must be positive")
    out = []
    for ranks in itertools.product(range(1, n + 1), repeat=n):
        if set(ranks) == set(range(1, max(ranks) + 1)):
            out.append(OrderType(ranks))
    return tuple(out)


@dataclass(frozen=True, eq=False)
class SelectorKicker:
    """Piecewise-linear candidate: leaf vectors plus an order-type -> leaf table.

    Evaluation computes the order type of the leaf inner products and returns
    the inner product of the leaf the table selects.  Leaves must lie in the
    span of the attached frame.
    """

    leaves: np.ndarray
    table: dict
    frame: Frame

    def __post_init__(self):
        leaves = np.array(self.leaves, dtype=float, copy=True)
        if leaves.ndim != 2 or leaves.shape[0] < 1:
            raise ValueError("leaves must be a non-empty (M, d) array")
        if leaves.shape[1] != self.frame.dim:
            raise ValueError("leaf dimension does not match the frame")
        drift = np.linalg.norm(project(self.frame, leaves) - leaves, axis=1)
        if leaves.shape[0] and float(np.max(drift)) > 1e-9:
            raise ValueError("leaves must lie in the span of the frame")
        m = leaves.shape[0]
        for omega, pick in self.table.items():
            if len(omega) != m:
                raise ValueError("table keys must be order types on the leaf count")
            if not 0 <= int(pick) < m:
                raise ValueError("table values must index a leaf")
        leaves.flags.writeable = False
        object.__setattr__(self, "leaves", leaves)

    @property
    def num_leaves(self) -> int:
        return self.leaves.shape[0]


def selector_eval(sk: SelectorKicker, x):
    """Evaluate the selector; missing order types raise, never default silently."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.ndim != 2 or pts.shape[1] != sk.frame.dim:
        raise ValueError(f"expected input dimension {sk.frame.dim}, got shape {x.shape}")
    vals = pts @ sk.leaves.T
    types, first, group = _rank_patterns(vals)
    picks = np.array([sk.table.get(omega, -1) for omega in types], dtype=np.intp)
    missing = np.flatnonzero(picks < 0)
    if missing.size:  # name the type of the first row, in input order, that has no entry
        omega = types[missing[np.argmin(first[missing])]]
        raise OrderTypeMissing(f"no table entry for order type {omega.ranks}")
    out = vals[np.arange(vals.shape[0]), picks[group]]
    return float(out[0]) if single else out


def selector_from_lattice(
    lp: LatticePolynomial, frame: Frame, num_witness: int = 20_000, seed: int = 0
) -> SelectorKicker:
    """Tabulate a selector that reproduces the lattice polynomial.

    On the region where the leaf values realise a given order type, the
    max-of-min picks a fixed leaf; one witness point per observed order type
    suffices to record which.  Types never witnessed stay absent and raise at
    evaluation time.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((num_witness, lp.dim))
    vals = x @ lp.leaves.T
    evals = lattice_eval(lp, x)
    types, first, _ = _rank_patterns(vals)
    table: dict[OrderType, int] = {}
    for i, omega in sorted(zip(first.tolist(), types)):  # first witness of each type, in draw order
        row, val = vals[i], evals[i]
        matches = np.flatnonzero(row == val)
        if matches.size == 0:  # max-min always returns one of the leaf values
            matches = np.array([int(np.argmin(np.abs(row - val)))])
        table[omega] = int(matches[0])
    return SelectorKicker(lp.leaves, table, frame)


def serialize_lattice(lp: LatticePolynomial) -> bytes:
    """Stable text encoding of leaves and clause index lists."""
    doc = {
        "dim": lp.dim,
        "leaves": lp.leaves.tolist(),
        "clauses": [list(c) for c in lp.clauses],
    }
    return (json.dumps(doc, separators=(", ", ": ")) + "\n").encode()


def deserialize_lattice(data) -> LatticePolynomial:
    """Inverse of serialize_lattice; raises ValueError on malformed input."""
    text = data.decode() if isinstance(data, (bytes, bytearray)) else data
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"parse error at line {err.lineno} column {err.colno}: {err.msg}") from err
    try:
        leaves = np.array(doc["leaves"], dtype=float)
        clauses = tuple(tuple(int(i) for i in c) for c in doc["clauses"])
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"malformed lattice document: {err}") from err
    lp = LatticePolynomial(leaves, clauses)
    if lp.dim != int(doc.get("dim", lp.dim)):
        raise ValueError("dim field does not match leaf width")
    return lp
