"""Candidate generation over a recovered frame: selector kickers and small networks."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator

import numpy as np

from .errors import BudgetError
from .lattice import SelectorKicker, all_order_types
from .subspace import Frame, epsilon_net_ball, epsilon_net_bound, epsilon_net_matrices

__all__ = [
    "CandidateList",
    "architectures",
    "enumerate_kickers",
    "enumerate_networks",
]


@dataclass(eq=False)
class CandidateList:
    """Re-iterable lazy stream of candidate payloads with a count bound.

    Iterating calls factory() afresh, so the list can be scanned repeatedly
    with identical order.  A payload is a weight tuple (W_0, ..., W_L, w_out)
    for a network grid or the zero net, and a SelectorKicker for a kicker
    grid.  count_bound is an upper bound on the number of payloads emitted,
    and the one figure a budget (max_candidates) is checked against; a network
    grid emits each distinct clipped weight tuple once, at its first grid
    position, so it can emit fewer.

    Shared-prefix contract: consecutive tuples that share a layer prefix hold
    the same array objects for it, so an evaluator can tell a shared prefix by
    identity (``is``) and compute its hidden activations once.  The contract
    is a promise about speed only: a stream whose tuples share no objects is
    still scored correctly, one tuple at a time.
    """

    factory: Callable[[], Iterator]
    count_bound: int
    raw_factory: ClassVar[None] = None  # read by bench/tracing.py until the next benchmark change

    def __iter__(self):
        return self.factory()


def _check_count(bound: int, max_candidates: int | None, what: str) -> None:
    """The one scan budget: refuse a list whose count bound exceeds max_candidates (None: no cap)."""
    if max_candidates is not None and bound > max_candidates:
        raise BudgetError(f"{what} count bound {bound} exceeds budget {max_candidates}")


def enumerate_kickers(
    frame: Frame,
    eps_prime: float,
    num_leaves: int,
    lam: float,
    max_candidates: int | None = 10_000_000,
) -> CandidateList:
    """All selector candidates over the frame at grid granularity eps_prime * lam.

    Leaf tuples are drawn from a grid net of the lam-ball in frame coordinates
    (then lifted to ambient space); each tuple is crossed with every total
    table from order types on num_leaves values to leaf indices.
    """
    if len(frame) < 1:
        raise ValueError("need a non-empty frame")
    if num_leaves < 1:
        raise ValueError("need at least one leaf")
    if eps_prime <= 0 or lam <= 0:
        raise ValueError("eps_prime and lam must be positive")
    ell = len(frame)
    eps = eps_prime * lam
    types = all_order_types(num_leaves)
    net_bound = epsilon_net_bound(ell, lam, eps)
    bound = net_bound**num_leaves * num_leaves ** len(types)
    _check_count(bound, max_candidates, "kicker")
    vectors = list(epsilon_net_ball(ell, lam, eps))
    tables = list(itertools.product(range(num_leaves), repeat=len(types)))

    def raw():
        for coords in itertools.product(vectors, repeat=num_leaves):
            leaves = np.array(coords) @ frame.vectors
            for picks in tables:
                yield SelectorKicker(leaves, dict(zip(types, picks)), frame)

    return CandidateList(factory=raw, count_bound=bound)


def architectures(size: int, l: int) -> list[tuple[int, ...]]:
    """All hidden-width tuples (k_0, ..., k_l) of positive ints summing to size.

    Lexicographic order.  Empty when size < l + 1.
    """
    if size < 1 or l < 0:
        raise ValueError("need size >= 1 and l >= 0")
    parts = l + 1
    out: list[tuple[int, ...]] = []

    def rec(prefix: tuple[int, ...], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(prefix + (remaining,))
            return
        for first in range(1, remaining - slots + 2):
            rec(prefix + (first,), remaining - first, slots - 1)

    if size >= parts:
        rec((), size, parts)
    return out


def _matrix_net_bound(rows: int, cols: int, radius: float, eps: float) -> int:
    return epsilon_net_bound(rows * cols, radius * math.sqrt(min(rows, cols)), eps)


def enumerate_networks(
    frame: Frame,
    eps_prime: float,
    size: int,
    l: int,
    b: float,
    max_candidates: int | None = 10_000_000,
) -> CandidateList:
    """Candidate network weight tuples over the frame: every architecture, per-layer matrix grids.

    First-layer matrices are netted in frame coordinates (k_0 x ell) and lifted
    through the frame.  Every netted entry is clipped at eps_prime, so emitted
    entries are zero or exceed eps_prime in magnitude, and per-layer operator
    norms stay at most b + 2 * eps_prime.  Clipping maps distinct grid points
    to the same matrix; each layer grid keeps only the first occurrence of each
    clipped matrix (compared by bytes, first layers before lifting).  Since
    the stream is a product of the layer grids, it holds each distinct clipped
    weight tuple once, at its first position in the unfiltered product, and
    in the same order.  count_bound counts the unfiltered product, so it
    bounds the emitted count from above, and max_candidates caps that bound.

    The factory walks each architecture's layer grids as an odometer with the
    output row fastest, and yields the same array object for a layer every
    time it repeats: each lifted W_0 appears in one run of consecutive tuples
    that covers all of its tails, and within it each deeper prefix
    (W_0, ..., W_j) forms a run that covers all of its own tails.
    """
    if len(frame) < 1:
        raise ValueError("need a non-empty frame")
    if eps_prime <= 0 or b <= 0:
        raise ValueError("eps_prime and b must be positive")
    archs = architectures(size, l)
    if not archs:
        raise ValueError(f"no architectures of size {size} with {l + 1} hidden layers")
    ell = len(frame)
    radius = b + eps_prime
    bound = 0
    plans = []
    for widths in archs:
        dims = (ell, *widths, 1)
        shapes = [(dout, din) for din, dout in zip(dims, dims[1:])]
        prod_bound = 1
        for r, c in shapes:
            prod_bound *= _matrix_net_bound(r, c, radius, eps_prime)
        bound += prod_bound
        plans.append(shapes)
    _check_count(bound, max_candidates, "network")

    def _grid(rows: int, cols: int) -> Iterator[np.ndarray]:
        """The clipped rows x cols grid: each clipped matrix once, where it first occurs."""
        seen: set[bytes] = set()
        for mat in epsilon_net_matrices(rows, cols, radius, eps_prime):
            mat = np.where(np.abs(mat) <= eps_prime, 0.0, mat)
            key = mat.tobytes()
            if key not in seen:
                seen.add(key)
                yield mat

    def raw_weights():
        for shapes in plans:
            rest = [list(_grid(r, c)) for r, c in shapes[1:]]
            for w0 in _grid(*shapes[0]):
                lifted = w0 @ frame.vectors
                for tail in itertools.product(*rest):
                    yield (lifted, *tail)

    return CandidateList(factory=raw_weights, count_bound=bound)
