"""Candidate generation over a recovered frame: selector kickers and small networks."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Iterator, NamedTuple

import numpy as np

from .errors import BudgetError
from .lattice import SelectorKicker, all_order_types
from .network import ReluNetwork
from .subspace import Frame, epsilon_net_ball, epsilon_net_bound, epsilon_net_matrix_blocks
from .subspace import epsilon_net_matrices  # noqa: F401  (bench/tracing.py wraps it; unused here)

__all__ = [
    "CandidateList",
    "KickerBlock",
    "architectures",
    "enumerate_kickers",
    "enumerate_networks",
]


class KickerBlock(NamedTuple):
    """The selector candidates on one leaf tuple, one per row of a one-hot pick matrix.

    selector holds the m leaves (checked once, by its constructor) and the frame, with an
    empty table.  Row r of picks, (R, m * T) over the T order types of all_order_types(m),
    has a 1 at t * m + j when candidate r's table sends type t to leaf j, so it picks that
    leaf's value from an input's gated leaf features (see filteredpca._gated).
    """

    selector: SelectorKicker
    picks: np.ndarray


def _candidate(payload, row: int):
    """Candidate row of a payload as a hypothesis of its own: a ReluNetwork or a SelectorKicker."""
    if isinstance(payload, KickerBlock):
        types = all_order_types(payload.selector.num_leaves)
        picks = payload.picks[row].reshape(len(types), -1).argmax(axis=1)
        return replace(payload.selector, table=dict(zip(types, picks.tolist())))
    return ReluNetwork((*payload[:-1], payload[-1][row : row + 1]))


@dataclass(eq=False)
class CandidateList:
    """Re-iterable lazy stream of candidates in blocks, with a count bound.

    factory() yields the blocks, the payloads the scorer reads; the candidate
    stream is their rows in order.  A network block is a weight tuple (W_0, ...,
    W_L, W_out): row r is the network (W_0, ..., W_L, W_out[r:r + 1]), and a
    one-row block is a plain network (the zero net is one).  A KickerBlock is a
    leaf tuple with every table.  Iterating calls factory() afresh and yields
    each candidate as its own ReluNetwork or SelectorKicker, in identical order
    every time.  count_bound bounds the number of candidates (rows, not blocks)
    and is the one figure a budget (max_candidates) is checked against.

    Blocks that share a first layer hold the same array object for it, and the
    blocks of an architecture (or of a kicker list) share one read-only array of
    output rows, so an evaluator can tell shared work by identity (``is``) and do
    it once: a promise about speed only.
    """

    factory: Callable[[], Iterator]
    count_bound: int
    raw_factory: ClassVar[None] = None  # read by bench/tracing.py until the next benchmark change

    def __iter__(self):
        for payload in self.factory():
            yield from (_candidate(payload, row) for row in range(len(payload[-1])))


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
    table from order types on num_leaves values to leaf indices: one KickerBlock
    per tuple, whose row r is the r-th table in itertools.product order.
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
    picks = np.eye(num_leaves)[tables].reshape(len(tables), -1)  # row r: table r, one-hot per order type
    picks.flags.writeable = False

    def blocks():
        for coords in itertools.product(vectors, repeat=num_leaves):
            yield KickerBlock(SelectorKicker(np.array(coords) @ frame.vectors, {}, frame), picks)

    return CandidateList(factory=blocks, count_bound=bound)


def architectures(size: int, l: int) -> list[tuple[int, ...]]:
    """All hidden-width tuples (k_0, ..., k_l) of positive ints summing to size.

    Lexicographic order.  Empty when size < l + 1.  Each tuple is cut at l
    distinct points of 1, ..., size - 1, and combinations come in that order.
    """
    if size < 1 or l < 0:
        raise ValueError("need size >= 1 and l >= 0")
    splits = itertools.combinations(range(1, size), l)
    return [tuple(b - a for a, b in zip((0, *cuts), (*cuts, size))) for cuts in splits]


def enumerate_networks(
    frame: Frame,
    eps_prime: float,
    size: int,
    l: int,
    b: float,
    max_candidates: int | None = 10_000_000,
) -> CandidateList:
    """Candidate network blocks over the frame: every architecture, per-layer matrix grids.

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

    The factory yields one block (see CandidateList) per hidden prefix
    (W_0, ..., W_L), walking each architecture's hidden-layer grids as an
    odometer.  Its W_out stacks the architecture's whole output-layer grid, one
    row per candidate, and is the same read-only array in every block of that
    architecture.  Each lifted W_0 is one array object, shared by the
    consecutive blocks that cover all of its tails, so the flattened rows are
    the per-tuple stream with the output row varying fastest.
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
            prod_bound *= epsilon_net_bound(r * c, radius * math.sqrt(min(r, c)), eps_prime)
        bound += prod_bound
        plans.append(shapes)
    _check_count(bound, max_candidates, "network")

    def _grid(rows: int, cols: int) -> Iterator[np.ndarray]:
        """The clipped grid in (B, rows, cols) arrays: each clipped matrix once, where it first occurs."""
        seen: set[bytes] = set()
        for mats in epsilon_net_matrix_blocks(rows, cols, radius, eps_prime):
            mats[np.abs(mats) <= eps_prime] = 0.0
            keep = []
            for i, mat in enumerate(mats):
                key = mat.tobytes()
                if key not in seen:
                    seen.add(key)
                    keep.append(i)
            if keep:
                yield mats[keep]

    def blocks():
        for shapes in plans:
            w_out = np.concatenate(list(_grid(*shapes[-1]))).reshape(-1, shapes[-1][1])
            w_out.flags.writeable = False  # one array for every block of the architecture
            deeper = [list(np.concatenate(list(_grid(r, c)))) for r, c in shapes[1:-1]]
            for w0s in _grid(*shapes[0]):
                for w0 in w0s:
                    lifted = w0 @ frame.vectors
                    for mid in itertools.product(*deeper):
                        yield (lifted, *mid, w_out)

    return CandidateList(factory=blocks, count_bound=bound)
