"""Candidate generation over a recovered frame: selector kickers and small networks."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, NamedTuple

import numpy as np

from .errors import BudgetError
from .lattice import SelectorKicker, all_order_types
from .network import ReluNetwork
from .subspace import Frame, _grid_geometry, epsilon_net_ball, epsilon_net_bound, epsilon_net_matrix_blocks
from .subspace import epsilon_net_matrices  # noqa: F401  (bench/tracing.py wraps it; unused here)

__all__ = [
    "CandidateList",
    "KickerBlock",
    "architectures",
    "enumerate_kickers",
    "enumerate_networks",
    "first_of_each_ray",
]


class KickerBlock(NamedTuple):
    """The selector candidates on one leaf tuple in frame coordinates, one per row of a one-hot pick matrix.

    selector holds the m leaves with the identity frame of R^ell and an empty table.  Row r of picks, (R, m * T)
    over the T order types of all_order_types(m), has a 1 at t * m + j when candidate r's table sends type t to leaf j.
    """

    selector: SelectorKicker
    picks: np.ndarray


def _candidate(payload, row: int, frame: Frame):
    """Candidate row of a payload lifted through frame: a ReluNetwork or a SelectorKicker."""
    if isinstance(payload, KickerBlock):
        types = all_order_types(payload.selector.num_leaves)
        picks = payload.picks[row].reshape(len(types), -1).argmax(axis=1)
        return SelectorKicker(payload.selector.leaves @ frame.vectors, dict(zip(types, picks.tolist())), frame)
    return ReluNetwork((payload[0] @ frame.vectors, *payload[1:-1], payload[-1][row : row + 1]))


@dataclass(eq=False)
class CandidateList:
    """Re-iterable lazy stream of candidates in blocks over a frame F, with a count bound.

    factory() yields the blocks, in frame coordinates, that the scorer reads at Z = X F^T; the candidate stream is
    their rows in order.  A network block is a weight tuple (W_0, ..., W_L, W_out) with W_0 k_0 x ell: row r is the
    network (W_0, ..., W_L, W_out[r:r + 1]).  A KickerBlock is a leaf tuple with every table.  Iterating calls
    factory() afresh and yields each candidate lifted through F (W_0 F, leaves F), in identical order every time.
    count_bound bounds the number of candidates (rows, not blocks): the one figure max_candidates is checked against.

    Blocks that share a first layer hold the same array object for it, and the blocks of an architecture (or of a
    kicker list) share one read-only array of output rows, so an evaluator can tell shared work by identity (``is``)
    and do it once: a promise about speed only.
    """

    factory: Callable[[], Iterator]
    count_bound: int
    frame: Frame
    raw_factory: ClassVar[None] = None  # read by bench/tracing.py until the next benchmark change

    def __iter__(self):
        for payload in self.factory():
            yield from (_candidate(payload, row, self.frame) for row in range(len(payload[-1])))


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

    Leaf tuples, in frame coordinates, are drawn from a grid net of the lam-ball; each tuple is crossed with every
    total table from order types on num_leaves values to leaf indices: one KickerBlock per tuple, whose row r is the
    r-th table in itertools.product order.
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
    eye = Frame(np.eye(ell))

    def blocks():
        for coords in itertools.product(vectors, repeat=num_leaves):
            yield KickerBlock(SelectorKicker(np.array(coords), {}, eye), picks)

    return CandidateList(factory=blocks, count_bound=bound, frame=frame)


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

    First-layer matrices are netted in frame coordinates (k_0 x ell).  Every netted entry is clipped at eps_prime,
    so emitted entries are zero or exceed eps_prime in magnitude, and per-layer operator norms stay at most
    b + 2 * eps_prime.  Clipping maps distinct grid points to the same matrix; each layer grid keeps only the first
    occurrence of each clipped matrix (compared by bytes).  Since the stream is a product of the layer grids, it
    holds each distinct clipped weight tuple once, at its first position in the unfiltered product, and in the same
    order.  count_bound counts the unfiltered product, so it bounds the emitted count from above, and max_candidates
    caps that bound.

    The factory yields one block (see CandidateList) per hidden prefix
    (W_0, ..., W_L), walking each architecture's hidden-layer grids as an
    odometer.  Its W_out stacks the architecture's whole output-layer grid, one
    row per candidate, and is the same read-only array in every block of that
    architecture.  Each W_0 is one array object, shared by the consecutive
    blocks that cover all of its tails, so the flattened rows are the
    per-tuple stream with the output row varying fastest.
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
                    for mid in itertools.product(*deeper):
                        yield (w0, *mid, w_out)

    return CandidateList(factory=blocks, count_bound=bound, frame=frame)


def first_of_each_ray(rows: np.ndarray, eps_prime: float) -> np.ndarray:
    """Indices, in order, of the first row of each ray among the non-zero rows of a one-unit network grid's W_0s.

    rows (n, ell) come from enumerate_networks(frame, eps_prime, 1, 0, b), so each is the grid's spacing times an
    integer vector (clipping only zeroes entries), and its ray is that vector over the gcd of its entries: exact.
    """
    spacing = _grid_geometry(rows.shape[1], 0.0, eps_prime)[0]
    ints = np.rint(rows / spacing).astype(np.int64)
    if not np.array_equal(ints * spacing, rows):
        raise ValueError("rows are not on the one-unit network grid at eps_prime")
    gcd = np.gcd.reduce(ints, axis=1)
    nonzero = np.flatnonzero(gcd)
    return nonzero[np.sort(np.unique(ints[nonzero] // gcd[nonzero, None], axis=0, return_index=True)[1])]
