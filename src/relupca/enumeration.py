"""Candidate generation over a recovered frame: selector kickers and small networks."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .errors import BudgetError
from .lattice import SelectorKicker, all_order_types
from .network import ReluNetwork
from .subspace import Frame, epsilon_net_ball, epsilon_net_bound, epsilon_net_matrices

__all__ = [
    "CandidateList",
    "EnumBudget",
    "architectures",
    "enumerate_kickers",
    "enumerate_networks",
]


@dataclass(frozen=True)
class EnumBudget:
    """Caps on an enumeration pass.

    max_candidates bounds the declared candidate count before iteration starts;
    subsample keeps each candidate independently with the given rate (seeded,
    re-iterable).
    """

    max_candidates: int | None = 10_000_000
    subsample: float | None = None
    subsample_seed: int = 0

    def __post_init__(self):
        if self.max_candidates is not None and self.max_candidates < 1:
            raise ValueError("max_candidates must be positive")
        if self.subsample is not None and not 0.0 < self.subsample <= 1.0:
            raise ValueError("subsample rate must lie in (0, 1]")


@dataclass(eq=False)
class CandidateList:
    """Re-iterable lazy candidate sequence with provenance and a count bound.

    Iterating calls factory() afresh, so the list can be scanned repeatedly
    with identical order.  raw_factory, when present, yields plain weight
    tuples for cheap batched evaluation of network candidates.
    """

    factory: Callable[[], Iterator]
    kind: str
    eps_prime: float
    frame: Frame
    count_bound: int
    meta: dict
    raw_factory: Callable[[], Iterator] | None = None

    def __iter__(self):
        return self.factory()


def _subsampled(raw_factory: Callable[[], Iterator], budget: EnumBudget) -> Callable[[], Iterator]:
    """Wrap an iterator factory with the budget's seeded subsampling, if any."""
    rate = budget.subsample
    if rate is None or rate >= 1.0:
        return raw_factory

    def factory():
        rng = np.random.default_rng(budget.subsample_seed)
        for item in raw_factory():
            if rng.random() < rate:
                yield item

    return factory


def _check_count(bound: int, budget: EnumBudget, what: str) -> None:
    if budget.max_candidates is None:
        return
    effective = bound
    if budget.subsample is not None:
        effective = int(bound * budget.subsample) + 1
    if effective > budget.max_candidates:
        raise BudgetError(
            f"{what} count bound {bound} (effective {effective}) exceeds "
            f"budget {budget.max_candidates}"
        )


def enumerate_kickers(
    frame: Frame,
    eps_prime: float,
    num_leaves: int,
    lam: float,
    budget: EnumBudget | None = None,
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
    budget = budget if budget is not None else EnumBudget()
    ell = len(frame)
    eps = eps_prime * lam
    types = all_order_types(num_leaves)
    net_bound = epsilon_net_bound(ell, lam, eps)
    bound = net_bound**num_leaves * num_leaves ** len(types)
    _check_count(bound, budget, "kicker")
    vectors = list(epsilon_net_ball(ell, lam, eps))
    tables = list(itertools.product(range(num_leaves), repeat=len(types)))

    def raw():
        for coords in itertools.product(vectors, repeat=num_leaves):
            leaves = np.array(coords) @ frame.vectors
            for picks in tables:
                yield SelectorKicker(leaves, dict(zip(types, picks)), frame)

    return CandidateList(
        factory=_subsampled(raw, budget),
        kind="kicker",
        eps_prime=eps_prime,
        frame=frame,
        count_bound=bound,
        meta={"num_leaves": num_leaves, "lam": lam, "net_size": len(vectors), "num_tables": len(tables)},
    )


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
    budget: EnumBudget | None = None,
) -> CandidateList:
    """Candidate networks over the frame: every architecture, per-layer matrix grids.

    First-layer matrices are netted in frame coordinates (k_0 x ell) and lifted
    through the frame.  Every netted entry is clipped at eps_prime, so emitted
    entries are zero or exceed eps_prime in magnitude, and per-layer operator
    norms stay at most b + 2 * eps_prime.
    """
    if len(frame) < 1:
        raise ValueError("need a non-empty frame")
    if eps_prime <= 0 or b <= 0:
        raise ValueError("eps_prime and b must be positive")
    budget = budget if budget is not None else EnumBudget()
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
    _check_count(bound, budget, "network")

    def _clip(mat: np.ndarray) -> np.ndarray:
        return np.where(np.abs(mat) <= eps_prime, 0.0, mat)

    def raw_weights():
        for shapes in plans:
            rest = [
                [_clip(m) for m in epsilon_net_matrices(r, c, radius, eps_prime)]
                for r, c in shapes[1:]
            ]
            r0, c0 = shapes[0]
            for w0 in epsilon_net_matrices(r0, c0, radius, eps_prime):
                lifted = _clip(w0) @ frame.vectors
                for tail in itertools.product(*rest):
                    yield (lifted, *tail)

    def nets():
        for weights in raw_weights():
            yield ReluNetwork(weights)

    return CandidateList(
        factory=_subsampled(nets, budget),
        kind="network",
        eps_prime=eps_prime,
        frame=frame,
        count_bound=bound,
        meta={"size": size, "l": l, "b": b, "architectures": archs},
        raw_factory=_subsampled(raw_weights, budget),
    )
