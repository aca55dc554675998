"""Workload recipes, the counting oracle, and one learning operation.

Each workload is a fixed list of planted instances.  The instances do not
depend on the benchmark's ``--seed``: per-seed run() time varies 35x, so
drawing instances from it would make wall time a lottery.  The seed picks the
holdout batch that the checks use.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

import checks
from relupca import GaussianOracle, LearnConfig, make_instance, run


@dataclass(frozen=True)
class Instance:
    """A planted net, its frame, and how run() is driven on it."""

    label: str
    net: object
    planted: np.ndarray
    oracle_seed: int
    burn_in: int
    config: LearnConfig


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    dim: int
    k: int
    seeds: tuple[int, ...]
    burn_in: int
    learn: dict
    fit_bar: float = checks.FIT_BAR


# Criterion 7's LearnConfig; rank2-highdim changes d, eps and the terminal
# granularity only.
_RANK2 = dict(
    size=2, l=0, b=1.0, lam=1.0, eps=0.02, delta=0.05, n_samples=200_000, n_check=20_000,
    tau_mode="quantile", eps_prime=0.5, final_eps_prime=0.16, final_select_samples=512,
    max_candidates=20_000_000,
)
# Criterion 6a's LearnConfig at d = 4, scanning selector kickers; at a terminal
# granularity of 0.25 the kicker grid (spacing 2 * 0.25 * lam) holds +-v.
_KICKER = dict(
    size=2, l=0, b=math.sqrt(2.0), lam=2.0, eps=0.1, delta=0.05, n_samples=100_000,
    n_check=20_000, tau_mode="quantile", candidate_mode="kicker", final_eps_prime=0.25,
)

WORKLOADS = {
    w.name: w
    for w in (
        # Seed 1 scans 87 loop candidates before it accepts the second
        # direction, then has the third-slowest terminal search of the ten
        # (about 60 s) and is the known self-consistency fault (certified=False
        # with no failure_reason); seed 2's terminal search hits early.
        Workload(
            "rank2-terminal",
            "mixed", 10, 2, (1, 2), 4096, _RANK2,
        ),
        # Seed 0's loop scans 86 candidates (9 of its 87 top-eigenvector calls
        # hit the sweep cap); seed 5's scans 4.
        Workload(
            "rank2-highdim",
            "mixed", 100, 2, (0, 5), 4096, dict(_RANK2, eps=0.08, final_eps_prime=0.25),
            # eps = 0.08 lets a certified hypothesis miss by 3 * eps = 0.24 RMS,
            # about 0.53 * ||F|| on these nets, so criterion 7's 0.25 cannot hold.
            fit_bar=0.6,
        ),
        Workload(
            "rank1-kicker",
            "abs", 4, 1, tuple(range(10)), 0, _KICKER,
        ),
    )
}


def build(workload: Workload) -> list[Instance]:
    """The workload's planted instances, with criterion 6a/7's seed conventions."""
    out = []
    for s in workload.seeds:
        if workload.kind == "abs":
            recipe = {"kind": "abs", "dim": workload.dim, "net_seed": s}
        else:
            recipe = {"kind": workload.kind, "dim": workload.dim, "k": workload.k, "units": 2, "b": 1.0}
        net, frame = make_instance(recipe, s)
        config = LearnConfig(dim=workload.dim, k=workload.k, seed=200 + s, **workload.learn)
        out.append(Instance(f"seed {s}", net, np.array(frame.vectors), 100 + s, workload.burn_in, config))
    return out


class CountingOracle:
    """GaussianOracle behind a row counter and an optional trace span.

    The burn-in draw aligns the stream with the acceptance tests, which take
    a norm batch from the same oracle before calling run(); it is not counted.
    """

    def __init__(self, inst: Instance, tracer=None):
        self._inner = GaussianOracle(inst.net, inst.oracle_seed)
        if inst.burn_in:
            self._inner.draw(inst.burn_in)
        self.rows = 0
        self._tracer = tracer

    @property
    def input_dim(self) -> int:
        return self._inner.input_dim

    def draw(self, n: int):
        self.rows += n
        tracer = self._tracer
        if tracer is None:
            return self._inner.draw(n)
        if tracer.top() == "filteredpca.terminal":
            tracer.counts["terminal_draws"] += 1
        tracer.counts["oracle_rows"] += n
        with tracer.span("oracle.draw"):
            return self._inner.draw(n)


def learn(inst: Instance, tracer=None):
    """One operation: run() on a fresh oracle.  Returns (result, seconds, rows)."""
    oracle = CountingOracle(inst, tracer)
    t0 = time.perf_counter()
    if tracer is None:
        result = run(oracle, inst.config)
    else:
        with tracer.span("filteredpca.run"):
            result = run(oracle, inst.config)
    return result, time.perf_counter() - t0, oracle.rows


def warm_up(workload: Workload) -> None:
    """One small untimed run() in the workload's candidate mode (first-call costs)."""
    net, _ = make_instance({"kind": "abs", "dim": 3, "net_seed": 0}, 0)
    config = LearnConfig(
        dim=3, k=1, size=2, l=0, b=math.sqrt(2.0), lam=2.0, eps=0.1, delta=0.05,
        n_samples=2_000, n_check=200, tau_mode="quantile", final_eps_prime=0.25,
        final_select_samples=64, candidate_mode=workload.learn.get("candidate_mode", "network"),
    )
    run(GaussianOracle(net, 0), config)
