"""Threshold-filtered spectral recovery: filter matrices, the main loop, error estimates."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .enumeration import CandidateList, EnumBudget, enumerate_kickers, enumerate_networks
from .errors import BudgetError
from .lattice import SelectorKicker, selector_eval
from .network import ReluNetwork, evaluate, restrict, zero_network
from .subspace import (
    Frame,
    approx_top_svd,
    complement_project,
    extend_frame,
    project,
)

__all__ = [
    "GaussianOracle",
    "IterationRecord",
    "LearnConfig",
    "RecoveryResult",
    "SampleSet",
    "as_function",
    "estimate_l2_error",
    "filter_matrix",
    "gaussian_oracle",
    "idealized_filter_matrix",
    "run",
]


@dataclass(frozen=True, eq=False)
class SampleSet:
    """Labelled input batch (x rows, y values) with seed provenance."""

    x: np.ndarray
    y: np.ndarray
    seed: object = None
    source: str = ""

    def __post_init__(self):
        x = np.array(self.x, dtype=float, copy=True)
        y = np.array(self.y, dtype=float, copy=True).ravel()
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("x must be a non-empty (N, d) array")
        if y.shape[0] != x.shape[0]:
            raise ValueError("y length must match x")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("samples must be finite")
        x.flags.writeable = False
        y.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]


class GaussianOracle:
    """Deterministic stream of (x, net(x)) batches with standard Gaussian x."""

    def __init__(self, net: ReluNetwork, seed: int):
        self.net = net
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)
        self._drawn = 0

    @property
    def input_dim(self) -> int:
        return self.net.input_dim

    def draw(self, n: int) -> SampleSet:
        if n < 1:
            raise ValueError("need n >= 1")
        x = self._rng.standard_normal((n, self.net.input_dim))
        y = evaluate(self.net, x)
        out = SampleSet(x, y, seed=self.seed, source=f"gaussian[{self._drawn}:{self._drawn + n}]")
        self._drawn += n
        return out


def gaussian_oracle(net: ReluNetwork, seed: int) -> GaussianOracle:
    return GaussianOracle(net, seed)


def as_function(candidate):
    """Uniform batched-callable view of a candidate (network, selector, or callable)."""
    if isinstance(candidate, ReluNetwork):
        return lambda x: evaluate(candidate, x)
    if isinstance(candidate, SelectorKicker):
        return lambda x: selector_eval(candidate, x)
    if callable(candidate):
        return candidate
    raise TypeError(f"cannot evaluate candidate of type {type(candidate).__name__}")


def _masked_moment(x_comp: np.ndarray, q: np.ndarray, mask: np.ndarray, n: int) -> np.ndarray:
    """(1/n) * sum over masked rows of (x_comp x_comp^T - q), symmetrised."""
    d = q.shape[0]
    if not np.any(mask):
        return np.zeros((d, d))
    xm = x_comp[mask]
    m = (xm.T @ xm - int(mask.sum()) * q) / n
    return (m + m.T) / 2.0


def filter_matrix(samples: SampleSet, frame: Frame, candidate, tau: float) -> np.ndarray:
    """Complement-projected second moment of the samples with residual above tau.

    Returns (1/N) * sum over {i : |y_i - candidate(P x_i)| > tau} of
    (Q x_i)(Q x_i)^T - Q, with P the frame projector and Q = I - P.  Symmetric
    by construction; directions inside the frame are annihilated (up to float
    rounding).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if samples.dim != frame.dim:
        raise ValueError("dimension mismatch")
    f = as_function(candidate)
    preds = np.asarray(f(project(frame, samples.x)), dtype=float).ravel()
    mask = np.abs(samples.y - preds) > tau
    q = np.eye(samples.dim) - frame.projector()
    return _masked_moment(complement_project(frame, samples.x), q, mask, samples.n)


def idealized_filter_matrix(oracle, true_net: ReluNetwork, frame: Frame, tau: float, n: int) -> np.ndarray:
    """filter_matrix with the true restriction as the candidate (verification only)."""
    samples = oracle.draw(n)
    return filter_matrix(samples, frame, restrict(true_net, frame), tau)


def estimate_l2_error(candidate, oracle, n_check: int) -> float:
    """Empirical L2 distance sqrt(mean (y - candidate(x))^2) on a fresh batch."""
    samples = oracle.draw(n_check)
    f = as_function(candidate)
    resid = samples.y - np.asarray(f(samples.x), dtype=float).ravel()
    return float(np.sqrt(np.mean(resid * resid)))


@dataclass(frozen=True)
class LearnConfig:
    """All knobs of the recovery loop.

    The residual threshold tau is always derived as c * sqrt(k) * lam (or, with
    tau_mode="quantile", from the per-candidate residual distribution) and
    never stored, so it cannot go stale.
    """

    dim: int
    k: int
    size: int
    l: int
    b: float
    lam: float
    eps: float
    delta: float
    c: float = 2.0
    candidate_mode: str = "network"
    lambda_acc: float | None = None
    acc_fraction: float = 0.25
    n_samples: int = 50_000
    n_check: int = 10_000
    seed: int = 0
    eps_prime: float = 0.5
    final_eps_prime: float | None = None
    num_leaves: int = 2
    tau_mode: str = "formula"
    tau_quantile: float = 0.95
    max_candidates: int | None = 10_000_000
    subsample: float | None = None
    final_select_samples: int = 256

    def __post_init__(self):
        if self.dim < 1 or not 0 <= self.k <= self.dim:
            raise ValueError("need 0 <= k <= dim")
        if self.size < 1 or self.l < 0:
            raise ValueError("need size >= 1 and l >= 0")
        if not (0 < self.eps < 1 and 0 < self.delta < 1):
            raise ValueError("eps and delta must lie in (0, 1)")
        if self.b <= 0 or self.lam <= 0 or self.c <= 0:
            raise ValueError("b, lam and c must be positive")
        if self.candidate_mode not in ("network", "kicker"):
            raise ValueError(f"unknown candidate mode {self.candidate_mode!r}")
        if self.tau_mode not in ("formula", "quantile"):
            raise ValueError(f"unknown tau mode {self.tau_mode!r}")
        if not 0 < self.tau_quantile < 1:
            raise ValueError("tau_quantile must lie in (0, 1)")
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")

    @property
    def tau(self) -> float:
        return self.c * math.sqrt(max(self.k, 1)) * self.lam

    def default_final_eps_prime(self) -> float:
        """Terminal-search granularity eps / (b^(l+1) * 2^l * sqrt(k))."""
        if self.final_eps_prime is not None:
            return self.final_eps_prime
        return self.eps / (self.b ** (self.l + 1) * 2.0**self.l * math.sqrt(max(self.k, 1)))


@dataclass(frozen=True)
class IterationRecord:
    """One loop iteration: what was scanned, what was accepted, how well aligned."""

    index: int
    tau: float
    candidates_scanned: int
    accepted_candidate: int | None
    lam_value: float | None
    nearness: float | None


@dataclass(eq=False)
class RecoveryResult:
    frame: Frame
    hypothesis: object
    trace: list
    eps_hat: float
    certified: bool
    failure_reason: str | None
    constants: dict


def _stacked_preds(batch: list, x: np.ndarray) -> np.ndarray:
    """Evaluate a list of same-shape weight tuples at once; returns (C, N)."""
    h = np.einsum("nd,ckd->cnk", x, np.stack([ws[0] for ws in batch]))
    np.maximum(h, 0.0, out=h)
    for layer in range(1, len(batch[0]) - 1):
        h = np.einsum("cnk,cjk->cnj", h, np.stack([ws[layer] for ws in batch]))
        np.maximum(h, 0.0, out=h)
    out = np.stack([ws[-1][0] for ws in batch])
    return np.einsum("cnk,ck->cn", h, out)


def _pred_chunks(source, x: np.ndarray, elem_budget: int = 8_000_000):
    """Group a stream of weight tuples into same-shape chunks and evaluate them.

    Yields (list of weight tuples, (C, N) prediction matrix) pairs in stream
    order, so scanning chunk by chunk preserves first-hit semantics.
    """
    n = x.shape[0]
    buf: list = []
    sig = None
    for ws in source:
        this_sig = tuple(w.shape for w in ws)
        width = max(w.shape[0] for w in ws)
        cap = max(1, elem_budget // (n * width))
        if buf and (this_sig != sig or len(buf) >= cap):
            yield buf, _stacked_preds(buf, x)
            buf = []
        buf.append(ws)
        sig = this_sig
    if buf:
        yield buf, _stacked_preds(buf, x)


def _zero_candidates(dim: int) -> CandidateList:
    net = zero_network(dim)
    return CandidateList(
        factory=lambda: iter([net]),
        kind="network",
        eps_prime=0.0,
        frame=Frame.empty(dim),
        count_bound=1,
        meta={"fixed": "zero"},
        raw_factory=lambda: iter([net.weights]),
    )


def _candidates(config: LearnConfig, frame: Frame, eps_prime: float, subsample_seed: int) -> CandidateList:
    """The configured grid over the frame at eps_prime; the zero net on an empty frame."""
    if len(frame) == 0:
        return _zero_candidates(config.dim)
    budget = EnumBudget(
        max_candidates=config.max_candidates,
        subsample=config.subsample,
        subsample_seed=subsample_seed,
    )
    if config.candidate_mode == "kicker":
        return enumerate_kickers(frame, eps_prime, config.num_leaves, config.lam, budget)
    return enumerate_networks(frame, eps_prime, config.size, config.l, config.b, budget)


def _hypothesis(payload):
    """A scanned payload as a hypothesis: weight tuples become networks."""
    return ReluNetwork(payload) if isinstance(payload, tuple) else payload


def _pick_tau(config: LearnConfig, resid: np.ndarray) -> float:
    if config.tau_mode == "formula":
        return config.tau
    return max(float(np.quantile(resid, config.tau_quantile)), 1e-12)


def _scored(candidates: CandidateList, x: np.ndarray):
    """Yield (payloads, (C, N) predictions at x) in stream order.

    Weight tuples from raw_factory are evaluated in same-shape chunks; other
    candidates one at a time.  Scanning chunk by chunk keeps first-hit order.
    """
    if candidates.raw_factory is not None:
        yield from _pred_chunks(candidates.raw_factory(), x)
        return
    for cand in candidates:
        yield [cand], np.asarray(as_function(cand)(x), dtype=float).reshape(1, -1)


def _iter_residuals(candidates: CandidateList, samples: SampleSet, x_proj: np.ndarray):
    """Yield each candidate's residual vector |y - prediction|, in stream order."""
    for _payloads, preds in _scored(candidates, x_proj):
        for row in preds:
            yield np.abs(samples.y - row)


def run(oracle, config: LearnConfig, planted_frame: Frame | None = None) -> RecoveryResult:
    """Iterative direction recovery followed by a terminal hypothesis search.

    Per iteration: draw a batch, scan candidates over the current frame, build
    each candidate's filtered second-moment matrix, take its top direction, and
    accept the first candidate whose quadratic form clears the acceptance
    threshold (calibrated from the first scan unless lambda_acc is given).  The frame
    grows by the accepted direction; a scan with no acceptance ends the loop.
    A final enumeration at fine granularity picks the hypothesis: the first
    candidate whose empirical error is at most 3*eps, else the best seen.
    """
    d = config.dim
    oracle_dim = getattr(oracle, "input_dim", d)
    if oracle_dim != d:
        raise ValueError(f"oracle dimension {oracle_dim} does not match config dim {d}")
    frame = Frame.empty(d)
    trace: list[IterationRecord] = []
    lambda_acc = config.lambda_acc
    failure = None
    constants = {
        "candidate_mode": config.candidate_mode,
        "c": config.c,
        "tau_formula": config.tau,
        "tau_mode": config.tau_mode,
        "tau_quantile": config.tau_quantile,
        "acc_fraction": config.acc_fraction,
        "lambda_acc_configured": config.lambda_acc,
        "eps": config.eps,
        "delta": config.delta,
        "eps_prime": config.eps_prime,
        "final_eps_prime": config.default_final_eps_prime(),
        "n_samples": config.n_samples,
        "n_check": config.n_check,
        "final_select_samples": config.final_select_samples,
        "max_candidates": config.max_candidates,
        "subsample": config.subsample,
        "seed": config.seed,
    }
    planted_proj = planted_frame.projector() if planted_frame is not None else None

    for ell in range(config.k):
        samples = oracle.draw(config.n_samples)
        x_proj = project(frame, samples.x)
        x_comp = samples.x - x_proj
        q = np.eye(d) - frame.projector()
        accepted = None
        scanned = 0
        tau_used = config.tau
        try:
            candidates = _candidates(config, frame, config.eps_prime, config.seed)
            for idx, resid in enumerate(_iter_residuals(candidates, samples, x_proj)):
                scanned += 1
                tau_used = _pick_tau(config, resid)
                m = _masked_moment(x_comp, q, resid > tau_used, samples.n)
                top = approx_top_svd(
                    lambda v: m @ v,
                    d,
                    1,
                    eta=1e-9,
                    delta=config.delta,
                    seed=config.seed * 1_000_003 + 7919 * ell + idx,
                )
                w = top.frame.vectors[0]
                lam_val = float(w @ m @ w)
                if lambda_acc is None:
                    lambda_acc = max(config.acc_fraction * float(top.values[0]), 1e-9)
                    constants["lambda_acc_calibrated"] = lambda_acc
                if lam_val >= lambda_acc:
                    accepted = (idx, w, lam_val)
                    break
        except BudgetError as err:
            failure = f"enumeration budget exhausted at iteration {ell}: {err}"
            trace.append(IterationRecord(ell, tau_used, scanned, None, None, None))
            break
        if accepted is None:
            trace.append(IterationRecord(ell, tau_used, scanned, None, None, None))
            break
        idx, w, lam_val = accepted
        nearness = None
        if planted_proj is not None:
            nearness = 1.0 - float(np.linalg.norm(planted_proj @ w))
        trace.append(IterationRecord(ell, tau_used, scanned, idx, lam_val, nearness))
        frame = extend_frame(frame, w)

    constants["lambda_acc_effective"] = lambda_acc
    hypothesis, eps_hat, certified, final_failure = _final_search(oracle, config, frame)
    return RecoveryResult(
        frame=frame,
        hypothesis=hypothesis,
        trace=trace,
        eps_hat=eps_hat,
        certified=certified,
        failure_reason=failure or final_failure,
        constants=constants,
    )


_PLAYOFF_SIZE = 32  # lowest-error terminal candidates rescored when nothing hits


def _final_search(oracle, config: LearnConfig, frame: Frame):
    """Scan the terminal candidate list for the first hypothesis within 3*eps.

    If nothing clears the target on the selection batch, the lowest-error
    candidates are rescored on a larger fresh batch to strip selection noise,
    and the winner of that playoff is returned.
    """
    select = oracle.draw(config.final_select_samples)
    target = 3.0 * config.eps
    best: list = []  # (error, stream index, payload) of the lowest errors so far
    chosen = None
    failure = None
    scanned = 0
    try:
        candidates = _candidates(config, frame, config.default_final_eps_prime(), config.seed + 1)
        for payloads, preds in _scored(candidates, select.x):
            errs = np.sqrt(np.mean((preds - select.y) ** 2, axis=1))
            hits = np.flatnonzero(errs <= target)
            if hits.size:
                chosen = payloads[int(hits[0])]
                break
            for j in np.argsort(errs, kind="stable")[:_PLAYOFF_SIZE]:
                best.append((float(errs[j]), scanned + int(j), payloads[int(j)]))
            best.sort(key=lambda t: (t[0], t[1]))
            del best[_PLAYOFF_SIZE:]
            scanned += len(payloads)
    except BudgetError as err:
        failure = f"terminal enumeration budget exhausted: {err}"
    if chosen is None and best:
        playoff = oracle.draw(8 * config.final_select_samples)
        best_err = math.inf
        for _, _, payload in best:
            preds = as_function(_hypothesis(payload))(playoff.x)
            err = float(np.sqrt(np.mean((playoff.y - preds) ** 2)))
            if err < best_err:
                chosen, best_err = payload, err
        if failure is None:
            failure = "no terminal candidate reached 3*eps; returning the playoff winner"
    if chosen is None:
        return None, math.inf, False, failure or "terminal enumeration yielded no candidates"
    hypothesis = _hypothesis(chosen)
    eps_hat = estimate_l2_error(hypothesis, oracle, config.n_check)
    if eps_hat <= target:
        return hypothesis, eps_hat, True, None
    if failure is None:
        failure = (
            f"the first candidate within 3*eps on the selection batch failed the check: "
            f"eps_hat {eps_hat:.6g} > 3*eps {target:.6g}"
        )
    return hypothesis, eps_hat, False, failure
