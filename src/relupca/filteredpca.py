"""Threshold-filtered spectral recovery: filter matrices, the main loop, error estimates."""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .enumeration import CandidateList, enumerate_kickers, enumerate_networks
from .errors import BudgetError
from .lattice import LatticePolynomial, SelectorKicker, lattice_eval, selector_eval
from .network import ReluNetwork, evaluate, restrict, zero_network
from .subspace import (
    Frame,
    approx_top_svd,
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
        x = np.asarray(self.x, dtype=float)
        if x.flags.writeable or x.base is not None:  # a reference elsewhere could write it
            x = x.copy()
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
        x.flags.writeable = False  # nothing else holds x, so SampleSet keeps it without a copy
        out = SampleSet(x, y, seed=self.seed, source=f"gaussian[{self._drawn}:{self._drawn + n}]")
        self._drawn += n
        return out


def gaussian_oracle(net: ReluNetwork, seed: int) -> GaussianOracle:
    return GaussianOracle(net, seed)


def as_function(candidate):
    """Uniform batched-callable view of a candidate (network, selector, lattice, or callable)."""
    if isinstance(candidate, ReluNetwork):
        return lambda x: evaluate(candidate, x)
    if isinstance(candidate, SelectorKicker):
        return lambda x: selector_eval(candidate, x)
    if isinstance(candidate, LatticePolynomial):
        return lambda x: lattice_eval(candidate, x)
    if callable(candidate):
        return candidate
    raise TypeError(f"cannot evaluate candidate of type {type(candidate).__name__}")


def _masked_moment(x: np.ndarray, q: np.ndarray, mask: np.ndarray, n: int) -> np.ndarray:
    """The filtered second moment: (1/n) * (q X_m^T X_m q - |mask| q), symmetrised.

    X_m = x[mask] holds the raw rows that pass the filter and q is a symmetric
    projector, so this is (1/n) * sum over masked rows of (q x)(q x)^T - q
    without forming q x for every row.  The one filtered-moment primitive:
    filter_matrix, run() and the concentration check all call it.
    """
    d = q.shape[0]
    if not np.any(mask):
        return np.zeros((d, d))
    xm = x[mask]
    m = (q @ (xm.T @ xm) @ q - int(mask.sum()) * q) / n
    return (m + m.T) / 2.0


def filter_matrix(samples: SampleSet, frame: Frame, candidate, tau: float) -> np.ndarray:
    """Complement-projected second moment of the samples with residual above tau.

    Returns (1/N) * sum over {i : |y_i - candidate(P x_i)| > tau} of
    (Q x_i)(Q x_i)^T - Q, with P the frame projector and Q = I - P.  The
    candidate sees the projected rows, since it may be any callable; the moment
    is _masked_moment of the raw rows with Q.  Symmetric by construction;
    directions inside the frame are annihilated (up to float rounding).
    """
    if tau <= 0:
        raise ValueError("tau must be positive")
    if samples.dim != frame.dim:
        raise ValueError("dimension mismatch")
    f = as_function(candidate)
    preds = np.asarray(f(project(frame, samples.x)), dtype=float).ravel()
    mask = np.abs(samples.y - preds) > tau
    q = np.eye(samples.dim) - frame.projector()
    return _masked_moment(samples.x, q, mask, samples.n)


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
    never stored, so it cannot go stale.  c, acc_fraction, num_leaves and
    tau_quantile are fixed constants of the method, not fields.
    max_candidates, an integer of at least 1, caps every scan's candidate count
    bound (None: no cap).
    Sizes and sample counts are integers (dim, size and the sample counts at
    least 1, k and l at least 0, k at most dim).  b, lam and the grid
    granularities are finite and positive, as is lambda_acc when given
    (final_eps_prime None: derived from eps; lambda_acc None: calibrated).
    """

    c: ClassVar[float] = 2.0
    acc_fraction: ClassVar[float] = 0.25
    num_leaves: ClassVar[int] = 2
    tau_quantile: ClassVar[float] = 0.95

    dim: int
    k: int
    size: int
    l: int
    b: float
    lam: float
    eps: float
    delta: float
    candidate_mode: str = "network"
    lambda_acc: float | None = None
    n_samples: int = 50_000
    n_check: int = 10_000
    seed: int = 0
    eps_prime: float = 0.5
    final_eps_prime: float | None = None
    tau_mode: str = "formula"
    max_candidates: int | None = 10_000_000
    final_select_samples: int = 256

    def __post_init__(self):
        for name, low in (("dim", 1), ("k", 0), ("size", 1), ("l", 0),
                          ("n_samples", 1), ("n_check", 1), ("final_select_samples", 1)):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < low:
                raise ValueError(f"{name} must be an integer of at least {low}, got {value!r}")
        if self.k > self.dim:
            raise ValueError(f"k must be at most dim = {self.dim}, got {self.k!r}")
        if not (0 < self.eps < 1 and 0 < self.delta < 1):
            raise ValueError("eps and delta must lie in (0, 1)")
        for name in ("b", "lam", "eps_prime", "final_eps_prime", "lambda_acc"):
            value = getattr(self, name)
            if value is None and name in ("final_eps_prime", "lambda_acc"):
                continue
            if not isinstance(value, numbers.Real) or isinstance(value, bool) or not 0 < value < math.inf:
                raise ValueError(f"{name} must be a finite positive number, got {value!r}")
        if self.candidate_mode not in ("network", "kicker"):
            raise ValueError(f"unknown candidate mode {self.candidate_mode!r}")
        if self.tau_mode not in ("formula", "quantile"):
            raise ValueError(f"unknown tau mode {self.tau_mode!r}")
        mc = self.max_candidates
        if mc is not None and (not isinstance(mc, numbers.Integral) or isinstance(mc, bool) or mc < 1):
            raise ValueError(f"max_candidates must be positive (an integer >= 1) or null, got {mc!r}")
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
    converged: bool | None  # eigen-solver convergence for the accepted candidate


@dataclass(eq=False)
class RecoveryResult:
    frame: Frame
    hypothesis: object
    trace: list
    eps_hat: float
    certified: bool
    failure_reason: str | None
    constants: dict


def _stacked_preds(batch: list, starts: list[int], x: np.ndarray) -> np.ndarray:
    """Predictions (C, N) of a chunk of weight tuples at x, row i for batch[i].

    starts lists where each run begins: a run is consecutive tuples whose
    hidden layers are the same array objects.  The chunk's distinct first
    layers go through one GEMM, each deeper layer is applied once per distinct
    layer prefix, and each run's output rows are scored with one GEMM.
    """
    firsts: list = []  # the distinct first layers, one per change of W_0 between runs
    cols: list[slice] = []  # each run's columns of h0
    width = 0
    for i in starts:
        w0 = batch[i][0]
        if not firsts or firsts[-1] is not w0:
            firsts.append(w0)
            width += w0.shape[0]
        cols.append(slice(width - w0.shape[0], width))
    h0 = np.maximum(x @ np.concatenate(firsts).T, 0.0)  # (N, width)
    out = np.empty((len(batch), x.shape[0]))
    path: list = []  # (layer matrix, its activation) along the previous run's prefix
    for a, b, run_cols in zip(starts, starts[1:] + [len(batch)], cols):
        ws = batch[a]
        depth = 0
        while depth < min(len(path), len(ws) - 1) and path[depth][0] is ws[depth]:
            depth += 1
        del path[depth:]
        for layer in range(depth, len(ws) - 1):
            h = h0[:, run_cols] if layer == 0 else np.maximum(path[-1][1] @ ws[layer].T, 0.0)
            path.append((ws[layer], h))
        np.matmul(np.concatenate([t[-1] for t in batch[a:b]]), path[-1][1].T, out=out[a:b])
    return out


def _zero_candidates(dim: int) -> CandidateList:
    weights = zero_network(dim).weights
    return CandidateList(factory=lambda: iter([weights]), count_bound=1)


def _candidates(config: LearnConfig, frame: Frame, eps_prime: float) -> CandidateList:
    """The configured grid over the frame at eps_prime; the zero net on an empty frame."""
    if len(frame) == 0:
        return _zero_candidates(config.dim)
    if config.candidate_mode == "kicker":
        return enumerate_kickers(
            frame, eps_prime, config.num_leaves, config.lam, max_candidates=config.max_candidates
        )
    return enumerate_networks(
        frame, eps_prime, config.size, config.l, config.b, max_candidates=config.max_candidates
    )


def _hypothesis(payload):
    """A scanned payload as a hypothesis: weight tuples become networks."""
    return ReluNetwork(payload) if isinstance(payload, tuple) else payload


def _pick_tau(config: LearnConfig, resid: np.ndarray) -> float:
    if config.tau_mode == "formula":
        return config.tau
    return max(float(np.quantile(resid, config.tau_quantile)), 1e-12)


# Chunk budgets (elements of N x widest hidden layer) for the two scans, measured
# with BLAS on one thread.  The loop scores every chunk on the whole N x d
# batch, so smaller chunks re-read it more often: 2e6 slowed the two
# rank2-highdim runs (d = 100, N = 2e5) from 4.75 s to 5.03 s, median of
# three.  The terminal scan scores a few hundred selection rows; on criterion
# 7's terminal grid at 512 rows, 2e6 (16 MB of predictions) scanned 3.0 us per
# candidate against 3.9 us at 8e6, and 5e5 was no faster.
_LOOP_CHUNK_ELEMS = 8_000_000
_TERMINAL_CHUNK_ELEMS = 2_000_000


def _scored(payloads, x: np.ndarray, elem_budget: int):
    """Yield (payloads, (C, N) predictions at x) in stream order: the one scorer.

    Weight tuples are grouped into chunks while the sum of N * (widest hidden
    layer) stays within elem_budget (at least one tuple).  Consecutive tuples
    whose hidden layers are the same objects share their evaluation (see
    CandidateList); a stream that shares nothing is scored one tuple per run.
    Any other payload closes the open chunk and is scored alone through
    as_function.  Scanning chunk by chunk keeps first-hit order.  The caller
    owns every prediction array yielded and may overwrite it.
    """
    n = x.shape[0]
    buf: list = []
    starts: list[int] = []
    used = 0
    hidden: tuple = ()
    cost = 0
    for p in payloads:
        if not isinstance(p, tuple):  # a branch of its own: the tuple path below is the hot loop
            if buf:
                yield buf, _stacked_preds(buf, starts, x)
                buf, starts, used = [], [], 0
            # np.array copies: a candidate may return an array it keeps
            yield [p], np.array(as_function(p)(x), dtype=float).reshape(1, -1)
            continue
        new_run = len(p) != len(hidden) + 1 or not all(map(operator.is_, p, hidden))
        if new_run:
            hidden = p[:-1]
            cost = n * max(w.shape[0] for w in hidden)
        if buf and used + cost > elem_budget:
            yield buf, _stacked_preds(buf, starts, x)
            buf, starts, used = [], [], 0
        if new_run or not buf:
            starts.append(len(buf))
        buf.append(p)
        used += cost
    if buf:
        yield buf, _stacked_preds(buf, starts, x)


def _iter_residuals(candidates: CandidateList, samples: SampleSet):
    """Yield each candidate's residual vector |y - prediction|, in stream order."""
    for _payloads, preds in _scored(candidates, samples.x, _LOOP_CHUNK_ELEMS):
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
        "seed": config.seed,
    }
    planted_proj = planted_frame.projector() if planted_frame is not None else None

    for ell in range(config.k):
        samples = oracle.draw(config.n_samples)
        q = np.eye(d) - frame.projector()
        accepted = None
        scanned = 0
        tau_used = config.tau
        try:
            # Scoring the raw rows is exact up to rounding: every loop candidate
            # reads x only through the frame (lifted W_0 rows and kicker leaves
            # lie in its span, and the zero net ignores x), so f(x) = f(P x).
            candidates = _candidates(config, frame, config.eps_prime)
            for idx, resid in enumerate(_iter_residuals(candidates, samples)):
                scanned += 1
                tau_used = _pick_tau(config, resid)
                m = _masked_moment(samples.x, q, resid > tau_used, samples.n)
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
                    accepted = (idx, w, lam_val, top.converged)
                    break
        except BudgetError as err:
            failure = f"enumeration budget exhausted at iteration {ell}: {err}"
            trace.append(IterationRecord(ell, tau_used, scanned, None, None, None, None))
            break
        finally:
            del samples  # so the next draw does not hold two batches
        if accepted is None:
            trace.append(IterationRecord(ell, tau_used, scanned, None, None, None, None))
            break
        idx, w, lam_val, converged = accepted
        nearness = None
        if planted_proj is not None:
            nearness = 1.0 - float(np.linalg.norm(planted_proj @ w))
        trace.append(IterationRecord(ell, tau_used, scanned, idx, lam_val, nearness, converged))
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
        candidates = _candidates(config, frame, config.default_final_eps_prime())
        for payloads, preds in _scored(candidates, select.x, _TERMINAL_CHUNK_ELEMS):
            preds -= select.y  # errors in place: the chunk is ours, and no longer needed
            np.square(preds, out=preds)
            errs = np.sqrt(np.mean(preds, axis=1))
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
