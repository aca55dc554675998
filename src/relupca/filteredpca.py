"""Threshold-filtered spectral recovery: filter matrices, the main loop, error estimates."""

from __future__ import annotations

import bisect
import itertools
import math
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .enumeration import CandidateList, KickerBlock, _candidate, enumerate_kickers, enumerate_networks
from .errors import BudgetError
from .lattice import LatticePolynomial, SelectorKicker, _rank_patterns, all_order_types, lattice_eval, selector_eval
from .network import ReluNetwork, evaluate, restrict, zero_network
from .subspace import Frame, _grid_geometry, extend_frame, project, seeded_start
from .subspace import approx_top_svd  # noqa: F401  (bench/tracing.py wraps it; unused here)

__all__ = [
    "GaussianOracle",
    "IterationRecord",
    "LearnConfig",
    "RecoveryResult",
    "SampleSet",
    "TerminalRecord",
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

    X_m holds the raw rows that pass the filter and q is a symmetric
    projector, so this is (1/n) * sum over masked rows of (q x)(q x)^T - q
    without forming q x for every row.  The one filtered-moment primitive:
    filter_matrix, run() and the concentration check all call it.
    """
    d = q.shape[0]
    if not np.any(mask):
        return np.zeros((d, d))
    xm = np.compress(mask, x, axis=0)  # x[mask], gathered faster
    m = (q @ (xm.T @ xm) @ q - xm.shape[0] * q) / n
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
    eps lies in [1e-6, 1): terminal errors come from a Gram form that resolves
    them only to about 1e-8.  delta lies in (0, 1) but sets no decision (the
    eigen-step is exact); it stays a field because the acceptance tests pass it.
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
        if not 1e-6 <= self.eps < 1:
            raise ValueError(f"eps must be in [1e-6, 1), got {self.eps!r}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta!r}")
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
    """One loop iteration: what was scanned, what was accepted, how well aligned.

    candidates_distinct counts the filtered moments the scan formed: one per
    distinct mask (residual above tau) among the candidates scanned.
    """

    index: int
    tau: float
    candidates_scanned: int
    accepted_candidate: int | None
    lam_value: float | None
    nearness: float | None
    candidates_distinct: int


@dataclass(frozen=True)
class TerminalRecord:
    """The terminal search: candidates scored, the first hit's stream index, whether the playoff ran."""

    scored: int
    first_hit: int | None  # None when no candidate reached 3*eps on the selection batch
    playoff: bool


@dataclass(eq=False)
class RecoveryResult:
    frame: Frame
    hypothesis: object
    trace: list
    eps_hat: float
    certified: bool
    failure_reason: str | None
    constants: dict
    terminal: TerminalRecord


def _zero_candidates(dim: int) -> CandidateList:
    weights = zero_network(dim).weights
    return CandidateList(factory=lambda: iter([weights]), count_bound=1)


def _candidates(config: LearnConfig, frame: Frame, eps_prime: float) -> CandidateList:
    """The configured grid over the frame at eps_prime; the zero net on an empty frame."""
    if len(frame) == 0:
        return _zero_candidates(config.dim)
    if config.candidate_mode == "kicker":
        return enumerate_kickers(frame, eps_prime, config.num_leaves, config.lam, max_candidates=config.max_candidates)
    return enumerate_networks(frame, eps_prime, config.size, config.l, config.b, max_candidates=config.max_candidates)


def _pick_tau(config: LearnConfig, resid: np.ndarray) -> float:
    if config.tau_mode == "formula":
        return config.tau
    return max(_quantile(resid, config.tau_quantile), 1e-12)


# _quantile bounds its order statistics from below with a strided subsample of
# about this many entries, on residual rows of at least 4 times as many.
_TAU_SAMPLE = 8192


def _quantile(r: np.ndarray, q: float) -> float:
    """float(np.quantile(r, q)) to the bit, for 0 < q < 1, without partitioning all of r.

    np.quantile's default method interpolates order statistics lo and
    hi = lo + 1 (both n - 1 when (n - 1) q >= n - 1) as its _lerp does.  A
    long r is first cut at the rank-(~q - 5 sd) order statistic of its strided
    subsample: if at most lo entries fall below that cut, both order
    statistics are among the entries kept, and only those are partitioned;
    otherwise all of r is, as np.quantile does.  NaN sorts last, so the kept
    entries hold every NaN, and any NaN gives NaN, as in np.quantile.
    """
    n = r.size
    vi = (n - 1) * q
    lo = hi = n - 1
    if vi < n - 1:
        lo = math.floor(vi)
        hi = lo + 1
    part, skip = None, 0  # skip: the entries left out, each below every entry kept
    if n >= 4 * _TAU_SAMPLE:
        sample = r[:: n // _TAU_SAMPLE]
        p = lo / n
        rank = math.floor(sample.size * p - 5.0 * math.sqrt(sample.size * p * (1.0 - p)))
        if rank > 0:
            below = r < np.partition(sample, rank)[rank]
            skip = int(np.count_nonzero(below))
            if skip <= lo:
                part = np.compress(np.logical_not(below, out=below), r)
            else:
                skip = 0
    if part is None:
        part = r.copy()
    part.partition(sorted({lo - skip, hi - skip, part.size - 1}))
    if math.isnan(part[-1]):
        return math.nan
    a, b, gamma = float(part[lo - skip]), float(part[hi - skip]), vi - lo
    diff = b - a
    return b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma


# Chunk budgets, in elements of N x (widest hidden layer) per candidate: the
# loop's (C, N) predictions stay within budget / width elements.  Measured
# with BLAS on one thread on 2 cores.  The loop scores every chunk on the whole
# N x d batch, so smaller chunks re-read it more often: the two rank2-highdim
# runs (d = 100, N = 2e5) took 5.13 s at 2e6 against 4.66 s at 8e6, median of
# three.  The terminal scan keeps only hidden activations on 512 selection
# rows (errors come from the Gram form), so its budget sets the per-chunk
# overhead: on the two rank2-terminal runs it took 0.37 s at 5e5, 0.23 s at
# 2e6 and 0.25 s at 8e6, median of five.
_LOOP_CHUNK_ELEMS = 8_000_000
_TERMINAL_CHUNK_ELEMS = 2_000_000


def _gated(block: KickerBlock, x: np.ndarray) -> np.ndarray:
    """A kicker block's gated leaf features at x, (N, m * T), read-only.

    Row n holds its m leaf values in the slots of its order type (one _rank_patterns call types every row) and zeros.
    """
    vals = x @ block.selector.leaves.T  # (N, m), as selector_eval computes them
    types, _, group = _rank_patterns(vals)
    order = all_order_types(vals.shape[1])
    h = np.zeros((len(vals), len(order), vals.shape[1]))
    h[np.arange(len(vals)), np.array([order.index(omega) for omega in types])[group]] = vals
    h = h.reshape(len(vals), -1)
    h.flags.writeable = False
    return h


def _hidden(pieces: list, x: np.ndarray) -> list:
    """[(payload, lo, W_out[lo:hi], H)] for (block, lo, hi) network pieces: H is the last hidden activation at x.

    The distinct first layers (told apart by identity) go through one GEMM;
    deeper layers are applied per piece.
    """
    firsts: list = []
    cols: list[slice] = []  # each piece's columns of h0
    width = 0
    for ws, _, _ in pieces:
        if not firsts or firsts[-1] is not ws[0]:
            firsts.append(ws[0])
            width += ws[0].shape[0]
        cols.append(slice(width - ws[0].shape[0], width))
    h0 = np.maximum(x @ np.concatenate(firsts).T, 0.0)  # (N, width)
    out = []
    for (ws, lo, hi), c in zip(pieces, cols):
        h = h0[:, c]
        for w in ws[1:-1]:
            h = np.maximum(h @ w.T, 0.0)
        h.flags.writeable = False  # pieces share h0
        out.append((ws, lo, ws[-1][lo:hi], h))
    return out


def _scored(payloads, x: np.ndarray, elem_budget: int):
    """Yield chunks [(payload, lo, W, H)] in stream order: the one scorer.

    A chunk holds pieces of blocks (see CandidateList): W is the piece's output
    rows from row lo, H the block's last hidden activation at x, (N, k) (a
    kicker block's gated leaf features, see _gated), and the piece's
    candidates' predictions at x are the rows of W @ H.T.  Every network
    candidate costs N * (widest hidden layer) elements; a chunk of network
    pieces holds candidates up to elem_budget (at least one) and at most twice
    as many pieces as the chunk before (the first holds one), so an early hit
    pays for little, and a block that does not fit is split across chunks.  A
    kicker block is a chunk of its own: leaf tuples share no layer, and a hit
    ends the terminal scan at the end of its block.  Scanning chunk by chunk
    keeps first-hit order.  Every H yielded is read-only.
    """
    n = x.shape[0]
    chunk: list = []  # (block, lo, hi)
    used = 0
    cap = 1
    for p in payloads:
        if isinstance(p, KickerBlock):
            if chunk:
                yield _hidden(chunk, x)
                chunk, used, cap = [], 0, 2 * cap
            yield [(p, 0, p.picks, _gated(p, x))]
            continue
        cost = n * max(w.shape[0] for w in p[:-1])
        lo = 0
        while lo < len(p[-1]):
            if chunk and (len(chunk) == cap or used + cost > elem_budget):
                yield _hidden(chunk, x)
                chunk, used, cap = [], 0, 2 * cap
            hi = min(len(p[-1]), lo + max(1, (elem_budget - used) // cost))
            chunk.append((p, lo, hi))
            used += (hi - lo) * cost
            lo = hi
    if chunk:
        yield _hidden(chunk, x)


def _iter_predictions(candidates: CandidateList, x: np.ndarray):
    """Yield each candidate's prediction row at x, in stream order.

    Each row is a writable view of its chunk's own (C, N) buffer, so the scan
    may overwrite it.  A chunk's predictions are formed before its rows are
    yielded, so the chunk's hidden activations are freed first.
    """
    for chunk in _scored(candidates.factory(), x, _LOOP_CHUNK_ELEMS):
        preds = np.empty((sum(len(w) for _, _, w, _ in chunk), x.shape[0]))
        a = 0
        for _, _, w, h in chunk:
            np.matmul(w, h.T, out=preds[a : a + len(w)])
            a += len(w)
        del chunk, h  # the hidden activations are not needed for the scan
        yield from preds


def _mask_key(mask: np.ndarray) -> bytes:
    """A scan's repeat key: the mask's own bits, so only equal masks have equal keys."""
    return np.packbits(mask).tobytes()


def _chunk_errors(chunk: list, y: np.ndarray) -> np.ndarray:
    """RMS errors against y of a _scored chunk's candidates, in stream order.

    A run of pieces with the same output rows is scored in the Gram form: row
    w of W on activations H has err^2 = w G w^T - 2 w.c + s, clamped at 0,
    with G = H^T H / N, c = H^T y / N and s = y.y / N, so a candidate costs
    O(k^2) once G is formed, not O(N).
    """
    n = y.shape[0]
    err2 = []
    for _, run in itertools.groupby(chunk, key=lambda e: (id(e[0][-1]), e[1], len(e[2]))):
        run = list(run)
        w, hs = run[0][2], np.stack([h for _, _, _, h in run])  # hs: (B, N, k)
        g = np.matmul(hs.transpose(0, 2, 1), hs) / n
        c = (y @ hs) / n
        err2.append((np.einsum("brj,rj->br", w @ g, w) - 2.0 * (c @ w.T) + (y @ y) / n).ravel())
    return np.sqrt(np.maximum(np.concatenate(err2), 0.0))


def run(oracle, config: LearnConfig, planted_frame: Frame | None = None) -> RecoveryResult:
    """Iterative direction recovery followed by a terminal hypothesis search.

    Per iteration: draw a batch, scan candidates over the current frame, build
    each candidate's filtered second-moment matrix, and accept the first whose
    eigenvalue of largest magnitude clears the acceptance threshold (calibrated
    from the first scan unless lambda_acc is given).  The moment reads a
    candidate only through its mask (residual above tau), so a candidate
    whose mask equals one formed before in the same scan is skipped: it has
    that moment and eigenvalue, and that candidate was rejected.  It still
    counts as scanned, keeps its index and records its own tau.  The frame
    grows by the accepted moment's top eigenvector; a scan with no acceptance
    ends the loop.
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
    # only what the config's fields do not hold: the method's constants and derived values
    constants = {
        "c": config.c,
        "acc_fraction": config.acc_fraction,
        "tau_quantile": config.tau_quantile,
        "tau_formula": config.tau,
        "final_eps_prime": config.default_final_eps_prime(),
    }
    planted_proj = planted_frame.projector() if planted_frame is not None else None

    for ell in range(config.k):
        samples = oracle.draw(config.n_samples)
        q = np.eye(d) - frame.projector()
        accepted = None
        scanned = 0
        tau_used = config.tau
        masks: set[bytes] = set()  # _mask_key of every moment formed
        try:
            # Scoring the raw rows is exact up to rounding: every loop candidate
            # reads x only through the frame (lifted W_0 rows and kicker leaves
            # lie in its span, and the zero net ignores x), so f(x) = f(P x).
            candidates = _candidates(config, frame, config.eps_prime)
            for idx, row in enumerate(_iter_predictions(candidates, samples.x)):
                scanned += 1
                # the residual in the row's own buffer: |row - y| is bitwise |y - row|
                resid = np.abs(np.subtract(row, samples.y, out=row), out=row)
                tau_used = _pick_tau(config, resid)
                mask = resid > tau_used
                key = _mask_key(mask)
                if key in masks:  # a rejected candidate's mask: same moment and lambda
                    continue
                masks.add(key)
                m = _masked_moment(samples.x, q, mask, samples.n)
                vals = np.linalg.eigvalsh(m)  # ascending; power iteration converges to the larger |end|
                lam_val = float(vals[-1] if vals[-1] >= -vals[0] else vals[0])
                if lambda_acc is None:
                    lambda_acc = max(config.acc_fraction * abs(lam_val), 1e-9)
                    constants["lambda_acc_calibrated"] = lambda_acc
                if lam_val >= lambda_acc:
                    # signed as power iteration from approx_top_svd's seeded start converges to it
                    w = np.linalg.eigh(m)[1][:, -1]
                    q0 = seeded_start(d, 1, config.seed * 1_000_003 + 7919 * ell + idx)[:, 0]
                    accepted = (idx, -w if w @ q0 < 0 else w, lam_val)
                    break
        except BudgetError as err:
            failure = f"enumeration budget exhausted at iteration {ell}: {err}"
        finally:
            # so the next draw does not hold two batches, nor the terminal search
            # a chunk of predictions or the scan's keys
            distinct = len(masks)
            samples = row = resid = mask = masks = None
        if accepted is None:
            trace.append(IterationRecord(ell, tau_used, scanned, None, None, None, distinct))
            break
        idx, w, lam_val = accepted
        nearness = None
        if planted_proj is not None:
            nearness = 1.0 - float(np.linalg.norm(planted_proj @ w))
        trace.append(IterationRecord(ell, tau_used, scanned, idx, lam_val, nearness, distinct))
        frame = extend_frame(frame, w)

    constants["lambda_acc_effective"] = lambda_acc
    hypothesis, eps_hat, certified, final_failure, terminal = _final_search(oracle, config, frame)
    failure = failure or final_failure
    if not certified and config.candidate_mode == "kicker" and len(frame):
        fep = constants["final_eps_prime"]
        spacing, _ = _grid_geometry(len(frame), config.lam, fep * config.lam)  # enumerate_kickers' leaf net
        if spacing > 1.0:
            failure += (
                f"; the terminal kicker grid cannot hold a unit-scale leaf: its spacing "
                f"2*final_eps_prime*lam/sqrt(ell) is {spacing:.6g} > 1 at final_eps_prime {fep:.6g}"
            )
    return RecoveryResult(
        frame=frame,
        hypothesis=hypothesis,
        trace=trace,
        eps_hat=eps_hat,
        certified=certified,
        failure_reason=failure,
        constants=constants,
        terminal=terminal,
    )


_PLAYOFF_SIZE = 32  # lowest-error terminal candidates rescored when nothing hits


def _final_search(oracle, config: LearnConfig, frame: Frame):
    """Scan the terminal candidate list for the first hypothesis within 3*eps.

    Errors on the selection batch come from each block's Gram form
    (_chunk_errors).  If nothing clears the target, the lowest-error candidates
    are rescored on a larger fresh batch to strip selection noise, and the
    winner of that playoff is returned.  Only those candidates are built as
    hypotheses.  Returns (hypothesis, eps_hat, certified, failure, TerminalRecord).
    """
    select = oracle.draw(config.final_select_samples)
    target = 3.0 * config.eps
    best: list = []  # (error, stream index, payload, row) of the lowest errors so far
    chosen = None  # (payload, row)
    first_hit = None
    failure = None
    scored = 0
    try:
        candidates = _candidates(config, frame, config.default_final_eps_prime())
        for chunk in _scored(candidates.factory(), select.x, _TERMINAL_CHUNK_ELEMS):
            errs = _chunk_errors(chunk, select.y)
            ends = list(itertools.accumulate(len(w) for _, _, w, _ in chunk))

            def locate(j: int):
                b = bisect.bisect_right(ends, j)
                payload, lo, w, _ = chunk[b]
                return payload, lo + j - ends[b] + len(w)

            hits = np.flatnonzero(errs <= target)
            if hits.size:
                first_hit = scored + int(hits[0])
                chosen = locate(int(hits[0]))
            else:
                idx = np.arange(errs.size)
                if len(best) == _PLAYOFF_SIZE:  # an error above best[-1] sorts after all of best
                    idx = np.flatnonzero(errs <= best[-1][0])
                for j in idx[np.argsort(errs[idx], kind="stable")[:_PLAYOFF_SIZE]]:
                    best.append((float(errs[j]), scored + int(j), *locate(int(j))))
                best.sort(key=lambda t: (t[0], t[1]))
                del best[_PLAYOFF_SIZE:]
            scored += errs.size
            if chosen is not None:
                break
    except BudgetError as err:
        failure = f"terminal enumeration budget exhausted: {err}"
    playoff = chosen is None and bool(best)
    if playoff:
        rescore = oracle.draw(8 * config.final_select_samples)
        errs = [np.sqrt(np.mean((rescore.y - as_function(_candidate(p, r))(rescore.x)) ** 2)) for _, _, p, r in best]
        chosen = best[int(np.argmin(errs))][2:]  # the first lowest error
        if failure is None:
            failure = "no terminal candidate reached 3*eps; returning the playoff winner"
    record = TerminalRecord(scored, first_hit, playoff)
    if chosen is None:
        return None, math.inf, False, failure or "terminal enumeration yielded no candidates", record
    hypothesis = _candidate(*chosen)
    eps_hat = estimate_l2_error(hypothesis, oracle, config.n_check)
    if eps_hat <= target:
        return hypothesis, eps_hat, True, None, record
    if failure is None:
        failure = (
            f"the first candidate within 3*eps on the selection batch failed the check: "
            f"eps_hat {eps_hat:.6g} > 3*eps {target:.6g}"
        )
    return hypothesis, eps_hat, False, failure, record
