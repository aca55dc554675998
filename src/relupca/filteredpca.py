"""Threshold-filtered spectral recovery: filter matrices, the main loop, error estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .enumeration import CandidateList, KickerBlock, enumerate_kickers, enumerate_networks, ray_basis
from .errors import BudgetError, checked
from .lattice import LatticePolynomial, SelectorKicker, _rank_patterns, all_order_types, lattice_eval, selector_eval
from .network import ReluNetwork, _hidden, evaluate, restrict, zero_network
from .subspace import Frame, extend_frame, project, seeded_start
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
    """Labelled input batch (x rows, y values), read-only.

    x is kept uncopied when it is read-only and owns its data (an oracle batch's); any other x, and every y, is
    copied, so that no reference elsewhere can write the batch.  y is copied even from the oracle: keeping
    evaluate's freshly allocated labels instead cost bench/run.py's rank1-kicker about 990 minor page faults and
    7 % of its wall time per run (2 cores, BLAS on one thread): fresh pages were then faulted in on every draw.
    """

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.flags.writeable or x.base is not None:  # a reference elsewhere could write it
            x = x.copy()
        y = np.array(self.y, dtype=float, copy=True).ravel()
        if x.ndim != 2 or x.shape[0] < 1:
            raise ValueError("x must be a non-empty (N, d) array")
        if y.shape[0] != x.shape[0]:
            raise ValueError("y length must match x")
        with np.errstate(over="ignore", invalid="ignore"):  # a finite sum rules out every NaN and +-inf
            finite = all(math.isfinite(a.sum()) or np.all(np.isfinite(a)) for a in (x, y))
        if not finite:
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
        self.seed = checked("seed", seed, 0)
        self._rng = np.random.default_rng(self.seed)

    @property
    def input_dim(self) -> int:
        return self.net.input_dim

    def draw(self, n: int) -> SampleSet:
        x = self._rng.standard_normal(out=np.empty((checked("n", n, 1), self.net.input_dim)))
        y = evaluate(self.net, x)
        x.flags.writeable = False  # nothing else holds x, so SampleSet keeps it without a copy
        return SampleSet(x, y)


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


def _masked_moment(xm: np.ndarray, q: np.ndarray, n: int) -> np.ndarray:
    """The filtered second moment of n rows: (1/n) * (q X_m^T X_m q - |X_m| q), symmetrised.

    X_m = xm holds the raw rows that pass the filter, already gathered (the
    caller's np.compress, or a scan's kept rows compacted in place), and q is
    a symmetric projector, so this is (1/n) * sum over masked rows of
    (q x)(q x)^T - q without forming q x for every row; with no masked rows
    it is the zero matrix.  The one filtered-moment primitive: filter_matrix,
    run() and the concentration check all call it.
    """
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
    checked("tau", tau, 0.0, math.inf)
    if samples.dim != frame.dim:
        raise ValueError("dimension mismatch")
    f = as_function(candidate)
    preds = np.asarray(f(project(frame, samples.x)), dtype=float).ravel()
    mask = np.abs(samples.y - preds) > tau
    q = np.eye(samples.dim) - frame.projector()
    return _masked_moment(np.compress(mask, samples.x, axis=0), q, samples.n)


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

    The residual threshold tau is always derived as c * sqrt(k) * lam (or, with tau_mode="quantile", from the
    per-candidate residual distribution) and never stored, so it cannot go stale.  c, acc_fraction, num_leaves and
    tau_quantile are fixed constants of the method, not fields.  max_candidates caps the count bound of every
    candidate list a run builds (None: no cap): the fit's dictionary grid, in the loop and the terminal, and a scan's
    loop grid, which is built only when the scan reaches it.  The least-squares fit reads final_select_samples (its
    row count), b and final_eps_prime (the grid whose P + ell basis rays are its hidden units), and not size or l,
    which shape only the loop's grid networks (l also enters the derived final_eps_prime); it is the terminal
    hypothesis and the first candidate of every scan at ell >= 1.
    Each numeric field's rule is one row of __post_init__'s table (errors.checked): an integer of at least its low,
    or a number strictly between its two bounds.  seed is an integer of at least 0, as numpy's generators take no
    negative seed, so -1 is refused here rather than at the run's first acceptance.  k is also at most dim, and
    final_eps_prime (None: derived from eps), lambda_acc (None: calibrated) and max_candidates may be None.  A tiny
    eps makes the fit's dictionary grid so fine that the loop or the terminal ends in a budget failure, with its
    reason.  delta sets no decision (the eigen-step is exact); it stays a field because the acceptance tests pass it.
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
        for name, *bounds in (("dim", 1), ("k", 0), ("size", 1), ("l", 0), ("n_samples", 1), ("n_check", 1),
                              ("final_select_samples", 1), ("seed", 0), ("max_candidates", 1),
                              ("eps", 0.0, 1.0), ("delta", 0.0, 1.0), ("b", 0.0, math.inf), ("lam", 0.0, math.inf),
                              ("eps_prime", 0.0, math.inf), ("final_eps_prime", 0.0, math.inf),
                              ("lambda_acc", 0.0, math.inf)):
            value = getattr(self, name)
            if value is not None or name not in ("max_candidates", "final_eps_prime", "lambda_acc"):
                checked(name, value, *bounds)
        if self.k > self.dim:
            raise ValueError(f"k must be at most dim = {self.dim}, got {self.k!r}")
        if self.candidate_mode not in ("network", "kicker"):
            raise ValueError(f"unknown candidate mode {self.candidate_mode!r}")
        if self.tau_mode not in ("formula", "quantile"):
            raise ValueError(f"unknown tau mode {self.tau_mode!r}")

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
    tau: float | None  # the last candidate's own; None when the scan scored none
    candidates_scanned: int
    accepted_candidate: int | None
    lam_value: float | None
    nearness: float | None
    candidates_distinct: int


@dataclass(frozen=True)
class TerminalRecord:
    """The terminal fit: the rays lstsq fitted over (features, P + ell), which are the returned hypothesis's hidden
    units (0 for the zero net), rows fitted on, and the RMS error on them."""

    features: int
    rows: int
    select_err: float | None  # None when the terminal grid exceeded the budget, so nothing was fitted


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
    weights = zero_network(0).weights  # in the empty frame's coordinates: it reads an (N, 0) array
    return CandidateList(factory=lambda: iter([weights]), count_bound=1, frame=Frame.empty(dim))


def _candidates(config: LearnConfig, frame: Frame) -> CandidateList:
    """The loop grid over a non-empty frame at eps_prime: kickers or networks, as configured."""
    if config.candidate_mode == "kicker":
        return enumerate_kickers(frame, config.eps_prime, config.num_leaves, config.lam, config.max_candidates)
    return enumerate_networks(frame, config.eps_prime, config.size, config.l, config.b, config.max_candidates)


# A quantile-mode cut is read from a strided sample of about this many of a candidate's residuals.
_TAU_SAMPLE = 8192


def _tau_cut(config: LearnConfig, r: np.ndarray, n: int) -> float:
    """The cut of a candidate's n residuals, read from r, the first of them: the scan keeps only the residuals that
    are not at most it.  In formula mode it is config.tau itself.  In quantile mode it is the order statistic 5 sd
    below rank lo / n (lo = floor((n - 1) q), as in _top_quantile) of a strided sample of about _TAU_SAMPLE entries
    of r: below the q-quantile but with probability about 3e-7, and -inf when the sample is too short to have one."""
    if config.tau_mode == "formula":
        return config.tau
    sample = r[:: max(r.size // _TAU_SAMPLE, 1)]
    p = math.floor((n - 1) * config.tau_quantile) / n
    rank = math.floor(sample.size * p - 5.0 * math.sqrt(sample.size * p * (1.0 - p)))
    return float(np.partition(sample, rank)[rank]) if rank > 0 else -math.inf


def _pick_tau(config: LearnConfig, top: np.ndarray, n: int, cut: float) -> float:
    """A candidate's tau, from top, the values of its n residuals that are not at most _tau_cut's cut: config.tau
    in formula mode; in quantile mode max(t, 1e-12) with t the q-quantile (q = tau_quantile) as _top_quantile reads
    it from top, which it partitions in place, never below the cut."""
    if config.tau_mode == "formula":
        return config.tau
    return max(_top_quantile(top, n, config.tau_quantile, cut), 1e-12)


def _top_quantile(top: np.ndarray, n: int, q: float, cut: float) -> float:
    """np.quantile's q-quantile (0 < q < 1) of n values r, from top: a writable array of the n - skip values of r
    that are not at most cut (every NaN among them), which it partitions in place.  Quantile-mode _pick_tau reads
    every scored candidate's tau through it, the scan's candidate 0 and each grid row alike.

    np.quantile's default method interpolates order statistics lo = floor((n - 1) q) and hi = lo + 1 (both n - 1
    when (n - 1) q >= n - 1) as its _lerp does.  The skip values left out are the smallest, so order statistic j
    of r is top's j - skip when j >= skip, and is read as cut itself when j < skip.  The result is np.quantile's to
    the bit when skip <= lo, or when the left-out order statistics it reads equal cut (ties at the cut); otherwise
    (the cut above r's lo-th value: for a quantile-mode _tau_cut, a 5 sd miss, about 3e-7 per candidate) it is an
    upper bound on it.  It is never below cut, so every r above it is in top.  NaN sorts last, and any NaN gives
    NaN, as in np.quantile.
    """
    vi = (n - 1) * q
    lo = hi = n - 1
    if vi < n - 1:
        lo = math.floor(vi)
        hi = lo + 1
    skip = n - top.size
    if top.size:
        top.partition(sorted({j - skip for j in (lo, hi, n - 1) if j >= skip}))
        if math.isnan(top[-1]):
            return math.nan
    a, b = (float(top[j - skip]) if j >= skip else cut for j in (lo, hi))
    diff, gamma = b - a, vi - lo
    return b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma


def _gated(block: KickerBlock, z: np.ndarray) -> np.ndarray:
    """A kicker block's gated leaf features at the frame coordinates z, (N, m * T).

    Row n holds its m leaf values in the slots of its order type (one _rank_patterns call types every row) and zeros.
    """
    vals = z @ block.selector.leaves.T  # (N, m), as selector_eval of the block's own selector computes them
    types, _, group = _rank_patterns(vals)
    order = all_order_types(vals.shape[1])
    h = np.zeros((len(vals), len(order), vals.shape[1]))
    h[np.arange(len(vals)), np.array([order.index(omega) for omega in types])[group]] = vals
    return h.reshape(len(vals), -1)


def _iter_predictions(blocks, z: np.ndarray):
    """Yield the prediction row at the frame coordinates z (N x ell) of each candidate of an iterable of blocks (see
    CandidateList), in order: the one scorer.

    Each block forms its last hidden activation H once, feature-major, (k, N): a network block's ReLU layers at z
    through evaluate's layer loop (network._hidden), with W its output rows, or a kicker block's gated leaf features,
    with W its pick matrix.  Row r is then W[r] @ H, a fresh writable (N,) array, so the scan may overwrite it.
    """
    for block in blocks:
        if isinstance(block, KickerBlock):
            h, w = _gated(block, z).T, block.picks
        else:
            h, w = _hidden(block[:-1], z.T), block[-1]
        for row in w:
            yield row @ h


def _mask_key(mask: np.ndarray) -> bytes:
    """A scan's repeat key: the mask's own bits, so only equal masks have equal keys."""
    return np.packbits(mask).tobytes()


def _compact(x: np.ndarray, keep: np.ndarray) -> int:
    """Move the rows of x that keep selects to x's front, in order, and return their count.

    Row idx[j] goes to row j <= idx[j] through a bounce buffer of an eighth of a chunk (_CHUNK_FLOATS // 8 floats),
    a block of rows at a time, each read before its block is written (a block already in place is copied onto
    itself): memory past x's own is that buffer alone.
    """
    idx = np.flatnonzero(keep)
    block = max(_CHUNK_FLOATS // (8 * x.shape[1]), 1)
    buf = np.empty((min(block, idx.size), x.shape[1]))
    for start in range(0, idx.size, block):
        part = idx[start : start + block]
        np.take(x, part, axis=0, out=buf[: part.size])
        x[start : start + part.size] = buf[: part.size]
    return idx.size


# A scan draws its batch in chunks of about this many floats (rows x d), and never of fewer rows than
# final_select_samples, so that the fit reads the first chunk alone.  Each chunk's Z, its feature-major hidden
# activation and its residuals are formed whole; past them a chunk costs only its kept rows and their residuals.
# 2**18 floats are 2 MB, the size of one core's L2 cache on the 2-core machine bench/README.md describes, and small
# enough that every scan streams at every d (with 2e6 floats a batch of N d <= 2e6 was one chunk).  bench/run.py's
# peak_rss_mb there, medians of 10 alternating pairs against 2e6 floats with the kept rows concatenated:
# rank1-kicker (d = 4) 47.1 -> 44.8 MB, rank2-highdim (d = 100) 116.7 -> 112.1 MB, rank2-terminal 101.2 -> 100.8 MB.
_CHUNK_FLOATS = 2**18


def _scan_moments(oracle, config: LearnConfig, frame: Frame, q: np.ndarray):
    """Yield (tau, moment) for each candidate of one scan over frame in order; the moment is None when the
    candidate's mask repeats one already formed on the same batch (_mask_key).

    Each candidate is scored in the same four steps: its residuals r, |y - prediction| (_iter_predictions); the cut
    of r (_tau_cut); tau, from the residuals that are not at most the cut (_pick_tau); and the moment of the rows
    whose residual is above tau (_masked_moment).

    The frame alone decides candidate 0, known before its batch is drawn: at ell = 0 the zero net of
    _zero_candidates, at ell >= 1 the fit (_fit_block) on the first chunk's rows.  Its n_samples rows are drawn in
    chunks of _CHUNK_FLOATS // d rows (at least final_select_samples).  The cut is read from the first chunk's
    residuals, and of each chunk only the rows whose residual is not at most it are kept, each with its residual, in
    draw order, in one buffer and one beside it.  Both are sized at 1.25 times the first chunk's kept fraction of
    n_samples and doubled when short, so past its residuals a chunk costs in proportion to the rows it keeps.  tau
    is never below the cut, so the kept rows hold every masked one: they are compacted in place at the buffer's
    front (_compact) and the moment is read from them.  tau, the mask and the moment equal a whole-batch scan's to
    the bit, save after a 5 sd miss of the cut (_top_quantile).  At ell = 0 candidate 0 ends the scan.  Otherwise
    the grid of _candidates (which may raise BudgetError, and is built only here, so a scan whose fit is accepted
    never builds it) is scored on a whole batch drawn for it, each row's tau through the same two calls.
    """
    n, d = config.n_samples, config.dim
    rows = max(_CHUNK_FLOATS // d, config.final_select_samples)
    basis = frame.vectors.T  # the blocks are in frame coordinates: the scan reads the batch only through Z = X F^T
    first = None if len(frame) else next(_zero_candidates(d).factory())  # at ell >= 1 the fit, built below
    kept, resid, cut, count = None, None, None, 0
    for start in range(0, n, rows):
        batch = oracle.draw(min(rows, n - start))
        z = batch.x @ basis  # each row equals its lifted candidate's up to rounding, (W_0 F) x = W_0 (F x)
        if first is None:  # the least-squares fit over the frame, on the first chunk's rows
            first = _fit_block(config, frame, z, batch.y)
        r = next(_iter_predictions([first], z))
        r = np.abs(np.subtract(r, batch.y, out=r), out=r)  # |row - y| is bitwise |y - row|
        if cut is None:
            cut = _tau_cut(config, r, n)
        keep = np.logical_not(r <= cut)  # NaN too: it sorts above every value, as in np.quantile
        k = int(np.count_nonzero(keep))
        if kept is None:
            size = min(max(math.ceil(1.25 * n * k / r.size), 1), n)
            kept, resid = np.empty((size, d)), np.empty(size)
        elif count + k > len(kept):
            size = min(max(2 * len(kept), count + k), n)
            grown = np.empty((size, d)), np.empty(size)
            grown[0][:count], grown[1][:count] = kept[:count], resid[:count]
            kept, resid = grown
        np.compress(keep, batch.x, axis=0, out=kept[count : count + k])
        np.compress(keep, r, out=resid[count : count + k])
        count += k
        batch = z = r = keep = None  # so the next draw does not hold two chunks
    tau = _pick_tau(config, resid[:count].copy(), n, cut)  # never below the cut: the kept rows hold every masked one
    m = _compact(kept[:count], resid[:count] > tau)
    yield tau, _masked_moment(kept[:m], q, n)
    if not len(frame):  # at ell = 0 candidate 0 ends the scan
        return
    kept = resid = None
    keys: set[bytes] = set()
    batch = oracle.draw(n)
    for row in _iter_predictions(_candidates(config, frame).factory(), batch.x @ basis):
        r = np.abs(np.subtract(row, batch.y, out=row), out=row)
        cut = _tau_cut(config, r, n)
        tau = _pick_tau(config, np.compress(np.logical_not(r <= cut), r), n, cut)
        mask = r > tau
        key = _mask_key(mask)
        yield tau, None if key in keys else _masked_moment(np.compress(mask, batch.x, axis=0), q, n)
        keys.add(key)


def run(oracle, config: LearnConfig, planted_frame: Frame | None = None) -> RecoveryResult:
    """Iterative direction recovery followed by a terminal hypothesis fit.

    Per iteration: scan candidates over the current frame on fresh rows
    (_scan_moments), build each candidate's filtered second-moment matrix,
    and accept the first whose eigenvalue of largest magnitude, lambda, clears
    the acceptance threshold in magnitude (calibrated from the first scan
    unless lambda_acc is given), so a direction whose filtered moment is
    strongly negative is accepted too.  The moment reads a candidate only
    through its mask (residual above tau), so a candidate whose mask equals
    one formed before on the same batch is skipped: it has that moment and
    eigenvalue, and that candidate was rejected.  It still counts as scanned,
    keeps its index and records its own tau.  The frame grows by the accepted
    moment's eigenvector at lambda; a scan with no acceptance ends the loop.
    On a non-empty frame the scan's candidate 0 is _fit_block, a least-squares
    fit of a depth-2 net, and the grid follows only when the fit is rejected.
    A scan whose fit's dictionary exceeds max_candidates scores no candidate,
    and its iteration records tau None.  The hypothesis is that fit on a fresh
    batch (_final_search), certified when its error on another is at most 3*eps.
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
        q = np.eye(d) - frame.projector()
        accepted = None
        scanned = distinct = 0
        tau_used = None
        try:
            scan = _scan_moments(oracle, config, frame, q)
            for idx, (tau_used, m) in enumerate(scan):
                scanned += 1
                if m is None:  # a rejected candidate's mask: same moment and lambda
                    continue
                distinct += 1
                vals = np.linalg.eigvalsh(m)  # ascending; power iteration converges to the larger |end|
                end = -1 if vals[-1] >= -vals[0] else 0
                lam_val = float(vals[end])
                if lambda_acc is None:
                    lambda_acc = max(config.acc_fraction * abs(lam_val), 1e-9)
                    constants["lambda_acc_calibrated"] = lambda_acc
                if abs(lam_val) >= lambda_acc:
                    # signed as power iteration from approx_top_svd's seeded start converges to a positive pair
                    w = np.linalg.eigh(m)[1][:, end]
                    q0 = seeded_start(d, 1, config.seed * 1_000_003 + 7919 * ell + idx)[:, 0]
                    accepted = (idx, -w if w @ q0 < 0 else w, lam_val)
                    break
        except BudgetError as err:
            failure = f"enumeration budget exhausted at iteration {ell}: {err}"
        finally:
            # so the next draw does not hold a batch, nor the terminal fit the scan's keys or its last moment
            scan = m = vals = None
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


def _fit_block(config: LearnConfig, frame: Frame, z: np.ndarray, y: np.ndarray) -> tuple:
    """The least-squares fit over a non-empty frame as one network block (W_0, W_1) in frame coordinates.

    A bias-free depth-2 net on the frame is a sum of relu(<w, x>) over hidden directions w in its span.  W_0 is
    ray_basis's rows of the one-unit network grid at final_eps_prime, in stream order: P + ell rays whose features
    span those of every ray on the grid (relu(c <w, x>) = c relu(<w, x>) for c > 0, relu(-t) = relu(t) - t).  W_1
    is lstsq's fit of y on relu(Z W_0^T) over the first final_select_samples rows of z and y: in the loop, the first
    rows of the scan's first chunk, which are its batch's first rows; in the terminal, the selection batch.  Exact
    at ell = 1 (the directions are +-1); at ell >= 2 rounding each hidden direction to the grid costs at most
    final_eps_prime times the path norm.
    """
    fep = config.default_final_eps_prime()
    grid = enumerate_networks(frame, fep, 1, 0, config.b, max_candidates=config.max_candidates)
    rows = np.concatenate([block[0] for block in grid.factory()])
    w0 = rows[ray_basis(rows, fep)]
    h = np.maximum(z[: config.final_select_samples] @ w0.T, 0.0)
    return w0, np.linalg.lstsq(h, y[: config.final_select_samples], rcond=None)[0][None, :]


def _final_search(oracle, config: LearnConfig, frame: Frame):
    """The terminal hypothesis: _fit_block's block on the selection batch, lifted through the frame (W_0 F, W_1).

    An empty frame, or an empty dictionary, gives the zero net.  The fitted network is certified by the error check.
    Returns (hypothesis, eps_hat, certified, failure, TerminalRecord).
    """
    select = oracle.draw(config.final_select_samples)
    target = 3.0 * config.eps
    hypothesis, preds, features = zero_network(config.dim), np.zeros(select.n), 0
    if len(frame):
        try:
            w0, w1 = _fit_block(config, frame, select.x @ frame.vectors.T, select.y)
        except BudgetError as err:
            record = TerminalRecord(0, select.n, None)
            return None, math.inf, False, f"terminal enumeration budget exhausted: {err}", record
        features = len(w0)
        if features:
            hypothesis = ReluNetwork((w0 @ frame.vectors, w1))
            preds = evaluate(hypothesis, select.x)
    record = TerminalRecord(features, select.n, float(np.sqrt(np.mean((select.y - preds) ** 2))))
    eps_hat = estimate_l2_error(hypothesis, oracle, config.n_check)
    if eps_hat <= target:
        return hypothesis, eps_hat, True, None, record
    failure = f"the fitted hypothesis failed the check: eps_hat {eps_hat:.6g} > 3*eps {target:.6g}"
    if features >= select.n:
        failure += (
            f"; the fit is underdetermined: {features} dictionary rows for final_select_samples "
            f"{select.n} at final_eps_prime {config.default_final_eps_prime():.6g}"
        )
    return hypothesis, eps_hat, False, failure, record
