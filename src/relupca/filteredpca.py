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


def _masked_moment(gram: np.ndarray, count: int, q: np.ndarray, n: int) -> np.ndarray:
    """The filtered second moment of n rows: (1/n) * (q G q - count q), symmetrised.

    G is the Gram matrix X_m^T X_m of the count raw rows that pass the filter
    (_gram's, or a scan's sum of _gram's chunk by chunk), and q is a symmetric
    projector, so this is (1/n) * sum over masked rows of (q x)(q x)^T - q
    without forming q x for every row; with no masked rows it is the zero
    matrix.  The one filtered-moment primitive: filter_matrix, run()'s scan
    and the concentration check all call it.
    """
    m = (q @ gram @ q - count * q) / n
    return (m + m.T) / 2.0


def _gram(x: np.ndarray, mask: np.ndarray):
    """The Gram matrix X_m^T X_m of the rows of x that mask selects, and their count."""
    xm = np.compress(mask, x, axis=0)
    return xm.T @ xm, len(xm)


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
    return _masked_moment(*_gram(samples.x, mask), q, samples.n)


def idealized_filter_matrix(oracle, true_net: ReluNetwork, frame: Frame, tau: float, n: int) -> np.ndarray:
    """filter_matrix with the true restriction as the candidate (verification only)."""
    samples = oracle.draw(n)
    return filter_matrix(samples, frame, restrict(true_net, frame), tau)


def estimate_l2_error(candidate, oracle, n_check: int) -> float:
    """Empirical L2 distance sqrt(mean (y - candidate(x))^2) on n_check fresh rows.

    The rows are drawn in chunks of _CHUNK_FLOATS // d rows, and their squared residuals fill one (n_check,) array,
    so the check holds one chunk and takes one mean over all of them: a whole-batch check's to the bit.
    """
    f = as_function(candidate)
    rows = max(_CHUNK_FLOATS // oracle.input_dim, 1)
    sq = np.empty(checked("n_check", n_check, 1))
    for start in range(0, n_check, rows):
        batch = oracle.draw(min(rows, n_check - start))
        resid = batch.y - np.asarray(f(batch.x), dtype=float).ravel()
        np.multiply(resid, resid, out=sq[start : start + batch.n])
        batch = resid = None  # so the next draw does not hold two chunks
    return float(np.sqrt(np.mean(sq)))


@dataclass(frozen=True)
class LearnConfig:
    """All knobs of the recovery loop.

    The residual threshold tau is always derived as c * sqrt(k) * lam (or, with tau_mode="quantile", from the
    per-candidate residual distribution) and never stored, so it cannot go stale.  c, acc_fraction, num_leaves,
    tau_quantile, refine_iterations and refine_margin are fixed constants of the method, not fields.  max_candidates
    caps the count bound of every candidate list a run builds (None: no cap): the fit's dictionary grid, in the loop
    and the terminal, and a scan's loop grid, which is built only when the scan reaches it.  The least-squares fit
    reads final_select_samples (its row count), b and final_eps_prime (the grid whose P + ell basis rays are its
    features); it is the first candidate of every scan at ell >= 1 and the terminal's reference fit.  size shapes
    the loop's grid networks and bounds the terminal hypothesis's width: a basis wider than terminal_units(ell) =
    2 size + ell rays is narrowed to that many refined units (_final_search).  l shapes only the loop's grid
    networks and enters the derived final_eps_prime.
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
    refine_iterations: ClassVar[int] = 60
    refine_margin: ClassVar[float] = 0.05

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

    def terminal_units(self, ell: int) -> int:
        """The widest terminal hypothesis on an ell-vector frame, U = 2 size + ell: a wider ray basis is narrowed."""
        return 2 * self.size + ell

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
    """The terminal fit: the rays of the basis lstsq fitted over (features, P + ell; 0 for the zero net), the rows
    fitted on, the returned hypothesis's RMS error on them and its hidden units, and which fit it is.  When the
    basis is narrowed, both fits' RMS errors on the held-out rows are recorded too."""

    features: int
    rows: int
    select_err: float | None  # None when the terminal grid exceeded the budget, so nothing was fitted
    units: int = 0
    returned: str = "basis"  # "basis", or "refined" when the narrow fit replaced the basis fit
    basis_heldout_err: float | None = None  # None when the basis was not narrowed, so no rows were held out
    refined_heldout_err: float | None = None


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


# A quantile-mode cut is first read from a strided sample of about this many of a candidate's residuals (_sample).
_TAU_SAMPLE = 8192
# Each cut's margin, in sd of the count of read rows at or below an order statistic of all n (hypergeometric,
# sqrt(m p (1 - p) (n - m) / n) for m read rows): a cut misses its side with probability about Phi(-5) = 2.9e-7.
_TAU_MARGIN = 5.0
# Quantile-mode tau is never below this, so neither is an upper cut: every row above the cut is above tau.
_TAU_FLOOR = 1e-12


def _sample(r: np.ndarray) -> np.ndarray:
    """A writable strided sample of about _TAU_SAMPLE entries of r, which _tau_cut reads a first cut from."""
    return r[:: max(r.size // _TAU_SAMPLE, 1)].copy()


def _quantile_ranks(n: int, q: float) -> tuple[int, int]:
    """The order statistics np.quantile's default method interpolates for the q-quantile of n values: lo =
    floor((n - 1) q) and hi = lo + 1, both n - 1 when (n - 1) q >= n - 1."""
    vi = (n - 1) * q
    return (n - 1, n - 1) if vi >= n - 1 else (math.floor(vi), math.floor(vi) + 1)


def _order_stats(band: np.ndarray, skip: int, ranks, cuts: tuple[float, float]) -> list[float]:
    """Order statistics (by rank) of m values of which skip are at most cuts[0], band holds those in (cuts[0],
    cuts[1]] (every NaN among them), which it partitions in place, and the rest are above cuts[1]: a rank below
    band's reads as cuts[0], one above it as cuts[1]."""
    inside = sorted({j - skip for j in ranks if skip <= j < skip + band.size})
    if inside:
        band.partition(inside)
    return [float(band[j - skip]) if skip <= j < skip + band.size else cuts[j >= skip] for j in ranks]


def _tau_cut(config: LearnConfig, band: np.ndarray, n: int, skip: int = 0, above: int = 0,
             cuts: tuple[float, float] = (-math.inf, math.inf)) -> tuple[float, float]:
    """A candidate's lower and upper cut for its n residuals: a scan keeps only the residuals between them, and
    reads every one above the upper cut as masked.  Both are config.tau in formula mode.

    In quantile mode they are read from m = skip + |band| + above of the residuals (_order_stats): band holds those
    in (cuts[0], cuts[1]], which it partitions in place, skip more are at most cuts[0] and above more are over
    cuts[1].  A first read takes a strided sample (_sample) with no cuts; a scan narrows its cuts by reading its band.
    With lo and hi the order statistics tau reads (_quantile_ranks) and a margin of _TAU_MARGIN sd for the n - m
    rows not read, the cuts are the read rows' order statistics ceil(m lo / n - margin) - 1 and ceil(m hi / n +
    margin), the upper one at least _TAU_FLOOR: each misses its side with probability about 2.9e-7, and at m = n
    they are order statistics lo - 1 and hi themselves.
    """
    if config.tau_mode == "formula":
        return config.tau, config.tau
    lo, hi = _quantile_ranks(n, config.tau_quantile)
    m = skip + band.size + above
    margin = _TAU_MARGIN * math.sqrt(m * (lo / n) * (1.0 - lo / n) * (n - m) / n)
    low, high = _order_stats(band, skip, (math.ceil(m * lo / n - margin) - 1, math.ceil(m * hi / n + margin)), cuts)
    return low, max(high, _TAU_FLOOR)


def _pick_tau(config: LearnConfig, band: np.ndarray, n: int, cuts: tuple[float, float], above: int) -> float:
    """A candidate's tau from the values of its n residuals between _tau_cut's cuts (band; above more are over the
    upper cut): config.tau in formula mode; in quantile mode max(t, _TAU_FLOOR) with t the q-quantile (q =
    tau_quantile) as _top_quantile reads it from band, which it partitions in place, never outside the cuts."""
    if config.tau_mode == "formula":
        return config.tau
    return max(_top_quantile(band, n, config.tau_quantile, cuts, above), _TAU_FLOOR)


def _top_quantile(band: np.ndarray, n: int, q: float, cuts: tuple[float, float], above: int) -> float:
    """np.quantile's q-quantile (0 < q < 1) of n values r, from band: a writable array of the values of r in
    (cuts[0], cuts[1]] (every NaN among them), which it partitions in place, with above more values over cuts[1]
    and the skip = n - |band| - above others at most cuts[0].  Quantile-mode _pick_tau reads every scored
    candidate's tau through it, the scan's candidate 0 and each grid row alike.

    np.quantile's default method interpolates order statistics lo and hi (_quantile_ranks) as its _lerp does.
    _order_stats reads each from band, or as cuts[0] when it is among the skip values, or as cuts[1] when it is
    among the above ones.  The result is np.quantile's to the bit when skip <= lo and hi < n - above, or when the
    order statistics read as a cut equal it (ties at the cut).  Otherwise (a miss of _tau_cut's margin, about
    2.9e-7 a side and read) it is an upper bound on np.quantile's after a miss below, and a lower one after a miss
    above.  It is never outside the cuts.  NaN sorts last, and any NaN gives NaN, as in np.quantile.
    """
    lo, hi = _quantile_ranks(n, q)
    skip = n - band.size - above
    a, b, last = _order_stats(band, skip, (lo, hi, skip + band.size - 1), cuts)
    if math.isnan(last):
        return math.nan
    diff, gamma = b - a, (n - 1) * q - lo
    return b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma


def _split(r: np.ndarray, cuts: tuple[float, float]):
    """The masks of the residuals r in the band (cuts[0], cuts[1]] (NaN too) and of those above it."""
    over = r > cuts[1]
    return np.logical_not(r <= cuts[0]) ^ over, over


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
# activation and its residuals are formed whole; past them a chunk costs only its band rows and the Gram of those above.
# 2**18 floats are 2 MB, the size of one core's L2 cache on the 2-core machine bench/README.md describes, and small
# enough that every scan streams at every d (with 2e6 floats a batch of N d <= 2e6 was one chunk).  bench/run.py's
# peak_rss_mb there, medians of 10 alternating pairs against 2e6 floats with the kept rows concatenated:
# rank1-kicker (d = 4) 47.1 -> 44.8 MB, rank2-highdim (d = 100) 116.7 -> 112.1 MB, rank2-terminal 101.2 -> 100.8 MB.
_CHUNK_FLOATS = 2**18


def _scan_moments(oracle, config: LearnConfig, frame: Frame, q: np.ndarray):
    """Yield (tau, moment) for each candidate of one scan over frame in order; the moment is None when the
    candidate's mask repeats one already formed on the same batch (_mask_key).

    Each candidate is scored in the same four steps: its residuals r, |y - prediction| (_iter_predictions); the
    cuts of r (_tau_cut); tau, from the residuals between them (_pick_tau); and the moment of the rows whose
    residual is above tau, from their Gram matrix (_masked_moment).

    The frame alone decides candidate 0, known before its batch is drawn: at ell = 0 the zero net of
    _zero_candidates, at ell >= 1 the fit (_fit_block) on the first chunk's rows.  Its n_samples rows are drawn in
    chunks of _CHUNK_FLOATS // d rows (at least final_select_samples).  The cuts are read from a sample of the first
    chunk's residuals, past the fit's own rows at ell >= 1.  Of each chunk, the rows above the upper cut are folded
    into a running d x d Gram and counted, the rows in the band between the cuts go, each with its residual, into
    one pair of buffers, and the rows at or below the lower cut are only counted.  Whenever the rows seen have
    doubled since the cuts were last read, both cuts narrow to order statistics of the band (_tau_cut, with a margin
    for the rows not yet drawn): its rows above the new upper cut are folded, and the rest are compacted in place
    (_compact).  So the band holds about 10 sd of rows, which grows like sqrt(n_samples), not n_samples.  The
    buffers are allocated before the first draw, at three times the band's widest expected span plus the first
    chunk's, and doubled only when a chunk overflows them (residuals whose distribution shifts between chunks, or
    ties at a cut).  tau is read from the band (_top_quantile), and the band rows above it are folded too.  tau, the
    mask and the row count equal a whole-batch scan's, and the moment up to the rounding of the chunked Gram, save
    after a miss: about 2.9e-7 a side for each of the 1 + floor(log2(n_samples / sample)) reads of the cuts, so at
    most about 4e-6 per scan on rank2-highdim's (7 reads).  An order statistic missed below reads as the lower cut,
    so tau is above the q-quantile; one missed above reads as the upper cut, so tau is below it (the upper cut
    itself, with the mask every row above it, when both are).  At ell = 0 candidate 0 ends the scan.  Otherwise the
    grid of _candidates (which may raise BudgetError, and is built only here, so a scan whose fit is accepted never
    builds it) is scored on a whole batch drawn for it, each row's tau through the same two calls.
    """
    n, d = config.n_samples, config.dim
    rows = max(_CHUNK_FLOATS // d, config.final_select_samples)
    basis = frame.vectors.T  # the blocks are in frame coordinates: the scan reads the batch only through Z = X F^T
    first = None if len(frame) else next(_zero_candidates(d).factory())  # at ell >= 1 the fit, built below
    # The band's buffers and the Gram, allocated before the first draw so that no freed chunk lies under them: room
    # for three times the band's widest expected span (margin sd at n / 2 rows read) and for the first chunk's band.
    spread, first_rows = _TAU_MARGIN * math.sqrt(config.tau_quantile * (1.0 - config.tau_quantile)), min(rows, n)
    size = min(math.ceil(3 * spread * (math.sqrt(n) + first_rows / math.sqrt(min(first_rows, _TAU_SAMPLE)))), n)
    band, resid, gram = np.empty((size, d)), np.empty(size), np.zeros((d, d))
    cuts, count, above, seen, read = None, 0, 0, 0, 0
    for start in range(0, n, rows):
        batch = oracle.draw(min(rows, n - start))
        z = batch.x @ basis  # each row equals its lifted candidate's up to rounding, (W_0 F) x = W_0 (F x)
        if first is None:  # the least-squares fit over the frame, on the first chunk's rows
            first = _fit_block(config, frame, z, batch.y)
        r = next(_iter_predictions([first], z))
        r = np.abs(np.subtract(r, batch.y, out=r), out=r)  # |row - y| is bitwise |y - row|
        if cuts is None:  # read past the fit's own rows, whose residuals are in-sample
            sample = _sample(r[config.final_select_samples if len(frame) else 0 :])
            cuts, read = _tau_cut(config, sample, n), sample.size
        inside, over = _split(r, cuts)
        k = int(np.count_nonzero(inside))
        if count + k > len(band):  # ties at a cut, or residuals whose distribution shifts between chunks
            size = max(2 * len(band), count + k)
            grown = np.empty((size, d)), np.empty(size)
            grown[0][:count], grown[1][:count] = band[:count], resid[:count]
            band, resid = grown
        np.compress(inside, batch.x, axis=0, out=band[count : count + k])
        np.compress(inside, r, out=resid[count : count + k])
        g, folded = _gram(batch.x, over)
        gram += g
        count, above, seen = count + k, above + folded, seen + r.size
        batch = z = r = inside = over = g = None  # so the next draw does not hold two chunks
        if seen >= 2 * read:  # narrow both cuts to order statistics of the band
            cuts, read = _tau_cut(config, resid[:count].copy(), n, seen - count - above, above, cuts), seen
            inside, over = _split(resid[:count], cuts)
            g, folded = _gram(band[:count], over)
            gram += g
            above += folded
            resid[: np.count_nonzero(inside)] = resid[:count][inside]
            count = _compact(band[:count], inside)
    tau = _pick_tau(config, resid[:count].copy(), n, cuts, above)
    g, folded = _gram(band[:count], resid[:count] > tau)
    gram += g
    band = resid = g = None  # so that neither the eigen-step nor the grid's batch holds the band
    yield tau, _masked_moment(gram, above + folded, q, n)
    if not len(frame):  # at ell = 0 candidate 0 ends the scan
        return
    gram = None
    keys: set[bytes] = set()
    batch = oracle.draw(n)
    for row in _iter_predictions(_candidates(config, frame).factory(), batch.x @ basis):
        r = np.abs(np.subtract(row, batch.y, out=row), out=row)
        cuts = _tau_cut(config, _sample(r), n)
        inside, over = _split(r, cuts)
        tau = _pick_tau(config, np.compress(inside, r), n, cuts, int(np.count_nonzero(over)))
        mask = r > tau
        key = _mask_key(mask)
        yield tau, None if key in keys else _masked_moment(*_gram(batch.x, mask), q, n)
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
    batch, narrowed to at most 2 size + ell refined units when it validates
    (_final_search), certified when its error on another batch is at most 3*eps.
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
    constants.update(terminal_units=config.terminal_units(len(frame)), refine_iterations=config.refine_iterations,
                     refine_margin=config.refine_margin)
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


def _block_rms(block: tuple, z: np.ndarray, y: np.ndarray) -> float:
    """A block's RMS error on the rows at frame coordinates z with labels y."""
    r = next(_iter_predictions([block], z)) - y
    return float(np.sqrt(np.mean(r * r)))


def _narrow(config: LearnConfig, w0: np.ndarray, z: np.ndarray, y: np.ndarray, units: int):
    """A units-wide block from the wider ray basis W_0 on the rows z, y: greedy selection, then refinement.

    Orthogonal matching pursuit picks units of W_0's rays: each step takes the feature relu(Z w) most correlated with
    the residual (|<h, r>| / |h|, the first on ties) and refits y on the features taken by lstsq.  Levenberg-Marquardt
    then refines their directions V and output weights a jointly, on f = relu(Z V^T) a: each iteration solves
    (J^T J + mu diag(J^T J)) s = J^T r, with J the Jacobian of f at the rows, and takes the step only when it lowers
    the rows' squared error (then mu / 10), else raises mu tenfold.  It stops after refine_iterations solves, or once
    mu passes 1e12.  Returns ((V, a[None, :]), history): history holds the rows' RMS error at the start and after
    each iteration, which never rises.
    """
    h = np.maximum(z @ w0.T, 0.0)
    norms = np.maximum(np.linalg.norm(h, axis=0), np.finfo(float).tiny)
    picked, r = [], y
    for _ in range(units):
        score = np.abs(h.T @ r) / norms
        score[picked] = -1.0
        picked.append(int(np.argmax(score)))
        a = np.linalg.lstsq(h[:, picked], y, rcond=None)[0]
        r = y - h[:, picked] @ a
    v, n = w0[picked], len(y)
    sse, mu, normal, history = float(r @ r), 1e-3, None, [math.sqrt(float(r @ r) / n)]
    for _ in range(config.refine_iterations):
        if mu > 1e12:
            break
        if normal is None:  # the Jacobian at (V, a): the features, then a_u 1[<z, v_u> > 0] z_j for each j, u
            pre = z @ v.T
            slope = (pre > 0.0) * a
            jac = np.concatenate([np.maximum(pre, 0.0), (slope[:, None, :] * z[:, :, None]).reshape(n, -1)], axis=1)
            normal, grad = jac.T @ jac, jac.T @ r
            damping = normal.diagonal().copy()
            damping = np.maximum(damping, 1e-12 * damping.max()) if damping.max() > 0 else np.ones_like(damping)
        lhs = normal.copy()
        lhs.flat[:: len(lhs) + 1] += mu * damping
        step = np.linalg.solve(lhs, grad)
        a_new, v_new = a + step[: len(a)], v + step[len(a) :].reshape(v.shape[::-1]).T
        r_new = y - np.maximum(z @ v_new.T, 0.0) @ a_new
        sse_new = float(r_new @ r_new)
        if sse_new < sse:
            a, v, r, sse, mu, normal = a_new, v_new, r_new, sse_new, mu / 10.0, None
        else:
            mu *= 10.0
        history.append(math.sqrt(sse / n))
    return (v, a[None, :]), history


def _validated_narrow(oracle, config: LearnConfig, frame: Frame, block: tuple, z: np.ndarray, y: np.ndarray):
    """_narrow's terminal_units(ell)-wide block from the basis fit block on the rows z, y, kept when it validates.

    final_select_samples fresh rows are held out: the refined block is returned when its RMS error there is at most
    (1 + refine_margin) times the basis fit's, and the basis fit block otherwise.  The held-out rows are freed on
    return, before the error check draws its batch.  Returns (block, TerminalRecord fields).
    """
    refined = _narrow(config, block[0], z, y, config.terminal_units(len(frame)))[0]
    held = oracle.draw(config.final_select_samples)
    zh = held.x @ frame.vectors.T
    basis_err, refined_err = _block_rms(block, zh, held.y), _block_rms(refined, zh, held.y)
    keep = refined_err <= (1.0 + config.refine_margin) * basis_err
    errors = {"returned": "refined" if keep else "basis", "basis_heldout_err": basis_err,
              "refined_heldout_err": refined_err}
    return (refined if keep else block), errors


def _final_search(oracle, config: LearnConfig, frame: Frame):
    """The terminal hypothesis: a fit block on the selection batch, lifted through the frame (W_0 F, W_1).

    The reference is _fit_block's block, the loop's candidate 0 on this frame.  When its basis is wider than
    terminal_units(ell) = 2 size + ell rays, _narrow picks and refines that many units on the same rows, and the
    refined block replaces the basis fit when it validates on held-out rows (_validated_narrow).  An empty frame, or
    an empty dictionary, gives the zero net.  The returned network is certified by the error check.
    Returns (hypothesis, eps_hat, certified, failure, TerminalRecord).
    """
    select = oracle.draw(config.final_select_samples)
    target = 3.0 * config.eps
    hypothesis, preds, features, narrowed = zero_network(config.dim), np.zeros(select.n), 0, {}
    if len(frame):
        z = select.x @ frame.vectors.T
        try:
            block = _fit_block(config, frame, z, select.y)
        except BudgetError as err:
            record = TerminalRecord(0, select.n, None)
            return None, math.inf, False, f"terminal enumeration budget exhausted: {err}", record
        features = len(block[0])
        if features > config.terminal_units(len(frame)):
            block, narrowed = _validated_narrow(oracle, config, frame, block, z, select.y)
        if features:
            hypothesis = ReluNetwork((block[0] @ frame.vectors, block[1]))
            preds = evaluate(hypothesis, select.x)
    units = len(hypothesis.weights[0]) if features else 0
    select_err = float(np.sqrt(np.mean((select.y - preds) ** 2)))
    record = TerminalRecord(features, select.n, select_err, units, **narrowed)
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
