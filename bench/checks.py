"""Output checks computed apart from relupca.

Every number here comes from the benchmark's own forward passes and linear
algebra on a holdout batch that the benchmark draws with its own seed; the
only things read from the program are the frame, the hypothesis weights (or
selector table), the certificate and the failure reason it returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# CHORDAL_BAR and FIT_BAR are criterion 7's bars (chordal distance <= 0.2,
# eps_hat <= 0.25 * ||F||), fixed before the first run; a workload whose eps
# allows a larger error sets its own fit bar.  MARGIN_Z is the number of
# standard errors allowed between a certified run's own check and the
# benchmark's holdout estimate of the same squared error.  Leaf values whose
# sorted gap is at most TIE_REL_TOL * max(1, max |value|) share a rank.
CHORDAL_BAR = 0.2
FIT_BAR = 0.25
MARGIN_Z = 4.0
TIE_REL_TOL = 1e-12


def forward(weights, x: np.ndarray) -> np.ndarray:
    """x -> W_L relu(... relu(W_0 x)) for a bias-free weight stack, on (n, d) rows."""
    h = x
    for w in weights[:-1]:
        h = np.maximum(h @ np.asarray(w, dtype=float).T, 0.0)
    return h @ np.asarray(weights[-1], dtype=float)[0]


def selector_forward(leaves, table: dict, x: np.ndarray) -> np.ndarray:
    """Value of the leaf that a selector table picks for each row's rank pattern.

    Ranks are dense (ties share a rank, see TIE_REL_TOL).  Table keys are read
    through their ``ranks`` tuples.
    """
    leaves = np.asarray(leaves, dtype=float)
    vals = x @ leaves.T
    n, m = vals.shape
    order = np.argsort(vals, axis=1, kind="stable")
    ordered = np.take_along_axis(vals, order, axis=1)
    tol = TIE_REL_TOL * np.maximum(1.0, np.max(np.abs(vals), axis=1))
    rises = np.diff(ordered, axis=1) > tol[:, None]
    dense = np.concatenate([np.ones((n, 1), dtype=int), 1 + np.cumsum(rises, axis=1)], axis=1)
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=1)
    picks = {tuple(int(r) for r in key.ranks): int(leaf) for key, leaf in table.items()}
    patterns, inverse = np.unique(ranks, axis=0, return_inverse=True)
    choice = np.array([picks[tuple(int(r) for r in row)] for row in patterns])
    return vals[np.arange(n), choice[inverse.ravel()]]


def hypothesis_forward(hypothesis, x: np.ndarray) -> np.ndarray:
    """Forward pass of a returned hypothesis: a weight stack or a selector."""
    if hasattr(hypothesis, "table"):
        return selector_forward(hypothesis.leaves, hypothesis.table, x)
    if hasattr(hypothesis, "weights"):
        return forward(hypothesis.weights, x)
    raise TypeError(f"cannot evaluate a hypothesis of type {type(hypothesis).__name__}")


def chordal(a, b) -> float:
    """Chordal distance sqrt(sum sin^2 theta_i) between the row spans of a and b."""
    qa = np.linalg.qr(np.asarray(a, dtype=float).T)[0]
    qb = np.linalg.qr(np.asarray(b, dtype=float).T)[0]
    if qa.shape != qb.shape:
        return math.inf
    cosines = np.linalg.svd(qa.T @ qb, compute_uv=False)
    return math.sqrt(max(float(np.sum(1.0 - np.minimum(cosines, 1.0) ** 2)), 0.0))


@dataclass(frozen=True)
class Verdict:
    """What the checks found for one learning operation.

    ``fault`` names a broken self-consistency contract (the operation counts
    as failed); ``wrong`` names a missed accuracy bar (the output is wrong).
    """

    chordal: float
    fit_err: float
    fault: str | None
    wrong: str | None


def judge(result, planted, target_weights, eps: float, n_check: int, holdout: np.ndarray,
          fit_bar: float = FIT_BAR) -> Verdict:
    """Check one ``run()`` result against the planted net on a holdout batch.

    * subspace: chordal distance between the returned frame and the planted
      frame, at most CHORDAL_BAR (infinite when the ranks differ);
    * fit: RMS(h - F) / RMS(F) on the holdout, at most fit_bar;
    * self-consistency: a certified result's holdout squared error is at most
      (3 eps)^2 plus MARGIN_Z standard errors of the two estimates, and an
      uncertified result carries a failure reason.
    """
    frame = np.asarray(result.frame.vectors)
    cd = chordal(frame, planted) if frame.shape[0] else math.inf
    f = forward(target_weights, holdout)
    if result.hypothesis is None:
        return Verdict(cd, math.inf, "no hypothesis returned", None)
    sq = (hypothesis_forward(result.hypothesis, holdout) - f) ** 2
    mse = float(np.mean(sq))
    fit = math.sqrt(mse / float(np.mean(f * f)))
    fault = None
    if result.certified:
        margin = MARGIN_Z * float(np.std(sq)) * math.sqrt(1.0 / n_check + 1.0 / holdout.shape[0])
        if mse > (3.0 * eps) ** 2 + margin:
            fault = f"certified, but holdout RMS {math.sqrt(mse):.4f} exceeds 3*eps = {3.0 * eps:.4f} beyond the margin"
    elif result.failure_reason is None:
        fault = "uncertified with no failure_reason"
    misses = []
    if not cd <= CHORDAL_BAR:
        misses.append(f"chordal {cd:.4f} > {CHORDAL_BAR}")
    if not fit <= fit_bar:
        misses.append(f"fit_err {fit:.4f} > {fit_bar}")
    return Verdict(cd, fit, fault, "; ".join(misses) or None)
