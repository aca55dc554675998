"""Experiment orchestration: instance generation, empirical lemma checks, reports."""

from __future__ import annotations

import csv
import json
import math
import numbers
import platform
import sys
import time
from dataclasses import asdict, dataclass, fields

import numpy as np
import scipy

from .errors import BudgetError
from .filteredpca import LearnConfig, _masked_moment, as_function, gaussian_oracle, run
from .lattice import LatticePolynomial, from_network, lattice_eval, perturb_leaves, structural_distance
from .network import (
    Architecture,
    ReluNetwork,
    evaluate,
    lipschitz_upper,
    operator_norm,
    random_network,
    spike_network,
)
from .subspace import Frame, chordal_distance, complement_project, project

__all__ = [
    "C_AC_DEFAULT",
    "ExperimentSpec",
    "Report",
    "SUITES",
    "make_instance",
    "run_experiment",
    "run_suite",
    "spec_from_json",
    "spec_to_json",
    "verify_anti_concentration",
    "verify_lipschitz_key",
    "verify_matrix_concentration",
    "verify_stability",
    "write_csv",
]

# Frozen by scripts/calibrate_tail_constant.py: the smallest observed
# estimate/bound ratio over s in {0.5, 1, 2} at m=1 is about 2.6, so 1.0
# leaves real margin without being vacuous.
C_AC_DEFAULT = 1.0

SUITES = ("anti_concentration", "stability", "matrix_concentration", "lipschitz_key")


def verify_anti_concentration(g, s, m, lam, sigma2, trials, seed=0, c_ac=C_AC_DEFAULT) -> dict:
    """Check the Gaussian tail-mass lower bound for a piecewise-linear function.

    Monte-Carlo estimate of Pr[|g(x)| > s] with x ~ N(0, sigma2 * I_m) must be
    at least c_ac * exp(-3 m s^2 / sigma2) * s * sigma / (sqrt(m) * lam^2).
    """
    if m < 1 or trials < 1:
        raise ValueError("need m >= 1 and trials >= 1")
    if s < 0 or lam <= 0 or sigma2 <= 0:
        raise ValueError("need s >= 0, lam > 0, sigma2 > 0")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((trials, m)) * math.sqrt(sigma2)
    vals = np.ravel(as_function(g)(x))
    estimate = float(np.mean(np.abs(vals) > s))
    bound = c_ac * math.exp(-3.0 * m * s * s / sigma2) * s * math.sqrt(sigma2) / (math.sqrt(m) * lam * lam)
    return {
        "name": "anti_concentration",
        "passed": bool(estimate >= bound),
        "estimate": estimate,
        "bound": bound,
        "ratio": (estimate / bound) if bound > 0 else math.inf,
        "c_ac": c_ac,
        "s": s,
        "m": m,
        "lam": lam,
        "sigma2": sigma2,
        "trials": trials,
        "seed": seed,
    }


def verify_stability(g: LatticePolynomial, g_prime: LatticePolynomial, f, tau, trials, seed=0) -> dict:
    """Check that structurally close functions rarely disagree about a threshold.

    For aligned pairs at leaf deviation eta with m leaves, the probability
    Pr[|g - f| > tau and |g' - f| <= tau] must stay below 9 eta m^2 / tau
    plus three Monte-Carlo standard deviations.
    """
    if tau <= 0 or trials < 1:
        raise ValueError("need tau > 0 and trials >= 1")
    eta = structural_distance(g, g_prime)
    m = g.num_leaves
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((trials, g.dim))
    gv = lattice_eval(g, x)
    gpv = lattice_eval(g_prime, x)
    fv = np.ravel(as_function(f)(x))  # a column of values must not broadcast against gv
    event = (np.abs(gv - fv) > tau) & (np.abs(gpv - fv) <= tau)
    estimate = float(np.mean(event))
    std = math.sqrt(max(estimate * (1.0 - estimate), 0.0) / trials)
    bound = 9.0 * eta * m * m / tau
    return {
        "name": "stability",
        "passed": bool(estimate <= bound + 3.0 * std),
        "estimate": estimate,
        "bound": bound,
        "mc_std": std,
        "eta": eta,
        "m": m,
        "tau": tau,
        "trials": trials,
        "seed": seed,
    }


def _filtered_moment_stream(filter_fn, d: int, n: int, rng) -> np.ndarray:
    """_masked_moment with q = I over n fresh rows, summed chunk by chunk to bound memory."""
    chunk = max(1, 2_000_000 // d)
    eye = np.eye(d)
    acc = np.zeros((d, d))
    left = n
    while left > 0:
        take = min(chunk, left)
        x = rng.standard_normal((take, d))
        keep = np.asarray(filter_fn(x)).ravel()
        if keep.shape != (take,) or not np.all((keep == 0) | (keep == 1)):
            raise ValueError("filter_fn must return one indicator (bool or 0/1) per row")
        acc += _masked_moment(x, eye, keep.astype(bool), n)
        left -= take
    return acc


def verify_matrix_concentration(filter_fn, d, n_values, trials, seed=0, proxy_factor=100) -> dict:
    """Check that filtered-moment spectral error shrinks like sqrt(d/N).

    d is an integer of at least 1.  filter_fn maps an (N, d) batch to the
    filter's indicator, one bool or 0/1 per row; any other value raises
    ValueError.  The filtered moment is (1/N) * sum over kept rows of
    (x x^T - I), the loop's _masked_moment with no frame.  The population
    matrix is proxied by a proxy_factor-times larger sample.  With two or more
    N values the log-log slope of the median error must be -0.5 +/- 0.15; a
    single N just records the error level.
    """
    if not isinstance(d, numbers.Integral) or isinstance(d, bool) or d < 1:
        raise ValueError(f"d must be an integer of at least 1, got {d!r}")
    n_list = sorted(int(v) for v in np.atleast_1d(n_values))
    if not n_list or n_list[0] < 1 or trials < 1:
        raise ValueError("need positive sample sizes and trials >= 1")
    rng = np.random.default_rng(seed)
    medians = []
    for n in n_list:
        pop = _filtered_moment_stream(filter_fn, d, proxy_factor * n, rng)
        errs = []
        for _ in range(trials):
            emp = _filtered_moment_stream(filter_fn, d, n, rng)
            errs.append(float(np.max(np.abs(np.linalg.eigvalsh(emp - pop)))))
        medians.append(float(np.median(errs)))
    slope = None
    if len(n_list) >= 2 and all(v > 0 for v in medians):
        slope = float(np.polyfit(np.log(n_list), np.log(medians), 1)[0])
        passed = abs(slope + 0.5) <= 0.15
    elif len(n_list) >= 2:
        passed = all(v == 0.0 for v in medians)
    else:
        passed = True
    return {
        "name": "matrix_concentration",
        "passed": bool(passed),
        "n_values": n_list,
        "median_errors": medians,
        "slope": slope,
        "d": d,
        "trials": trials,
        "proxy_factor": proxy_factor,
        "seed": seed,
    }


def verify_lipschitz_key(net: ReluNetwork, w_frame: Frame, trials, seed=0) -> dict:
    """Random search for a slab point violating |F(x) - F(P_W x)| <= Lipschitz bound.

    The slab constrains the component of x inside the active directions not yet
    captured by the frame to norm at most 1; every sampled point must satisfy
    the bound.
    """
    if trials < 1:
        raise ValueError("need trials >= 1")
    if w_frame.dim != net.input_dim:
        raise ValueError("frame dimension must match the network input")
    d = net.input_dim
    lip = lipschitz_upper(net)
    v_frame = Frame.from_span(net.weights[0])
    rest = Frame.empty(d)
    if len(v_frame) > 0:
        leftover = complement_project(w_frame, v_frame.vectors)
        rest = Frame.from_span(leftover)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((trials, d))
    if len(rest) > 0:
        r = project(rest, x)
        nr = np.linalg.norm(r, axis=1)
        u = rng.uniform(size=trials)
        scale = np.where(nr > 1e-12, u / np.maximum(nr, 1e-12), 0.0)
        x = x - r + r * scale[:, None]
    gap = np.abs(evaluate(net, x) - evaluate(net, project(w_frame, x)))
    max_gap = float(np.max(gap))
    return {
        "name": "lipschitz_key",
        "passed": bool(max_gap <= lip * (1.0 + 1e-9) + 1e-12),
        "max_gap": max_gap,
        "lipschitz_upper": lip,
        "slab_dim": len(rest),
        "trials": trials,
        "seed": seed,
    }


def run_suite(suite: str, net: ReluNetwork, frame: Frame, trials: int, concentration_trials: int,
              seed: int) -> dict:
    """One verification suite on a planted net; returns its report fragment.

    trials sets the Monte-Carlo sample count of the tail-mass, stability and
    Lipschitz checks; concentration_trials the repeats per N of the matrix
    concentration check.  lipschitz_key tests the slab around frame.  A suite
    that cannot run on this net reports passed=False with the reason in "skipped".
    """
    if suite == "anti_concentration":
        return verify_anti_concentration(
            lambda x: x[:, 0], s=1.0, m=net.input_dim, lam=1.0, sigma2=1.0, trials=trials, seed=seed
        )
    if suite == "stability":
        try:
            base = from_network(net)
        except BudgetError as err:
            return {"name": "stability", "passed": False, "skipped": str(err)}
        return verify_stability(perturb_leaves(base, 0.01, seed=seed), base, base, 1.0, trials, seed=seed)
    if suite == "matrix_concentration":
        return verify_matrix_concentration(
            lambda x: np.ones(x.shape[0]), d=net.input_dim, n_values=[1000, 10000],
            trials=concentration_trials, seed=seed,
        )
    if suite == "lipschitz_key":
        return verify_lipschitz_key(net, frame, trials, seed=seed)
    raise ValueError(f"unknown verification suite {suite!r}")


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully serializable description of one experiment run."""

    name: str
    instance: dict
    learn: LearnConfig
    verify: tuple = ()
    trials: int = 5
    seed: int = 0
    report_path: str | None = None
    csv_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "verify", tuple(self.verify))
        unknown = set(self.verify) - set(SUITES)
        if unknown:
            raise ValueError(f"unknown verification suites: {sorted(unknown)}")
        if not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        net, _ = make_instance(self.instance, self.seed)  # a malformed recipe raises here, naming its field
        if net.input_dim != self.learn.dim:
            raise ValueError(f"instance dimension {net.input_dim} does not match learn.dim {self.learn.dim}")


def spec_to_json(spec: ExperimentSpec) -> str:
    d = asdict(spec)
    d["verify"] = list(spec.verify)
    return json.dumps(d, sort_keys=True, indent=2) + "\n"


def _known_keys(doc, cls, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {where} key(s): {', '.join(unknown)}")
    return doc


def spec_from_json(text: str) -> ExperimentSpec:
    """Parse a spec written by spec_to_json; unknown keys raise ValueError naming them."""
    d = _known_keys(json.loads(text), ExperimentSpec, "spec")
    try:
        learn = LearnConfig(**_known_keys(d.pop("learn", None), LearnConfig, "learn"))
        d["verify"] = tuple(d.get("verify", ()))
        return ExperimentSpec(learn=learn, **d)
    except TypeError as err:
        raise ValueError(str(err)) from None


def _unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _recipe_field(recipe: dict, name: str, low, default=None):
    """recipe[name] (or default): an integer >= low if low is an int, else a finite number > low."""
    value = recipe.get(name, default)
    if isinstance(low, int):
        ok = isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low
    else:
        ok = isinstance(value, numbers.Real) and not isinstance(value, bool) and low < value < math.inf
    if not ok:
        want = f"an integer of at least {low}" if isinstance(low, int) else f"a finite number above {low}"
        raise ValueError(f"{recipe['kind']} instance recipe field {name!r} must be {want}, got {value!r}")
    return value


def make_instance(recipe: dict, default_seed: int = 0):
    """Build (net, planted_frame) from an instance recipe; a ValueError names a bad or missing field."""
    if not isinstance(recipe, dict) or "kind" not in recipe:
        raise ValueError("instance recipe must be a JSON object with a 'kind'")
    kind = recipe["kind"]
    seed = _recipe_field(recipe, "net_seed", 0) if "net_seed" in recipe else default_seed
    if kind == "random":
        widths = recipe.get("widths")
        if not isinstance(widths, list) or not widths:
            raise ValueError(f"random instance recipe field 'widths' must be a non-empty list, got {widths!r}")
        widths = [_recipe_field({"kind": kind, "widths": w}, "widths", 1) for w in widths]
        arch = Architecture(tuple(widths), _recipe_field(recipe, "dim", 1))
        net = random_network(arch, float(_recipe_field(recipe, "b", 0.0, 1.0)), seed)
        frame = Frame.from_span(net.weights[0])
        return net, frame
    if kind == "spike":
        net = spike_network(float(_recipe_field(recipe, "lam", 0.0)))
        return net, Frame.from_span(net.weights[0])
    if kind == "abs":
        d = _recipe_field(recipe, "dim", 1)
        rng = np.random.default_rng(seed)
        v = _unit(rng, d)
        net = ReluNetwork((np.vstack([v, -v]), np.array([[1.0, 1.0]])))
        return net, Frame.from_span(v[None, :])
    if kind == "abs_pair":
        d = _recipe_field(recipe, "dim", 2)
        rng = np.random.default_rng(seed)
        v1 = _unit(rng, d)
        v2 = complement_project(Frame.from_span(v1[None, :]), rng.standard_normal((1, d)))[0]
        v2 = v2 / np.linalg.norm(v2)
        net = ReluNetwork((np.vstack([v1, -v1, v2, -v2]), np.array([[1.0, 1.0, 1.0, 1.0]])))
        return net, Frame.from_span(np.vstack([v1, v2]))
    if kind == "mixed":
        d = _recipe_field(recipe, "dim", 1)
        k = _recipe_field(recipe, "k", 1)
        if k > d:
            raise ValueError(f"mixed instance recipe field 'k' must be at most dim = {d}, got {k!r}")
        units = _recipe_field(recipe, "units", k, 2 * k)  # fewer units leave planted directions unused
        b = float(_recipe_field(recipe, "b", 0.0, 1.0))
        rng = np.random.default_rng(seed)
        basis = Frame.from_span(rng.standard_normal((k, d))).vectors
        # redraw badly conditioned hidden maps so every planted direction
        # actually carries signal; degenerate draws are unlearnable at any N
        while True:
            c = rng.standard_normal((units, k))
            sv = np.linalg.svd(c, compute_uv=False)
            if sv[-1] >= 0.45 * sv[0]:
                break
        w0 = c @ basis
        w0 *= b / operator_norm(w0)
        signs = rng.permutation([(-1.0) ** i for i in range(units)])
        w1 = (signs * rng.uniform(0.8, 1.2, size=units))[None, :]
        w1 *= b / operator_norm(w1)
        net = ReluNetwork((w0, w1))
        return net, Frame.from_span(basis)
    raise ValueError(f"unknown instance kind {kind!r}")


@dataclass(eq=False)
class Report:
    """Self-contained run record: spec, environment, metrics, fragments, timings."""

    spec: dict
    fingerprint: dict
    recovery: dict
    fragments: list
    timings: dict
    all_passed: bool

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Report":
        return cls(**json.loads(text))


def report_equal_modulo_timing(a: str, b: str) -> bool:
    da, db = json.loads(a), json.loads(b)
    da.pop("timings", None)
    db.pop("timings", None)
    return json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def _fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": sys.platform,
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def write_csv(path, header, rows) -> None:
    """CSV with a mandatory header; floats at 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _report_csv_rows(report: Report):
    rows = []
    for key, value in sorted(report.recovery.items()):
        if isinstance(value, (int, float, bool, str)) or value is None:
            rows.append(("recovery", key, value))
    for i, rec in enumerate(report.recovery.get("iterations", [])):
        for key, value in sorted(rec.items()):
            if isinstance(value, (int, float, bool, str)) or value is None:
                rows.append(("iteration", f"{key}[{i}]", value))
    for key, value in sorted(report.recovery.get("terminal", {}).items()):
        rows.append(("terminal", key, value))
    for frag in report.fragments:
        name = frag.get("name", "fragment")
        for key, value in sorted(frag.items()):
            if key == "name":
                continue
            if isinstance(value, list):
                for i, v in enumerate(value):
                    rows.append((name, f"{key}[{i}]", v))
            elif isinstance(value, (int, float, bool, str)) or value is None:
                rows.append((name, key, value))
    return rows


def run_experiment(spec: ExperimentSpec) -> Report:
    """End to end: build instance, learn, score against the planted truth,
    run the enabled verification suites, and write report/CSV extracts."""
    timings = {}
    t_all = time.perf_counter()
    net, planted = make_instance(spec.instance, spec.seed)
    oracle = gaussian_oracle(net, spec.seed)

    t0 = time.perf_counter()
    result = run(oracle, spec.learn, planted_frame=planted)
    timings["learn_seconds"] = time.perf_counter() - t0

    norm_batch = oracle.draw(4096)
    norm_f = float(np.sqrt(np.mean(norm_batch.y**2)))
    chordal = None
    if len(result.frame) == len(planted) > 0:
        chordal = chordal_distance(result.frame, planted)
    recovery = {
        "instance_kind": spec.instance["kind"],
        "k_target": spec.learn.k,
        "k_found": len(result.frame),
        "chordal_to_planted": chordal,
        "eps_hat": result.eps_hat,
        "certified": result.certified,
        "failure_reason": result.failure_reason,
        "norm_f": norm_f,
        "iterations": [asdict(r) for r in result.trace],
        "terminal": asdict(result.terminal),
        "constants": result.constants,
    }

    t0 = time.perf_counter()
    fragments = [
        run_suite(suite, net, result.frame, spec.trials * 10_000, 3 * spec.trials, spec.seed)
        for suite in spec.verify
    ]
    timings["verify_seconds"] = time.perf_counter() - t0
    timings["total_seconds"] = time.perf_counter() - t_all

    all_passed = all(f.get("passed", False) for f in fragments) and result.certified
    spec_dict = json.loads(spec_to_json(spec))
    report = Report(
        spec=spec_dict,
        fingerprint=_fingerprint(),
        recovery=recovery,
        fragments=fragments,
        timings=timings,
        all_passed=all_passed,
    )
    if spec.report_path:
        with open(spec.report_path, "w") as fh:
            fh.write(report.to_json())
    if spec.csv_path:
        write_csv(spec.csv_path, ("section", "key", "value"), _report_csv_rows(report))
    return report
