"""The benchmark's own checks, tracer and exit behaviour.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import tracing
import workloads
from relupca import (
    Architecture,
    Frame,
    GaussianOracle,
    LearnConfig,
    chordal_distance,
    enumerate_kickers,
    evaluate,
    make_instance,
    random_network,
    run,
    selector_eval,
)
from relupca import filteredpca

BENCH = Path(__file__).resolve().parents[1]
EPS = 0.02


def _planted():
    net, frame = make_instance({"kind": "mixed", "dim": 6, "k": 2, "units": 2, "b": 1.0}, 3)
    return net, np.array(frame.vectors)


def _result(frame, hypothesis, certified=True, reason=None):
    return SimpleNamespace(frame=SimpleNamespace(vectors=frame), hypothesis=hypothesis,
                           certified=certified, failure_reason=reason)


def _holdout(dim, rows=20_000):
    return np.random.default_rng(0).standard_normal((rows, dim))


def _judge(result, net, planted):
    return checks.judge(result, planted, net.weights, EPS, 20_000, _holdout(net.input_dim))


def test_forward_matches_evaluate():
    rng = np.random.default_rng(1)
    for widths in ((3,), (2, 2), (1, 2, 1)):
        net = random_network(Architecture(widths, 5), 1.0, int(rng.integers(100)))
        x = rng.standard_normal((500, 5))
        assert np.allclose(checks.forward(net.weights, x), evaluate(net, x), rtol=1e-12, atol=1e-12)


def test_selector_forward_matches_selector_eval():
    frame = Frame.from_span(np.random.default_rng(2).standard_normal((1, 3)))
    x = np.random.default_rng(3).standard_normal((300, 3))
    for sk in list(enumerate_kickers(frame, eps_prime=0.5, num_leaves=2, lam=1.0))[::7]:
        assert np.allclose(checks.selector_forward(sk.leaves, sk.table, x), selector_eval(sk, x),
                           rtol=0, atol=1e-12)


def test_chordal_matches_the_package_and_sees_rank_mismatch():
    rng = np.random.default_rng(4)
    a, b = Frame.from_span(rng.standard_normal((2, 7))), Frame.from_span(rng.standard_normal((2, 7)))
    assert checks.chordal(a.vectors, b.vectors) == pytest.approx(chordal_distance(a, b), abs=1e-12)
    assert checks.chordal(a.vectors, a.vectors[:1]) == math.inf


def test_the_planted_net_passes_every_check():
    net, planted = _planted()
    v = _judge(_result(planted, net), net, planted)
    assert v.fault is None and v.wrong is None
    assert v.chordal < 1e-6 and v.fit_err < 1e-12


def test_perturbed_weights_fail_the_fit_check():
    net, planted = _planted()
    bad = SimpleNamespace(weights=(net.weights[0] * 1.0, net.weights[1] * -1.0))
    v = _judge(_result(planted, bad, certified=False, reason="given"), net, planted)
    assert v.fault is None
    assert v.wrong is not None and "fit_err" in v.wrong


def test_rotated_frame_fails_the_subspace_check():
    net, planted = _planted()
    comp = Frame.from_span(np.random.default_rng(5).standard_normal((6, 6))).vectors
    comp = comp - comp @ planted.T @ planted
    q = np.linalg.qr(comp.T)[0][:, :2].T
    rotated = np.cos(0.6) * planted + np.sin(0.6) * q
    v = _judge(_result(rotated, net), net, planted)
    assert v.wrong is not None and "chordal" in v.wrong


def test_uncertified_result_without_reason_is_a_fault():
    net, planted = _planted()
    assert _judge(_result(planted, net, certified=False), net, planted).fault is not None
    assert _judge(_result(planted, net, certified=False, reason="budget"), net, planted).fault is None


def test_certified_result_far_above_three_eps_is_a_fault():
    net, planted = _planted()
    loose = SimpleNamespace(weights=(net.weights[0], net.weights[1] * 0.5))
    assert _judge(_result(planted, loose), net, planted).fault is not None


def test_self_time_subtracts_child_spans(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(tracing, "_clock", lambda: float(next(ticks)))
    tracer = tracing.Tracer()
    with tracer.span("outer"):  # ticks 0 .. 9
        with tracer.span("inner"):  # 1 .. 2
            pass
        for _ in tracer.steps("step", [1, 2], "items"):  # 3..4, 5..6, then 7..8 ends it
            pass
    assert tracer.total["outer"] == 9 and tracer.self_time["outer"] == 5
    assert tracer.total["step"] == 3 and tracer.counts["items"] == 2
    assert [s["name"] for s in tracer.spans] == ["inner", "outer"]


def test_instrument_restores_every_name():
    before = {name: getattr(filteredpca, name) for name in ("approx_top_svd", "_final_search", "evaluate")}
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer()):
            assert filteredpca.evaluate is not before["evaluate"]
            raise RuntimeError
    assert {name: getattr(filteredpca, name) for name in before} == before


def test_traced_run_counts_match_the_oracle():
    net, planted = make_instance({"kind": "abs", "dim": 3, "net_seed": 0}, 0)
    inst = workloads.Instance("t", net, np.array(planted.vectors), 7, 0, LearnConfig(
        dim=3, k=1, size=2, l=0, b=math.sqrt(2.0), lam=2.0, eps=0.1, delta=0.05,
        n_samples=5_000, n_check=2_000, tau_mode="quantile", final_eps_prime=0.25))
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        result, _, rows = workloads.learn(inst, tracer)
    assert tracer.counts["oracle_rows"] == rows
    assert tracer.calls["filteredpca.terminal"] == 1
    assert 0 < tracer.counts["terminal_pulled"] <= tracer.counts["terminal_bound"]
    assert tracer.counts["loop_pulled"] >= sum(r.candidates_scanned for r in result.trace)
    assert tracer.total["filteredpca.run"] >= tracer.total["filteredpca.terminal"] > 0


def test_untraced_learn_matches_a_direct_run():
    w = workloads.WORKLOADS["rank1-kicker"]
    inst = workloads.build(w)[0]
    result, _, rows = workloads.learn(inst)
    oracle = GaussianOracle(inst.net, inst.oracle_seed)
    direct = run(oracle, inst.config)
    assert np.array_equal(result.frame.vectors, direct.frame.vectors)
    assert result.eps_hat == direct.eps_hat
    assert rows >= inst.config.n_samples + inst.config.n_check


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "rank1-kicker", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout

