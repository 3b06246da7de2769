"""Tests of the benchmark itself: metric names and units, the `correct`
oracle, failure accounting, self-time accounting, and the refusal to run
without the package.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

run.use_checkout_source()
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from postasr import model, numkit, pipeline, training, wordpiece  # noqa: E402

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small_inputs(monkeypatch):
    """Shrink every workload's inputs so a run takes seconds."""
    monkeypatch.setattr(workloads.Workload, "setups", 2)
    monkeypatch.setattr(workloads.DataDecode, "setups", 2)
    monkeypatch.setattr(workloads, "BENCH_DATA", {
        "corpus": {"n_sentences": 60, "eval_fraction": 0.5},
        "channel": {"calibration_sentences": 8}})
    monkeypatch.setattr(workloads, "TRAIN_STEPS", 3)
    monkeypatch.setattr(workloads, "LOSS_TAIL", 2)
    monkeypatch.setattr(workloads.Train, "min_jobs", 2)
    monkeypatch.setattr(workloads, "SLICE_QUOTAS", {5: 1, 6: 1, 9: 2})
    monkeypatch.setattr(workloads, "ORACLE_EVERY", 2)
    monkeypatch.setattr(workloads.Correct, "min_jobs", 2)
    monkeypatch.setattr(workloads, "DECODE_DATA", {
        "corpus": {"n_sentences": 60}, "channel": {"calibration_sentences": 8},
        "eval": {"pairs": pipeline.EVAL_PAIRS_FILE}})


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(small_inputs, name, trace):
    outcome, metrics = run.measure(name, 3, 0.01, trace)
    section = BENCH["per_layer" if trace else "end_to_end"]
    assert {n: u for n, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in section}
    assert outcome.failed == 0, outcome.problems
    assert outcome.attempted > 0
    if not trace:
        assert all(v > 0 for v, _ in metrics.values())


def test_timings_are_scaled_by_the_machine_slowdown(small_inputs, monkeypatch):
    monkeypatch.setattr(workloads.MachineSpeed, "slowdown", lambda self: 2.0)
    outcome, metrics = run.measure("train", 3, 0.01, False)
    assert metrics["job_s"][0] == pytest.approx(outcome.report["job_s"][0] / 2)
    assert metrics["throughput"][0] == pytest.approx(outcome.report["train.tokens_per_s"][0] * 2)
    assert metrics["peak_rss_mb"][0] > 0


def _raise(*args, **kwargs):
    raise RuntimeError("injected")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name, owner, attr", [
    ("train", training, "novograd_step"),
    ("correct", model, "correct"),
    ("data-decode", pipeline, "fused_beam_search"),
])
def test_a_raise_is_a_failed_operation(small_inputs, monkeypatch, capsys, name, owner, attr,
                                       trace):
    monkeypatch.setattr(owner, attr, _raise)
    code = run.main(["--workload", name, "--seed", "3", "--seconds", "600",
                     "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["attempted"] >= result["failed"] > 0


def test_a_non_finite_loss_is_a_failed_step(small_inputs, monkeypatch):
    real = training.label_smoothed_loss
    monkeypatch.setattr(training, "label_smoothed_loss",
                        lambda *a, **k: numkit.mul_scalar(real(*a, **k), float("nan")))
    outcome, _ = run.measure("train", 3, 0.01, False)
    assert outcome.failed >= workloads.TRAIN_STEPS
    assert any("non-finite loss" in p for p in outcome.problems)


def _tiny_model():
    spec = model.ModelSpec(L=1, H=16, A=2, P_drop=0.0, V=12, max_len=12)
    return spec, workloads.bench_weights(spec, 5), (4, 7, 9, 5, wordpiece.EOS)


def test_oracle_accepts_the_model_output():
    spec, weights, src = _tiny_model()
    cap = 8
    w1 = model.correct(spec, weights, src, width=1, max_out=cap)
    w4 = model.correct(spec, weights, src, width=4, max_out=cap)
    assert oracle.greedy_problems(spec, weights, src, cap, w1) == []
    assert oracle.beam_problems(spec, weights, src, cap, w4) == []


def test_oracle_rejects_a_perturbed_output():
    spec, weights, src = _tiny_model()
    cap = 8
    best = model.correct(spec, weights, src, width=1, max_out=cap)[0]
    other = (best.ids[0] + 1) % spec.V
    wrong_ids = dataclasses.replace(best, ids=(other,) + best.ids[1:])
    assert oracle.greedy_problems(spec, weights, src, cap, [wrong_ids])
    hyps = model.correct(spec, weights, src, width=4, max_out=cap)
    off = dataclasses.replace(hyps[-1], logprob=hyps[-1].logprob + 1e-3)
    assert oracle.beam_problems(spec, weights, src, cap, hyps[:-1] + [off])


def test_self_time_excludes_child_spans():
    import time

    ns = types.SimpleNamespace()
    ns.inner = lambda: time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        ns.inner()
        ns.inner()

    ns.outer = outer
    original = ns.inner
    tracer = Tracer("t")
    tracer.wrap(ns, "inner", "inner")
    tracer.wrap(ns, "outer", "outer")
    ns.outer()
    tracer.undo()
    assert ns.inner is original
    self_ms = tracer.self_ms()
    assert tracer.calls() == {"inner": 2, "outer": 1}
    assert 40 <= self_ms["inner"] < 60
    assert 10 <= self_ms["outer"] < 20
    assert list(tracer.parent) == [-1, 0, 0]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
