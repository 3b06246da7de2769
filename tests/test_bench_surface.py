"""The benchmark's view of the package, checked without running it.

``perfbench/layers.py`` looks functions up by name on their modules, and
``perfbench/oracle.py`` checks ``model.correct`` against ``model.forward``;
a refactor that breaks either fails here instead of as a failed benchmark.
"""

import importlib.util
from pathlib import Path

import pytest

from postasr import model, training
from postasr.initialization import init_random

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists_and_is_restored():
    tracing, layers = _load("tracing"), _load("layers")
    original = training.novograd_step, training.pad_batch, training.wp_encode
    tracer = tracing.Tracer("t")
    try:
        layers.install(tracer)
        assert training.novograd_step is not original[0]
    finally:
        tracer.undo()
    assert (training.novograd_step, training.pad_batch, training.wp_encode) == original


@pytest.mark.parametrize("src", [(4, 7, 9, 5, 2), (3,), (11, 10, 9, 8, 7, 6, 5)])
def test_correct_passes_the_benchmark_oracle(src):
    oracle = _load("oracle")
    spec = model.ModelSpec(L=1, H=16, A=2, P_drop=0.0, V=12, max_len=12)
    weights = init_random(spec, std=0.5, seed=3)
    cap = 8
    w1 = model.correct(spec, weights, src, width=1, max_out=cap)
    w4 = model.correct(spec, weights, src, width=4, max_out=cap)
    assert oracle.greedy_problems(spec, weights, src, cap, w1) == []
    assert oracle.beam_problems(spec, weights, src, cap, w4) == []
