"""The benchmark's traced run wraps package functions by name.

``perfbench/layers.py`` looks each one up on its module; this test fails as
soon as a refactor deletes or renames one of them, without running the
benchmark itself.
"""

import importlib.util
from pathlib import Path

from postasr import training

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
