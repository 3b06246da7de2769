"""Tape.backward's leaf-gradient worker.

With two usable CPUs, ``Tape.backward`` accumulates every gradient that
reaches a leaf on one worker thread, started and joined within the call.
These tests pin that the worker changes no bit, that its errors surface
from ``backward`` and leave no thread behind, and that forward-only code
never starts it. ``numkit._usable_cpus`` is replaced to choose the form.
"""

import sys
import threading

import numpy as np
import pytest

from postasr import numkit
from postasr.initialization import init_random
from postasr.model import EOS, ModelSpec, build_forward, correct, label_smoothed_loss
from postasr.numkit import Tape
from postasr.training import EncodedPair, TrainConfig, evaluate_loss, pad_batch, train

# The train benchmark's model (L=2, H=64, A=4) on a batch of 100 pairs.
SPEC = ModelSpec(L=2, H=64, A=4, P_drop=0.1, V=200, max_len=40)


def bench_batch(rng, pairs=100):
    items = []
    for _ in range(pairs):
        src = rng.integers(EOS + 1, SPEC.V, size=rng.integers(4, 12))
        tgt = rng.integers(EOS + 1, SPEC.V, size=rng.integers(3, 11))
        items.append(EncodedPair((*src.tolist(), EOS), tuple(tgt.tolist())))
    return items


def use_cpus(monkeypatch, n):
    monkeypatch.setattr(numkit, "_usable_cpus", lambda: n)


def count_thread_starts(monkeypatch):
    started = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


def batch_grads(dtype):
    rng = np.random.default_rng(18)
    src, tgt_in, targets = pad_batch(bench_batch(rng))
    tape = Tape(dtype)
    leaves = {n: tape.leaf(a) for n, a in init_random(SPEC, seed=3).items()}
    logits = build_forward(tape, SPEC, leaves, src, tgt_in, train=True, seed=5)
    tape.backward(label_smoothed_loss(logits, targets))
    return {n: leaf.grad for n, leaf in leaves.items()}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_threaded_and_inline_gradients_are_byte_identical(monkeypatch, dtype):
    started = count_thread_starts(monkeypatch)
    use_cpus(monkeypatch, 1)
    inline = batch_grads(dtype)
    assert started == []
    use_cpus(monkeypatch, 2)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the two threads as finely as the interpreter can
    try:
        threaded = batch_grads(dtype)
    finally:
        sys.setswitchinterval(interval)
    assert len(started) == 1 and threading.active_count() == threads
    assert inline.keys() == threaded.keys()
    for name in inline:
        assert threaded[name].dtype == inline[name].dtype == dtype
        assert threaded[name].tobytes() == inline[name].tobytes(), name


def tiny_train():
    spec = ModelSpec(L=1, H=8, A=2, P_drop=0.0, V=12, max_len=8)
    pairs = [EncodedPair((5, 6, 7, EOS), (5, 6, 7)), EncodedPair((8, 9, EOS), (8, 9))]
    return train(spec, init_random(spec, seed=1), pairs, TrainConfig(steps=2, seed=1))


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_raise_in_a_deferred_gradient_surfaces_from_backward(monkeypatch, cpus):
    use_cpus(monkeypatch, cpus)
    threads = threading.active_count()
    tape = Tape()
    first, second = tape.leaf(np.ones((3, 4))), tape.leaf(np.ones((3, 4)))
    ran = []

    def fail():
        raise FloatingPointError("deferred gradient failed")

    # Recorded last, so visited first: the failing task is queued before
    # the one that records that it ran.
    ok = tape._make(second.value * 2, (second,), lambda g: (lambda: ran.append(1) or g,))
    bad = tape._make(first.value * 2, (first,), lambda g: (fail,))
    loss = numkit.tensor_sum(numkit.add(ok, bad))
    with pytest.raises(FloatingPointError, match="deferred gradient failed"):
        tape.backward(loss)
    assert ran == []  # the rest of the queue was skipped
    assert threading.active_count() == threads

    result = tiny_train()
    assert result.steps_run == 2 and all(np.isfinite(result.losses))


def test_a_raise_on_the_main_thread_still_joins_the_worker(monkeypatch):
    use_cpus(monkeypatch, 2)
    threads = threading.active_count()
    tape = Tape()
    w = tape.leaf(np.ones((2, 2)))

    def fail(g):
        raise ArithmeticError("backward failed")

    y = tape._make(w.value + 1, (w,), fail)
    loss = numkit.tensor_sum(numkit.add(y, w))  # w's add gradient is queued first
    with pytest.raises(ArithmeticError, match="backward failed"):
        tape.backward(loss)
    assert threading.active_count() == threads


def test_forward_only_code_starts_no_thread(monkeypatch):
    use_cpus(monkeypatch, 2)

    def no_start(thread):
        raise AssertionError(f"thread {thread.name} started")

    monkeypatch.setattr(threading.Thread, "start", no_start)
    weights = init_random(SPEC, seed=3)
    hyps = correct(SPEC, weights, [5, 6, 7, EOS], width=2, max_out=6)
    assert hyps
    loss = evaluate_loss(SPEC, weights, bench_batch(np.random.default_rng(1), pairs=4))
    assert np.isfinite(loss)
    # The same guard does see a backward's worker.
    tape = Tape()
    with pytest.raises(AssertionError, match="started"):
        tape.backward(numkit.tensor_sum(tape.leaf(np.ones(3))))
