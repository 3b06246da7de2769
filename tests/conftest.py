"""Shared test helpers, mainly the finite-difference gradient checker."""

import numpy as np
import pytest

from postasr import checkpoint as ck
from postasr import numkit
from postasr.model import encoder_tensor_names, param_shapes


def finite_difference_check(build, params, h=1e-3, rel_tol=1e-4, max_entries=None, seed=0):
    """Compare tape gradients against central finite differences.

    ``build(tape, leaves)`` constructs a scalar loss from leaf tensors created
    from ``params`` (a list of float arrays). Runs in float64 so the
    difference quotient itself is trustworthy; the primitives and backward
    rules under test are the same code that runs in float32.

    Returns the maximum relative error over all checked entries. When a
    tensor has more entries than ``max_entries``, a seeded subset is checked.
    """
    params = [np.asarray(p, dtype=np.float64) for p in params]
    tape = numkit.Tape(dtype=np.float64)
    leaves = [tape.leaf(p) for p in params]
    loss = build(tape, leaves)
    tape.backward(loss)
    analytic = [leaf.grad.copy() for leaf in leaves]

    def loss_at(values):
        t = numkit.Tape(dtype=np.float64)
        return float(build(t, [t.leaf(v) for v in values]).value)

    rng = np.random.default_rng(seed)
    worst = 0.0
    for i, p in enumerate(params):
        flat_ids = np.arange(p.size)
        if max_entries is not None and p.size > max_entries:
            flat_ids = rng.choice(p.size, size=max_entries, replace=False)
        for j in flat_ids:
            bumped = [q.copy() for q in params]
            flat = bumped[i].reshape(-1)
            flat[j] += h
            up = loss_at(bumped)
            flat[j] -= 2 * h
            down = loss_at(bumped)
            numeric = (up - down) / (2 * h)
            a = analytic[i].reshape(-1)[j]
            err = abs(a - numeric) / max(abs(a), abs(numeric), 1.0)
            worst = max(worst, err)
    assert worst < rel_tol, f"finite-difference mismatch: max rel err {worst:.3e} >= {rel_tol}"
    return worst


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_random_checkpoint(spec, seed=0, vocab_hash=None, std=0.05):
    """Synthetic encoder checkpoint with dense random tensors, for transfer
    tests. Every tensor is random so copies are detectable."""
    rng = np.random.default_rng(seed)
    shapes = param_shapes(spec)
    meta = spec.to_meta()
    if vocab_hash is not None:
        meta["vocab_sha1"] = vocab_hash
    ckpt = ck.Checkpoint(meta=meta)
    for name in encoder_tensor_names(spec):
        ckpt.add(name, rng.normal(0.0, std, size=shapes[name]).astype(np.float32))
    return ckpt
