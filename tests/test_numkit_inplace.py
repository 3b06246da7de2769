"""Primitives that compute in place keep their inputs and their bits.

numkit's float hot paths write intermediates into arrays they allocated in
the same call. Two checks hold them to that:

- no primitive writes into its inputs' values or into the gradient its
  backward receives (which may be another node's ``grad`` as well);
- at the benchmark's shapes, every forward value and gradient has the bytes
  of the plain expressions the in-place forms replaced, copied here as they
  were written.
"""

import inspect
import math

import numpy as np
import pytest

from postasr import model, numkit
from postasr.model import PAD, LossConfig, label_smoothed_loss
from postasr.numkit import Tape
from postasr.optim import OptimizerConfig, OptimizerState, init_state, novograd_step

DTYPES = [np.float32, np.float64]


# name -> (input arrays from an rng, primitive applied to the leaves)
PRIMITIVES = {
    "add": (lambda r: [r.normal(size=(3, 4)), r.normal(size=(3, 4))], lambda a, b: numkit.add(a, b)),
    "add_scalar": (lambda r: [r.normal(size=(3, 4))], lambda a: numkit.add_scalar(a, 1.5)),
    "mul": (lambda r: [r.normal(size=(3, 4)), r.normal(size=(3, 4))], lambda a, b: numkit.mul(a, b)),
    "mul_scalar": (lambda r: [r.normal(size=(3, 4))], lambda a: numkit.mul_scalar(a, -2.5)),
    "exp": (lambda r: [r.normal(size=(3, 4))], numkit.exp),
    "log": (lambda r: [1.0 + r.random((3, 4))], numkit.log),
    "relu": (lambda r: [r.normal(size=(3, 4))], numkit.relu),
    "gelu": (lambda r: [3.0 * r.normal(size=(3, 4))], numkit.gelu),
    "reshape": (lambda r: [r.normal(size=(3, 4))], lambda a: numkit.reshape(a, (2, 6))),
    "transpose": (lambda r: [r.normal(size=(2, 3, 4))], lambda a: numkit.transpose(a, (2, 0, 1))),
    "broadcast_to": (lambda r: [r.normal(size=(1, 4))], lambda a: numkit.broadcast_to(a, (3, 4))),
    "tensor_sum": (lambda r: [r.normal(size=(3, 4))], lambda a: numkit.tensor_sum(a, axis=1)),
    "tensor_mean": (lambda r: [r.normal(size=(3, 4))], lambda a: numkit.tensor_mean(a, axis=0)),
    "matmul": (lambda r: [r.normal(size=(2, 3, 4)), r.normal(size=(2, 4, 5))], numkit.matmul),
    "linear": (lambda r: [r.normal(size=(2, 3, 4)), r.normal(size=(4, 5)), r.normal(size=(5,))], numkit.linear),
    "softmax": (lambda r: [r.normal(size=(2, 3, 5))], numkit.softmax),
    "log_softmax": (lambda r: [r.normal(size=(2, 3, 5))], numkit.log_softmax),
    "layer_norm": (lambda r: [r.normal(size=(2, 3, 8)), 1.0 + 0.1 * r.normal(size=(8,)), r.normal(size=(8,))],
                   numkit.layer_norm),
    "dropout": (lambda r: [r.normal(size=(4, 6))], lambda a: numkit.dropout(a, 0.3, seed=5, train=True)),
    "embedding": (lambda r: [r.normal(size=(6, 4))], lambda t: numkit.embedding(t, np.array([[1, 5, 1], [0, 1, 2]]))),
}


def test_every_primitive_is_guarded():
    public = {name for name, fn in inspect.getmembers(numkit, inspect.isfunction)
              if fn.__module__ == numkit.__name__ and not name.startswith("_")}
    assert public == set(PRIMITIVES)


@pytest.fixture
def checked_backward(monkeypatch):
    """Wrap every recorded backward so that it fails if it, or a deferred
    gradient it returns, changes the bytes of the gradient it receives;
    returns the number of calls."""
    calls = []
    make = Tape._make

    def guarded_make(tape, value, inputs, backward_fn):
        def backward(g):
            before = g.tobytes()

            def check(grad):
                assert g.tobytes() == before, "a backward wrote into the gradient it received"
                return grad

            grads = [(lambda d=d: check(d())) if callable(d) else d for d in backward_fn(g)]
            check(None)
            calls.append(g.shape)
            return grads
        return make(tape, value, inputs, backward)

    monkeypatch.setattr(Tape, "_make", guarded_make)
    return calls


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(PRIMITIVES))
def test_no_primitive_writes_into_its_inputs_or_incoming_gradient(checked_backward, name, dtype):
    arrays, primitive = PRIMITIVES[name]
    rng = np.random.default_rng(sorted(PRIMITIVES).index(name))
    tape = Tape(dtype)
    leaves = [tape.leaf(a) for a in arrays(rng)]
    inputs_before = [leaf.value.tobytes() for leaf in leaves]
    out = primitive(*leaves)
    weight = tape.constant(rng.normal(size=out.shape))
    # add's backward hands one gradient object to both operands: the
    # gradient the primitive receives is also ``other``'s grad.
    other = tape.leaf(np.zeros(out.shape))
    tape.backward(numkit.tensor_sum(numkit.mul(numkit.add(out, other), weight)))
    assert [leaf.value.tobytes() for leaf in leaves] == inputs_before
    assert other.grad.tobytes() == weight.value.tobytes()
    assert len(checked_backward) == 4  # the primitive, add, mul and the sum
    for leaf in leaves:
        assert leaf.grad is not None and leaf.grad.dtype == dtype


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", ["add", "mul", "matmul"])
def test_a_node_feeding_both_operands_keeps_its_value(checked_backward, name, dtype):
    rng = np.random.default_rng(1)
    tape = Tape(dtype)
    a = tape.leaf(rng.normal(size=(3, 3)))
    before = a.value.tobytes()
    out = getattr(numkit, name)(a, a)
    tape.backward(numkit.tensor_sum(numkit.mul(out, tape.constant(rng.normal(size=(3, 3))))))
    assert a.value.tobytes() == before


# -- the plain expressions, as written before the in-place forms ----------

_GELU_C = math.sqrt(2.0 / math.pi)


def gelu_reference(x, g):
    x2 = x * x
    inner = _GELU_C * (x + 0.044715 * x2 * x)
    tanh = np.tanh(inner)
    out = 0.5 * x * (1.0 + tanh)
    e = np.exp(-2 * np.abs(inner))
    sech2 = 4 * e / ((1.0 + e) * (1.0 + e))
    d = 0.5 * (1.0 + tanh) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * x2)
    return out, [g * d]


def layer_norm_reference(x, gain, bias, g, eps=1e-5):
    n = x.shape[-1]
    x64 = x.astype(np.float64)
    centred = x64 - np.add.reduce(x64, axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(np.add.reduce(centred * centred, axis=-1, keepdims=True) / n + eps)
    xhat = centred * inv
    gv = gain.astype(np.float64)
    out = xhat * gv + bias
    gg = g.astype(np.float64)
    d_xhat = gg * gv
    m1 = np.add.reduce(d_xhat, axis=-1, keepdims=True) / n
    m2 = np.add.reduce(d_xhat * xhat, axis=-1, keepdims=True) / n
    gx = inv * (d_xhat - m1 - xhat * m2)
    lead = tuple(range(gg.ndim - 1))
    return out, [gx, (gg * xhat).sum(axis=lead), gg.sum(axis=lead)]


def softmax_reference(x, g, axis=-1):
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = (e / e.sum(axis=axis, keepdims=True, dtype=np.float64)).astype(x.dtype)
    dot = (g * s).sum(axis=axis, keepdims=True, dtype=np.float64)
    return s, [s * (g - dot)]


def log_softmax_reference(x, g, axis=-1):
    v = x.astype(np.float64)
    shifted = v - v.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    s = np.exp(out)
    return out, [g - s * g.sum(axis=axis, keepdims=True, dtype=np.float64)]


def dropout_reference(x, g, p, seed):
    rng = np.random.default_rng(seed)
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    return x * mask, [g * mask]


def loss_coefficients_reference(targets, v, smoothing):
    mask = targets != PAD
    n = int(mask.sum())
    q = np.full(targets.shape + (v,), smoothing / v, dtype=np.float64)
    np.put_along_axis(q, targets[..., None], smoothing / v + (1.0 - smoothing), axis=-1)
    return -(q * mask[..., None]) / n


def novograd_reference(params, grads, state, cfg, lr_t):
    first = state.step == 0
    new_m, new_v, new_p = {}, {}, {}
    for name, w in params.items():
        g = np.asarray(grads[name], dtype=np.float64)
        sq = float((g * g).sum())
        v = sq if first else cfg.beta2 * state.v[name] + (1.0 - cfg.beta2) * sq
        w64 = np.asarray(w, dtype=np.float64)
        update = g / (math.sqrt(v) + cfg.eps) + cfg.weight_decay * w64
        m = update if first else cfg.beta1 * state.m[name] + update
        new_v[name] = v
        new_m[name] = m
        new_p[name] = (w64 - lr_t * m).astype(w.dtype)
    return new_p, OptimizerState(m=new_m, v=new_v, step=state.step + 1)


def run_primitive(dtype, primitive, arrays, weight):
    """The primitive's value and its inputs' gradients under
    loss = sum(primitive(*arrays) * weight); the gradient it receives is
    ``weight`` exactly."""
    tape = Tape(dtype)
    leaves = [tape.leaf(a) for a in arrays]
    out = primitive(*leaves)
    tape.backward(numkit.tensor_sum(numkit.mul(out, tape.constant(weight))))
    return out.value, [leaf.grad for leaf in leaves]


def assert_same_bytes(got, want, dtype):
    want = np.asarray(want).astype(dtype)
    assert got.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# Shapes of the train benchmark's small preset (46 sentences of 20 tokens,
# H=64, A=4, FFN 256, a 200-piece vocabulary).
BENCH_SHAPES = {
    "gelu": (46, 20, 256),
    "layer_norm": (46, 20, 64),
    "softmax": (46, 4, 20, 20),
    "dropout": (46, 20, 64),
    "log_softmax": (46, 20, 200),
}


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(BENCH_SHAPES))
def test_matches_plain_expressions_bit_for_bit(name, dtype):
    shape = BENCH_SHAPES[name]
    rng = np.random.default_rng(40)
    x = (3.0 * rng.normal(size=shape)).astype(dtype)
    g = rng.normal(size=shape).astype(dtype)
    if name == "layer_norm":
        gain = (1.0 + 0.1 * rng.normal(size=shape[-1])).astype(dtype)
        bias = (0.1 * rng.normal(size=shape[-1])).astype(dtype)
        arrays, primitive = [x, gain, bias], numkit.layer_norm
        want_out, want_grads = layer_norm_reference(x, gain, bias, g)
    elif name == "softmax":
        # Masked keys as attention adds them.
        x[..., 15:] += np.float32(-1e9)
        arrays, primitive = [x], numkit.softmax
        want_out, want_grads = softmax_reference(x, g)
    elif name == "dropout":
        # At p = 0.15, unlike 0.1, dividing by 1 - p and multiplying by its
        # reciprocal round apart in float32.
        arrays, primitive = [x], lambda a: numkit.dropout(a, 0.15, seed=77, train=True)
        want_out, want_grads = dropout_reference(x, g, 0.15, 77)
    else:
        arrays, primitive = [x], getattr(numkit, name)
        want_out, want_grads = {"gelu": gelu_reference, "log_softmax": log_softmax_reference}[name](x, g)
    got_out, got_grads = run_primitive(dtype, primitive, arrays, g)
    assert_same_bytes(got_out, want_out, dtype)
    assert len(got_grads) == len(want_grads)
    for got, want in zip(got_grads, want_grads):
        assert_same_bytes(got, want, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("causal", [True, False])
def test_softmax_mask_matches_add_then_softmax_bit_for_bit(dtype, causal):
    """``softmax(x, mask=m)`` against the mask added as a broadcast
    constant, at the attention scores of the train benchmark, with pad keys
    (and, for decoder self-attention, causal blocking) as the model builds
    them."""
    b, a, t, _ = BENCH_SHAPES["softmax"]
    rng = np.random.default_rng(43)
    x = (3.0 * rng.normal(size=(b, a, t, t))).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    ids = rng.integers(PAD + 1, 50, size=(b, t))
    for row, length in enumerate(rng.integers(2, t + 1, size=b)):
        ids[row, length:] = PAD
    mask = model._pad_keys(ids)
    if causal:
        mask = model._causal(t) + mask

    def added(s):
        return numkit.softmax(numkit.add(s, s.tape.constant(np.broadcast_to(mask, x.shape))))

    want_out, want_grads = run_primitive(dtype, added, [x], g)
    got_out, got_grads = run_primitive(dtype, lambda s: numkit.softmax(s, mask=mask), [x], g)
    assert_same_bytes(got_out, want_out, dtype)
    assert_same_bytes(got_grads[0], want_grads[0], dtype)


def test_softmax_mask_must_broadcast_to_the_input():
    tape = Tape()
    x = tape.leaf(np.zeros((2, 3, 4)))
    with pytest.raises(ValueError, match="broadcast"):
        numkit.softmax(x, mask=np.zeros((2, 1, 5)))
    with pytest.raises(ValueError, match="broadcast"):
        numkit.softmax(x, mask=np.zeros((3, 2, 3, 4)))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("smoothing", [0.1, 0.0])
def test_loss_matches_plain_expressions_bit_for_bit(monkeypatch, dtype, smoothing):
    """The coefficients (with -0.0 at pads), the loss and the logits'
    gradient of label_smoothed_loss, on padded targets."""
    # Seed 47 leaves n = 545 non-pad positions, a count at which dividing
    # by n and multiplying by 1 / n round apart in float64.
    rng = np.random.default_rng(47)
    b, t, v = BENCH_SHAPES["log_softmax"]
    logits = (4.0 * rng.normal(size=(b, t, v))).astype(dtype)
    targets = rng.integers(0, v, size=(b, t))
    targets[targets == PAD] = PAD + 1
    for row, length in enumerate(rng.integers(3, t + 1, size=b)):
        targets[row, length:] = PAD
    assert (targets == PAD).any() and (targets != PAD).sum() == 545

    seen = []
    real_mul = numkit.mul
    monkeypatch.setattr(model.nk, "mul", lambda a, c: seen.append(c.value) or real_mul(a, c))
    tape = Tape(dtype)
    leaf = tape.leaf(logits)
    loss = label_smoothed_loss(leaf, targets, LossConfig(smoothing=smoothing))
    tape.backward(loss)

    coeff = loss_coefficients_reference(targets, v, smoothing).astype(dtype)
    assert_same_bytes(seen[0], coeff, dtype)
    assert np.signbit(seen[0][targets == PAD]).all()
    out, (grad,) = log_softmax_reference(logits, coeff)
    assert_same_bytes(loss.value, (out.astype(dtype) * coeff).sum(dtype=np.float64), dtype)
    assert_same_bytes(leaf.grad, grad, dtype)


@pytest.mark.parametrize("weight_decay", [0.0, 0.01])
@pytest.mark.parametrize("dtype", DTYPES)
def test_novograd_matches_plain_expressions_and_leaves_inputs_alone(dtype, weight_decay):
    rng = np.random.default_rng(42)
    shapes = {"embed.token": (200, 64), "ffn.in.weight": (64, 256), "ffn.in.bias": (256,), "zeros": (8,)}
    params = {name: (0.02 * rng.normal(size=shape)).astype(dtype) for name, shape in shapes.items()}
    params["zeros"][:] = 0
    cfg = OptimizerConfig(weight_decay=weight_decay)
    got_p, want_p = params, params
    got_s, want_s = init_state(params), init_state(params)
    for step in range(3):
        grads = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
        grads["zeros"][::2] = -0.0
        snapshot = [(a.dtype, a.tobytes()) for a in [*got_p.values(), *grads.values(), *got_s.m.values()]]
        old_v, old_step = dict(got_s.v), got_s.step
        lr = 0.01 / (step + 1)
        new_p, new_s = novograd_step(got_p, grads, got_s, cfg, lr)
        assert [(a.dtype, a.tobytes()) for a in [*got_p.values(), *grads.values(), *got_s.m.values()]] == snapshot
        assert got_s.v == old_v and got_s.step == old_step
        want_p, want_s = novograd_reference(want_p, grads, want_s, cfg, lr)
        got_p, got_s = new_p, new_s
        for name in shapes:
            assert_same_bytes(got_p[name], want_p[name], dtype)
            assert_same_bytes(got_s.m[name], want_s.m[name], np.float64)
        assert got_s.v == want_s.v and got_s.step == want_s.step == step + 1
