"""Dense N-d float arrays with reverse-mode automatic differentiation.

Storage is float32 by default (a tape may be created with float64 for
high-precision checks). Elementwise math and matrix products (BLAS
contractions) run in the tape's dtype; the other reductions accumulate in
float64. Elementwise primitives require exact shape agreement and never
broadcast implicitly; ``broadcast_to`` is the one explicit way to expand a
shape. A ``Tape`` records primitive applications in order, and
``Tape.backward`` replays the record once, in reverse, accumulating a
gradient per node.

Every operation is deterministic; the only stochastic primitive, ``dropout``,
takes an explicit seed and a train/eval flag and is the identity at eval.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tape",
    "Tensor",
    "softmax",
    "log_softmax",
    "layer_norm",
    "relu",
    "gelu",
    "exp",
    "log",
    "dropout",
    "embedding",
    "matmul",
    "broadcast_to",
]

_GELU_C = math.sqrt(2.0 / math.pi)


def _as_array(value, dtype) -> np.ndarray:
    return np.asarray(value, dtype=dtype, order="C")


class Tensor:
    """A node in a tape's computation graph: a value plus a gradient slot."""

    __slots__ = ("tape", "value", "grad")

    def __init__(self, tape: "Tape", value: np.ndarray):
        self.tape = tape
        self.value = value
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape}, dtype={self.value.dtype})"


class Tape:
    """Ordered record of primitive applications over one computation.

    A tape is single-threaded; independent tapes may run concurrently.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._records: list[tuple[Tensor, tuple[Tensor, ...], object]] = []
        self.leaves: list[Tensor] = []
        self._released = False

    def leaf(self, value) -> Tensor:
        if self._released:
            raise ValueError("tape has been released")
        t = Tensor(self, _as_array(value, self.dtype))
        self.leaves.append(t)
        return t

    def constant(self, value) -> Tensor:
        """A graph input whose gradient is computed but normally ignored."""
        return Tensor(self, _as_array(value, self.dtype))

    def _record(self, out: Tensor, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
        if self._released:
            raise ValueError("tape has been released")
        self._records.append((out, inputs, backward_fn))
        return out

    def release(self) -> None:
        """Drop the recorded graph so its arrays are freed immediately.

        Tensor.tape back references make every graph one big reference
        cycle, which only the cyclic collector would reclaim; training
        loops allocate gigabytes per step, so they release each tape as
        soon as its gradients have been read. Values and gradients
        already extracted stay valid; recording anything further on the
        tape is an error.
        """
        self._records = []
        self.leaves = []
        self._released = True

    def _make(self, value: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
        out = Tensor(self, np.asarray(value, dtype=self.dtype, order="C"))
        return self._record(out, inputs, backward_fn)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(node) into every node's ``grad``.

        ``loss`` must be a scalar (shape ``()``). Each recorded primitive is
        visited exactly once, in reverse application order.
        """
        if self._released:
            raise ValueError("tape has been released")
        if loss.tape is not self:
            raise ValueError("loss does not belong to this tape")
        if loss.value.shape != ():
            raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
        for out, inputs, _ in self._records:
            out.grad = None
            for t in inputs:
                t.grad = None
        for t in self.leaves:
            t.grad = None
        loss.grad = np.ones((), dtype=self.dtype)
        for out, inputs, backward_fn in reversed(self._records):
            if out.grad is None:
                continue
            gs = backward_fn(out.grad)
            for t, g in zip(inputs, gs):
                if g is None:
                    continue
                if t.grad is None:
                    t.grad = np.asarray(g, dtype=self.dtype, order="C")
                else:
                    t.grad = t.grad + np.asarray(g, dtype=self.dtype)


def _same_tape(*tensors: Tensor) -> Tape:
    tape = tensors[0].tape
    for t in tensors[1:]:
        if t.tape is not tape:
            raise ValueError("operands belong to different tapes")
    return tape


def _require_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise ValueError(f"{op}: shape mismatch {a.value.shape} vs {b.value.shape} (use broadcast_to explicitly)")


# -- elementwise ---------------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    _require_same_shape(a, b, "add")
    return tape._make(a.value + b.value, (a, b), lambda g: (g, g))


def add_scalar(a: Tensor, c: float) -> Tensor:
    return a.tape._make(a.value + a.tape.dtype.type(c), (a,), lambda g: (g,))


def mul(a: Tensor, b: Tensor) -> Tensor:
    tape = _same_tape(a, b)
    _require_same_shape(a, b, "mul")
    av, bv = a.value, b.value
    return tape._make(av * bv, (a, b), lambda g: (g * bv, g * av))


def mul_scalar(a: Tensor, c: float) -> Tensor:
    c = a.tape.dtype.type(c)
    return a.tape._make(a.value * c, (a,), lambda g: (g * c,))


def exp(a: Tensor) -> Tensor:
    out_val = np.exp(a.value)
    return a.tape._make(out_val, (a,), lambda g: (g * out_val,))


def log(a: Tensor) -> Tensor:
    av = a.value
    return a.tape._make(np.log(av), (a,), lambda g: (g / av,))


def relu(a: Tensor) -> Tensor:
    av = a.value
    return a.tape._make(np.maximum(av, 0), (a,), lambda g: (g * (av > 0),))


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit (tanh approximation); smooth everywhere.

    Computes in the input's dtype, so a float32 tape stays float32 and a
    float64 tape stays float64. The cube is ``x * x * x``: numpy has no
    fast path for ``x**3``.
    """
    x = a.value
    x2 = x * x
    inner = _GELU_C * (x + 0.044715 * x2 * x)
    tanh = np.tanh(inner)
    out = 0.5 * x * (1.0 + tanh)

    def backward(g):
        # 1 - tanh**2 as 4e / (1 + e)**2 with e = exp(-2|inner|): the
        # subtraction loses all float32 digits once |tanh| rounds near 1.
        e = np.exp(-2 * np.abs(inner))
        sech2 = 4 * e / ((1.0 + e) * (1.0 + e))
        d = 0.5 * (1.0 + tanh) + 0.5 * x * sech2 * _GELU_C * (1.0 + 3 * 0.044715 * x2)
        return (g * d,)

    return a.tape._make(out, (a,), backward)


# -- shape manipulation ---------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.value.shape
    return a.tape._make(a.value.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return a.tape._make(np.ascontiguousarray(a.value.transpose(axes)), (a,), lambda g: (g.transpose(inv),))


def broadcast_to(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    src = a.value.shape
    try:
        out_val = np.broadcast_to(a.value, shape)
    except ValueError as e:
        raise ValueError(f"broadcast_to: cannot broadcast {src} to {shape}") from e

    def backward(g):
        extra = g.ndim - len(src)
        g64 = g.astype(np.float64)
        if extra:
            g64 = g64.sum(axis=tuple(range(extra)))
        keep = tuple(i for i, n in enumerate(src) if n == 1 and g64.shape[i] != 1)
        if keep:
            g64 = g64.sum(axis=keep, keepdims=True)
        return (g64,)

    return a.tape._make(np.array(out_val), (a,), backward)


# -- reductions -----------------------------------------------------------


def tensor_sum(a: Tensor, axis=None) -> Tensor:
    src = a.value.shape
    out_val = a.value.sum(axis=axis, dtype=np.float64)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, src),)
        g_exp = np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, src),)

    return a.tape._make(out_val, (a,), backward)


def tensor_mean(a: Tensor, axis=None) -> Tensor:
    src = a.value.shape
    n = a.value.size if axis is None else src[axis]
    out_val = a.value.mean(axis=axis, dtype=np.float64)

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, src) / n,)
        g_exp = np.expand_dims(g, axis)
        return (np.broadcast_to(g_exp, src) / n,)

    return a.tape._make(out_val, (a,), backward)


# -- linear algebra --------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes.

    A 2-d right operand is applied across every leading (batch) axis of the
    left one; a batched right operand must carry exactly the left one's
    batch axes.
    """
    tape = _same_tape(a, b)
    av, bv = a.value, b.value
    if av.ndim < 2 or bv.ndim < 2:
        raise ValueError(f"matmul requires ndim >= 2, got {av.shape} @ {bv.shape}")
    if bv.ndim > 2 and av.shape[:-2] != bv.shape[:-2]:
        raise ValueError(f"matmul: batch dimensions differ, {av.shape} @ {bv.shape}")
    if av.shape[-1] != bv.shape[-2]:
        raise ValueError(f"matmul: inner dimensions differ, {av.shape} @ {bv.shape}")
    if bv.ndim == 2:
        # Fold the batch axes into rows: one GEMM each way instead of one
        # small GEMM per batch row and a batched weight gradient to sum.
        a2 = av.reshape(-1, av.shape[-1])

        def backward_folded(g):
            g2 = g.reshape(-1, g.shape[-1])
            return ((g2 @ bv.T).reshape(av.shape), a2.T @ g2)

        out = (a2 @ bv).reshape(av.shape[:-1] + bv.shape[-1:])
        return tape._make(out, (a, b), backward_folded)

    def backward(g):
        return (np.matmul(g, bv.swapaxes(-1, -2)), np.matmul(av.swapaxes(-1, -2), g))

    return tape._make(np.matmul(av, bv), (a, b), backward)


# -- fused neural-net primitives -------------------------------------------


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along ``axis``."""
    if x.value.size == 0:
        raise ValueError("softmax of an empty input")
    shifted = x.value - x.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = (e / e.sum(axis=axis, keepdims=True, dtype=np.float64)).astype(x.value.dtype)

    def backward(g):
        dot = (g * s).sum(axis=axis, keepdims=True, dtype=np.float64)
        return (s * (g - dot),)

    return x.tape._make(s, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if x.value.size == 0:
        raise ValueError("log_softmax of an empty input")
    v = x.value.astype(np.float64)
    shifted = v - v.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    s = np.exp(out)

    def backward(g):
        return (g - s * g.sum(axis=axis, keepdims=True, dtype=np.float64),)

    return x.tape._make(out, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale/shift.

    ``gain`` and ``bias`` are vectors matching the last dimension.
    """
    if eps <= 0:
        raise ValueError("layer_norm: eps must be > 0")
    tape = _same_tape(x, gain, bias)
    d = x.value.shape[-1:]
    if gain.value.shape != d or bias.value.shape != d:
        raise ValueError(
            f"layer_norm: gain/bias shapes {gain.value.shape}/{bias.value.shape} do not match last dim of {x.value.shape}"
        )
    x64 = x.value.astype(np.float64)
    mu = x64.mean(axis=-1, keepdims=True)
    var = x64.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x64 - mu) * inv
    gv = gain.value.astype(np.float64)
    out = xhat * gv + bias.value

    def backward(g):
        n = x.value.shape[-1]
        gg = g.astype(np.float64)
        d_xhat = gg * gv
        m1 = d_xhat.mean(axis=-1, keepdims=True)
        m2 = (d_xhat * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (d_xhat - m1 - xhat * m2)
        lead = tuple(range(gg.ndim - 1))
        g_gain = (gg * xhat).sum(axis=lead) if lead else gg * xhat
        g_bias = gg.sum(axis=lead) if lead else gg
        return (gx, g_gain, g_bias)

    return tape._make(out, (x, gain, bias), backward)


def dropout(x: Tensor, p: float, seed: int, train: bool) -> Tensor:
    """Inverted dropout with an explicit seed; identity when not training."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    rng = np.random.default_rng(seed)
    mask = (rng.random(x.value.shape) >= p).astype(x.value.dtype) / (1.0 - p)
    return x.tape._make(x.value * mask, (x,), lambda g: (g * mask,))


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: ``table`` is (V, H), ``ids`` any integer shape -> ids.shape + (H,)."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ValueError("embedding: ids must be integers")
    v = table.value.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise ValueError(f"embedding: id out of range for table with {v} rows")
    out_val = table.value[ids]

    def backward(g):
        # One float64 bin per (id, column), filled in input order from 0.0:
        # the same additions in the same order as np.add.at, so the same
        # bits, without its per-element dispatch.
        h = table.value.shape[-1]
        bins = (ids.reshape(-1, 1) * h + np.arange(h)).reshape(-1)
        acc = np.bincount(bins, weights=g.reshape(-1), minlength=table.value.size)
        return (acc.reshape(table.value.shape),)

    return table.tape._make(out_val, (table,), backward)
