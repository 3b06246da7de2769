"""Dense N-d float arrays with reverse-mode automatic differentiation.

Storage is float32 by default (a tape may be created with float64 for
high-precision checks). Elementwise math and matrix products (BLAS
contractions) run in the tape's dtype; the other reductions accumulate in
float64. Elementwise primitives require exact shape agreement and never
broadcast implicitly; ``broadcast_to`` is the one explicit way to expand a
shape, and ``linear`` the one primitive that adds a vector across rows
(its bias).

A ``Tape`` records only what a gradient can reach. A tensor is
``tracked`` or not: ``Tape.leaf`` makes a tracked input, ``Tape.constant``
an untracked one, and a primitive's result is tracked when any of its
inputs is. Only tracked results are recorded, so a graph built from
constants alone (inference) records nothing. ``Tape.backward`` replays the
record once, in reverse, accumulating a gradient into every tracked node,
and consumes it: a tape is single-use, and the intermediates are freed
when ``backward`` returns. When the process may use two CPUs or more,
every gradient that reaches a leaf goes to a worker thread, which
accumulates each leaf's contributions in the order they arrive (so the
bits do not depend on it) while ``backward`` walks on along the chain of
input gradients. A primitive's backward may return a zero-argument callable in
place of an input's gradient; the worker calls it when that input is a
leaf, ``backward`` inline otherwise. The worker is started and joined
within each ``backward``, so forward-only code never starts a thread.

Every operation is deterministic; the only stochastic primitive, ``dropout``,
takes an explicit seed and a train/eval flag and is the identity at eval.

Ownership: a primitive writes in place (``out=``, ``*=``) only into arrays
it allocated in the same call, never into an input's ``value``, the
gradient its backward receives, or any ``grad``: ``add`` hands one gradient
object to both operands, and a node's first gradient can be that very
object, so ``Tape.backward`` accumulates out of place. In-place forms keep
the bits of the plain expressions: the same ufuncs on the same dtypes in
the same order, commuted (exact) but never re-associated, Python scalars
weak, and a float64 result rounded once into a tape-dtype ``out=`` exactly
as ``Tape`` would cast it. A deferred gradient reads the arrays it
captured after later records have run, so no primitive may write into
them either. Deferred work runs under numpy's default ``errstate``, which
is per-thread.
"""

from __future__ import annotations

import math
import os
import queue
import threading

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
    "linear",
    "broadcast_to",
]

_GELU_C = math.sqrt(2.0 / math.pi)


class Tensor:
    """A node in a tape's computation graph: a value plus a gradient slot.

    Only a ``tracked`` node, one that a leaf reaches, gets a ``grad``.
    """

    __slots__ = ("tape", "value", "grad", "tracked", "leaf")

    def __init__(self, tape: "Tape", value: np.ndarray, tracked: bool, leaf: bool = False):
        self.tape = tape
        self.value = value
        self.grad: np.ndarray | None = None
        self.tracked = tracked
        self.leaf = leaf

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.value.shape}, dtype={self.value.dtype})"


class Tape:
    """Ordered record of the tracked primitive applications of one computation.

    A tape is used from one thread and once: ``backward`` consumes the
    record, and a later leaf, constant, primitive or ``backward`` on the
    tape raises. Independent tapes may run concurrently.
    """

    def __init__(self, dtype=np.float32):
        self.dtype = np.dtype(dtype)
        self._records: list[tuple[Tensor, tuple[Tensor, ...], object]] | None = []

    def _check_open(self) -> None:
        if self._records is None:
            raise ValueError("tape already ran backward; a tape is single-use")

    def _input(self, value, tracked: bool, leaf: bool = False) -> Tensor:
        self._check_open()
        return Tensor(self, np.asarray(value, dtype=self.dtype, order="C"), tracked, leaf)

    def leaf(self, value) -> Tensor:
        """A graph input that receives a gradient."""
        return self._input(value, True, True)

    def constant(self, value) -> Tensor:
        """A graph input that receives no gradient."""
        return self._input(value, False)

    def _make(self, value: np.ndarray, inputs: tuple[Tensor, ...], backward_fn) -> Tensor:
        for t in inputs:
            if t.tracked:
                out = self._input(value, True)
                self._records.append((out, inputs, backward_fn))
                return out
        return self._input(value, False)

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(node) into every tracked node's ``grad``.

        ``loss`` must be a tracked scalar (shape ``()``). The record is
        detached first, then each recorded primitive is visited exactly
        once, in reverse application order. The gradients reaching leaves
        go to ``_LeafWork``; any error it met is raised from here.
        """
        self._check_open()
        if loss.tape is not self:
            raise ValueError("loss does not belong to this tape")
        if loss.value.shape != ():
            raise ValueError(f"backward requires a scalar loss, got shape {loss.value.shape}")
        if not loss.tracked:
            raise ValueError("loss depends on no leaf, so it has no gradient")
        records, self._records = self._records, None
        loss.grad = np.ones((), dtype=self.dtype)
        with _LeafWork() as leaf_work:
            for out, inputs, backward_fn in reversed(records):
                if out.grad is None:
                    continue
                for t, g in zip(inputs, backward_fn(out.grad)):
                    if t.leaf:
                        leaf_work.put(t, g)
                    elif t.tracked:
                        _accumulate(t, g)


def _accumulate(t: Tensor, g) -> None:
    """Add gradient ``g``, or the result of calling it, into ``t.grad``."""
    if callable(g):
        g = g()
    if t.grad is None:
        t.grad = np.asarray(g, dtype=t.tape.dtype, order="C")
    else:
        # Rounds g to the tape dtype, then adds: the bits of
        # t.grad + g.astype(dtype), without that copy.
        t.grad = np.add(t.grad, g, dtype=t.tape.dtype, casting="unsafe")


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


class _LeafWork:
    """The gradients that reach leaves during one ``backward``, accumulated
    in arrival order: by one worker thread, as FIFO tasks, when the process
    may use more than one CPU, and inline when it may not (there the thread
    only costs time).

    Leaving the ``with`` block joins the worker. A raise in a task skips
    the rest of the queue and is re-raised then, unless the block itself
    is already raising.
    """

    def __init__(self):
        self._tasks: queue.SimpleQueue | None = None
        self._error: BaseException | None = None
        if _usable_cpus() > 1:
            self._tasks = queue.SimpleQueue()
            self._thread = threading.Thread(target=self._run, name="numkit-leaf-grads", daemon=True)
            self._thread.start()

    def put(self, t: Tensor, g) -> None:
        if self._tasks is None:
            _accumulate(t, g)
        else:
            self._tasks.put((t, g))

    def _run(self) -> None:
        while (task := self._tasks.get()) is not None:
            if self._error is None:
                try:
                    _accumulate(*task)
                except BaseException as e:
                    self._error = e

    def __enter__(self) -> "_LeafWork":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._tasks is None:
            return
        self._tasks.put(None)
        self._thread.join()
        if self._error is not None and exc_type is None:
            raise self._error


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
    # inner = _GELU_C * (x + 0.044715 * x2 * x), out = 0.5 * x * (1 + tanh)
    inner = np.multiply(x2, 0.044715)
    inner *= x
    inner += x
    inner *= _GELU_C
    tanh = np.tanh(inner)
    out = np.add(tanh, 1.0)
    out *= 0.5 * x

    def backward(g):
        # 1 - tanh**2 as 4e / (1 + e)**2 with e = exp(-2|inner|): the
        # subtraction loses all float32 digits once |tanh| rounds near 1.
        # d = 0.5 * (1 + tanh) + 0.5 * x * sech2 * _GELU_C * (1 + 3 * 0.044715 * x2),
        # built in two buffers.
        e = np.abs(inner)
        e *= -2
        np.exp(e, out=e)
        buf = np.add(e, 1.0)
        buf *= buf
        e *= 4
        e /= buf  # sech2
        np.multiply(x, 0.5, out=buf)
        buf *= e
        buf *= _GELU_C
        np.multiply(x2, 3 * 0.044715, out=e)
        e += 1.0
        buf *= e
        np.add(tanh, 1.0, out=e)
        e *= 0.5
        e += buf
        e *= g
        return (e,)

    return a.tape._make(out, (a,), backward)


# -- shape manipulation ---------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    orig = a.value.shape
    return a.tape._make(a.value.reshape(shape), (a,), lambda g: (g.reshape(orig),))


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = [0] * len(axes)
    for i, axis in enumerate(axes):
        inv[axis] = i
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
        if extra:
            g = g.sum(axis=tuple(range(extra)), dtype=np.float64)
        keep = tuple(i for i, n in enumerate(src) if n == 1 and g.shape[i] != 1)
        if keep:
            g = g.sum(axis=keep, keepdims=True, dtype=np.float64)
        return (g,)

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


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ w + b``: the folded product of ``matmul`` with a 2-d ``w``,
    plus the bias vector ``b`` added to every row.

    The bias gradient is the row sum of the output gradient, in float64.
    The weight and bias gradients are deferred (see ``Tape.backward``).
    """
    tape = _same_tape(x, w, b)
    xv, wv, bv = x.value, w.value, b.value
    if xv.ndim < 2 or wv.ndim != 2 or xv.shape[-1] != wv.shape[0] or bv.shape != wv.shape[1:]:
        raise ValueError(f"linear: cannot apply weight {wv.shape} and bias {bv.shape} to {xv.shape}")
    x2 = xv.reshape(-1, xv.shape[-1])

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        return ((g2 @ wv.T).reshape(xv.shape), lambda: x2.T @ g2,
                lambda: g2.sum(axis=0, dtype=np.float64))

    out = x2 @ wv
    out += bv
    return tape._make(out.reshape(xv.shape[:-1] + bv.shape), (x, w, b), backward)


# -- fused neural-net primitives -------------------------------------------


def softmax(x: Tensor, axis: int = -1, mask: np.ndarray | None = None) -> Tensor:
    """Max-subtracted softmax along ``axis`` of ``x``, or of ``x + mask``.

    ``mask`` is a constant additive array (a large negative value blocks an
    entry) that broadcasts to ``x``'s shape. It is rounded to the tape dtype
    and added before the max shift: the bits of ``add`` with the mask as a
    broadcast constant, without that copy and record. Its gradient is
    ``x``'s, so the backward does not change.
    """
    xv = x.value
    if xv.size == 0:
        raise ValueError("softmax of an empty input")
    if mask is None:
        s = xv - xv.max(axis=axis, keepdims=True)
    else:
        if np.broadcast_shapes(np.shape(mask), xv.shape) != xv.shape:
            raise ValueError(f"softmax: mask {np.shape(mask)} does not broadcast to {xv.shape}")
        s = np.add(xv, mask, dtype=xv.dtype)
        s -= s.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    # The float64 quotient, rounded once into s.
    np.divide(s, s.sum(axis=axis, keepdims=True, dtype=np.float64), out=s, casting="unsafe")

    def backward(g):
        gs = g * s
        diff = g - gs.sum(axis=axis, keepdims=True, dtype=np.float64)
        return (np.multiply(diff, s, out=gs, casting="unsafe"),)

    return x.tape._make(s, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    if x.value.size == 0:
        raise ValueError("log_softmax of an empty input")
    out = x.value.astype(np.float64)
    out -= out.max(axis=axis, keepdims=True)
    s = np.exp(out)
    out -= np.log(s.sum(axis=axis, keepdims=True))
    np.exp(out, out=s)

    def backward(g):
        gs = s * g.sum(axis=axis, keepdims=True, dtype=np.float64)
        return (np.subtract(g, gs, out=gs),)

    return x.tape._make(out, (x,), backward)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean and unit variance, then scale/shift.

    ``gain`` and ``bias`` are vectors matching the last dimension; their
    gradients are deferred (see ``Tape.backward``).
    """
    if eps <= 0:
        raise ValueError("layer_norm: eps must be > 0")
    tape = _same_tape(x, gain, bias)
    d = x.value.shape[-1:]
    if gain.value.shape != d or bias.value.shape != d:
        raise ValueError(
            f"layer_norm: gain/bias shapes {gain.value.shape}/{bias.value.shape} do not match last dim of {x.value.shape}"
        )
    # The float64 mean and variance np.mean and np.var compute (sum, then
    # divide by n), without their Python wrappers.
    n = d[0]
    xhat = x.value.astype(np.float64)
    xhat -= np.add.reduce(xhat, axis=-1, keepdims=True) / n
    buf = xhat * xhat
    inv = 1.0 / np.sqrt(np.add.reduce(buf, axis=-1, keepdims=True) / n + eps)
    xhat *= inv
    gv = gain.value.astype(np.float64)
    np.multiply(xhat, gv, out=buf)
    out = np.add(buf, bias.value, out=np.empty(x.value.shape, tape.dtype), casting="unsafe")

    def backward(g):
        gg = g.astype(np.float64)
        d_xhat = gg * gv
        m1 = np.add.reduce(d_xhat, axis=-1, keepdims=True) / n
        buf = d_xhat * xhat
        m2 = np.add.reduce(buf, axis=-1, keepdims=True) / n
        # gx = inv * (d_xhat - m1 - xhat * m2), rounded once to the tape dtype
        d_xhat -= m1
        d_xhat -= np.multiply(xhat, m2, out=buf)
        gx = np.multiply(d_xhat, inv, out=np.empty(g.shape, g.dtype), casting="unsafe")
        lead = tuple(range(gg.ndim - 1))

        def lead_sum(a):  # a sum over no axes would turn -0.0 into 0.0
            return a.sum(axis=lead) if lead else a

        return (gx, lambda: lead_sum(gg * xhat), lambda: lead_sum(gg))

    return tape._make(out, (x, gain, bias), backward)


def dropout(x: Tensor, p: float, seed: int, train: bool) -> Tensor:
    """Inverted dropout with an explicit seed; identity when not training."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if not train or p == 0.0:
        return x
    rng = np.random.default_rng(seed)
    mask = (rng.random(x.value.shape) >= p).astype(x.value.dtype)
    mask /= 1.0 - p
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

    def table_grad(g):
        # One float64 bin per (id, column), filled in input order from 0.0:
        # the same additions in the same order as np.add.at, so the same
        # bits, without its per-element dispatch.
        h = table.value.shape[-1]
        bins = (ids.reshape(-1, 1) * h + np.arange(h)).reshape(-1)
        acc = np.bincount(bins, weights=g.reshape(-1), minlength=table.value.size)
        return acc.reshape(table.value.shape)

    return table.tape._make(out_val, (table,), lambda g: (lambda: table_grad(g),))
