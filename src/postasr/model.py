"""Transformer encoder-decoder corrector.

Post-norm residual blocks, GELU feed-forward, multi-head attention with
additive masks, token embeddings shared between both stacks and the output
projection. At the input the token embedding is multiplied by sqrt(H)
(Vaswani et al. 2017, section 3.4), so that token identity is not drowned by
the unit-amplitude sinusoidal positions before the embedding layer norm; the
tied output projection uses the embedding unscaled. The forward graph is
built on a numkit tape so the same code path serves training (gradients,
dropout) and inference (eval mode, no backward pass).

Tensor names follow the stack.layer.block.tensor scheme used by the
checkpoint manifest, e.g. ``decoder.1.cross_attn.q.weight``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkit as nk
from .numkit import Tape, Tensor
from .wordpiece import BOS, EOS, PAD

_MASK_VALUE = -1e9

# Architecture fields recorded in checkpoint metadata.
_META_DIMS = ("L", "H", "A", "V", "max_len", "ffn_mult")


@dataclass(frozen=True)
class ModelSpec:
    """Architecture hyperparameters; H must split evenly across A heads."""

    L: int
    H: int
    A: int
    P_drop: float
    V: int
    max_len: int
    ffn_mult: int = 4

    def __post_init__(self):
        for name in _META_DIMS:
            if getattr(self, name) < 1:
                raise ValueError(f"ModelSpec.{name} must be >= 1")
        if self.H % self.A != 0:
            raise ValueError(f"ModelSpec: H={self.H} not divisible by A={self.A}")
        if not 0.0 <= self.P_drop < 1.0:
            raise ValueError(f"ModelSpec: P_drop must be in [0, 1), got {self.P_drop}")

    @property
    def head_dim(self) -> int:
        return self.H // self.A

    def to_meta(self) -> dict[str, str]:
        """Checkpoint metadata recording this architecture."""
        meta = {dim: str(getattr(self, dim)) for dim in _META_DIMS}
        meta["norm"] = "post"
        return meta

    @classmethod
    def from_meta(cls, meta: dict[str, str]) -> "ModelSpec":
        """The architecture a checkpoint records. Dropout only matters while
        training, so the spec comes back with P_drop = 0."""
        return cls(P_drop=0.0, **{dim: int(meta[dim]) for dim in _META_DIMS})


@dataclass(frozen=True)
class LossConfig:
    smoothing: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.smoothing < 1.0:
            raise ValueError(f"LossConfig: smoothing must be in [0, 1), got {self.smoothing}")


def _block_shapes(spec: ModelSpec, prefix: str, cross: bool):
    h, f = spec.H, spec.ffn_mult * spec.H
    attns = ["self_attn", "cross_attn"] if cross else ["self_attn"]
    out = {}
    for attn in attns:
        for proj in ("q", "k", "v", "out"):
            out[f"{prefix}.{attn}.{proj}.weight"] = (h, h)
            out[f"{prefix}.{attn}.{proj}.bias"] = (h,)
        out[f"{prefix}.{attn}.norm.gain"] = (h,)
        out[f"{prefix}.{attn}.norm.bias"] = (h,)
    out[f"{prefix}.ffn.in.weight"] = (h, f)
    out[f"{prefix}.ffn.in.bias"] = (f,)
    out[f"{prefix}.ffn.out.weight"] = (f, h)
    out[f"{prefix}.ffn.out.bias"] = (h,)
    out[f"{prefix}.ffn.norm.gain"] = (h,)
    out[f"{prefix}.ffn.norm.bias"] = (h,)
    return out


def param_shapes(spec: ModelSpec) -> dict[str, tuple[int, ...]]:
    """Canonical tensor manifest: insertion order is the checkpoint order."""
    shapes = {
        "embed.token": (spec.V, spec.H),
        "embed.pos": (spec.max_len, spec.H),
        "embed.norm.gain": (spec.H,),
        "embed.norm.bias": (spec.H,),
    }
    for l in range(spec.L):
        shapes.update(_block_shapes(spec, f"encoder.{l}", cross=False))
    for l in range(spec.L):
        shapes.update(_block_shapes(spec, f"decoder.{l}", cross=True))
    return shapes


def encoder_tensor_names(spec: ModelSpec) -> list[str]:
    """The subset a pretrained encoder-only checkpoint provides."""
    return [n for n in param_shapes(spec) if n.startswith(("embed.", "encoder."))]


def sinusoidal_positions(max_len: int, h: int) -> np.ndarray:
    """Fixed sin/cos position table, (max_len, H) float32."""
    pos = np.arange(max_len, dtype=np.float64)[:, None]
    i = np.arange((h + 1) // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / h)
    table = np.zeros((max_len, h), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : h // 2])
    return table.astype(np.float32)


def check_weights(spec: ModelSpec, weights: dict[str, np.ndarray]) -> None:
    expected = param_shapes(spec)
    for name, shape in expected.items():
        if name not in weights:
            raise ValueError(f"weights missing tensor {name!r}")
        if tuple(weights[name].shape) != shape:
            raise ValueError(f"tensor {name!r} has shape {weights[name].shape}, expected {shape}")
    extra = set(weights) - set(expected)
    if extra:
        raise ValueError(f"unexpected weight tensors: {sorted(extra)}")


class _Seeds:
    """Deterministic per-site dropout seed stream."""

    def __init__(self, base: int):
        self.base = int(base)
        self.n = 0

    def next(self) -> int:
        s = (self.base * 1000003 + self.n * 7919 + 12345) % (2**31 - 1)
        self.n += 1
        return s


def _ids_array(ids, spec: ModelSpec, what: str) -> np.ndarray:
    arr = np.asarray(ids, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"{what}: expected a sequence or batch of sequences")
    if arr.shape[1] == 0:
        raise ValueError(f"{what}: empty sequence")
    if arr.shape[1] > spec.max_len:
        raise ValueError(f"{what}: length {arr.shape[1]} exceeds max_len {spec.max_len}")
    if arr.size and (arr.min() < 0 or arr.max() >= spec.V):
        raise ValueError(f"{what}: token id out of range for vocab size {spec.V}")
    return arr


def _linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    y = nk.matmul(x, w)
    bb = nk.broadcast_to(nk.reshape(b, (1,) * (len(y.shape) - 1) + b.shape), y.shape)
    return nk.add(y, bb)


def _mask_const(tape: Tape, mask: np.ndarray, shape) -> Tensor:
    return tape.constant(np.broadcast_to(mask, shape))


def _attention(tape, spec, t, prefix, x_q, x_kv, mask, train, seeds):
    b, tq, h = x_q.shape
    tk = x_kv.shape[1]
    a, d = spec.A, spec.head_dim

    def heads(x, tlen):
        return nk.transpose(nk.reshape(x, (b, tlen, a, d)), (0, 2, 1, 3))

    q = heads(_linear(x_q, t[f"{prefix}.q.weight"], t[f"{prefix}.q.bias"]), tq)
    k = heads(_linear(x_kv, t[f"{prefix}.k.weight"], t[f"{prefix}.k.bias"]), tk)
    v = heads(_linear(x_kv, t[f"{prefix}.v.weight"], t[f"{prefix}.v.bias"]), tk)

    scores = nk.mul_scalar(nk.matmul(q, nk.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(d))
    scores = nk.add(scores, _mask_const(tape, mask, (b, a, tq, tk)))
    probs = nk.dropout(nk.softmax(scores, axis=-1), spec.P_drop, seeds.next(), train)
    ctx = nk.reshape(nk.transpose(nk.matmul(probs, v), (0, 2, 1, 3)), (b, tq, h))
    out = _linear(ctx, t[f"{prefix}.out.weight"], t[f"{prefix}.out.bias"])
    out = nk.dropout(out, spec.P_drop, seeds.next(), train)
    return nk.layer_norm(nk.add(x_q, out), t[f"{prefix}.norm.gain"], t[f"{prefix}.norm.bias"])


def _ffn(tape, spec, t, prefix, x, train, seeds):
    del tape
    h = nk.gelu(_linear(x, t[f"{prefix}.in.weight"], t[f"{prefix}.in.bias"]))
    out = _linear(h, t[f"{prefix}.out.weight"], t[f"{prefix}.out.bias"])
    out = nk.dropout(out, spec.P_drop, seeds.next(), train)
    return nk.layer_norm(nk.add(x, out), t[f"{prefix}.norm.gain"], t[f"{prefix}.norm.bias"])


def _embed(tape, spec, t, ids: np.ndarray, train, seeds):
    b, tlen = ids.shape
    tok = nk.mul_scalar(nk.embedding(t["embed.token"], ids), math.sqrt(spec.H))
    pos = nk.embedding(t["embed.pos"], np.broadcast_to(np.arange(tlen), (b, tlen)))
    x = nk.layer_norm(nk.add(tok, pos), t["embed.norm.gain"], t["embed.norm.bias"])
    return nk.dropout(x, spec.P_drop, seeds.next(), train)


def _pad_keys(ids: np.ndarray) -> np.ndarray:
    """(B, T) ids -> (B, 1, 1, T) additive mask blocking pad keys."""
    return np.where(ids == PAD, _MASK_VALUE, 0.0).astype(np.float32)[:, None, None, :]


def _causal(tlen: int) -> np.ndarray:
    m = np.triu(np.full((tlen, tlen), _MASK_VALUE, dtype=np.float32), k=1)
    return m[None, None, :, :]


def _encode(tape: Tape, spec: ModelSpec, t: dict[str, Tensor], src: np.ndarray, train: bool,
            seeds: _Seeds) -> tuple[Tensor, np.ndarray]:
    """Encoder stack over src (B, Ts): (memory, additive pad-key mask)."""
    x = _embed(tape, spec, t, src, train, seeds)
    src_keys = _pad_keys(src)
    for l in range(spec.L):
        x = _attention(tape, spec, t, f"encoder.{l}.self_attn", x, x, src_keys, train, seeds)
        x = _ffn(tape, spec, t, f"encoder.{l}.ffn", x, train, seeds)
    return x, src_keys


def build_forward(tape: Tape, spec: ModelSpec, tensors: dict[str, Tensor], src: np.ndarray,
                  tgt: np.ndarray, train: bool, seed: int) -> Tensor:
    """Batched graph: src (B, Ts) and tgt prefix (B, Tt) -> logits (B, Tt, V).

    Pad tokens participate only as masked-out attention keys, so extending a
    sequence with padding does not change the other positions' logits.
    """
    t = tensors
    seeds = _Seeds(seed)
    memory, src_keys = _encode(tape, spec, t, src, train, seeds)

    y = _embed(tape, spec, t, tgt, train, seeds)
    tgt_keys = _causal(tgt.shape[1]) + _pad_keys(tgt)
    for l in range(spec.L):
        y = _attention(tape, spec, t, f"decoder.{l}.self_attn", y, y, tgt_keys, train, seeds)
        y = _attention(tape, spec, t, f"decoder.{l}.cross_attn", y, memory, src_keys, train, seeds)
        y = _ffn(tape, spec, t, f"decoder.{l}.ffn", y, train, seeds)

    return nk.matmul(y, nk.transpose(t["embed.token"], (1, 0)))


def build_encoder_logits(tape: Tape, spec: ModelSpec, tensors: dict[str, Tensor],
                         src: np.ndarray, train: bool, seed: int) -> Tensor:
    """Encoder stack alone, projected back onto the vocabulary: (B, Ts, V).

    This is the masked-token pretraining head; it touches only embedding and
    encoder tensors, so its weights line up with an encoder checkpoint.
    """
    x, _ = _encode(tape, spec, tensors, src, train, _Seeds(seed))
    return nk.matmul(x, nk.transpose(tensors["embed.token"], (1, 0)))


def forward(spec: ModelSpec, weights: dict[str, np.ndarray], src_ids, tgt_prefix_ids,
            mode: str = "eval", seed: int = 0) -> np.ndarray:
    """Single-pair convenience wrapper; returns (|tgt_prefix|, V) logits."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    check_weights(spec, weights)
    src = _ids_array(src_ids, spec, "src_ids")
    tgt = _ids_array(tgt_prefix_ids, spec, "tgt_prefix_ids")
    tape = Tape()
    tensors = {name: tape.constant(arr) for name, arr in weights.items()}
    return build_forward(tape, spec, tensors, src, tgt, train=(mode == "train"), seed=seed).value[0]


def label_smoothed_loss(logits: Tensor, targets, cfg: LossConfig = LossConfig()) -> Tensor:
    """Mean over non-pad positions of the smoothed cross-entropy.

    Shapes: (..., V) logits against (...) integer targets; returns a scalar
    Tensor on the logits' tape.
    """
    targets = np.asarray(targets, dtype=np.int64)
    v = logits.shape[-1]
    if logits.shape[:-1] != targets.shape:
        raise ValueError(f"targets shape {targets.shape} does not match logits rows {logits.shape[:-1]}")
    if targets.size and (targets.min() < 0 or targets.max() >= v):
        raise ValueError(f"target id out of range for vocab size {v}")
    mask = targets != PAD
    n = int(mask.sum())
    if n == 0:
        raise ValueError("label_smoothed_loss: every position is padding")
    # Per-position mixed distribution q, zero at pad positions.
    q = np.full(targets.shape + (v,), cfg.smoothing / v, dtype=np.float64)
    np.put_along_axis(q, targets[..., None], cfg.smoothing / v + (1.0 - cfg.smoothing), axis=-1)
    coeff = logits.tape.constant(-(q * mask[..., None]) / n)
    return nk.tensor_sum(nk.mul(nk.log_softmax(logits, axis=-1), coeff))


@dataclass(frozen=True)
class ScoredSequence:
    """A decoded candidate: content ids (no BOS/EOS), raw and normalized scores."""

    ids: tuple[int, ...]
    logprob: float
    normalized: float


def _log_softmax_np(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def correct(spec: ModelSpec, weights: dict[str, np.ndarray], src_ids, width: int = 1,
            max_out: int | None = None) -> list[ScoredSequence]:
    """Beam-decode a correction for one source; width 1 is greedy search.

    Returns up to ``width`` hypotheses sorted by length-normalized
    log-probability (token count includes the end marker when emitted).
    """
    if width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    check_weights(spec, weights)
    src = _ids_array(src_ids, spec, "src_ids")
    cap = spec.max_len if max_out is None else min(max_out, spec.max_len)

    live = [((BOS,), 0.0)]
    finished = []
    while live and len(live[0][0]) < cap:
        batch = np.asarray([ids for ids, _ in live], dtype=np.int64)
        tape = Tape()
        tensors = {name: tape.constant(arr) for name, arr in weights.items()}
        logits = build_forward(tape, spec, tensors, np.repeat(src, len(live), axis=0),
                               batch, train=False, seed=0)
        logp = _log_softmax_np(logits.value[:, -1, :].astype(np.float64))
        cands = []
        for i, (ids, score) in enumerate(live):
            for tok in range(spec.V):
                cands.append((score + logp[i, tok], ids + (tok,)))
        cands.sort(key=lambda c: (-c[0], c[1]))
        live = []
        for score, ids in cands[:width]:
            if ids[-1] == EOS:
                finished.append((ids, score))
            else:
                live.append((ids, score))
    finished.extend(live)

    out = []
    for ids, score in finished:
        content = ids[1:-1] if ids[-1] == EOS else ids[1:]
        n_tokens = max(1, len(ids) - 1)
        out.append(ScoredSequence(tuple(content), score, score / n_tokens))
    out.sort(key=lambda s: (-s.normalized, s.ids))
    return out[:width]
