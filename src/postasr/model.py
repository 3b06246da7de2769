"""Transformer encoder-decoder corrector.

Post-norm residual blocks, GELU feed-forward, multi-head attention with
additive masks, token embeddings shared between both stacks and the output
projection. At the input the token embedding is multiplied by sqrt(H)
(Vaswani et al. 2017, section 3.4), so that token identity is not drowned by
the unit-amplitude sinusoidal positions before the embedding layer norm; the
tied output projection uses the embedding unscaled. The forward graph is
built on a numkit tape from the same attention code (``_project_heads`` and
``_attend``) that inference uses: ``correct`` encodes the source once and
decodes incrementally, feeding only the newest token through the decoder and
attending over cached self-attention keys/values and cross-attention
keys/values projected once from the encoder memory.

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


# Head layouts for _project_heads: (B, T, A, d) -> (B, A, T, d) for queries
# and values, -> (B, A, d, T) for keys, the right operand of q @ k^T.
_HEADS = (0, 2, 1, 3)
_KEY_HEADS = (0, 2, 3, 1)


def _project_heads(spec, t, prefix, x, axes=_HEADS):
    """Linear projection ``prefix`` of x (B, T, H), split into heads and
    permuted by ``axes`` from (B, T, A, d)."""
    b, tlen, _ = x.shape
    y = nk.linear(x, t[f"{prefix}.weight"], t[f"{prefix}.bias"])
    return nk.transpose(nk.reshape(y, (b, tlen, spec.A, spec.head_dim)), axes)


def _attend(spec, t, prefix, x_q, q, k, v, mask, train, seeds):
    """Heads q (B, A, Tq, d) over keys k (B, A, d, Tk) and values v
    (B, A, Tk, d) under the additive ``mask``, which broadcasts to the
    scores (B, A, Tq, Tk), then the output projection and the residual norm
    around x_q (B, Tq, H).

    The query heads come in projected, so a self-attention block records its
    q, k and v projections in that order and the gradients reaching x_q add
    up in the same order whoever calls this.
    """
    b, tq, h = x_q.shape
    scores = nk.mul_scalar(nk.matmul(q, k), 1.0 / math.sqrt(spec.head_dim))
    # An all-zero mask blocks no key and leaves every probability as it is.
    probs = nk.softmax(scores, axis=-1, mask=mask if mask.any() else None)
    probs = nk.dropout(probs, spec.P_drop, seeds.next(), train)
    ctx = nk.reshape(nk.transpose(nk.matmul(probs, v), (0, 2, 1, 3)), (b, tq, h))
    out = nk.linear(ctx, t[f"{prefix}.out.weight"], t[f"{prefix}.out.bias"])
    out = nk.dropout(out, spec.P_drop, seeds.next(), train)
    return nk.layer_norm(nk.add(x_q, out), t[f"{prefix}.norm.gain"], t[f"{prefix}.norm.bias"])


def _attention(tape, spec, t, prefix, x_q, x_kv, mask, train, seeds):
    del tape
    q = _project_heads(spec, t, f"{prefix}.q", x_q)
    k = _project_heads(spec, t, f"{prefix}.k", x_kv, _KEY_HEADS)
    v = _project_heads(spec, t, f"{prefix}.v", x_kv)
    return _attend(spec, t, prefix, x_q, q, k, v, mask, train, seeds)


def _ffn(tape, spec, t, prefix, x, train, seeds):
    del tape
    h = nk.gelu(nk.linear(x, t[f"{prefix}.in.weight"], t[f"{prefix}.in.bias"]))
    out = nk.linear(h, t[f"{prefix}.out.weight"], t[f"{prefix}.out.bias"])
    out = nk.dropout(out, spec.P_drop, seeds.next(), train)
    return nk.layer_norm(nk.add(x, out), t[f"{prefix}.norm.gain"], t[f"{prefix}.norm.bias"])


def _embed(tape, spec, t, ids: np.ndarray, train, seeds, start: int = 0):
    """Embed ids (B, T) sitting at positions start .. start + T - 1."""
    b, tlen = ids.shape
    tok = nk.mul_scalar(nk.embedding(t["embed.token"], ids), math.sqrt(spec.H))
    pos = nk.embedding(t["embed.pos"], np.broadcast_to(np.arange(start, start + tlen), (b, tlen)))
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
    # -q / n for the per-position mixed distribution q, rounded once to the
    # tape dtype; -0.0 at pad positions, the sign -(0 * q) / n gives.
    off = cfg.smoothing / v
    coeff = np.full(targets.shape + (v,), -off / n, dtype=logits.tape.dtype)
    np.put_along_axis(coeff, targets[..., None], -(off + (1.0 - cfg.smoothing)) / n, axis=-1)
    coeff[~mask] = -0.0
    return nk.tensor_sum(nk.mul(nk.log_softmax(logits, axis=-1), logits.tape.constant(coeff)))


@dataclass(frozen=True)
class ScoredSequence:
    """A decoded candidate: content ids (no BOS/EOS), raw and normalized scores."""

    ids: tuple[int, ...]
    logprob: float
    normalized: float


def _log_softmax_np(x: np.ndarray) -> np.ndarray:
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _decode_step(tape, spec, t, prefix, cache, cross, src_keys, out_proj) -> np.ndarray:
    """Next-token log-probabilities (rows, V) after each prefix (rows, T).

    Only the newest token runs through the decoder, at position T - 1. Its
    self-attention keys and values are appended to ``cache`` (per layer, a
    (k, v) pair of (rows, A, d, T - 1) and (rows, A, T - 1, d) arrays,
    replaced by the pair one position longer); ``cross`` holds each layer's
    cross-attention keys and values in the same layouts, broadcast to the
    rows. Generated pad tokens stay masked as keys, as in ``build_forward``.
    """
    tlen = prefix.shape[1]
    seeds = _Seeds(0)
    y = _embed(tape, spec, t, prefix[:, -1:], False, seeds, start=tlen - 1)
    self_keys = _pad_keys(prefix)
    for l in range(spec.L):
        p = f"decoder.{l}.self_attn"
        q = _project_heads(spec, t, f"{p}.q", y)
        k_old, v_old = cache[l]
        k = np.concatenate([k_old, _project_heads(spec, t, f"{p}.k", y, _KEY_HEADS).value], axis=3)
        v = np.concatenate([v_old, _project_heads(spec, t, f"{p}.v", y).value], axis=2)
        cache[l] = (k, v)
        y = _attend(spec, t, p, y, q, tape.constant(k), tape.constant(v), self_keys, False, seeds)
        p = f"decoder.{l}.cross_attn"
        q = _project_heads(spec, t, f"{p}.q", y)
        y = _attend(spec, t, p, y, q, *cross[l], src_keys, False, seeds)
        y = _ffn(tape, spec, t, f"decoder.{l}.ffn", y, False, seeds)
    return _log_softmax_np(nk.matmul(y, out_proj).value[:, 0, :].astype(np.float64))


def _best_candidates(total: np.ndarray, prefixes: list, width: int):
    """(parent rows, tokens) of the ``width`` best continuations, scored by
    total (rows, V), in the order of a full sort on (-score, prefix + (token,)).

    Only scores at or above the width-th largest can make the cut, so only
    those are sorted; ties at that score are all kept and settled by ids.
    """
    flat = total.ravel()
    if flat.size > width:
        kth = np.partition(flat, flat.size - width)[flat.size - width]
        cand = np.flatnonzero(flat >= kth)
    else:
        cand = np.arange(flat.size)
    parents, toks = np.divmod(cand, total.shape[1])
    order = sorted(range(len(cand)),
                   key=lambda i: (-flat[cand[i]], (*prefixes[parents[i]], toks[i])))[:width]
    return parents[order], toks[order]


def _at_least_two(rows: np.ndarray) -> np.ndarray:
    """Pad a lone row with a copy of itself.

    A one-row float32 matrix product runs another BLAS kernel (GEMV) with
    other rounding, so a hypothesis scored alone would get other bits than
    the same hypothesis scored next to others; at two rows and up, each row's
    arithmetic does not depend on the row count.
    """
    return np.repeat(rows, 2) if len(rows) == 1 else rows


def correct(spec: ModelSpec, weights: dict[str, np.ndarray], src_ids, width: int = 1,
            max_out: int | None = None) -> list[ScoredSequence]:
    """Beam-decode a correction for one source; width 1 is greedy search.

    Returns up to ``width`` hypotheses sorted by length-normalized
    log-probability (token count includes the end marker when emitted).
    The source is encoded once; each step extends every live hypothesis by
    one token through ``_decode_step``.
    """
    if width < 1:
        raise ValueError(f"beam width must be >= 1, got {width}")
    check_weights(spec, weights)
    src = _ids_array(src_ids, spec, "src_ids")
    cap = spec.max_len if max_out is None else min(max_out, spec.max_len)

    tape = Tape()
    t = {name: tape.constant(arr) for name, arr in weights.items()}
    memory, src_keys = _encode(tape, spec, t, src, False, _Seeds(0))
    cross = [tuple(_project_heads(spec, t, f"decoder.{l}.cross_attn.{proj}", memory, axes)
                   for proj, axes in zip("kv", (_KEY_HEADS, _HEADS)))
             for l in range(spec.L)]
    cross_by_rows = {}  # live-row count -> cross K/V broadcast to that many rows
    out_proj = nk.transpose(t["embed.token"], (1, 0))

    # One score per live hypothesis; the decoder state (prefix ids and K/V
    # cache) has a row per live hypothesis and at least two rows.
    scores = np.zeros(1)
    prefix = np.full((2, 1), BOS, dtype=np.int64)
    cache = [(np.zeros((2, spec.A, spec.head_dim, 0), dtype=tape.dtype),
              np.zeros((2, spec.A, 0, spec.head_dim), dtype=tape.dtype))] * spec.L
    finished = []
    while len(scores) and prefix.shape[1] < cap:
        n = len(prefix)
        if n not in cross_by_rows:
            cross_by_rows[n] = [[nk.broadcast_to(m, (n,) + m.shape[1:]) for m in kv] for kv in cross]
        logp = _decode_step(tape, spec, t, prefix, cache, cross_by_rows[n], src_keys, out_proj)
        total = scores[:, None] + logp[: len(scores)]
        parents, toks = _best_candidates(total, prefix.tolist(), width)
        ids = np.concatenate([prefix[parents], toks[:, None]], axis=1)
        new_scores = total[parents, toks]
        ended = toks == EOS
        finished += zip(map(tuple, ids[ended].tolist()), new_scores[ended])
        alive = np.flatnonzero(~ended)
        rows = _at_least_two(alive)
        scores = new_scores[alive]
        prefix = ids[rows]
        cache = [(k[parents[rows]], v[parents[rows]]) for k, v in cache]
    finished += zip(map(tuple, prefix[: len(scores)].tolist()), scores)

    out = []
    for ids, score in finished:
        content = ids[1:-1] if ids[-1] == EOS else ids[1:]
        n_tokens = max(1, len(ids) - 1)
        out.append(ScoredSequence(tuple(content), score, score / n_tokens))
    out.sort(key=lambda s: (-s.normalized, s.ids))
    return out[:width]
