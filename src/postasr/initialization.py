"""Weight initialization: random draws and encoder-checkpoint transfer.

A pretrained checkpoint covers the shared embedding block plus the encoder
stack. Encoder transfer is a straight copy. Decoder transfer reuses the
same layers: self-attention and feed-forward blocks copy their encoder
counterparts, and each layer's encoder-decoder attention (projections and
normalization) is an exact duplicate of that same layer's self-attention
block. Anything a plan leaves uncovered falls back to the random scheme,
and every tensor's provenance is returned so run manifests can record it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import checkpoint as ck
from .model import ModelSpec, encoder_tensor_names, param_shapes, sinusoidal_positions

INIT_SOURCES = ("random", "pretrained")


@dataclass(frozen=True)
class InitPlan:
    encoder_source: str = "random"
    decoder_source: str = "random"
    checkpoint_path: str | None = None
    std: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for side, src in (("encoder", self.encoder_source), ("decoder", self.decoder_source)):
            if src not in INIT_SOURCES:
                raise ValueError(f"{side}_source must be one of {INIT_SOURCES}, got {src!r}")
        if self.needs_checkpoint and self.checkpoint_path is None:
            raise ValueError("a pretrained source requires checkpoint_path")
        if self.std <= 0:
            raise ValueError("std must be > 0")

    @property
    def needs_checkpoint(self) -> bool:
        return "pretrained" in (self.encoder_source, self.decoder_source)


@dataclass(frozen=True)
class InitResult:
    weights: dict[str, np.ndarray]
    sources: dict[str, str]


def init_random(spec: ModelSpec, std: float = 0.02, seed: int = 0) -> dict[str, np.ndarray]:
    """Weight matrices ~ N(0, std2); norm gains 1, every bias 0; fixed
    sinusoidal position table. One rng drawn in manifest order per seed."""
    if std <= 0:
        raise ValueError("std must be > 0")
    rng = np.random.default_rng(seed)
    weights = {}
    for name, shape in param_shapes(spec).items():
        if name == "embed.pos":
            weights[name] = sinusoidal_positions(spec.max_len, spec.H)
        elif name.endswith("norm.gain"):
            weights[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith(".bias"):
            weights[name] = np.zeros(shape, dtype=np.float32)
        else:
            weights[name] = rng.normal(0.0, std, size=shape).astype(np.float32)
    return weights


def _check_compat(ckpt: ck.Checkpoint, spec: ModelSpec) -> None:
    for key, value in spec.to_meta().items():
        if key in ckpt.meta and ckpt.meta[key] != value:
            raise ValueError(f"checkpoint {key}={ckpt.meta[key]} incompatible with spec {key}={value}")


def _copy_tensor(ckpt: ck.Checkpoint, src_name: str, dst_name: str, shape) -> np.ndarray:
    if src_name not in ckpt.tensors:
        raise ValueError(f"checkpoint is missing tensor {src_name!r} (for {dst_name})")
    arr = ckpt.get(src_name)
    if tuple(arr.shape) != tuple(shape):
        raise ValueError(
            f"checkpoint tensor {src_name!r} has shape {tuple(arr.shape)}, "
            f"expected {tuple(shape)} for {dst_name}"
        )
    return arr.copy()


def transfer_encoder(ckpt: ck.Checkpoint, spec: ModelSpec) -> dict[str, np.ndarray]:
    """Copy the embedding block and encoder stack bit-exactly."""
    _check_compat(ckpt, spec)
    shapes = param_shapes(spec)
    return {name: _copy_tensor(ckpt, name, name, shapes[name]) for name in encoder_tensor_names(spec)}


def _decoder_source_name(name: str) -> str:
    stack, layer, block, rest = name.split(".", 3)
    assert stack == "decoder"
    if block == "cross_attn":
        block = "self_attn"
    return f"encoder.{layer}.{block}.{rest}"


def transfer_decoder(ckpt: ck.Checkpoint, spec: ModelSpec) -> dict[str, np.ndarray]:
    """Fill the decoder stack from encoder layers, duplicating each layer's
    self-attention block into the cross-attention slot."""
    _check_compat(ckpt, spec)
    return {name: _copy_tensor(ckpt, _decoder_source_name(name), name, shape)
            for name, shape in param_shapes(spec).items() if name.startswith("decoder.")}


def build_weights(spec: ModelSpec, plan: InitPlan, vocab_hash: str | None = None) -> InitResult:
    """Assemble a full weight set for one ablation cell.

    The shared embedding block comes from the checkpoint whenever either
    stack is pretrained. A checkpoint whose vocabulary hash differs from
    ``vocab_hash`` raises ValueError, since its token table cannot transfer.
    """
    weights = init_random(spec, std=plan.std, seed=plan.seed)
    sources = {name: "random" for name in weights}
    if not plan.needs_checkpoint:
        return InitResult(weights, sources)

    ckpt = ck.load(plan.checkpoint_path)
    ckpt_hash = ckpt.meta.get("vocab_sha1")
    if vocab_hash is not None and ckpt_hash is not None and vocab_hash != ckpt_hash:
        raise ValueError(
            f"checkpoint vocabulary {ckpt_hash} differs from model vocabulary {vocab_hash}; "
            "token embeddings cannot be transferred"
        )

    if plan.encoder_source == "pretrained":
        for name, arr in transfer_encoder(ckpt, spec).items():
            weights[name] = arr
            sources[name] = f"checkpoint:{name}"
    else:
        for name in encoder_tensor_names(spec):
            if name.startswith("embed."):
                weights[name] = _copy_tensor(ckpt, name, name, weights[name].shape)
                sources[name] = f"checkpoint:{name}"

    if plan.decoder_source == "pretrained":
        for name, arr in transfer_decoder(ckpt, spec).items():
            weights[name] = arr
            sources[name] = f"checkpoint:{_decoder_source_name(name)}"

    return InitResult(weights, sources)

