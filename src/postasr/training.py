"""Training loop: token-budget batching, NovoGrad steps, encoder pretraining.

Batches are built to a padded-token budget after sorting by length, so one
batch wastes little padding; batch order is reshuffled per epoch from the
run seed. The same loop drives corrector training, the 32-pair
memorization check, and masked-token pretraining of the encoder that the
transfer ablation uses as its synthetic checkpoint.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from . import checkpoint as ck
from .model import (
    BOS,
    EOS,
    PAD,
    LossConfig,
    ModelSpec,
    build_encoder_logits,
    build_forward,
    check_weights,
    encoder_tensor_names,
    label_smoothed_loss,
)
from .numkit import Tape
from .optim import OptimizerConfig, init_state, novograd_step, poly_decay
from .wordpiece import UNK, Vocab
from .wordpiece import encode as wp_encode


@dataclass(frozen=True)
class TrainConfig:
    """``steps`` is also the length of the learning-rate schedule."""

    steps: int
    token_budget: int = 2000
    smoothing: float = 0.1
    seed: int = 0
    optim: OptimizerConfig = OptimizerConfig()

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.token_budget < 2:
            raise ValueError("token_budget must be >= 2")


@dataclass(frozen=True)
class EncodedPair:
    """Token ids without sequence markers; markers are added at batch time."""

    src: tuple[int, ...]
    tgt: tuple[int, ...]


def encode_pair(vocab: Vocab, source: str, target: str, max_src: int, max_tgt: int) -> EncodedPair:
    """Tokenize one parallel pair. The source always ends with the end
    marker (keeping empty corrupted strings representable); both sides are
    truncated to their position budgets."""
    src = list(wp_encode(vocab, source))[: max_src - 1] + [EOS]
    tgt = list(wp_encode(vocab, target))[: max_tgt - 1]
    return EncodedPair(tuple(src), tuple(tgt))


def encode_pairs(vocab: Vocab, pairs, spec: ModelSpec) -> list[EncodedPair]:
    return [encode_pair(vocab, p.source, p.target, spec.max_len, spec.max_len) for p in pairs]


def pad_batch(items: list[EncodedPair]):
    """(src, tgt_in, targets) int arrays; decoder rows are BOS-shifted."""
    b = len(items)
    ts = max(len(p.src) for p in items)
    tt = max(len(p.tgt) for p in items) + 1
    src = np.full((b, ts), PAD, dtype=np.int64)
    tgt_in = np.full((b, tt), PAD, dtype=np.int64)
    targets = np.full((b, tt), PAD, dtype=np.int64)
    for i, p in enumerate(items):
        src[i, : len(p.src)] = p.src
        tgt_in[i, 0] = BOS
        tgt_in[i, 1 : len(p.tgt) + 1] = p.tgt
        targets[i, : len(p.tgt)] = p.tgt
        targets[i, len(p.tgt)] = EOS
    return src, tgt_in, targets


def token_budget_batches(encoded: list[EncodedPair], budget: int, rng: np.random.Generator) -> list[list[int]]:
    """Group pair indices so padded source+target tokens stay under budget.

    Pairs are bucketed by length first (cheap padding), then batch order is
    shuffled. A single over-budget pair still forms its own batch.
    """
    order = sorted(range(len(encoded)), key=lambda i: (len(encoded[i].src) + len(encoded[i].tgt), i))
    batches: list[list[int]] = []
    cur: list[int] = []
    max_s = max_t = 0
    for idx in order:
        s, t = len(encoded[idx].src), len(encoded[idx].tgt) + 1
        ns, nt = max(max_s, s), max(max_t, t)
        if cur and (ns + nt) * (len(cur) + 1) > budget:
            batches.append(cur)
            cur, ns, nt = [], s, t
        cur.append(idx)
        max_s, max_t = ns, nt
    if cur:
        batches.append(cur)
    rng.shuffle(batches)
    return batches


def _mix_seed(seed: int, step: int) -> int:
    return int((seed * 2654435761 + step * 40503 + 1) % (2**31 - 1))


@dataclass
class TrainResult:
    weights: dict[str, np.ndarray]
    losses: list[float]
    steps_run: int
    stopped_at: int | None = None


def _pair_loss(spec: ModelSpec, smoothing: float, train: bool):
    """Batch loss of the corrector: smoothed cross-entropy of the decoder."""
    def batch_loss(tape, tensors, items, rng, seed):
        src, tgt_in, targets = pad_batch(items)
        logits = build_forward(tape, spec, tensors, src, tgt_in, train=train, seed=seed)
        return label_smoothed_loss(logits, targets, LossConfig(smoothing=smoothing))
    return batch_loss


# mallopt parameters of glibc's malloc.h, and the values the training loop sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_TRIM_BYTES = 128 << 20
_MMAP_BYTES = 32 << 20  # glibc's largest allowed mmap threshold


def _keep_freed_heap() -> None:
    """Keep the memory a step frees mapped for the next step.

    Each step frees its tape, tens of MB of arrays, at once. glibc's
    default then hands the free top of the heap back to the kernel (it
    trims above twice its largest freed mmap block, a few MB here), and the
    next step faults every page of it back in: up to 145k minor faults
    per 22 steps at the small preset, up to 15% of the time. Fixed
    thresholds keep up to 128 MB free and serve arrays under 32 MB from
    the heap. The setting is process-wide and stays; without glibc's
    ``mallopt`` this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _MMAP_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_BYTES)


def _run_steps(params: dict[str, np.ndarray], encoded: list[EncodedPair], cfg: TrainConfig,
               rng_key: tuple[int, ...], batch_loss, log=None, stop=None) -> TrainResult:
    """NovoGrad over token-budget batches of ``encoded`` for cfg.steps steps.

    ``batch_loss(tape, tensors, items, rng, seed)`` builds one batch's
    scalar loss on ``tape`` over the leaf ``tensors``, or returns None to
    skip the batch; ``rng`` is the epoch's generator, which shuffled the
    batches. ``stop(step, params)`` may end the run after any step.
    """
    _keep_freed_heap()
    state = init_state(params)
    losses: list[float] = []
    step = epoch = 0
    while step < cfg.steps:
        rng = np.random.default_rng([*rng_key, epoch])
        epoch_start = step
        for batch_ids in token_budget_batches(encoded, cfg.token_budget, rng):
            tape = Tape()
            tensors = {n: tape.leaf(a) for n, a in params.items()}
            loss = batch_loss(tape, tensors, [encoded[i] for i in batch_ids], rng,
                              _mix_seed(cfg.seed, step))
            if loss is None:
                continue
            tape.backward(loss)
            grads = {n: tensors[n].grad for n in params}
            params, state = novograd_step(params, grads, state, cfg.optim,
                                          poly_decay(step, cfg.optim, cfg.steps))
            losses.append(float(loss.value))
            step += 1
            if log is not None:
                log(step, losses[-1])
            if stop is not None and stop(step, params):
                return TrainResult(params, losses, step, stopped_at=step)
            if step >= cfg.steps:
                break
        if step == epoch_start:
            raise ValueError("every batch of an epoch was skipped; no step can run")
        epoch += 1
    return TrainResult(params, losses, step)


_EVAL_BATCH = 64  # pairs per evaluate_loss batch


def evaluate_loss(spec: ModelSpec, weights: dict[str, np.ndarray], encoded: list[EncodedPair],
                  smoothing: float = 0.0) -> float:
    """Deterministic eval-mode loss over a fixed pair list (token-weighted)."""
    batch_loss = _pair_loss(spec, smoothing, train=False)
    total, count = 0.0, 0
    for lo in range(0, len(encoded), _EVAL_BATCH):
        chunk = encoded[lo : lo + _EVAL_BATCH]
        tape = Tape()
        loss = batch_loss(tape, {n: tape.constant(a) for n, a in weights.items()}, chunk, None, 0)
        n = sum(len(p.tgt) + 1 for p in chunk)  # target tokens plus the end marker
        total += float(loss.value) * n
        count += n
    return total / max(count, 1)


def train(spec: ModelSpec, weights: dict[str, np.ndarray], encoded: list[EncodedPair],
          cfg: TrainConfig, stop_threshold: float | None = None, check_every: int = 25,
          log=None) -> TrainResult:
    """Run NovoGrad over token-budget batches for cfg.steps optimizer steps.

    When ``stop_threshold`` is set, eval-mode loss over the training pairs
    is measured every ``check_every`` steps and training stops once it
    drops below the threshold; ``stopped_at`` records that step count.
    ``log(step, loss)`` is called after every step.
    """
    if not encoded:
        raise ValueError("no training pairs")
    check_weights(spec, weights)

    def below_threshold(step, params):
        return (step % check_every == 0
                and evaluate_loss(spec, params, encoded, smoothing=cfg.smoothing) < stop_threshold)

    return _run_steps({n: a.copy() for n, a in weights.items()}, encoded, cfg, (cfg.seed,),
                      _pair_loss(spec, cfg.smoothing, train=True), log=log,
                      stop=None if stop_threshold is None else below_threshold)


def mask_tokens(ids: tuple[int, ...], rng: np.random.Generator, rate: float = 0.15):
    """Replace a sampled subset with UNK; targets carry the original ids at
    masked positions and PAD elsewhere (at least one position is masked)."""
    ids_arr = np.asarray(ids, dtype=np.int64)
    maskable = np.flatnonzero((ids_arr != EOS) & (ids_arr != PAD))
    if maskable.size == 0:
        return ids_arr, np.full_like(ids_arr, PAD)
    picked = maskable[rng.random(maskable.size) < rate]
    if picked.size == 0:
        picked = maskable[[int(rng.integers(maskable.size))]]
    corrupted = ids_arr.copy()
    targets = np.full_like(ids_arr, PAD)
    targets[picked] = ids_arr[picked]
    corrupted[picked] = UNK
    return corrupted, targets


def pretrain_encoder(spec: ModelSpec, sentences_ids: list[tuple[int, ...]],
                     cfg: TrainConfig) -> TrainResult:
    """Masked-token pretraining of the embedding block plus encoder stack
    (15% of the tokens masked, see ``mask_tokens``).

    Returns encoder-side weights only, trained to predict masked tokens
    from context; this is the synthetic stand-in for a pretrained encoder.
    Batches with nothing to mask (only end markers) are skipped.
    """
    if not sentences_ids:
        raise ValueError("no pretraining sentences")
    from .initialization import init_random

    full = init_random(spec, seed=cfg.seed)

    def batch_loss(tape, tensors, items, rng, seed):
        width = max(len(p.src) for p in items)
        src = np.full((len(items), width), PAD, dtype=np.int64)
        targets = np.full((len(items), width), PAD, dtype=np.int64)
        for i, p in enumerate(items):
            corrupted, t_row = mask_tokens(p.src, rng)
            src[i, : len(p.src)] = corrupted
            targets[i, : len(p.src)] = t_row
        if not (targets != PAD).any():
            return None
        logits = build_encoder_logits(tape, spec, tensors, src, train=True, seed=seed)
        return label_smoothed_loss(logits, targets, LossConfig(smoothing=cfg.smoothing))

    return _run_steps({n: full[n].copy() for n in encoder_tensor_names(spec)},
                      [EncodedPair(tuple(s), ()) for s in sentences_ids], cfg, (cfg.seed, 7),
                      batch_loss)


def make_pretrained_checkpoint(spec: ModelSpec, vocab: Vocab, sentences,
                               cfg: TrainConfig) -> ck.Checkpoint:
    """Pretrain on raw sentences and package the encoder as a checkpoint."""
    ids = [encode_pair(vocab, s, "", spec.max_len, spec.max_len).src for s in sentences]
    result = pretrain_encoder(spec, ids, cfg)
    meta = spec.to_meta()
    meta["vocab_sha1"] = vocab.content_hash()
    meta["pretrain_steps"] = str(result.steps_run)
    return ck.from_arrays(result.weights, meta=meta)


def save_training_checkpoint(directory, spec: ModelSpec, weights: dict[str, np.ndarray],
                             meta: dict[str, str] | None = None) -> None:
    """Model weights with the spec and ``meta`` recorded in the manifest."""
    ck.save(ck.from_arrays(weights, meta={**spec.to_meta(), **(meta or {})}), directory)


def load_training_checkpoint(directory):
    """Returns (meta, weights, spec); the spec is ``ModelSpec.from_meta(meta)``."""
    ckpt = ck.load(directory)
    return ckpt.meta, ckpt.tensors, ModelSpec.from_meta(ckpt.meta)
