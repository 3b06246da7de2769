"""Parallel-corpus factory: out-of-fold corruption with augmentation rounds.

Every clean sentence is corrupted by the channel assigned to its fold (the
stand-in for an acoustic model trained without that fold). Each sentence
gets one base round, ``n_dropout_rounds`` noisier rounds with distinct
seeds, and one cutout round. Pairs carry their round tag so dataset
variants (base / +dropout / +cutout / +both) can be sliced back out of one
generation run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .atomic import atomic_write
from .channel import ChannelConfig, corrupt
from .evalkit import wer

TAG_BASE = "base"
TAG_CUTOUT = "cutout"

# Seed offsets keeping the per-fold rounds on disjoint streams.
_DROPOUT_SEED_STRIDE = 1009
_CUTOUT_SEED_OFFSET = 491


@dataclass(frozen=True)
class DataGenConfig:
    folds: int = 10
    n_dropout_rounds: int = 3
    dropout_boost: float = 2.0
    cutout_rate: float = 0.03
    wer_max: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not 0 < self.wer_max <= 1:
            raise ValueError("wer_max must be in (0, 1]")
        if self.n_dropout_rounds < 0:
            raise ValueError("n_dropout_rounds must be >= 0")
        if self.dropout_boost < 0:
            raise ValueError("dropout_boost must be >= 0")


@dataclass(frozen=True)
class ParallelPair:
    source: str
    target: str
    wer: float
    fold: int
    tag: str
    seed: int


def kfold_split(corpus, k: int, seed: int) -> list[int]:
    """Fold id per sentence; sizes differ by at most one."""
    n = len(corpus)
    if k > n:
        raise ValueError(f"kfold_split: {k} folds for {n} sentences")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    fold_of = [0] * n
    for pos, idx in enumerate(perm):
        fold_of[idx] = pos % k
    return fold_of


def dropout_tag(round_index: int) -> str:
    return f"dropout:{round_index}"


def _rounds(cfg: DataGenConfig, fold_cfg: ChannelConfig):
    yield TAG_BASE, fold_cfg
    for i in range(cfg.n_dropout_rounds):
        yield dropout_tag(i), replace(
            fold_cfg,
            dropout_strength=fold_cfg.dropout_strength * cfg.dropout_boost,
            seed=fold_cfg.seed + _DROPOUT_SEED_STRIDE * (i + 1),
        )
    yield TAG_CUTOUT, replace(
        fold_cfg,
        cutout_rate=cfg.cutout_rate,
        seed=fold_cfg.seed + _CUTOUT_SEED_OFFSET,
    )


def generate(corpus, cfg: DataGenConfig, fold_channels: list[ChannelConfig]) -> list[ParallelPair]:
    """Corrupt every sentence through its fold's channel, once per round.

    Output is sentence-major with rounds in a fixed order, so regeneration
    with identical inputs is byte-identical.
    """
    corpus = list(corpus)
    if len(fold_channels) != cfg.folds:
        raise ValueError(f"expected {cfg.folds} fold channels, got {len(fold_channels)}")
    fold_of = kfold_split(corpus, cfg.folds, cfg.seed)
    # Built once per fold, so each round's channel tables are built once.
    fold_rounds = [list(_rounds(cfg, ch)) for ch in fold_channels]
    pairs = []
    for idx, sentence in enumerate(corpus):
        fold = fold_of[idx]
        for tag, ch in fold_rounds[fold]:
            try:
                source = corrupt(ch, sentence)
            except ValueError as e:
                raise ValueError(f"sentence {idx}: {e}") from e
            rate = wer(sentence, source).rate
            assert rate is not None
            pairs.append(ParallelPair(source, sentence, rate, fold, tag, ch.seed))
    return pairs


def filter_dedup(pairs, wer_max: float) -> list[ParallelPair]:
    """Drop pairs with WER strictly above the cap, then collapse exact
    (source, target) duplicates keeping the first; order otherwise stable."""
    out = []
    seen = set()
    for p in pairs:
        if p.wer > wer_max:
            continue
        key = (p.source, p.target)
        if key in seen:
            continue
        seen.add(key)
        out.append(p)
    return out


VARIANTS = ("base", "+dropout", "+cutout", "+both")


def variant(pairs, which: str, cfg: DataGenConfig) -> list[ParallelPair]:
    """Slice one generation run into a named dataset variant, then apply the
    WER filter and dedup."""
    if which == "base":
        keep = lambda tag: tag == TAG_BASE
    elif which == "+dropout":
        keep = lambda tag: tag == TAG_BASE or tag.startswith("dropout:")
    elif which == "+cutout":
        keep = lambda tag: tag in (TAG_BASE, TAG_CUTOUT)
    elif which == "+both":
        keep = lambda tag: True
    else:
        raise ValueError(f"unknown variant {which!r} (expected one of {VARIANTS})")
    return filter_dedup([p for p in pairs if keep(p.tag)], cfg.wer_max)


def write_pairs_jsonl(path, pairs) -> None:
    with atomic_write(path) as f:
        for p in pairs:
            f.write(
                json.dumps(
                    {
                        "source": p.source,
                        "target": p.target,
                        "wer": p.wer,
                        "fold": p.fold,
                        "tag": p.tag,
                        "seed": p.seed,
                    }
                )
                + "\n"
            )


def read_pairs_jsonl(path) -> list[ParallelPair]:
    out = []
    with open(path) as f:
        for line in f:
            d = json.loads(line)
            out.append(ParallelPair(d["source"], d["target"], d["wer"], d["fold"], d["tag"], d["seed"]))
    return out
