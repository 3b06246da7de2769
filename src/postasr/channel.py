"""Simulated acoustic channel: turns clean transcripts into corrupted
greedy-style transcripts and synthetic frame lattices.

The channel plays the role of a trained speech recognizer's output layer.
Noise comes from three per-character knobs (a substitution confusion table
whose rows carry the non-self mass, a deletion probability, an insertion
probability), all multiplied by ``dropout_strength``, plus span cutouts that
delete contiguous character runs. Every draw is seeded by (config seed,
transcript), so corruption is a pure function of its inputs.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

from .decoding import FrameLattice
from .evalkit import wer_corpus

ALPHABET = " abcdefghijklmnopqrstuvwxyz'"
BLANK = "-"

# Fixed rendering constants for emit_lattice (not noise: they cancel under
# CTC collapse, so the zero-noise round trip holds regardless).
_DUP_PROB = 0.3
_GAP_BLANK_PROB = 0.25
_SOFT_CAP = 0.45

_SALT_CORRUPT = 11
_SALT_LATTICE = 23


def _rng_for(seed: int, transcript: str, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(transcript.encode()), salt])


@dataclass(frozen=True)
class ChannelConfig:
    confusion: dict[str, dict[str, float]]
    del_prob: float = 0.004
    ins_prob: float = 0.003
    dropout_strength: float = 1.0
    cutout_rate: float = 0.0
    cutout_len: tuple[int, int] = (2, 5)
    seed: int = 0
    alphabet: str = ALPHABET

    def __post_init__(self):
        if not 0 <= self.del_prob <= 1 or not 0 <= self.ins_prob <= 1:
            raise ValueError("deletion/insertion probabilities must be in [0, 1]")
        if self.dropout_strength < 0:
            raise ValueError("dropout_strength must be >= 0")
        if not 0 <= self.cutout_rate <= 1:
            raise ValueError("cutout_rate must be in [0, 1]")
        if self.cutout_len[0] < 1 or self.cutout_len[1] < self.cutout_len[0]:
            raise ValueError("cutout_len must be an increasing range from >= 1")
        for c, row in self.confusion.items():
            if c not in self.alphabet:
                raise ValueError(f"confusion row for non-alphabet character {c!r}")
            if any(p < 0 for p in row.values()) or sum(row.values()) > 1:
                raise ValueError(f"confusion row for {c!r} is not a sub-distribution")

    def noise_row(self, c: str, cap: float = 1.0) -> dict[str, float]:
        """Scaled substitution distribution for c, self-mass included.

        ``cap`` bounds the total non-self mass; corrupt() allows the full
        unit interval while lattice rendering caps lower so the argmax stays
        on c.
        """
        row = self.confusion.get(c, {})
        scaled = {x: p * self.dropout_strength for x, p in row.items() if x != c}
        spill = sum(scaled.values())
        if spill > cap:
            scaled = {x: p * cap / spill for x, p in scaled.items()}
            spill = cap
        scaled[c] = 1.0 - spill
        return scaled


def load_confusion_tsv(path) -> dict[str, dict[str, float]]:
    table: dict[str, dict[str, float]] = {}
    with open(path) as f:
        for n, line in enumerate(f, 1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 3 or len(parts[0]) != 1 or len(parts[1]) != 1:
                raise ValueError(f"confusion TSV line {n}: expected 'char<TAB>char<TAB>prob'")
            table.setdefault(parts[0], {})[parts[1]] = float(parts[2])
    return table


def default_confusion() -> dict[str, dict[str, float]]:
    path = resources.files("postasr.data").joinpath("confusion_default.tsv")
    with resources.as_file(path) as p:
        return load_confusion_tsv(p)


def default_config(**overrides) -> ChannelConfig:
    return ChannelConfig(confusion=default_confusion(), **overrides)


def config_to_json(cfg: ChannelConfig) -> str:
    doc = {
        "confusion": cfg.confusion,
        "del_prob": cfg.del_prob,
        "ins_prob": cfg.ins_prob,
        "dropout_strength": cfg.dropout_strength,
        "cutout_rate": cfg.cutout_rate,
        "cutout_len": list(cfg.cutout_len),
        "seed": cfg.seed,
        "alphabet": cfg.alphabet,
    }
    return json.dumps(doc, indent=2, sort_keys=True)


def config_from_json(text: str) -> ChannelConfig:
    doc = json.loads(text)
    doc["cutout_len"] = tuple(doc["cutout_len"])
    return ChannelConfig(**doc)


def corrupt(cfg: ChannelConfig, transcript: str) -> str:
    """Noisy greedy-transcript analog of the clean input."""
    bad = set(transcript) - set(cfg.alphabet)
    if bad:
        raise ValueError(f"characters outside channel alphabet: {sorted(bad)!r}")
    rng = _rng_for(cfg.seed, transcript, _SALT_CORRUPT)
    s = cfg.dropout_strength
    p_del = min(cfg.del_prob * s, 1.0)
    p_ins = min(cfg.ins_prob * s, 1.0)
    letters = cfg.alphabet.replace(" ", "")

    out = []
    for c in transcript:
        if rng.random() < p_del:
            pass
        else:
            row = cfg.noise_row(c)
            targets = sorted(row)
            probs = np.array([row[x] for x in targets])
            out.append(targets[rng.choice(len(targets), p=probs / probs.sum())])
        if rng.random() < p_ins:
            out.append(letters[rng.integers(len(letters))])

    text = "".join(out)
    if cfg.cutout_rate > 0 and text:
        starts = rng.random(len(text)) < cfg.cutout_rate
        lo, hi = cfg.cutout_len
        keep = np.ones(len(text), dtype=bool)
        for i in np.flatnonzero(starts):
            keep[i: i + int(rng.integers(lo, hi + 1))] = False
        text = "".join(ch for ch, k in zip(text, keep) if k)
    return " ".join(text.split())


def lattice_chars(alphabet: str = ALPHABET) -> str:
    return BLANK + alphabet


def emit_lattice(cfg: ChannelConfig, transcript: str) -> FrameLattice:
    """Render the corrupted transcript as per-frame label distributions.

    Each output character spans one or two frames carrying its scaled
    confusion row as soft mass; blank frames separate characters at random
    and always between equal neighbors, so greedy collapse recovers the
    corrupted text exactly whenever no confusable outweighs the character.
    """
    corrupted = corrupt(cfg, transcript)
    rng = _rng_for(cfg.seed, transcript, _SALT_LATTICE)
    chars = lattice_chars(cfg.alphabet)
    index = {c: i for i, c in enumerate(chars)}

    blank_row = np.zeros(len(chars))
    blank_row[0] = 1.0
    rows = []
    prev = None
    for c in corrupted:
        if prev is not None and (c == prev or rng.random() < _GAP_BLANK_PROB):
            rows.append(blank_row)
        soft = cfg.noise_row(c, cap=_SOFT_CAP)
        row = np.zeros(len(chars))
        for x, p in soft.items():
            row[index[x]] = p
        for _ in range(1 + (rng.random() < _DUP_PROB)):
            rows.append(row)
        prev = c
    if not rows:
        rows.append(blank_row)
    with np.errstate(divide="ignore"):
        log_probs = np.log(np.array(rows))
    return FrameLattice(log_probs, chars)


def channel_wer(cfg: ChannelConfig, corpus) -> float:
    """Corpus WER of the channel's corrupted output against the clean text."""
    pairs = [(sentence, corrupt(cfg, sentence)) for sentence in corpus]
    rate = wer_corpus(pairs).rate
    assert rate is not None
    return rate


def calibrate_strength(cfg: ChannelConfig, corpus, target: float) -> ChannelConfig:
    """Bisect dropout_strength over [0.1, 8.0] in 24 steps until the corpus
    WER of corrupt() meets the target (in expectation over the fixed seeds;
    WER is monotone in strength only on average, so the result is
    approximate but deterministic). The dropout_strength of ``cfg`` is not
    read."""
    corpus = list(corpus)
    lo, hi = 0.1, 8.0
    for _ in range(24):
        mid = (lo + hi) / 2
        got = channel_wer(replace(cfg, dropout_strength=mid), corpus)
        if got < target:
            lo = mid
        else:
            hi = mid
    return replace(cfg, dropout_strength=(lo + hi) / 2)
