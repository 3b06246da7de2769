"""Synthetic clean-text corpus from a small slot grammar.

Sentences are assembled from fixed word banks (well under two hundred
distinct words, lowercase letters and apostrophes only) so the whole
end-to-end pipeline can run at desk scale with a channel and corrector
that actually have something learnable to chew on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .atomic import atomic_write

DETERMINERS = ("the", "a", "my", "her", "his", "our", "this", "that")
NOUNS = (
    "cat", "dog", "bird", "boat", "train", "garden", "house", "river",
    "market", "teacher", "doctor", "farmer", "child", "story", "letter",
    "song", "road", "bridge", "window", "door", "kitchen", "winter",
    "morning", "evening", "driver", "painter", "basket", "candle",
)
VERBS = (
    "sees", "finds", "takes", "keeps", "makes", "opens", "closes",
    "paints", "cleans", "carries", "watches", "follows", "visits",
    "remembers", "forgets", "likes", "needs", "wants", "holds", "moves",
)
ADJECTIVES = (
    "small", "old", "new", "quiet", "bright", "heavy", "light", "warm",
    "cold", "green", "blue", "red", "tired", "happy", "busy", "empty",
    "full", "clean", "dark", "soft",
)
ADVERBS = ("slowly", "quickly", "often", "rarely", "today", "tonight",
           "again", "alone", "together", "outside")
PREPOSITIONS = ("near", "behind", "under", "over", "beside", "around")
PRONOUNS = ("she", "he", "it")

_PATTERNS = (
    ("D", "N", "V", "D", "N"),
    ("D", "A", "N", "V", "D", "N"),
    ("D", "N", "V", "D", "A", "N"),
    ("P", "V", "D", "N", "R"),
    ("D", "N", "V", "R"),
    ("P", "V", "D", "A", "N"),
    ("D", "A", "N", "V", "E", "D", "N"),
    ("D", "N", "V", "D", "N", "E", "D", "N"),
    ("P", "R", "V", "D", "N"),
    ("D", "A", "N", "V", "D", "A", "N"),
)

_SLOTS = {
    "D": DETERMINERS,
    "N": NOUNS,
    "V": VERBS,
    "A": ADJECTIVES,
    "R": ADVERBS,
    "E": PREPOSITIONS,
    "P": PRONOUNS,
}


@dataclass(frozen=True)
class CorpusConfig:
    n_sentences: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.n_sentences < 1:
            raise ValueError("n_sentences must be >= 1")


def generate_corpus(cfg: CorpusConfig) -> list[str]:
    """Deterministic list of distinct sentences, one per line of corpus files."""
    rng = np.random.default_rng(cfg.seed)
    seen = set()
    out: list[str] = []
    attempts = 0
    limit = cfg.n_sentences * 200
    while len(out) < cfg.n_sentences:
        attempts += 1
        if attempts > limit:
            raise ValueError(
                f"could not assemble {cfg.n_sentences} distinct sentences; grammar too small"
            )
        pattern = _PATTERNS[int(rng.integers(len(_PATTERNS)))]
        words = [ _SLOTS[slot][int(rng.integers(len(_SLOTS[slot])))] for slot in pattern ]
        sentence = " ".join(words)
        if sentence not in seen:
            seen.add(sentence)
            out.append(sentence)
    return out


def save_corpus(path, sentences) -> None:
    with atomic_write(path) as f:
        f.write("\n".join(sentences) + "\n")


def load_corpus(path) -> list[str]:
    with open(path) as f:
        return [line for line in f.read().splitlines() if line]


def eval_count(n_sentences: int, eval_fraction: float) -> int:
    """Sentences that ``train_eval_split`` holds out: at least one."""
    return max(1, int(round(n_sentences * eval_fraction)))


def train_eval_split(sentences, eval_fraction: float, seed: int):
    """Seeded shuffle split; evaluation sentences never enter datagen."""
    if not 0.0 < eval_fraction < 1.0:
        raise ValueError("eval_fraction must be in (0, 1)")
    n_eval = eval_count(len(sentences), eval_fraction)
    if n_eval >= len(sentences):
        raise ValueError("eval_fraction leaves no training sentences")
    order = np.random.default_rng([seed, 99]).permutation(len(sentences))
    eval_idx = set(int(i) for i in order[:n_eval])
    train = [s for i, s in enumerate(sentences) if i not in eval_idx]
    held = [s for i, s in enumerate(sentences) if i in eval_idx]
    return train, held
