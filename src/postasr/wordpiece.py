"""Subword tokenizer: pair-merge vocabulary construction, greedy
longest-match encoding, lossless decoding for in-alphabet text.

Pieces come in two kinds: word-initial ("the") and continuation ("##e").
Reserved symbols occupy the lowest ids so downstream models can hardcode
them. Construction merges the most frequent adjacent piece pair until the
target size is reached; every character seen in the training corpus stays
in the vocabulary as both piece kinds, so any training word is encodable.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from dataclasses import dataclass, field

from .atomic import atomic_write

DEFAULT_ALPHABET = "abcdefghijklmnopqrstuvwxyz'"
CONT = "##"

PAD, UNK, BOS, EOS = 0, 1, 2, 3
RESERVED = ("<pad>", "<unk>", "<s>", "</s>")


def normalize(text: str, alphabet: str = DEFAULT_ALPHABET) -> str:
    """Lowercase, drop characters outside the alphabet, collapse whitespace."""
    keep = set(alphabet)
    cleaned = "".join(c if c in keep else " " for c in text.lower())
    return " ".join(cleaned.split())


@dataclass(frozen=True)
class Vocab:
    pieces: tuple[str, ...]
    _ids: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if tuple(self.pieces[: len(RESERVED)]) != RESERVED:
            raise ValueError("reserved symbols missing or out of order")
        ids = {p: i for i, p in enumerate(self.pieces)}
        if len(ids) != len(self.pieces):
            raise ValueError("duplicate piece")
        object.__setattr__(self, "_ids", ids)

    def __len__(self) -> int:
        return len(self.pieces)

    def piece_of(self, idx: int) -> str:
        if not 0 <= idx < len(self.pieces):
            raise ValueError(f"piece id {idx} out of range (vocab size {len(self.pieces)})")
        return self.pieces[idx]

    def save(self, path) -> None:
        with atomic_write(path) as f:
            f.write("\n".join(self.pieces) + "\n")

    def content_hash(self) -> str:
        """Identity of the piece list; equal hashes mean identical vocabularies."""
        return hashlib.sha1("\n".join(self.pieces).encode()).hexdigest()

    @staticmethod
    def load(path) -> "Vocab":
        with open(path) as f:
            return Vocab(tuple(f.read().splitlines()))


def build_vocab(corpus, target_size: int, alphabet: str = DEFAULT_ALPHABET) -> Vocab:
    """Build a vocabulary of at most ``target_size`` pieces.

    Words are normalized against ``alphabet``; the characters actually seen
    in the corpus seed the vocabulary (each as initial and continuation
    piece), then the most frequent adjacent piece pair is merged repeatedly
    while room remains. Ties break lexicographically so identical corpora
    always build identical vocabularies.
    """
    corpus = list(corpus)
    if not corpus:
        raise ValueError("build_vocab: empty corpus")
    words = Counter()
    for sentence in corpus:
        words.update(normalize(sentence, alphabet).split())
    chars = sorted({c for w in words for c in w})
    floor = len(RESERVED) + 2 * len(chars)
    if target_size < floor:
        raise ValueError(f"build_vocab: target_size {target_size} below character floor {floor}")

    # Each word is a sequence of pieces; start fully decomposed.
    segmented = {w: tuple([w[0]] + [CONT + ch for ch in w[1:]]) for w in words}

    vocab = list(RESERVED) + chars + [CONT + c for c in chars]
    while len(vocab) < target_size:
        pair_counts = Counter()
        for w, pieces in segmented.items():
            c = words[w]
            for a, b in zip(pieces, pieces[1:]):
                pair_counts[(a, b)] += c
        if not pair_counts:
            break
        (a, b), count = min(pair_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if count < 2:
            break
        merged = a + b[len(CONT):]
        for w, pieces in segmented.items():
            out = []
            i = 0
            while i < len(pieces):
                if i + 1 < len(pieces) and pieces[i] == a and pieces[i + 1] == b:
                    out.append(merged)
                    i += 2
                else:
                    out.append(pieces[i])
                    i += 1
            segmented[w] = tuple(out)
        vocab.append(merged)
    return Vocab(tuple(vocab))


def encode_word(vocab: Vocab, word: str) -> list[int]:
    """Greedy longest-match segmentation of one word.

    Any word that cannot be fully segmented (it contains a character with no
    piece) maps to the single unknown id, never to a partial segmentation.
    """
    ids = []
    pos = 0
    while pos < len(word):
        prefix = "" if pos == 0 else CONT
        end = len(word)
        while end > pos:
            idx = vocab._ids.get(prefix + word[pos:end])
            if idx is not None:
                ids.append(idx)
                break
            end -= 1
        else:
            return [UNK]
        pos = end
    return ids


def encode(vocab: Vocab, text: str) -> list[int]:
    ids = []
    for word in text.lower().split():
        ids.extend(encode_word(vocab, word))
    return ids


def decode(vocab: Vocab, ids) -> str:
    """Ids back to text: continuation pieces glue onto the previous piece,
    words join with single spaces, reserved symbols are dropped."""
    words = []
    for idx in ids:
        piece = vocab.piece_of(idx)
        if piece in RESERVED:
            continue
        if piece.startswith(CONT) and words:
            words[-1] += piece[len(CONT):]
        else:
            words.append(piece[len(CONT):] if piece.startswith(CONT) else piece)
    return " ".join(words)
