"""CTC decoding over frame lattices: greedy collapse and prefix beam search
with word-level language model fusion.

The beam search tracks label prefixes with separate log-masses for "ends in
blank" and "ends in non-blank", so each prefix's acoustic score is the CTC
marginal over all alignments the beam kept. With a beam at least as wide as
the number of reachable prefixes the marginals are exact. The language
model weighs in twice: completed words steer pruning while the search runs,
and the final ranking scores every surviving hypothesis again from scratch as

    fused = acoustic + lambda * lm(text)

so the reported decomposition is exact by construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

NEG_INF = -math.inf


@dataclass(frozen=True)
class FrameLattice:
    """T x C per-frame label log-probabilities; chars[0] is the blank."""

    log_probs: np.ndarray
    chars: str

    def __post_init__(self):
        lp = np.asarray(self.log_probs, dtype=np.float64)
        object.__setattr__(self, "log_probs", lp)
        if lp.ndim != 2 or lp.shape[1] != len(self.chars):
            raise ValueError(f"lattice shape {lp.shape} does not match {len(self.chars)} chars")
        if len(set(self.chars)) != len(self.chars):
            raise ValueError("duplicate characters in inventory")
        if lp.shape[0]:
            sums = np.exp(lp).sum(axis=1)
            if np.abs(sums - 1.0).max() > 1e-5:
                raise ValueError("lattice rows do not normalize")

    @property
    def blank(self) -> str:
        return self.chars[0]

    def frames(self) -> int:
        return self.log_probs.shape[0]


@dataclass(frozen=True)
class FusionConfig:
    lam: float = 0.5
    width: int = 16

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("beam width must be >= 1")
        if self.lam < 0:
            raise ValueError("lm weight must be >= 0")


@dataclass(frozen=True)
class Hypothesis:
    text: str
    acoustic: float
    lm_score: float
    fused: float


@dataclass(frozen=True)
class NBestList:
    hypotheses: tuple[Hypothesis, ...]

    def top(self) -> Hypothesis:
        return self.hypotheses[0]


def ctc_greedy(lattice: FrameLattice) -> str:
    """Best label per frame, consecutive duplicates collapsed, blanks removed."""
    if lattice.frames() == 0:
        return ""
    path = np.argmax(lattice.log_probs, axis=1)
    out = []
    prev = -1
    for idx in path:
        if idx != prev and idx != 0:
            out.append(lattice.chars[idx])
        prev = idx
    return "".join(out)


def _logaddexp(a: float, b: float) -> float:
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    m = a if a > b else b
    return m + math.log(math.exp(a - m) + math.exp(b - m))


class _LmState:
    """Incremental word-level LM scoring of a growing prefix (pruning only)."""

    __slots__ = ("history", "total")

    def __init__(self, history, total):
        self.history = history
        self.total = total

    def advance(self, word, lm):
        if lm is None:
            return self
        lp = lm.cond_logprob(word, self.history)
        history = (self.history[1:] + (word,)) if lm.order > 1 else ()
        return _LmState(history, self.total + lp)


def fused_beam_search(lattice: FrameLattice, lm, cfg: FusionConfig) -> NBestList:
    """Up to cfg.width word sequences ranked by acoustic + lam * LM score.

    ``lm`` scores whole sentences via ``logprob_sentence`` and single words
    via ``cond_logprob``; pass None to search on acoustic score alone.
    """
    space = " "
    bos_history = (("<s>",) * (lm.order - 1)) if lm is not None and lm.order > 1 else ()
    empty_state = _LmState(bos_history, 0.0)

    # prefix -> [ends-in-blank logprob, ends-in-nonblank logprob, lm state]
    beam = {"": [0.0, NEG_INF, empty_state]}
    for t in range(lattice.frames()):
        frame = lattice.log_probs[t]
        nxt: dict[str, list] = {}

        def slot(prefix, state):
            entry = nxt.get(prefix)
            if entry is None:
                entry = [NEG_INF, NEG_INF, state]
                nxt[prefix] = entry
            return entry

        for prefix, (p_b, p_nb, state) in beam.items():
            total = _logaddexp(p_b, p_nb)
            last = prefix[-1] if prefix else None
            for c_idx, c in enumerate(lattice.chars):
                lp = float(frame[c_idx])
                if c_idx == 0:
                    e = slot(prefix, state)
                    e[0] = _logaddexp(e[0], total + lp)
                elif c == last:
                    # Same symbol: repeat collapses unless a blank intervened.
                    e = slot(prefix, state)
                    e[1] = _logaddexp(e[1], p_nb + lp)
                    grown = prefix + c
                    e2 = slot(grown, state)
                    e2[1] = _logaddexp(e2[1], p_b + lp)
                else:
                    grown = prefix + c
                    new_state = state
                    if c == space:
                        word = prefix[prefix.rfind(space) + 1:]
                        if word:
                            new_state = state.advance(word, lm)
                    e = slot(grown, new_state)
                    e[1] = _logaddexp(e[1], total + lp)

        def prune_key(item):
            prefix, (p_b, p_nb, state) = item
            lm_term = cfg.lam * state.total if cfg.lam else 0.0
            return (-(_logaddexp(p_b, p_nb) + lm_term), prefix)

        beam = dict(sorted(nxt.items(), key=prune_key)[: cfg.width])

    hyps = []
    for prefix, (p_b, p_nb, _) in beam.items():
        text = " ".join(prefix.split())
        acoustic = _logaddexp(p_b, p_nb)
        lm_score = lm.logprob_sentence(text) if lm is not None else 0.0
        lm_term = cfg.lam * lm_score if cfg.lam else 0.0
        fused = acoustic + lm_term
        hyps.append(Hypothesis(text, acoustic, lm_score, fused))
    # Distinct prefixes can normalize to the same text; keep the best of each.
    best: dict[str, Hypothesis] = {}
    for h in sorted(hyps, key=lambda h: (-h.fused, -h.acoustic)):
        best.setdefault(h.text, h)
    ranked = sorted(best.values(), key=lambda h: (-h.fused, h.text))
    return NBestList(tuple(ranked[: cfg.width]))


def _score_json(x: float):
    return "impossible" if x == NEG_INF else x


def write_nbest_jsonl(path, utterances: list[NBestList]) -> None:
    """One utterance per line: {"nbest": [hypothesis objects]}."""
    with open(path, "w") as f:
        for nb in utterances:
            row = {
                "nbest": [
                    {
                        "text": h.text,
                        "acoustic": _score_json(h.acoustic),
                        "lm": _score_json(h.lm_score),
                        "fused": _score_json(h.fused),
                    }
                    for h in nb.hypotheses
                ]
            }
            f.write(json.dumps(row) + "\n")
