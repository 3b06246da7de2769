"""Reference checks for ``model.correct`` built from ``model.forward`` alone.

Width 1 must return the sequence obtained by feeding back the argmax of the
last position. Every hypothesis a beam returns must carry the log-probability
that a teacher-forced ``forward`` assigns to it.
"""

from __future__ import annotations

import numpy as np

from postasr import model
from postasr.wordpiece import BOS, EOS

SCORE_TOL = 1e-4


def greedy_reference(spec, weights, src, cap: int) -> tuple[int, ...]:
    ids = [BOS]
    while len(ids) < cap:
        tok = int(np.argmax(model.forward(spec, weights, src, ids)[-1]))
        ids.append(tok)
        if tok == EOS:
            return tuple(ids[1:-1])
    return tuple(ids[1:])


def sequence_logprob(spec, weights, src, ids, ended: bool) -> float:
    full = [BOS, *ids, *([EOS] if ended else [])]
    logits = model.forward(spec, weights, src, full[:-1]).astype(np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return float(logp[np.arange(len(full) - 1), full[1:]].sum())


def beam_problems(spec, weights, src, cap: int, hyps) -> list[str]:
    """Mismatches between a beam's hypotheses and teacher-forced scores.

    A hypothesis shorter than the cap allows can only have stopped on the
    end marker, so its score includes that token.
    """
    problems = []
    for h in hyps:
        ended = len(h.ids) < cap - 1
        want = sequence_logprob(spec, weights, src, h.ids, ended)
        if abs(want - h.logprob) > SCORE_TOL:
            problems.append(f"score {h.logprob:.6f} != forward sum {want:.6f} for {h.ids}")
        n_tokens = max(1, len(h.ids) + ended)
        if abs(h.normalized * n_tokens - h.logprob) > SCORE_TOL:
            problems.append(f"normalized score {h.normalized:.6f} does not match {h.ids}")
    return problems


def greedy_problems(spec, weights, src, cap: int, hyps) -> list[str]:
    want = greedy_reference(spec, weights, src, cap)
    problems = [] if hyps[0].ids == want else [f"width-1 ids {hyps[0].ids} != greedy {want}"]
    return problems + beam_problems(spec, weights, src, cap, hyps[:1])
