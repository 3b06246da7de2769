import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postasr import ngram
from postasr.decoding import (
    FrameLattice,
    FusionConfig,
    Hypothesis,
    NBestList,
    ctc_greedy,
    fused_beam_search,
    write_nbest_jsonl,
)


def lattice_from_path(path_chars, chars):
    """A lattice whose argmax follows the given per-frame labels."""
    eps = 1e-6
    rows = []
    for c in path_chars:
        row = np.full(len(chars), eps / (len(chars) - 1))
        row[chars.index(c)] = 1.0 - eps
        rows.append(np.log(row))
    return FrameLattice(np.array(rows).reshape(-1, len(chars)), chars)


def random_lattice(rng, frames, chars):
    logits = rng.normal(scale=2.0, size=(frames, len(chars)))
    probs = np.exp(logits)
    probs /= probs.sum(axis=1, keepdims=True)
    return FrameLattice(np.log(probs), chars)


def ctc_forward_logprob(lattice, labels):
    """Full CTC marginal ln P(labels | lattice), summing all alignments.

    Textbook alpha recursion over the blank-interleaved state sequence;
    independent of the beam-search implementation.
    """
    T = lattice.frames()
    ext = [0]
    for c in labels:
        ext.extend([lattice.chars.index(c), 0])
    S = len(ext)
    if T == 0:
        return 0.0 if not labels else -math.inf
    alpha = np.full(S, -math.inf)
    alpha[0] = lattice.log_probs[0][ext[0]]
    if S > 1:
        alpha[1] = lattice.log_probs[0][ext[1]]
    for t in range(1, T):
        prev = alpha
        alpha = np.full(S, -math.inf)
        for s in range(S):
            acc = prev[s]
            if s >= 1:
                acc = np.logaddexp(acc, prev[s - 1])
            if s >= 2 and ext[s] != 0 and ext[s] != ext[s - 2]:
                acc = np.logaddexp(acc, prev[s - 2])
            alpha[s] = acc + lattice.log_probs[t][ext[s]]
    total = alpha[S - 1]
    if S > 1:
        total = np.logaddexp(total, alpha[S - 2])
    return float(total)


def brute_force_best(lattice, lm, lam):
    """Enumerate every label sequence of length <= T and rank by fused score."""
    labels = lattice.chars[1:]
    best = None
    for length in range(lattice.frames() + 1):
        for seq in itertools.product(labels, repeat=length):
            acoustic = ctc_forward_logprob(lattice, "".join(seq))
            if acoustic == -math.inf:
                continue
            text = " ".join("".join(seq).split())
            lm_score = lm.logprob_sentence(text) if lm is not None else 0.0
            fused = acoustic + (lam * lm_score if lam else 0.0)
            key = (-fused, text)
            if best is None or key < best[0]:
                best = (key, text)
    return best[1]


class TestCtcGreedy:
    CHARS = "-ab"

    def test_collapse_with_blanks(self):
        lat = lattice_from_path(["-", "a", "a", "-", "b", "b", "-"], self.CHARS)
        assert ctc_greedy(lat) == "ab"

    def test_blank_separates_repeats(self):
        lat = lattice_from_path(["a", "-", "a"], self.CHARS)
        assert ctc_greedy(lat) == "aa"

    def test_pure_collapse(self):
        lat = lattice_from_path(["a", "a", "a"], self.CHARS)
        assert ctc_greedy(lat) == "a"

    def test_empty_lattice(self):
        lat = FrameLattice(np.zeros((0, 3)), self.CHARS)
        assert ctc_greedy(lat) == ""


class TestLatticeValidation:
    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ValueError):
            FrameLattice(np.zeros((2, 3)), "-ab")

    def test_shape_mismatch_rejected(self):
        row = np.log(np.full(4, 0.25))
        with pytest.raises(ValueError):
            FrameLattice(np.tile(row, (2, 1)), "-ab")


def tiny_lm(corpus=("a b", "b a", "a"), order=2, discount=0.1):
    return ngram.fit(list(corpus), order=order, discount=discount)


class TestFusedBeamSearch:
    CHARS = "- ab"

    def test_lambda_zero_fused_equals_acoustic(self):
        rng = np.random.default_rng(0)
        lat = random_lattice(rng, 4, self.CHARS)
        out = fused_beam_search(lat, tiny_lm(), FusionConfig(lam=0.0, width=8))
        for h in out.hypotheses:
            assert h.fused == pytest.approx(h.acoustic)

    def test_score_decomposition(self):
        rng = np.random.default_rng(1)
        lat = random_lattice(rng, 5, self.CHARS)
        out = fused_beam_search(lat, tiny_lm(), FusionConfig(lam=0.7, width=8))
        for h in out.hypotheses:
            if h.fused != -math.inf:
                assert h.fused == pytest.approx(h.acoustic + 0.7 * h.lm_score, abs=1e-6)

    def test_sorted_descending(self):
        rng = np.random.default_rng(2)
        lat = random_lattice(rng, 5, self.CHARS)
        out = fused_beam_search(lat, tiny_lm(), FusionConfig(lam=0.5, width=8))
        scores = [h.fused for h in out.hypotheses]
        assert scores == sorted(scores, reverse=True)

    def test_monotone_width(self):
        rng = np.random.default_rng(3)
        lat = random_lattice(rng, 5, self.CHARS)
        lm = tiny_lm()
        tops = [
            fused_beam_search(lat, lm, FusionConfig(lam=0.5, width=w)).top().fused
            for w in (1, 2, 4, 8, 16, 64)
        ]
        assert tops == sorted(tops)

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            FusionConfig(lam=0.5, width=0)

    def test_lm_flip_above_threshold(self):
        # Acoustically "ax" wins by a small margin; the LM only knows "ab".
        chars = "-abx"
        t1 = np.log(np.array([0.01, 0.98, 0.005, 0.005]))
        t2 = np.log(np.array([0.01, 0.005, 0.45, 0.535]))
        lat = FrameLattice(np.array([t1, t2]), chars)
        lm = ngram.fit(["ab"] * 5, order=1, discount=0.1)
        low = fused_beam_search(lat, lm, FusionConfig(lam=0.0, width=32))
        assert low.top().text == "ax"
        high = fused_beam_search(lat, lm, FusionConfig(lam=2.0, width=32))
        assert high.top().text == "ab"

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([0.0, 0.5, 2.0]))
    def test_oracle_equivalence(self, seed, lam):
        rng = np.random.default_rng(seed)
        chars = "- ab"[: int(rng.integers(2, 5))]
        frames = int(rng.integers(1, 5))
        lat = random_lattice(rng, frames, chars)
        lm = tiny_lm()
        got = fused_beam_search(lat, lm, FusionConfig(lam=lam, width=256)).top().text
        assert got == brute_force_best(lat, lm, lam)

    def test_empty_lattice_yields_empty_text(self):
        lat = FrameLattice(np.zeros((0, 4)), "- ab")
        out = fused_beam_search(lat, tiny_lm(), FusionConfig(lam=0.5, width=4))
        assert out.top().text == ""
        assert out.top().acoustic == 0.0


class TestRescore:
    def test_ngram_rescore_matches_fusion_ranking(self):
        # Ranking acoustic-only beams by acoustic + LM score must order
        # hypotheses exactly like lambda=1 fusion over the same candidates.
        rng = np.random.default_rng(11)
        lat = random_lattice(rng, 5, "- ab")
        lm = tiny_lm()
        plain = fused_beam_search(lat, lm, FusionConfig(lam=0.0, width=64))
        rescored = sorted(plain.hypotheses,
                          key=lambda h: (-(h.acoustic + lm.logprob_sentence(h.text)), h.text))
        fused = fused_beam_search(lat, lm, FusionConfig(lam=1.0, width=64))
        texts = {h.text for h in rescored} & {h.text for h in fused.hypotheses}
        a = [h.text for h in rescored if h.text in texts]
        b = [h.text for h in fused.hypotheses if h.text in texts]
        assert a == b


class TestNbestFile:
    def test_writes_scores_per_hypothesis(self, tmp_path):
        nb = NBestList(
            (
                Hypothesis("a b", -1.0, -2.0, -2.0),
                Hypothesis("", 0.0, -math.inf, -math.inf),
            )
        )
        path = tmp_path / "nbest.jsonl"
        write_nbest_jsonl(path, [nb, nb])
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert json.loads(line) == {"nbest": [
                {"text": "a b", "acoustic": -1.0, "lm": -2.0, "fused": -2.0},
                {"text": "", "acoustic": 0.0, "lm": "impossible", "fused": "impossible"},
            ]}
