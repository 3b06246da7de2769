import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postasr.ngram import BOS, EOS, fit, load_arpa, save_arpa


def context_prob_sum(model, context):
    return sum(math.exp(model.cond_logprob(w, context)) for w in model.events)


def random_contexts(model, n, seed):
    """Seen and unseen contexts of every length up to order-1."""
    rng = np.random.default_rng(seed)
    words = sorted(model.vocab) + [BOS, "zzz-unseen"]
    out = []
    for _ in range(n):
        length = int(rng.integers(0, model.order))
        out.append(tuple(rng.choice(words) for _ in range(length)))
    return out


class TestFitHandCounts:
    def test_single_sentence_unit_probs(self):
        m = fit(["a b"], order=2, discount=0.0)
        assert m.cond_logprob("a", (BOS,)) == pytest.approx(0.0)
        assert m.cond_logprob("b", ("a",)) == pytest.approx(0.0)
        assert m.cond_logprob(EOS, ("b",)) == pytest.approx(0.0)

    def test_split_context(self):
        # Context "a" is seen three times, once before each of a, b, </s>:
        # the two word continuations split evenly at 1/3 apiece.
        m = fit(["a a", "a b"], order=2, discount=0.0)
        p_a = math.exp(m.cond_logprob("a", ("a",)))
        p_b = math.exp(m.cond_logprob("b", ("a",)))
        assert p_a == pytest.approx(p_b)
        assert p_a == pytest.approx(1 / 3)
        assert math.exp(m.cond_logprob(EOS, ("a",))) == pytest.approx(1 / 3)

    def test_unigram_mle(self):
        m = fit(["a a b"], order=1, discount=0.0)
        # counts: a=2, b=1, </s>=1 over 4 events
        assert math.exp(m.cond_logprob("a")) == pytest.approx(0.5)
        assert math.exp(m.cond_logprob("b")) == pytest.approx(0.25)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            fit([], order=2)

    def test_reserved_symbols_rejected(self):
        with pytest.raises(ValueError):
            fit(["a <unk> b"], order=2)

    def test_bad_discount_rejected(self):
        with pytest.raises(ValueError):
            fit(["a b"], order=2, discount=1.0)


class TestLogprobSentence:
    def test_training_sentence_probability_one(self):
        m = fit(["a b"], order=2, discount=0.0)
        assert m.logprob_sentence("a b") == pytest.approx(0.0)

    def test_unseen_word_impossible_at_mle(self):
        m = fit(["a b"], order=2, discount=0.0)
        assert m.logprob_sentence("a zebra") == -math.inf

    def test_unseen_word_floored_with_discount(self):
        m = fit(["a b"], order=2, discount=0.1)
        assert m.logprob_sentence("a zebra") > -math.inf

    def test_count_asymmetry_ordering(self):
        m = fit(["a b"] * 10, order=2, discount=0.1)
        assert m.logprob_sentence("a b") >= m.logprob_sentence("b a")

    def test_chain_rule_consistency(self):
        m = fit(["the cat sat", "the dog sat", "a cat ran"], order=3, discount=0.1)
        sentence = "the cat ran"
        words = sentence.split() + [EOS]
        history = (BOS, BOS)
        total = 0.0
        for w in words:
            total += m.cond_logprob(w, history)
            history = history[1:] + (w,)
        assert m.logprob_sentence(sentence) == pytest.approx(total)


class TestNormalization:
    @pytest.mark.parametrize("discount", [0.0, 0.1, 0.5])
    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_conditionals_sum_to_one(self, order, discount):
        m = fit(["the cat sat on the mat", "the dog sat", "a cat"], order=order, discount=discount)
        for ctx in random_contexts(m, 100, seed=order * 10 + int(discount * 10)):
            assert context_prob_sum(m, ctx) == pytest.approx(1.0, abs=1e-6)

    def test_probabilities_in_unit_interval(self):
        m = fit(["a b c", "b c a"], order=2, discount=0.2)
        for ctx in random_contexts(m, 50, seed=7):
            for w in m.events:
                p = math.exp(m.cond_logprob(w, ctx))
                assert 0.0 < p <= 1.0


class TestOrderMonotonicity:
    @pytest.mark.parametrize("corpus", [["a b a b"], ["the cat sat"], ["a b", "b a", "a b"]])
    def test_higher_order_fits_training_data_better(self, corpus):
        lls = []
        for order in (1, 2, 3):
            m = fit(corpus, order=order, discount=0.0)
            lls.append(sum(m.logprob_sentence(s) for s in corpus))
        assert lls[0] <= lls[1] + 1e-12 and lls[1] <= lls[2] + 1e-12


class TestArpaRoundTrip:
    def test_scores_identical_after_reload(self, tmp_path):
        corpus = ["the cat sat on the mat", "the dog sat", "a cat ran home"]
        m = fit(corpus, order=3, discount=0.1)
        path = tmp_path / "lm.arpa"
        save_arpa(m, path)
        m2 = load_arpa(path)
        rng = np.random.default_rng(5)
        words = sorted(m.vocab) + ["zebra"]
        for _ in range(1000):
            sent = " ".join(rng.choice(words) for _ in range(rng.integers(1, 6)))
            assert m2.logprob_sentence(sent) == m.logprob_sentence(sent)

    def test_mle_sentinel_round_trip(self, tmp_path):
        m = fit(["a b"], order=2, discount=0.0)
        path = tmp_path / "lm.arpa"
        save_arpa(m, path)
        m2 = load_arpa(path)
        assert m2.logprob_sentence("a zebra") == -math.inf
        assert m2.logprob_sentence("a b") == pytest.approx(0.0)

    def test_file_shape(self, tmp_path):
        m = fit(["a b"], order=2, discount=0.1)
        path = tmp_path / "lm.arpa"
        save_arpa(m, path)
        text = path.read_text()
        assert text.startswith("\\data\\\n")
        assert "\\1-grams:" in text and "\\2-grams:" in text
        assert text.rstrip().endswith("\\end\\")

    def test_normalization_survives_reload(self, tmp_path):
        m = fit(["a b c", "c b a", "a c"], order=3, discount=0.3)
        path = tmp_path / "lm.arpa"
        save_arpa(m, path)
        m2 = load_arpa(path)
        for ctx in random_contexts(m2, 100, seed=11):
            assert context_prob_sum(m2, ctx) == pytest.approx(1.0, abs=1e-6)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_normalization_on_random_corpora(seed):
    rng = np.random.default_rng(seed)
    words = ["a", "b", "c", "d"]
    corpus = [
        " ".join(rng.choice(words) for _ in range(rng.integers(1, 6)))
        for _ in range(rng.integers(1, 5))
    ]
    m = fit(corpus, order=int(rng.integers(1, 4)), discount=float(rng.choice([0.0, 0.1, 0.4])))
    for ctx in random_contexts(m, 5, seed=seed + 1):
        assert context_prob_sum(m, ctx) == pytest.approx(1.0, abs=1e-6)
