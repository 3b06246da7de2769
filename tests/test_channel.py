import numpy as np
import pytest

from postasr import channel
from postasr.channel import (
    ChannelConfig,
    calibrate_strength,
    channel_wer,
    config_from_json,
    config_to_json,
    corrupt,
    default_config,
    emit_lattice,
)
from postasr.decoding import ctc_greedy


def quiet_config(**overrides):
    base = dict(confusion={}, del_prob=0.0, ins_prob=0.0, seed=1)
    base.update(overrides)
    return ChannelConfig(**base)


SENTENCES = [
    "the cat sat on the mat",
    "a quick brown fox jumps over the lazy dog",
    "speech is hard to hear in a noisy room",
    "we all said the same thing twice",
]


def distinct_corpus(n, seed=0):
    """Distinct sentences: corruption is a pure function of (seed, text), so
    repeated sentences would corrupt identically and hide rate effects."""
    rng = np.random.default_rng(seed)
    words = "the cat sat mat dog fox room noise speech quick brown lazy same thing hear hard".split()
    return [" ".join(rng.choice(words) for _ in range(rng.integers(4, 9))) for _ in range(n)]


class TestCorrupt:
    def test_zero_noise_identity(self):
        cfg = quiet_config()
        for s in SENTENCES:
            assert corrupt(cfg, s) == s

    def test_forced_substitution(self):
        cfg = quiet_config(confusion={"a": {"x": 1.0}})
        assert corrupt(cfg, "a b a") == "x b x"

    def test_deterministic_per_seed(self):
        cfg = default_config(seed=5, dropout_strength=3.0)
        assert corrupt(cfg, SENTENCES[1]) == corrupt(cfg, SENTENCES[1])

    def test_different_seed_differs(self):
        text = " ".join(SENTENCES)
        a = corrupt(default_config(seed=1, dropout_strength=4.0), text)
        b = corrupt(default_config(seed=2, dropout_strength=4.0), text)
        assert a != b

    def test_out_of_alphabet_rejected(self):
        with pytest.raises(ValueError):
            corrupt(quiet_config(), "hello, world")

    def test_strength_zero_disables_noise(self):
        cfg = default_config(del_prob=0.5, ins_prob=0.5, dropout_strength=0.0, seed=3)
        assert corrupt(cfg, SENTENCES[0]) == SENTENCES[0]

    def test_cutout_deletes_spans(self):
        cfg = quiet_config(cutout_rate=0.2, cutout_len=(2, 4), seed=9)
        text = " ".join(SENTENCES)
        out = corrupt(cfg, text)
        assert len(out) < len(text)


class TestMonotonicity:
    def test_wer_grows_with_strength(self):
        corpus = distinct_corpus(120)
        w1 = channel_wer(default_config(seed=7, dropout_strength=1.0), corpus)
        w2 = channel_wer(default_config(seed=7, dropout_strength=2.0), corpus)
        assert 0 < w1 < w2

    def test_wer_grows_with_cutout_rate(self):
        corpus = distinct_corpus(120)
        w0 = channel_wer(default_config(seed=7), corpus)
        w1 = channel_wer(default_config(seed=7, cutout_rate=0.01), corpus)
        w2 = channel_wer(default_config(seed=7, cutout_rate=0.05), corpus)
        assert w0 < w1 < w2

    def test_greedy_wer_grows_with_strength(self):
        corpus = distinct_corpus(80)
        rates = []
        for s in (1.0, 2.0):
            cfg = default_config(seed=13, dropout_strength=s)
            pairs = [(t, ctc_greedy(emit_lattice(cfg, t))) for t in corpus]
            from postasr.evalkit import wer_corpus

            rates.append(wer_corpus(pairs).rate)
        assert rates[0] <= rates[1]


class TestEmitLattice:
    def test_zero_noise_round_trip(self):
        cfg = quiet_config(seed=21)
        rng = np.random.default_rng(0)
        words = ["all", "base", "cat", "do", "we", "zoo", "mirror"]
        for _ in range(200):
            t = " ".join(rng.choice(words) for _ in range(rng.integers(1, 6)))
            assert ctc_greedy(emit_lattice(cfg, t)) == t

    def test_rows_normalize(self):
        cfg = default_config(seed=4, dropout_strength=2.0)
        lat = emit_lattice(cfg, SENTENCES[0])
        sums = np.exp(lat.log_probs).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-5

    def test_deterministic(self):
        cfg = default_config(seed=6)
        a = emit_lattice(cfg, SENTENCES[2])
        b = emit_lattice(cfg, SENTENCES[2])
        assert np.array_equal(a.log_probs, b.log_probs)

    def test_repeated_letters_survive(self):
        # Words with double letters need a blank between the two frames.
        cfg = quiet_config(seed=2)
        assert ctc_greedy(emit_lattice(cfg, "ball off")) == "ball off"

    def test_empty_transcript(self):
        lat = emit_lattice(quiet_config(), "")
        assert lat.frames() >= 1
        assert ctc_greedy(lat) == ""


class TestConfig:
    def test_json_round_trip(self):
        cfg = default_config(seed=42, dropout_strength=1.5, cutout_rate=0.02)
        assert config_from_json(config_to_json(cfg)) == cfg

    def test_default_table_loads(self):
        table = channel.default_confusion()
        assert "a" in table and all(0 <= p <= 1 for row in table.values() for p in row.values())

    def test_invalid_row_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(confusion={"a": {"b": 0.9, "c": 0.4}})

    def test_non_alphabet_row_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(confusion={"A": {"b": 0.1}})

    def test_bad_cutout_range_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(confusion={}, cutout_len=(3, 2))


class TestCalibration:
    def test_hits_target_band(self):
        corpus = distinct_corpus(100)
        cfg = calibrate_strength(default_config(seed=17), corpus, target=0.15)
        got = channel_wer(cfg, corpus)
        assert 0.12 <= got <= 0.18
