import dataclasses

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


def reference_corrupt(cfg, transcript):
    """corrupt() drawing each character from a fresh noise_row through
    Generator.choice, without the config's tables."""
    rng = channel._rng_for(cfg.seed, transcript, channel._SALT_CORRUPT)
    s = cfg.dropout_strength
    p_del, p_ins = min(cfg.del_prob * s, 1.0), min(cfg.ins_prob * s, 1.0)
    letters = cfg.alphabet.replace(" ", "")
    out = []
    for c in transcript:
        if rng.random() >= p_del:
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


def reference_soft_row(cfg, c):
    """The log-probability frame of character c, built from noise_row."""
    chars = channel.lattice_chars(cfg.alphabet)
    row = np.zeros(len(chars))
    for x, p in cfg.noise_row(c, cap=channel._SOFT_CAP).items():
        row[chars.index(x)] = p
    with np.errstate(divide="ignore"):
        return np.log(row)


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


class TestTables:
    @pytest.mark.parametrize("seed", [0, 7, 1234])
    @pytest.mark.parametrize("strength", [0.5, 1.0, 4.0])
    @pytest.mark.parametrize("cutout_rate", [0.0, 0.05])
    def test_table_draws_match_choice_reference(self, seed, strength, cutout_rate):
        cfg = default_config(seed=seed, dropout_strength=strength, cutout_rate=cutout_rate,
                             del_prob=0.02, ins_prob=0.02)
        for text in SENTENCES + distinct_corpus(20, seed=seed):
            assert corrupt(cfg, text) == reference_corrupt(cfg, text)

    def test_lattice_rows_come_from_noise_row(self):
        cfg = default_config(seed=8, dropout_strength=3.0)
        lat = emit_lattice(cfg, SENTENCES[1], corrupt(cfg, SENTENCES[1]))
        rows = {tuple(reference_soft_row(cfg, c)) for c in cfg.alphabet}
        blank = tuple(np.where(np.arange(len(lat.chars)) == 0, 0.0, -np.inf))
        assert {tuple(r) for r in lat.log_probs} <= rows | {blank}

    def test_replaced_config_uses_its_own_tables(self):
        text = " ".join(SENTENCES)
        cfg = default_config(seed=3)
        corrupt(cfg, text)
        emit_lattice(cfg, text, corrupt(cfg, text))
        stronger = dataclasses.replace(cfg, dropout_strength=4.0)
        assert corrupt(stronger, text) == reference_corrupt(stronger, text)
        assert corrupt(stronger, text) != corrupt(cfg, text)
        lat = emit_lattice(stronger, text, corrupt(stronger, text))
        first = reference_corrupt(stronger, text)[0]
        assert np.array_equal(lat.log_probs[0], reference_soft_row(stronger, first))

    def test_tables_leave_equality_and_json_alone(self):
        fresh = default_config(seed=42, dropout_strength=1.5, cutout_rate=0.02)
        used = default_config(seed=42, dropout_strength=1.5, cutout_rate=0.02)
        corrupt(used, SENTENCES[0])
        emit_lattice(used, SENTENCES[0], corrupt(used, SENTENCES[0]))
        assert used == fresh
        assert config_to_json(used) == config_to_json(fresh)
        assert config_from_json(config_to_json(used)) == used
        assert [f.name for f in dataclasses.fields(ChannelConfig)] == [
            "confusion", "del_prob", "ins_prob", "dropout_strength", "cutout_rate",
            "cutout_len", "seed", "alphabet"]


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
            pairs = [(t, ctc_greedy(emit_lattice(cfg, t, corrupt(cfg, t)))) for t in corpus]
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
            assert ctc_greedy(emit_lattice(cfg, t, corrupt(cfg, t))) == t

    def test_rows_normalize(self):
        cfg = default_config(seed=4, dropout_strength=2.0)
        lat = emit_lattice(cfg, SENTENCES[0], corrupt(cfg, SENTENCES[0]))
        sums = np.exp(lat.log_probs).sum(axis=1)
        assert np.abs(sums - 1.0).max() < 1e-5

    def test_deterministic(self):
        cfg = default_config(seed=6)
        a = emit_lattice(cfg, SENTENCES[2], corrupt(cfg, SENTENCES[2]))
        b = emit_lattice(cfg, SENTENCES[2], corrupt(cfg, SENTENCES[2]))
        assert np.array_equal(a.log_probs, b.log_probs)

    def test_repeated_letters_survive(self):
        # Words with double letters need a blank between the two frames.
        cfg = quiet_config(seed=2)
        assert ctc_greedy(emit_lattice(cfg, "ball off", corrupt(cfg, "ball off"))) == "ball off"

    def test_empty_transcript(self):
        lat = emit_lattice(quiet_config(), "", "")
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
