"""Corpus generator tests: vocabulary bound, determinism, splits."""

import pytest

from postasr import corpus
from postasr.channel import ALPHABET
from postasr.corpus import (
    CorpusConfig,
    generate_corpus,
    load_corpus,
    save_corpus,
    train_eval_split,
)

# Every word the grammar can emit.
BANK = set().union(*corpus._SLOTS.values())


class TestBank:
    def test_under_two_hundred_words(self):
        assert 50 <= len(BANK) <= 200

    def test_channel_alphabet_compatible(self):
        allowed = set(ALPHABET)
        for word in BANK:
            assert set(word) <= allowed, word


class TestGenerate:
    def test_count_and_distinct(self):
        corpus = generate_corpus(CorpusConfig(n_sentences=500, seed=1))
        assert len(corpus) == 500
        assert len(set(corpus)) == 500

    def test_deterministic(self):
        a = generate_corpus(CorpusConfig(n_sentences=100, seed=2))
        b = generate_corpus(CorpusConfig(n_sentences=100, seed=2))
        c = generate_corpus(CorpusConfig(n_sentences=100, seed=3))
        assert a == b
        assert a != c

    def test_words_come_from_bank(self):
        for sentence in generate_corpus(CorpusConfig(n_sentences=200, seed=4)):
            assert set(sentence.split()) <= BANK

    def test_sentence_lengths(self):
        for sentence in generate_corpus(CorpusConfig(n_sentences=200, seed=5)):
            assert 4 <= len(sentence.split()) <= 8

    def test_two_thousand_feasible(self):
        corpus = generate_corpus(CorpusConfig(n_sentences=2000, seed=0))
        assert len(set(corpus)) == 2000

    def test_validation(self):
        with pytest.raises(ValueError):
            CorpusConfig(n_sentences=0)


class TestFiles:
    def test_round_trip(self, tmp_path):
        corpus = generate_corpus(CorpusConfig(n_sentences=30, seed=6))
        path = tmp_path / "corpus.txt"
        save_corpus(path, corpus)
        assert load_corpus(path) == corpus

    def test_byte_identical_saves(self, tmp_path):
        corpus = generate_corpus(CorpusConfig(n_sentences=30, seed=7))
        save_corpus(tmp_path / "a.txt", corpus)
        save_corpus(tmp_path / "b.txt", corpus)
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()


class TestSplit:
    def test_partition(self):
        corpus = generate_corpus(CorpusConfig(n_sentences=100, seed=8))
        train, held = train_eval_split(corpus, 0.1, seed=0)
        assert len(held) == 10
        assert len(train) == 90
        assert set(train) | set(held) == set(corpus)
        assert not set(train) & set(held)

    def test_deterministic(self):
        corpus = generate_corpus(CorpusConfig(n_sentences=50, seed=9))
        assert train_eval_split(corpus, 0.2, seed=1) == train_eval_split(corpus, 0.2, seed=1)

    def test_validation(self):
        corpus = ["a b", "c d", "e f"]
        with pytest.raises(ValueError):
            train_eval_split(corpus, 0.0, seed=0)
        with pytest.raises(ValueError):
            train_eval_split(["a"], 0.5, seed=0)
