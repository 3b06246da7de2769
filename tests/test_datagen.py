"""Corpus factory tests: fold protocol, rounds, filtering, file format."""

import collections

import pytest

from postasr.channel import corrupt, default_config
from postasr.datagen import (
    DataGenConfig,
    ParallelPair,
    TAG_BASE,
    TAG_CUTOUT,
    dropout_tag,
    filter_dedup,
    generate,
    kfold_split,
    read_pairs_jsonl,
    variant,
    write_pairs_jsonl,
)
from postasr.evalkit import wer

WORDS = [
    "the", "cat", "sat", "on", "a", "mat", "dogs", "bark", "all", "night",
    "green", "tea", "is", "warm", "rain", "falls", "here", "often", "we", "walk",
]


def make_corpus(n, seed=0):
    import numpy as np

    rng = np.random.default_rng(seed)
    out = []
    seen = set()
    while len(out) < n:
        k = int(rng.integers(3, 8))
        s = " ".join(rng.choice(WORDS) for _ in range(k))
        if s not in seen:
            seen.add(s)
            out.append(s)
    return out


def make_channels(n_folds, strength=1.0, seed=100):
    return [default_config(dropout_strength=strength, seed=seed + f) for f in range(n_folds)]


class TestKfold:
    def test_partition(self):
        corpus = make_corpus(23)
        fold_of = kfold_split(corpus, 5, seed=3)
        assert len(fold_of) == len(corpus)
        assert set(fold_of) == set(range(5))

    def test_balanced(self):
        fold_of = kfold_split(make_corpus(23), 5, seed=3)
        sizes = collections.Counter(fold_of).values()
        assert max(sizes) - min(sizes) <= 1

    def test_deterministic(self):
        corpus = make_corpus(40)
        assert kfold_split(corpus, 7, seed=9) == kfold_split(corpus, 7, seed=9)

    def test_seed_changes_assignment(self):
        corpus = make_corpus(40)
        assert kfold_split(corpus, 7, seed=1) != kfold_split(corpus, 7, seed=2)

    def test_too_many_folds(self):
        with pytest.raises(ValueError):
            kfold_split(make_corpus(4), 5, seed=0)


class TestGenerate:
    def test_round_count_and_tags(self):
        corpus = make_corpus(20)
        cfg = DataGenConfig(folds=4, n_dropout_rounds=3, seed=1)
        pairs = generate(corpus, cfg, make_channels(4))
        assert len(pairs) == len(corpus) * 5
        tags = {p.tag for p in pairs}
        assert tags == {TAG_BASE, dropout_tag(0), dropout_tag(1), dropout_tag(2), TAG_CUTOUT}

    def test_wer_field_is_recomputable(self):
        cfg = DataGenConfig(folds=3, n_dropout_rounds=1, seed=2)
        pairs = generate(make_corpus(15), cfg, make_channels(3))
        for p in pairs:
            assert p.wer == wer(p.target, p.source).rate

    def test_base_round_matches_fold_channel(self):
        corpus = make_corpus(12)
        cfg = DataGenConfig(folds=3, n_dropout_rounds=2, seed=5)
        channels = make_channels(3)
        fold_of = kfold_split(corpus, 3, seed=5)
        pairs = generate(corpus, cfg, channels)
        base = [p for p in pairs if p.tag == TAG_BASE]
        for idx, p in enumerate(base):
            assert p.target == corpus[idx]
            assert p.fold == fold_of[idx]
            assert p.source == corrupt(channels[p.fold], p.target)

    def test_dropout_rounds_use_distinct_seeds(self):
        cfg = DataGenConfig(folds=2, n_dropout_rounds=3, seed=0)
        pairs = generate(make_corpus(6), cfg, make_channels(2))
        by_tag = collections.defaultdict(set)
        for p in pairs:
            by_tag[p.tag].add((p.fold, p.seed))
        seeds_per_fold = collections.defaultdict(set)
        for tag, fold_seeds in by_tag.items():
            for fold, seed in fold_seeds:
                assert seed not in seeds_per_fold[fold], tag
                seeds_per_fold[fold].add(seed)

    def test_channel_count_must_match_folds(self):
        cfg = DataGenConfig(folds=4, seed=0)
        with pytest.raises(ValueError, match="fold channels"):
            generate(make_corpus(8), cfg, make_channels(3))

    def test_regeneration_is_byte_identical(self, tmp_path):
        corpus = make_corpus(25)
        cfg = DataGenConfig(folds=5, n_dropout_rounds=2, seed=7)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_pairs_jsonl(a, generate(corpus, cfg, make_channels(5)))
        write_pairs_jsonl(b, generate(corpus, cfg, make_channels(5)))
        assert a.read_bytes() == b.read_bytes()


def pair(source, target, tag=TAG_BASE, fold=0, seed=0):
    rate = wer(target, source).rate
    return ParallelPair(source, target, rate, fold, tag, seed)


class TestFilterDedup:
    def test_strictly_greater_boundary(self):
        at_cap = pair("a x", "a b")
        assert at_cap.wer == 0.5
        above = pair("x x x d e", "a b c d e")
        assert above.wer == 0.6
        kept = filter_dedup([at_cap, above], wer_max=0.5)
        assert kept == [at_cap]

    def test_dedup_keeps_first(self):
        p1 = pair("a x", "a b", fold=0)
        p2 = pair("a x", "a b", fold=1, seed=9)
        p3 = pair("a y", "a b", fold=1)
        kept = filter_dedup([p1, p2, p3], wer_max=1.0)
        assert kept == [p1, p3]

    def test_order_stable(self):
        ps = [pair(f"w{i} x", f"w{i} y", seed=i) for i in range(10)]
        assert filter_dedup(ps, wer_max=1.0) == ps


@pytest.fixture(scope="module")
def run():
    corpus = make_corpus(60, seed=4)
    cfg = DataGenConfig(folds=5, n_dropout_rounds=2, cutout_rate=0.05, seed=11)
    return cfg, generate(corpus, cfg, make_channels(5, seed=40))


class TestVariants:
    def test_variant_sizes_grow(self, run):
        cfg, pairs = run
        base = variant(pairs, "base", cfg)
        plus_cut = variant(pairs, "+cutout", cfg)
        plus_drop = variant(pairs, "+dropout", cfg)
        both = variant(pairs, "+both", cfg)
        assert len(base) < len(plus_cut)
        assert len(base) < len(plus_drop)
        assert len(both) >= max(len(plus_cut), len(plus_drop))

    def test_both_is_union(self, run):
        cfg, pairs = run
        key = lambda ps: {(p.source, p.target) for p in ps}
        union = key(variant(pairs, "+dropout", cfg)) | key(variant(pairs, "+cutout", cfg))
        assert key(variant(pairs, "+both", cfg)) == union

    def test_unknown_variant(self, run):
        cfg, pairs = run
        with pytest.raises(ValueError, match="unknown variant"):
            variant(pairs, "+everything", cfg)


class TestPairFile:
    def test_round_trip(self, tmp_path):
        cfg = DataGenConfig(folds=3, n_dropout_rounds=1, seed=3)
        pairs = generate(make_corpus(10), cfg, make_channels(3))
        path = tmp_path / "pairs.jsonl"
        write_pairs_jsonl(path, pairs)
        assert read_pairs_jsonl(path) == pairs

    def test_one_record_per_line(self, tmp_path):
        pairs = [pair("a x", "a b"), pair("c", "c")]
        path = tmp_path / "pairs.jsonl"
        write_pairs_jsonl(path, pairs)
        lines = path.read_text().splitlines()
        assert len(lines) == 2


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DataGenConfig(folds=1)
        with pytest.raises(ValueError):
            DataGenConfig(wer_max=0.0)
        with pytest.raises(ValueError):
            DataGenConfig(n_dropout_rounds=-1)
