import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postasr.wordpiece import RESERVED, UNK, Vocab, build_vocab, decode, encode, normalize


def make_vocab(extra):
    chars = sorted({c for p in extra for c in p.removeprefix("##")})
    base = tuple(RESERVED) + tuple(chars) + tuple("##" + c for c in chars)
    return Vocab(base + tuple(p for p in extra if p not in base))


class TestNormalize:
    def test_lowercase_and_strip(self):
        assert normalize("Hello, World!") == "hello world"

    def test_collapse_whitespace(self):
        assert normalize("a   b\t c") == "a b c"

    def test_keeps_apostrophe(self):
        assert normalize("don't") == "don't"


class TestBuildVocab:
    def test_frequent_pair_merged(self):
        vocab = build_vocab(["ab ab ab"], 16)
        assert "ab" in vocab.pieces

    def test_alphabet_floor(self):
        vocab = build_vocab(["a"], len(RESERVED) + 2)
        assert vocab.pieces == RESERVED + ("a", "##a")

    def test_too_small_target_rejected(self):
        with pytest.raises(ValueError):
            build_vocab(["ab"], len(RESERVED) + 3)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            build_vocab([], 100)

    def test_deterministic_rebuild(self):
        corpus = ["the cat sat", "the dog sat", "a cat ran"]
        v1 = build_vocab(corpus, 50)
        v2 = build_vocab(corpus, 50)
        assert v1.pieces == v2.pieces

    def test_size_bound(self):
        vocab = build_vocab(["the cat sat on the mat"], 24)
        assert len(vocab) <= 24

    def test_reserved_ids_fixed(self):
        vocab = build_vocab(["some words here"], 64)
        assert vocab.pieces[:4] == RESERVED
        assert vocab.pieces.index("<pad>") == 0
        assert vocab.pieces.index("<unk>") == 1


class TestEncode:
    def test_greedy_longest_match(self):
        vocab = make_vocab(["ab", "##b"])
        assert [vocab.piece_of(i) for i in encode(vocab, "abb")] == ["ab", "##b"]

    def test_single_char_word(self):
        vocab = make_vocab(["a"])
        assert [vocab.piece_of(i) for i in encode(vocab, "a")] == ["a"]

    def test_uncoverable_word_is_unknown(self):
        vocab = make_vocab(["ab"])
        assert encode(vocab, "q") == [UNK]

    def test_partial_coverage_whole_word_unknown(self):
        # "aq" starts with a known piece but fails at "q": no partial output.
        vocab = make_vocab(["ab"])
        assert encode(vocab, "aq") == [UNK]

    def test_encoding_depends_only_on_vocab_and_text(self):
        vocab = make_vocab(["abc", "##bc", "##c"])
        assert encode(vocab, "abc abc") == encode(vocab, "abc") * 2


class TestDecode:
    def test_continuation_joins(self):
        vocab = make_vocab(["ab", "##b"])
        assert decode(vocab, [vocab.pieces.index("ab"), vocab.pieces.index("##b")]) == "abb"

    def test_empty(self):
        vocab = make_vocab(["a"])
        assert decode(vocab, []) == ""

    def test_out_of_range_rejected(self):
        vocab = make_vocab(["a"])
        with pytest.raises(ValueError):
            decode(vocab, [len(vocab)])

    def test_reserved_dropped(self):
        vocab = make_vocab(["hi"])
        ids = [2] + encode(vocab, "hi") + [3, 0]
        assert decode(vocab, ids) == "hi"


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=8), min_size=1, max_size=6))
    def test_round_trip_over_alphabet(self, words):
        corpus = [" ".join(words)]
        vocab = build_vocab(corpus, 200)
        text = " ".join(words)
        assert decode(vocab, encode(vocab, text)) == normalize(text)

    def test_round_trip_large_sample(self):
        import random

        rng = random.Random(99)
        corpus = ["the quick brown fox jumps over the lazy dog"]
        vocab = build_vocab(corpus, 80)
        alphabet = sorted({c for w in corpus[0].split() for c in w})
        for _ in range(1000):
            text = " ".join(
                "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7))) for _ in range(rng.randint(1, 5))
            )
            assert decode(vocab, encode(vocab, text)) == normalize(text)


class TestVocabFile:
    def test_save_load_round_trip(self, tmp_path):
        vocab = build_vocab(["hello world", "hello there"], 60)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        assert Vocab.load(path) == vocab
        assert path.read_text().splitlines()[0] == "<pad>"

    def test_line_number_is_id(self, tmp_path):
        vocab = build_vocab(["abc"], 16)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        assert path.read_text().splitlines() == list(vocab.pieces)


class TestCoverage:
    def test_whole_word_pieces_encode_to_one_token(self):
        corpus = ["banana banana banana split"]
        vocab = build_vocab(corpus, 100)
        assert len(encode(vocab, "banana")) == 1

    def test_growing_vocab_never_lengthens_training_sentences(self):
        # Checked along this corpus's own merge chain (fixed inputs).
        corpus = ["she sells sea shells by the sea shore", "the shells she sells are sea shells"]
        sizes = [30, 40, 50, 60, 70]
        vocabs = [build_vocab(corpus, s) for s in sizes]
        for sent in corpus:
            lengths = [len(encode(v, sent)) for v in vocabs]
            assert lengths == sorted(lengths, reverse=True)
