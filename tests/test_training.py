"""Training-loop tests: batching, determinism, loss descent, pretraining."""

import numpy as np
import pytest

from postasr import checkpoint as ck
from postasr.initialization import InitPlan, build_weights, init_random, transfer_encoder
from postasr.model import BOS, EOS, PAD, ModelSpec
from postasr.training import (
    EncodedPair,
    TrainConfig,
    encode_pair,
    encode_pairs,
    evaluate_loss,
    load_training_checkpoint,
    make_pretrained_checkpoint,
    mask_tokens,
    pad_batch,
    pretrain_encoder,
    save_training_checkpoint,
    token_budget_batches,
    train,
)
from postasr.wordpiece import UNK, build_vocab

SPEC = ModelSpec(L=1, H=32, A=2, P_drop=0.0, V=24, max_len=12)


def toy_pairs(n=8, seed=0, v=24, lo=4):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        tgt = tuple(int(x) for x in rng.integers(lo, v, size=rng.integers(2, 5)))
        src = tuple(int(x) for x in rng.integers(lo, v, size=len(tgt)))
        out.append(EncodedPair(src + (EOS,), tgt))
    return out


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(steps=10, token_budget=1)

    def test_optimizer_mapping(self):
        cfg = TrainConfig(steps=77, lr0=0.01, beta2=0.5)
        ocfg = cfg.optimizer()
        assert ocfg.total_steps == 77
        assert ocfg.lr0 == 0.01
        assert ocfg.beta2 == 0.5


class TestEncoding:
    @pytest.fixture()
    def vocab(self):
        return build_vocab(["the cat sat", "the dog sat", "a cat ran"], target_size=40)

    def test_source_ends_with_eos(self, vocab):
        pair = encode_pair(vocab, "the cat", "the dog", 12, 12)
        assert pair.src[-1] == EOS
        assert EOS not in pair.tgt

    def test_empty_source_is_just_eos(self, vocab):
        pair = encode_pair(vocab, "", "the cat", 12, 12)
        assert pair.src == (EOS,)

    def test_truncation(self, vocab):
        long = " ".join(["cat"] * 30)
        pair = encode_pair(vocab, long, long, 6, 6)
        assert len(pair.src) <= 6
        assert len(pair.tgt) <= 5

    def test_encode_pairs_uses_spec_budget(self, vocab):
        class P:
            source = "the cat"
            target = "the dog"

        encoded = encode_pairs(vocab, [P(), P()], SPEC)
        assert len(encoded) == 2
        assert all(len(e.src) <= SPEC.max_len for e in encoded)


class TestPadBatch:
    def test_layout(self):
        items = [EncodedPair((5, 6, EOS), (7,)), EncodedPair((8, EOS), (9, 10, 11))]
        src, tgt_in, targets = pad_batch(items)
        assert src.shape == (2, 3)
        assert tgt_in.shape == targets.shape == (2, 4)
        np.testing.assert_array_equal(src[1], [8, EOS, PAD])
        np.testing.assert_array_equal(tgt_in[0], [BOS, 7, PAD, PAD])
        np.testing.assert_array_equal(targets[0], [7, EOS, PAD, PAD])
        np.testing.assert_array_equal(tgt_in[1], [BOS, 9, 10, 11])
        np.testing.assert_array_equal(targets[1], [9, 10, 11, EOS])


class TestBatching:
    def test_partition_and_budget(self):
        encoded = toy_pairs(40, seed=1)
        rng = np.random.default_rng(0)
        batches = token_budget_batches(encoded, budget=60, rng=rng)
        seen = sorted(i for b in batches for i in b)
        assert seen == list(range(40))
        for b in batches:
            ts = max(len(encoded[i].src) for i in b)
            tt = max(len(encoded[i].tgt) for i in b) + 1
            if len(b) > 1:
                assert (ts + tt) * len(b) <= 60

    def test_overlong_pair_is_singleton(self):
        encoded = [EncodedPair(tuple(range(4, 20)), tuple(range(4, 20)))]
        batches = token_budget_batches(encoded, budget=8, rng=np.random.default_rng(0))
        assert batches == [[0]]

    def test_deterministic_per_seed(self):
        encoded = toy_pairs(30, seed=2)
        a = token_budget_batches(encoded, 50, np.random.default_rng(5))
        b = token_budget_batches(encoded, 50, np.random.default_rng(5))
        c = token_budget_batches(encoded, 50, np.random.default_rng(6))
        assert a == b
        assert a != c


class TestTrain:
    def test_loss_descends_and_is_deterministic(self):
        encoded = toy_pairs(8, seed=3)
        weights = init_random(SPEC, seed=1)
        cfg = TrainConfig(steps=400, token_budget=256, smoothing=0.0, seed=9)
        before = evaluate_loss(SPEC, weights, encoded)
        r1 = train(SPEC, weights, encoded, cfg)
        r2 = train(SPEC, weights, encoded, cfg)
        after = evaluate_loss(SPEC, r1.weights, encoded)
        assert after < 0.5 * before
        assert r1.steps_run == 400
        for name in r1.weights:
            assert r1.weights[name].tobytes() == r2.weights[name].tobytes()

    def test_inputs_not_mutated(self):
        encoded = toy_pairs(4, seed=4)
        weights = init_random(SPEC, seed=2)
        frozen = {n: a.tobytes() for n, a in weights.items()}
        train(SPEC, weights, encoded, TrainConfig(steps=5, token_budget=256))
        assert {n: a.tobytes() for n, a in weights.items()} == frozen

    def test_stop_threshold(self):
        encoded = toy_pairs(4, seed=5)
        weights = init_random(SPEC, seed=3)
        cfg = TrainConfig(steps=400, token_budget=256, smoothing=0.0, seed=1)
        result = train(SPEC, weights, encoded, cfg, stop_threshold=0.5, check_every=10)
        assert result.stopped_at is not None
        assert result.stopped_at % 10 == 0
        assert evaluate_loss(SPEC, result.weights, encoded) < 0.5

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError, match="pairs"):
            train(SPEC, init_random(SPEC), [], TrainConfig(steps=1))

    def test_log_called_once_per_step(self):
        calls = []
        result = train(SPEC, init_random(SPEC, seed=6), toy_pairs(8, seed=7),
                       TrainConfig(steps=7, token_budget=40, seed=2),
                       log=lambda step, loss: calls.append((step, loss)))
        assert calls == list(enumerate(result.losses, start=1))
        assert len(calls) == result.steps_run == 7


class TestMasking:
    def test_mask_properties(self):
        rng = np.random.default_rng(0)
        ids = (5, 6, 7, 8, 9, EOS)
        for _ in range(50):
            corrupted, targets = mask_tokens(ids, rng, rate=0.3)
            masked = np.flatnonzero(targets != PAD)
            assert masked.size >= 1
            assert corrupted[-1] == EOS
            np.testing.assert_array_equal(corrupted[masked], UNK)
            np.testing.assert_array_equal(targets[masked], np.asarray(ids)[masked])
            untouched = np.flatnonzero(targets == PAD)
            np.testing.assert_array_equal(corrupted[untouched], np.asarray(ids)[untouched])


class TestPretrain:
    def make_sentences(self, n=30, seed=0):
        rng = np.random.default_rng(seed)
        return [tuple(int(x) for x in rng.integers(4, 24, size=rng.integers(3, 8))) + (EOS,)
                for _ in range(n)]

    def test_encoder_only_names_and_descent(self):
        cfg = TrainConfig(steps=60, token_budget=256, smoothing=0.0, seed=2)
        result = pretrain_encoder(SPEC, self.make_sentences(), cfg)
        assert all(n.startswith(("embed.", "encoder.")) for n in result.weights)
        head = float(np.mean(result.losses[:10]))
        tail = float(np.mean(result.losses[-10:]))
        assert tail < head

    def test_unmaskable_batches_are_skipped(self):
        # Length-sorted batching groups the end-marker-only rows into batches
        # with no masked target; those must not count as steps.
        sentences = [(EOS,)] * 12 + self.make_sentences(n=4, seed=1)
        cfg = TrainConfig(steps=9, token_budget=8, seed=4)
        result = pretrain_encoder(SPEC, sentences, cfg)
        assert result.steps_run == len(result.losses) == cfg.steps
        assert all(np.isfinite(result.losses))

    def test_nothing_to_mask_rejected(self):
        with pytest.raises(ValueError, match="skipped"):
            pretrain_encoder(SPEC, [(EOS,)] * 5, TrainConfig(steps=3, token_budget=8))

    def test_checkpoint_is_transfer_compatible(self, tmp_path):
        corpus = ["the cat sat on the mat", "a dog ran off", "the cat ran home"] * 5
        vocab = build_vocab(corpus, target_size=48)
        spec = ModelSpec(L=1, H=16, A=2, P_drop=0.0, V=len(vocab.pieces), max_len=12)
        cfg = TrainConfig(steps=20, token_budget=256, seed=3)
        ckpt = make_pretrained_checkpoint(spec, vocab, corpus, cfg)
        assert ckpt.meta["vocab_sha1"] == vocab.content_hash()
        enc = transfer_encoder(ckpt, spec)
        assert enc["embed.token"].tobytes() == ckpt.get("embed.token").tobytes()
        path = tmp_path / "pre"
        ck.save(ckpt, path)
        plan = InitPlan(encoder_source="pretrained", decoder_source="pretrained",
                        checkpoint_path=str(path))
        res = build_weights(spec, plan, vocab_hash=vocab.content_hash())
        assert res.sources["decoder.0.cross_attn.q.weight"].startswith("checkpoint:")


class TestCheckpointIO:
    def test_round_trip(self, tmp_path):
        encoded = toy_pairs(4, seed=6)
        weights = init_random(SPEC, seed=4)
        result = train(SPEC, weights, encoded, TrainConfig(steps=3, token_budget=256))
        save_training_checkpoint(tmp_path / "t", SPEC, result.weights, meta={"stage": "test"})
        meta, back_w, spec = load_training_checkpoint(tmp_path / "t")
        assert meta["stage"] == "test"
        assert meta["H"] == str(SPEC.H)
        assert spec == SPEC
        assert set(back_w) == set(result.weights)
        for n in back_w:
            assert back_w[n].tobytes() == result.weights[n].tobytes()

    def test_weights_only(self, tmp_path):
        weights = init_random(SPEC, seed=5)
        save_training_checkpoint(tmp_path / "w", SPEC, weights)
        meta, back_w, _ = load_training_checkpoint(tmp_path / "w")
        assert meta == SPEC.to_meta()
        assert set(back_w) == set(weights)
