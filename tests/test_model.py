"""Corrector model tests: shapes, masks, loss identities, decoding."""

import math

import numpy as np
import pytest

from conftest import finite_difference_check
from postasr.model import (
    BOS,
    EOS,
    PAD,
    LossConfig,
    ModelSpec,
    build_forward,
    check_weights,
    correct,
    encoder_tensor_names,
    forward,
    label_smoothed_loss,
    param_shapes,
    sinusoidal_positions,
)
from postasr.numkit import Tape

SPEC = ModelSpec(L=1, H=8, A=2, P_drop=0.0, V=16, max_len=12)


def random_weights(spec, seed=0, std=0.05):
    rng = np.random.default_rng(seed)
    w = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith("norm.gain"):
            w[name] = np.ones(shape, dtype=np.float32)
        elif name.endswith(".bias"):
            w[name] = np.zeros(shape, dtype=np.float32)
        else:
            w[name] = rng.normal(0.0, std, size=shape).astype(np.float32)
    return w


WEIGHTS = random_weights(SPEC)


class TestSpec:
    def test_head_split(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelSpec(L=1, H=10, A=4, P_drop=0.0, V=8, max_len=8)

    def test_dropout_range(self):
        with pytest.raises(ValueError, match="P_drop"):
            ModelSpec(L=1, H=8, A=2, P_drop=1.0, V=8, max_len=8)

    def test_positive_fields(self):
        with pytest.raises(ValueError):
            ModelSpec(L=0, H=8, A=2, P_drop=0.0, V=8, max_len=8)

    def test_head_dim(self):
        assert SPEC.head_dim == 4

    def test_meta_round_trip_drops_dropout(self):
        spec = ModelSpec(L=2, H=8, A=2, P_drop=0.3, V=16, max_len=12, ffn_mult=2)
        meta = spec.to_meta()
        assert all(isinstance(v, str) for v in meta.values())
        assert meta["norm"] == "post"
        assert ModelSpec.from_meta(meta) == ModelSpec(L=2, H=8, A=2, P_drop=0.0, V=16,
                                                      max_len=12, ffn_mult=2)


class TestManifest:
    def test_core_names_present(self):
        spec = ModelSpec(L=2, H=8, A=2, P_drop=0.0, V=16, max_len=12)
        shapes = param_shapes(spec)
        for name in (
            "embed.token",
            "embed.pos",
            "embed.norm.gain",
            "encoder.0.self_attn.q.weight",
            "encoder.1.ffn.out.bias",
            "decoder.0.self_attn.k.bias",
            "decoder.1.cross_attn.out.weight",
            "decoder.1.cross_attn.norm.gain",
            "decoder.1.ffn.norm.bias",
        ):
            assert name in shapes
        assert shapes["embed.token"] == (16, 8)
        assert shapes["encoder.0.ffn.in.weight"] == (8, 32)
        assert shapes["decoder.1.cross_attn.q.weight"] == (8, 8)

    def test_encoder_has_no_cross_attention(self):
        assert not any("cross_attn" in n for n in encoder_tensor_names(SPEC))
        assert "embed.token" in encoder_tensor_names(SPEC)

    def test_check_weights(self):
        w = dict(WEIGHTS)
        del w["embed.pos"]
        with pytest.raises(ValueError, match="embed.pos"):
            check_weights(SPEC, w)
        w = dict(WEIGHTS)
        w["embed.pos"] = np.zeros((3, 3), dtype=np.float32)
        with pytest.raises(ValueError, match="shape"):
            check_weights(SPEC, w)
        w = dict(WEIGHTS)
        w["stray"] = np.zeros(1, dtype=np.float32)
        with pytest.raises(ValueError, match="unexpected"):
            check_weights(SPEC, w)


class TestSinusoid:
    def test_first_row_alternates(self):
        table = sinusoidal_positions(4, 6)
        assert table.shape == (4, 6)
        np.testing.assert_allclose(table[0], [0, 1, 0, 1, 0, 1], atol=1e-7)

    def test_bounded(self):
        table = sinusoidal_positions(50, 16)
        assert np.all(np.abs(table) <= 1.0 + 1e-6)

    def test_known_entry(self):
        table = sinusoidal_positions(3, 4)
        assert table[1, 0] == pytest.approx(math.sin(1.0), abs=1e-6)
        assert table[1, 1] == pytest.approx(math.cos(1.0), abs=1e-6)
        assert table[1, 2] == pytest.approx(math.sin(1.0 / 100.0), abs=1e-6)


class TestForward:
    def test_logit_shape(self):
        logits = forward(SPEC, WEIGHTS, [4, 5, 6, 7, 8], [BOS, 4, 5])
        assert logits.shape == (3, SPEC.V)

    def test_causality(self):
        src = [4, 5, 6, 7, 8]
        a = forward(SPEC, WEIGHTS, src, [BOS, 4, 5])
        b = forward(SPEC, WEIGHTS, src, [BOS, 4, 9])
        np.testing.assert_array_equal(a[:2], b[:2])
        assert not np.array_equal(a[2], b[2])

    def test_eval_deterministic(self):
        a = forward(SPEC, WEIGHTS, [4, 5, 6], [BOS, 4])
        b = forward(SPEC, WEIGHTS, [4, 5, 6], [BOS, 4])
        assert a.tobytes() == b.tobytes()

    def test_src_padding_invariance(self):
        tgt = [BOS, 4, 5, 6]
        plain = forward(SPEC, WEIGHTS, [4, 5, 6], tgt)
        padded = forward(SPEC, WEIGHTS, [4, 5, 6, PAD, PAD, PAD], tgt)
        np.testing.assert_allclose(plain, padded, atol=1e-5)

    def test_dropout_spec_padding_invariance(self):
        spec = ModelSpec(L=1, H=8, A=2, P_drop=0.3, V=16, max_len=12)
        w = random_weights(spec)
        plain = forward(spec, w, [4, 5, 6], [BOS, 4])
        padded = forward(spec, w, [4, 5, 6, PAD, PAD], [BOS, 4])
        np.testing.assert_allclose(plain, padded, atol=1e-5)

    def test_train_mode_seeded(self):
        spec = ModelSpec(L=1, H=8, A=2, P_drop=0.3, V=16, max_len=12)
        w = random_weights(spec)
        a = forward(spec, w, [4, 5, 6], [BOS, 4], mode="train", seed=7)
        b = forward(spec, w, [4, 5, 6], [BOS, 4], mode="train", seed=7)
        c = forward(spec, w, [4, 5, 6], [BOS, 4], mode="train", seed=8)
        assert a.tobytes() == b.tobytes()
        assert a.tobytes() != c.tobytes()

    def test_train_mode_without_dropout_matches_eval(self):
        a = forward(SPEC, WEIGHTS, [4, 5, 6], [BOS, 4], mode="train", seed=3)
        b = forward(SPEC, WEIGHTS, [4, 5, 6], [BOS, 4])
        assert a.tobytes() == b.tobytes()

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="max_len"):
            forward(SPEC, WEIGHTS, list(range(4, 4 + 13)), [BOS])
        with pytest.raises(ValueError, match="out of range"):
            forward(SPEC, WEIGHTS, [4, 99], [BOS])
        with pytest.raises(ValueError, match="empty"):
            forward(SPEC, WEIGHTS, [4], [])
        with pytest.raises(ValueError, match="mode"):
            forward(SPEC, WEIGHTS, [4], [BOS], mode="predict")


class TestLoss:
    def test_uniform_logits_give_log_v(self):
        for eps in (0.0, 0.1, 0.5):
            logits = np.zeros((3, 7))
            loss = label_smoothed_loss(logits, [1, 2, 3], LossConfig(smoothing=eps))
            assert loss == pytest.approx(math.log(7), rel=1e-9)

    def test_perfect_prediction_no_smoothing(self):
        logits = np.full((2, 4), -1e9)
        logits[0, 2] = 0.0
        logits[1, 1] = 0.0
        loss = label_smoothed_loss(logits, [2, 1], LossConfig(smoothing=0.0))
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_uniform_v4(self):
        loss = label_smoothed_loss(np.zeros((1, 4)), [2], LossConfig(smoothing=0.1))
        assert loss == pytest.approx(1.3863, abs=5e-5)

    def test_pad_positions_ignored(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 8))
        base = label_smoothed_loss(logits[:2], [4, 5])
        noisy = logits.copy()
        padded = label_smoothed_loss(noisy, [4, 5, PAD, PAD])
        assert padded == pytest.approx(base, rel=1e-12)

    def test_all_pad_error(self):
        with pytest.raises(ValueError, match="padding"):
            label_smoothed_loss(np.zeros((2, 4)), [PAD, PAD])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            label_smoothed_loss(np.zeros((2, 4)), [1, 2, 3])

    def test_tensor_path_matches_array_path(self, rng):
        logits_val = rng.normal(size=(2, 3, 9)).astype(np.float32)
        targets = np.array([[4, 5, PAD], [6, 7, 8]])
        tape = Tape()
        t_loss = label_smoothed_loss(tape.constant(logits_val), targets)
        a_loss = label_smoothed_loss(logits_val, targets)
        assert float(t_loss.value) == pytest.approx(a_loss, rel=1e-6)

    def test_batched_equals_mean_of_rows(self, rng):
        logits = rng.normal(size=(2, 2, 5))
        targets = np.array([[1, 2], [3, 4]])
        whole = label_smoothed_loss(logits, targets)
        rows = [label_smoothed_loss(logits[i], targets[i]) for i in range(2)]
        assert whole == pytest.approx(np.mean(rows), rel=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(20):
            logits = rng.normal(size=(3, 6))
            targets = rng.integers(1, 6, size=3)
            assert label_smoothed_loss(logits, targets) >= 0.0


class TestGradientFlow:
    def test_finite_difference_through_model(self):
        spec = ModelSpec(L=1, H=8, A=2, P_drop=0.0, V=16, max_len=8)
        names = list(param_shapes(spec))
        weights = random_weights(spec, seed=3)
        src = np.array([[4, 5, 6, PAD]])
        tgt = np.array([[BOS, 7, 8]])
        targets = np.array([[7, 8, EOS]])

        def build(tape, leaves):
            tensors = dict(zip(names, leaves))
            logits = build_forward(tape, spec, tensors, src, tgt, train=False, seed=0)
            return label_smoothed_loss(logits, targets)

        finite_difference_check(build, [weights[n] for n in names], h=1e-4, max_entries=4, seed=11)

    def test_train_mode_backward_runs(self):
        spec = ModelSpec(L=1, H=8, A=2, P_drop=0.2, V=16, max_len=8)
        weights = random_weights(spec, seed=4)
        tape = Tape()
        tensors = {n: tape.leaf(a) for n, a in weights.items()}
        logits = build_forward(tape, spec, tensors, np.array([[4, 5]]), np.array([[BOS, 6]]),
                               train=True, seed=5)
        loss = label_smoothed_loss(logits, np.array([[6, EOS]]))
        tape.backward(loss)
        grad = tensors["embed.token"].grad
        assert grad is not None and np.all(np.isfinite(grad))


def forcing_weights(spec, token):
    """All-zero weights except the rank-one path that pins every output
    logit to favor ``token``."""
    v = np.ones(spec.H, dtype=np.float32)
    w = {n: np.zeros(s, dtype=np.float32) for n, s in param_shapes(spec).items()}
    for name in w:
        if name.endswith("norm.bias"):
            w[name] = v.copy()
    w["embed.token"][token] = v
    return w


class TestCorrect:
    def test_width_validation(self):
        with pytest.raises(ValueError, match="width"):
            correct(SPEC, WEIGHTS, [4, 5], width=0)

    def test_forced_token_repeats_to_cap(self):
        spec = ModelSpec(L=1, H=8, A=2, P_drop=0.0, V=16, max_len=10)
        w = forcing_weights(spec, token=9)
        out = correct(spec, w, [4, 5], width=1, max_out=6)
        assert len(out) == 1
        assert out[0].ids == (9, 9, 9, 9, 9)

    def test_forced_eos_stops_immediately(self):
        spec = ModelSpec(L=1, H=8, A=2, P_drop=0.0, V=16, max_len=10)
        w = forcing_weights(spec, token=EOS)
        out = correct(spec, w, [4, 5], width=2, max_out=6)
        assert out[0].ids == ()
        assert out[0].logprob == pytest.approx(out[0].normalized)

    def test_beam_width_one_is_greedy(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            w = random_weights(SPEC, seed=trial, std=0.4)
            src = rng.integers(4, SPEC.V, size=rng.integers(2, 6)).tolist()
            greedy = correct(SPEC, w, src, width=1, max_out=6)[0]
            ids = [BOS]
            logprob = 0.0
            while len(ids) < 6:
                row = forward(SPEC, w, src, ids)[-1].astype(np.float64)
                logp = row - row.max()
                logp = logp - np.log(np.exp(logp).sum())
                tok = int(np.argmax(logp))
                logprob += logp[tok]
                ids.append(tok)
                if tok == EOS:
                    break
            content = tuple(ids[1:-1] if ids[-1] == EOS else ids[1:])
            assert greedy.ids == content
            assert greedy.logprob == pytest.approx(logprob, abs=1e-6)

    def test_beam_top1_at_least_greedy(self):
        rng = np.random.default_rng(5)
        for trial in range(15):
            w = random_weights(SPEC, seed=100 + trial, std=0.4)
            src = rng.integers(4, SPEC.V, size=4).tolist()
            g = correct(SPEC, w, src, width=1, max_out=6)[0]
            b = correct(SPEC, w, src, width=4, max_out=6)[0]
            assert b.normalized >= g.normalized - 1e-9

    def test_beam_returns_sorted_distinct(self):
        w = random_weights(SPEC, seed=9, std=0.4)
        out = correct(SPEC, w, [4, 5, 6], width=4, max_out=6)
        assert len(out) == 4
        scores = [h.normalized for h in out]
        assert scores == sorted(scores, reverse=True)
        assert len({h.ids for h in out}) == 4
