"""Initialization tests: random scheme statistics, transfer exactness,
cross-attention duplication, and the four-cell plan matrix."""

import numpy as np
import pytest

from conftest import make_random_checkpoint
from postasr import checkpoint as ck
from postasr.initialization import (
    InitPlan,
    build_weights,
    init_random,
    transfer_decoder,
    transfer_encoder,
)
from postasr.model import ModelSpec, check_weights, sinusoidal_positions

SPEC = ModelSpec(L=2, H=16, A=4, P_drop=0.1, V=32, max_len=10)
BIG = ModelSpec(L=1, H=64, A=4, P_drop=0.0, V=400, max_len=16)


class TestInitRandom:
    def test_complete_and_shaped(self):
        w = init_random(SPEC, seed=0)
        check_weights(SPEC, w)

    def test_weight_statistics(self):
        w = init_random(BIG, std=0.02, seed=1)
        for name in ("embed.token", "encoder.0.self_attn.q.weight", "decoder.0.ffn.in.weight"):
            t = w[name]
            assert t.size >= 4096
            assert abs(float(t.mean())) < 0.005
            assert 0.015 < float(t.std()) < 0.025

    def test_norm_gains_exactly_one(self):
        w = init_random(SPEC, seed=2)
        for name, arr in w.items():
            if name.endswith("norm.gain"):
                assert np.all(arr == 1.0)
            if name.endswith(".bias"):
                assert np.all(arr == 0.0)

    def test_deterministic(self):
        a = init_random(SPEC, seed=3)
        b = init_random(SPEC, seed=3)
        c = init_random(SPEC, seed=4)
        assert all(a[n].tobytes() == b[n].tobytes() for n in a)
        assert any(a[n].tobytes() != c[n].tobytes() for n in a)

    def test_positions_are_sinusoidal(self):
        w = init_random(SPEC, seed=5)
        assert w["embed.pos"].tobytes() == sinusoidal_positions(SPEC.max_len, SPEC.H).tobytes()

    def test_std_validation(self):
        with pytest.raises(ValueError):
            init_random(SPEC, std=0.0)


@pytest.fixture()
def ckpt_dir(tmp_path):
    ckpt = make_random_checkpoint(SPEC, seed=7, vocab_hash="abc123")
    path = tmp_path / "pre"
    ck.save(ckpt, path)
    return ckpt, path


class TestTransferEncoder:
    def test_bit_exact_copy(self, ckpt_dir):
        ckpt, _ = ckpt_dir
        enc = transfer_encoder(ckpt, SPEC)
        for name, arr in enc.items():
            assert arr.tobytes() == ckpt.get(name).tobytes()
        assert "embed.token" in enc
        assert not any(n.startswith("decoder.") for n in enc)

    def test_shape_mismatch_names_tensor(self, ckpt_dir):
        ckpt, _ = ckpt_dir
        small = ModelSpec(L=2, H=8, A=4, P_drop=0.1, V=32, max_len=10)
        meta_free = ck.Checkpoint(meta={}, tensors=dict(ckpt.tensors))
        with pytest.raises(ValueError, match="embed.token"):
            transfer_encoder(meta_free, small)

    def test_dim_metadata_checked(self, ckpt_dir):
        ckpt, _ = ckpt_dir
        other = ModelSpec(L=2, H=16, A=2, P_drop=0.1, V=32, max_len=10)
        with pytest.raises(ValueError, match="A="):
            transfer_encoder(ckpt, other)
        pre_norm = ck.Checkpoint(meta={**ckpt.meta, "norm": "pre"}, tensors=dict(ckpt.tensors))
        with pytest.raises(ValueError, match="norm="):
            transfer_encoder(pre_norm, SPEC)

    def test_missing_tensor(self, ckpt_dir):
        ckpt, _ = ckpt_dir
        partial = ck.Checkpoint(meta=dict(ckpt.meta), tensors=dict(ckpt.tensors))
        del partial.tensors["encoder.1.ffn.in.weight"]
        with pytest.raises(ValueError, match="encoder.1.ffn.in.weight"):
            transfer_encoder(partial, SPEC)

    def test_round_trip_through_store(self, ckpt_dir, tmp_path):
        ckpt, _ = ckpt_dir
        enc = transfer_encoder(ckpt, SPEC)
        out = ck.from_arrays(enc)
        ck.save(out, tmp_path / "enc")
        back = ck.load(tmp_path / "enc")
        for name, arr in enc.items():
            assert back.get(name).tobytes() == arr.tobytes()

    def test_checkpoint_not_mutated(self, ckpt_dir):
        ckpt, _ = ckpt_dir
        before = {n: a.tobytes() for n, a in ckpt.tensors.items()}
        enc = transfer_encoder(ckpt, SPEC)
        enc["embed.token"][:] = 0.0
        assert {n: a.tobytes() for n, a in ckpt.tensors.items()} == before


class TestTransferDecoder:
    def test_cross_attention_duplicates_self_attention(self, ckpt_dir):
        ckpt, _ = ckpt_dir
        dec = transfer_decoder(ckpt, SPEC)
        for l in range(SPEC.L):
            for proj in ("q", "k", "v", "out"):
                for part in ("weight", "bias"):
                    a = dec[f"decoder.{l}.cross_attn.{proj}.{part}"]
                    b = dec[f"decoder.{l}.self_attn.{proj}.{part}"]
                    assert a.tobytes() == b.tobytes()
            for part in ("gain", "bias"):
                assert (
                    dec[f"decoder.{l}.cross_attn.norm.{part}"].tobytes()
                    == dec[f"decoder.{l}.self_attn.norm.{part}"].tobytes()
                )

    def test_source_is_same_layer(self, ckpt_dir):
        ckpt, _ = ckpt_dir
        dec = transfer_decoder(ckpt, SPEC)
        for l in range(SPEC.L):
            assert (
                dec[f"decoder.{l}.self_attn.q.weight"].tobytes()
                == ckpt.get(f"encoder.{l}.self_attn.q.weight").tobytes()
            )
            assert (
                dec[f"decoder.{l}.ffn.in.weight"].tobytes()
                == ckpt.get(f"encoder.{l}.ffn.in.weight").tobytes()
            )

    def test_layer_locality(self, ckpt_dir):
        ckpt, _ = ckpt_dir
        base = transfer_decoder(ckpt, SPEC)
        bumped = ck.Checkpoint(meta=dict(ckpt.meta), tensors=dict(ckpt.tensors))
        bumped.tensors["encoder.1.self_attn.v.weight"] = (
            ckpt.get("encoder.1.self_attn.v.weight") + 1.0
        )
        after = transfer_decoder(bumped, SPEC)
        changed = {n for n in base if base[n].tobytes() != after[n].tobytes()}
        assert changed == {"decoder.1.self_attn.v.weight", "decoder.1.cross_attn.v.weight"}

    def test_idempotent(self, ckpt_dir):
        ckpt, _ = ckpt_dir
        a = transfer_decoder(ckpt, SPEC)
        b = transfer_decoder(ckpt, SPEC)
        assert all(a[n].tobytes() == b[n].tobytes() for n in a)


class TestBuildWeights:
    def cell(self, path, enc, dec):
        plan = InitPlan(encoder_source=enc, decoder_source=dec,
                        checkpoint_path=str(path) if "pretrained" in (enc, dec) else None)
        return build_weights(SPEC, plan, vocab_hash="abc123")

    def test_all_cells_complete(self, ckpt_dir):
        _, path = ckpt_dir
        for enc in ("random", "pretrained"):
            for dec in ("random", "pretrained"):
                res = self.cell(path, enc, dec)
                check_weights(SPEC, res.weights)
                assert set(res.sources) == set(res.weights)

    def test_cells_differ_exactly_where_planned(self, ckpt_dir):
        _, path = ckpt_dir
        rr = self.cell(path, "random", "random").weights
        pr = self.cell(path, "pretrained", "random").weights
        rp = self.cell(path, "random", "pretrained").weights
        pp = self.cell(path, "pretrained", "pretrained").weights

        def diff(a, b):
            return {n for n in a if a[n].tobytes() != b[n].tobytes()}

        assert all(n.startswith(("embed.", "encoder.")) for n in diff(rr, pr))
        assert diff(pr, pp) == {n for n in pp if n.startswith("decoder.")}
        assert diff(rp, pp) == {n for n in pp if n.startswith("encoder.")}
        assert not diff(pp, pp)

    def test_sources_logged(self, ckpt_dir):
        _, path = ckpt_dir
        res = self.cell(path, "random", "pretrained")
        assert res.sources["encoder.0.self_attn.q.weight"] == "random"
        assert res.sources["decoder.0.cross_attn.q.weight"] == "checkpoint:encoder.0.self_attn.q.weight"
        assert res.sources["embed.token"] == "checkpoint:embed.token"

    def test_vocab_mismatch_rejected(self, ckpt_dir):
        _, path = ckpt_dir
        plan = InitPlan(encoder_source="pretrained", checkpoint_path=str(path))
        with pytest.raises(ValueError, match="vocabulary"):
            build_weights(SPEC, plan, vocab_hash="other")

    def test_rand_rand_ignores_checkpoint(self):
        plan = InitPlan()
        res = build_weights(SPEC, plan)
        assert set(res.sources.values()) == {"random"}
        rand = init_random(SPEC, seed=0)
        assert all(res.weights[n].tobytes() == rand[n].tobytes() for n in rand)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="checkpoint_path"):
            InitPlan(encoder_source="pretrained")
        with pytest.raises(ValueError, match="encoder_source"):
            InitPlan(encoder_source="bert")
