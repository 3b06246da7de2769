"""Tensor store round-trip and validation tests."""

import numpy as np
import pytest

from postasr import checkpoint as ck


def sample_checkpoint(seed=0):
    rng = np.random.default_rng(seed)
    ckpt = ck.Checkpoint(meta={"norm": "post", "L": "2"})
    ckpt.add("embed.token", rng.normal(size=(12, 8)))
    ckpt.add("encoder.0.self_attn.q.weight", rng.normal(size=(8, 8)))
    ckpt.add("encoder.0.self_attn.q.bias", rng.normal(size=(8,)))
    ckpt.add("step", np.float32(41.0))
    return ckpt


class TestRoundTrip:
    def test_bit_exact(self, tmp_path):
        ckpt = sample_checkpoint()
        ck.save(ckpt, tmp_path / "c")
        back = ck.load(tmp_path / "c")
        assert back.meta == ckpt.meta
        assert list(back.tensors) == list(ckpt.tensors)
        for name in ckpt.tensors:
            a, b = ckpt.get(name), back.get(name)
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def test_scalar_tensor_round_trips(self, tmp_path):
        ckpt = sample_checkpoint()
        ck.save(ckpt, tmp_path / "c")
        back = ck.load(tmp_path / "c")
        assert back.get("step").shape == ()
        assert float(back.get("step")) == 41.0

    def test_save_twice_identical_bytes(self, tmp_path):
        ckpt = sample_checkpoint()
        ck.save(ckpt, tmp_path / "a")
        ck.save(ckpt, tmp_path / "b")
        for fname in (ck.MANIFEST_NAME, ck.BLOB_NAME):
            assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()

    def test_values_stored_little_endian_float32(self, tmp_path):
        ckpt = ck.Checkpoint()
        ckpt.add("w", np.array([1.0, -2.5], dtype=np.float64))
        ck.save(ckpt, tmp_path / "c")
        blob = (tmp_path / "c" / ck.BLOB_NAME).read_bytes()
        assert blob == np.array([1.0, -2.5], dtype="<f4").tobytes()


class TestValidation:
    def test_duplicate_name_rejected(self):
        ckpt = ck.Checkpoint()
        ckpt.add("w", [1.0])
        with pytest.raises(ValueError, match="duplicate"):
            ckpt.add("w", [2.0])

    def test_non_finite_rejected(self):
        ckpt = ck.Checkpoint()
        with pytest.raises(ValueError, match="non-finite"):
            ckpt.add("w", [np.nan])

    def test_bad_name_rejected(self):
        ckpt = ck.Checkpoint()
        with pytest.raises(ValueError):
            ckpt.add("", [1.0])
        with pytest.raises(ValueError):
            ckpt.add("a\tb", [1.0])

    def test_missing_tensor_keyerror(self):
        with pytest.raises(KeyError, match="nope"):
            ck.Checkpoint().get("nope")

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ck.load(tmp_path / "absent")

    def test_bad_header(self, tmp_path):
        d = tmp_path / "c"
        ck.save(sample_checkpoint(), d)
        manifest = d / ck.MANIFEST_NAME
        manifest.write_text("wrong-header\n" + manifest.read_text().split("\n", 1)[1])
        with pytest.raises(ValueError, match="header"):
            ck.load(d)

    def test_truncated_blob(self, tmp_path):
        d = tmp_path / "c"
        ck.save(sample_checkpoint(), d)
        blob = d / ck.BLOB_NAME
        blob.write_bytes(blob.read_bytes()[:-4])
        with pytest.raises(ValueError, match="overruns"):
            ck.load(d)


def test_from_arrays_preserves_order():
    arrays = {"b": np.zeros(2), "a": np.ones(3)}
    ckpt = ck.from_arrays(arrays, meta={"k": "v"})
    assert list(ckpt.tensors) == ["b", "a"]
    assert ckpt.meta == {"k": "v"}
