"""Whole-file writes: a writer that raises leaves the target as it was."""

from contextlib import contextmanager

import numpy as np
import pytest

from postasr import checkpoint as ck
from postasr import ngram
from postasr import wordpiece as wp
from postasr.atomic import atomic_write


class Boom(Exception):
    pass


def test_clean_exit_replaces_target(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with atomic_write(path) as f:
        f.write("new\n")
    assert path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_raise_keeps_old_target_and_removes_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n")
    with pytest.raises(Boom):
        with atomic_write(path) as f:
            f.write("half of the n")
            f.flush()
            raise Boom
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_raise_creates_no_target(tmp_path):
    with pytest.raises(Boom):
        with atomic_write(tmp_path / "out.bin", "wb") as f:
            f.write(b"\x00" * 100)
            raise Boom
    assert list(tmp_path.iterdir()) == []


class RaisesAfterWriting:
    """A file that passes writes through and raises once ``counter`` of
    them have landed on disk."""

    def __init__(self, f, counter):
        self.f, self.counter = f, counter

    def write(self, data):
        self.f.write(data)
        self.f.flush()
        self.counter[0] -= 1
        if self.counter[0] == 0:
            raise Boom


ARTIFACTS = ("manifest.txt", "tensors.bin", "vocab.txt", "lm.arpa")


def write_artifact(kind, out_dir):
    if kind == "checkpoint":
        ck.save(ck.from_arrays({"w": np.arange(6.0).reshape(2, 3)}, meta={"k": "v"}), out_dir)
    elif kind == "vocab":
        wp.build_vocab(["the cat sat", "a dog ran"], target_size=40).save(out_dir / "vocab.txt")
    else:
        ngram.save_arpa(ngram.fit(["the cat sat", "a dog ran"], order=2), out_dir / "lm.arpa")


@pytest.mark.parametrize("kind, write_number, kept", [
    ("checkpoint", 1, ("manifest.txt", "tensors.bin")),
    ("checkpoint", 2, ("tensors.bin",)),  # the manifest was written whole
    ("vocab", 1, ("vocab.txt",)),
    ("lm", 3, ("lm.arpa",)),
])
def test_artifact_writer_raising_partway_leaves_old_file(tmp_path, monkeypatch, kind, write_number, kept):
    for name in ARTIFACTS:
        (tmp_path / name).write_text(f"old {name}\n")
    counter = [write_number]

    @contextmanager
    def raising_atomic_write(path, mode="w"):
        with atomic_write(path, mode) as f:
            yield RaisesAfterWriting(f, counter)

    for module in (ck, wp, ngram):
        monkeypatch.setattr(module, "atomic_write", raising_atomic_write)
    with pytest.raises(Boom):
        write_artifact(kind, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(ARTIFACTS)
    for name in kept:
        assert (tmp_path / name).read_text() == f"old {name}\n"
