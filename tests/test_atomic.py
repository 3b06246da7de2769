"""Whole-file writes: a writer that raises leaves the target as it was."""

import pytest

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
