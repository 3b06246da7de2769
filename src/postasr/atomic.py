"""Whole-file artifact writes.

A stage that dies while writing must not leave a truncated artifact that a
later stage would read without complaint. ``atomic_write`` writes to a
temporary file next to the target and moves it over the target with one
``os.replace`` only after the writer finished, so readers see either the
old file or the complete new one.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress


@contextmanager
def atomic_write(path, mode: str = "w"):
    """Yield a file open for writing that replaces ``path`` on a clean exit.

    On a raise the temporary file is removed and ``path`` is left as it
    was. This guards against a process that dies or raises mid-write; the
    data is not fsynced, so it does not guard against power loss.
    """
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
