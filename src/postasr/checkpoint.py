"""Named-tensor store: a text manifest plus a flat float32 blob.

A checkpoint directory holds two files. ``manifest.txt`` starts with a
format header, then metadata lines, then one record per tensor giving its
name, shape, and byte offset. ``tensors.bin`` is the concatenation of every
tensor as little-endian float32 in row-major order. Save and load round
trip bit-exactly, which is what makes weight transfer auditable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

FORMAT = "postasr-checkpoint-v1"
MANIFEST_NAME = "manifest.txt"
BLOB_NAME = "tensors.bin"

_DTYPE = np.dtype("<f4")


def _check_token(kind: str, s: str) -> str:
    if not s or any(c in s for c in "\t\n\r"):
        raise ValueError(f"checkpoint {kind} must be non-empty and tab/newline free, got {s!r}")
    return s


@dataclass
class Checkpoint:
    """Ordered name -> float32 array mapping with string metadata."""

    meta: dict[str, str] = field(default_factory=dict)
    tensors: dict[str, np.ndarray] = field(default_factory=dict)

    def add(self, name: str, value) -> None:
        _check_token("tensor name", name)
        if name in self.tensors:
            raise ValueError(f"duplicate tensor name {name!r}")
        arr = np.asarray(value, dtype=np.float32, order="C")
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"tensor {name!r} contains non-finite values")
        self.tensors[name] = arr

    def get(self, name: str) -> np.ndarray:
        if name not in self.tensors:
            raise KeyError(f"checkpoint has no tensor named {name!r}")
        return self.tensors[name]


def save(ckpt: Checkpoint, directory) -> None:
    os.makedirs(directory, exist_ok=True)
    lines = [FORMAT]
    for key, value in ckpt.meta.items():
        _check_token("meta key", key)
        _check_token("meta value", str(value))
        lines.append(f"meta\t{key}\t{value}")
    blob = bytearray()
    for name, arr in ckpt.tensors.items():
        dims = ",".join(str(d) for d in arr.shape)
        lines.append(f"tensor\t{name}\t{dims}\t{len(blob)}")
        blob.extend(np.ascontiguousarray(arr, dtype=_DTYPE).tobytes())
    with open(os.path.join(directory, MANIFEST_NAME), "w") as f:
        f.write("\n".join(lines) + "\n")
    with open(os.path.join(directory, BLOB_NAME), "wb") as f:
        f.write(bytes(blob))


def load(directory) -> Checkpoint:
    manifest_path = os.path.join(directory, MANIFEST_NAME)
    blob_path = os.path.join(directory, BLOB_NAME)
    for p in (manifest_path, blob_path):
        if not os.path.exists(p):
            raise FileNotFoundError(f"checkpoint file missing: {p}")
    with open(manifest_path) as f:
        lines = f.read().splitlines()
    if not lines or lines[0] != FORMAT:
        raise ValueError(f"{manifest_path}: expected header {FORMAT!r}")
    with open(blob_path, "rb") as f:
        blob = f.read()

    ckpt = Checkpoint()
    for ln, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if parts[0] == "meta":
            if len(parts) != 3:
                raise ValueError(f"{manifest_path}:{ln}: malformed meta line")
            ckpt.meta[parts[1]] = parts[2]
        elif parts[0] == "tensor":
            if len(parts) != 4:
                raise ValueError(f"{manifest_path}:{ln}: malformed tensor line")
            name, dims, offset_s = parts[1], parts[2], parts[3]
            if name in ckpt.tensors:
                raise ValueError(f"{manifest_path}:{ln}: duplicate tensor {name!r}")
            shape = tuple(int(d) for d in dims.split(",") if d)
            offset = int(offset_s)
            nbytes = int(np.prod(shape, dtype=np.int64)) * _DTYPE.itemsize
            if offset < 0 or offset + nbytes > len(blob):
                raise ValueError(f"{manifest_path}:{ln}: tensor {name!r} overruns the blob")
            flat = np.frombuffer(blob, dtype=_DTYPE, count=int(np.prod(shape, dtype=np.int64)), offset=offset)
            ckpt.tensors[name] = np.asarray(flat.reshape(shape), dtype=np.float32, order="C")
        else:
            raise ValueError(f"{manifest_path}:{ln}: unknown record type {parts[0]!r}")
    return ckpt


def from_arrays(arrays: dict[str, np.ndarray], meta: dict[str, str] | None = None) -> Checkpoint:
    ckpt = Checkpoint(meta=dict(meta or {}))
    for name, arr in arrays.items():
        ckpt.add(name, arr)
    return ckpt
