"""On-disk formats: raw tensors, 16-bit preview images, CSV tables.

Tensor files (.idf) are a fixed little-endian layout: magic ``IDF1``, a
uint32 rank, one uint32 per dimension, then the float64 payload in C order.
Preview images are binary 16-bit PGM (big-endian sample order, as PGM
requires) normalized to the image peak, with the physical value of one gray
level recorded in a ``<name>.scale.txt`` sidecar. All writers produce
byte-identical output for identical input.
"""

from __future__ import annotations

import math
import struct

import numpy as np

MAGIC = b"IDF1"
_MAX_RANK = 8


def write_tensor(path, arr) -> None:
    """Write an array as a raw little-endian float64 tensor file."""
    a = np.ascontiguousarray(arr, dtype="<f8")
    if a.ndim < 1 or a.ndim > _MAX_RANK:
        raise ValueError(f"rank must be 1..{_MAX_RANK}, got {a.ndim}")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", a.ndim))
        fh.write(struct.pack(f"<{a.ndim}I", *a.shape))
        fh.write(a.tobytes(order="C"))


def read_tensor(path) -> np.ndarray:
    """Read a tensor file written by write_tensor."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head != MAGIC:
            raise ValueError(f"{path}: not a tensor file (bad magic {head!r})")
        raw = fh.read(4)
        if len(raw) != 4:
            raise ValueError(f"{path}: truncated header")
        (rank,) = struct.unpack("<I", raw)
        if rank < 1 or rank > _MAX_RANK:
            raise ValueError(f"{path}: unsupported rank {rank}")
        raw = fh.read(4 * rank)
        if len(raw) != 4 * rank:
            raise ValueError(f"{path}: truncated dimension list")
        shape = struct.unpack(f"<{rank}I", raw)
        payload = fh.read()
    size = 8 * math.prod(shape)
    if len(payload) < size:
        raise ValueError(f"{path}: payload smaller than header promises")
    if len(payload) > size:
        raise ValueError(f"{path}: trailing bytes after payload")
    return np.frombuffer(payload, dtype="<f8").reshape(shape).astype(np.float64)


def write_pgm16(path, image) -> None:
    """Write a 2D array as 16-bit PGM plus a physical-scale sidecar.

    Pixel values are mapped linearly so the image peak becomes 65535; the
    sidecar ``<path>.scale.txt`` holds the physical value of one gray level
    (0 for an all-zero image).
    """
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"image must be 2D, got shape {img.shape}")
    if not np.isfinite(img).all():
        raise ValueError("image must be finite")
    peak = float(img.max(initial=0.0))
    if peak > 0.0:
        quant = np.round(np.clip(img, 0.0, peak) * (65535.0 / peak)).astype(">u2")
        scale = peak / 65535.0
    else:
        quant = np.zeros(img.shape, dtype=">u2")
        scale = 0.0
    rows, cols = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n65535\n".encode("ascii"))
        fh.write(quant.tobytes(order="C"))
    with open(f"{path}.scale.txt", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{scale!r}\n")


def read_pgm16(path) -> tuple[np.ndarray, float]:
    """Read a 16-bit PGM written by write_pgm16; returns (image, scale).

    The returned image is in physical units (gray levels times the sidecar
    scale).
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    parts = blob.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5":
        raise ValueError(f"{path}: not a binary PGM file")
    dims = parts[1].split()
    if len(dims) != 2 or parts[2] != b"65535":
        raise ValueError(f"{path}: unsupported PGM header")
    cols, rows = int(dims[0]), int(dims[1])
    data = np.frombuffer(parts[3], dtype=">u2", count=rows * cols).reshape(rows, cols)
    with open(f"{path}.scale.txt", "r", encoding="utf-8") as fh:
        scale = float(fh.read().strip())
    return data.astype(np.float64) * scale, scale


def write_truth_csv(path, sources) -> None:
    """Write emitter ground truth (one row per source)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("m,n,rate,t_start,t_stop\n")
        for s in sources:
            fh.write(
                f"{int(s.m)},{int(s.n)},{float(s.rate)!r},"
                f"{float(s.t_start)!r},{float(s.t_stop)!r}\n"
            )


def read_positions_csv(path) -> np.ndarray:
    """Read (m, n) positions from a CSV whose first two columns are m and n.

    A header row is detected by a non-numeric first field and skipped;
    extra columns are ignored. Returns a float array of shape (count, 2).
    """
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) < 2:
                raise ValueError(f"{path}: need at least two columns, got {line!r}")
            try:
                m = float(fields[0])
            except ValueError:
                continue  # header
            rows.append((m, float(fields[1])))
    return np.asarray(rows, dtype=np.float64) if rows else np.empty((0, 2))
