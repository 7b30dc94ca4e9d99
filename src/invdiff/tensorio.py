"""On-disk formats: raw tensors, 16-bit preview images, CSV tables.

Tensor files (.idf) are a fixed little-endian layout: magic ``IDF1``, a
uint32 rank, one uint32 per dimension, then the float64 payload in C order.
Preview images are binary 16-bit PGM (big-endian sample order, as PGM
requires) normalized to the image peak, with the physical value of one gray
level recorded in a ``<name>.scale.txt`` sidecar.

Every CSV table the program writes (truth, solve trace, detections,
metrics) goes through ``write_csv``, which owns the format: UTF-8, ``"\\n"``
line ends, a header line per section, integers in decimal and every other
number as the ``repr`` of a Python float, so NumPy scalars never print as
``np.float64(...)``. All writers produce byte-identical output for
identical input.
"""

from __future__ import annotations

import math
import struct

import numpy as np

from .operator import check_real

MAGIC = b"IDF1"
_MAX_RANK = 8


def write_tensor(path, arr) -> None:
    """Write an array as a raw little-endian float64 tensor file."""
    a = np.ascontiguousarray(arr, dtype="<f8")  # at least 1-D: a scalar is (1,)
    if a.ndim > _MAX_RANK:
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
    img = check_real("image", image)
    if np.ndim(img) != 2:
        raise ValueError(f"image must be 2D, got shape {np.shape(img)}")
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
    if len(dims) != 2 or not all(d.isdigit() for d in dims) or parts[2] != b"65535":
        raise ValueError(f"{path}: unsupported PGM header")
    cols, rows = int(dims[0]), int(dims[1])
    if len(parts[3]) != 2 * rows * cols:
        raise ValueError(f"{path}: pixel block is not {rows} x {cols} 16-bit samples")
    data = np.frombuffer(parts[3], dtype=">u2").reshape(rows, cols)
    with open(f"{path}.scale.txt", "r", encoding="utf-8") as fh:
        scale = float(fh.read().strip())
    return data.astype(np.float64) * scale, scale


def _csv_cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def write_csv(path, *sections) -> None:
    """Write one CSV file from ``(header, rows)`` sections, in order.

    Each section is its header line followed by one line per row. A cell
    that is a string is written as is, a Python or NumPy integer in
    decimal, and anything else as ``repr(float(x))``.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for header, rows in sections:
            fh.write(header + "\n")
            for row in rows:
                fh.write(",".join(map(_csv_cell, row)) + "\n")


def write_truth_csv(path, sources) -> None:
    """Write emitter ground truth (one row per source)."""
    write_csv(path, (
        "m,n,rate,t_start,t_stop",
        (
            (int(s.m), int(s.n), float(s.rate), float(s.t_start), float(s.t_stop))
            for s in sources
        ),
    ))


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def read_positions_csv(path) -> np.ndarray:
    """Read (m, n) positions from a CSV whose first two columns are m and n.

    The first non-empty line is a header, and skipped, when its first field
    is not a number; any other row whose first two fields are not numbers
    is an error, and so is a non-finite coordinate (``nan``, ``inf``).
    Extra columns are ignored. Returns a float array of shape
    (count, 2).
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in (raw.strip() for raw in fh) if line]
    rows = []
    for i, line in enumerate(lines):
        fields = line.split(",")
        if len(fields) < 2:
            raise ValueError(f"{path}: need at least two columns, got {line!r}")
        if i == 0 and not _is_number(fields[0]):
            continue  # header
        try:
            row = (float(fields[0]), float(fields[1]))
        except ValueError:
            raise ValueError(f"{path}: expected two numbers, got {line!r}") from None
        if not np.isfinite(row).all():
            raise ValueError(f"{path}: coordinates must be finite, got {line!r}")
        rows.append(row)
    return np.asarray(rows, dtype=np.float64) if rows else np.empty((0, 2))
