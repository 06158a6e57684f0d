"""File formats: csv point clouds and the efsb binary snapshot container.

efsb layout (all little-endian):

    magic "EFSB" | u16 version=1 | u32 n | u32 d | u32 snapshot_count
    | f64 gamma | f64 s | f64 epsilon
    | snapshot_count blocks of n*d f64, row-major
    | u8 label_flag [ n * i32 labels if flag=1 ]

A single point cloud is snapshot_count=1; gamma/s/epsilon are 0 when the
file does not carry a trajectory, and are never negative or non-finite.  The
binary format round-trips values bit-exactly; csv stores 17 significant
digits, which also round-trips IEEE doubles exactly through decimal, with LF
line endings and the header ``x0,x1,...`` plus at most one trailing integer
column: ``label`` (int32) or ``seed`` (uint64, the recorded RNG seed of a
generated sample).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FormatError

MAGIC = b"EFSB"
VERSION = 1

_HEADER = struct.Struct("<4sHIIIddd")


@dataclass
class EfsbFile:
    """Decoded efsb contents: snapshots plus the stored run parameters."""

    snapshots: list
    gamma: float
    s: float
    epsilon: float
    labels: Optional[np.ndarray] = None


def write_efsb(path, snapshots, gamma: float = 0.0, s: float = 0.0,
               epsilon: float = 0.0, labels=None):
    snaps = [np.ascontiguousarray(a, dtype=np.float64) for a in snapshots]
    if not snaps:
        raise ValueError("need at least one snapshot")
    n, d = snaps[0].shape
    for a in snaps:
        if a.shape != (n, d):
            raise ValueError("snapshots disagree in shape")
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, n, d, len(snaps),
                             float(gamma), float(s), float(epsilon)))
        for a in snaps:
            f.write(a.tobytes(order="C"))
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int32)
            if labels.shape != (n,):
                raise ValueError(f"labels must have shape ({n},)")
            f.write(b"\x01")
            f.write(labels.astype("<i4").tobytes())
        else:
            f.write(b"\x00")


def read_efsb(path) -> EfsbFile:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, n, d, count, gamma, s, epsilon = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    for name, value in (("n", n), ("d", d), ("snapshot_count", count)):
        if value == 0:
            raise FormatError(f"{path}: {name} is 0")
    for name, value in (("gamma", gamma), ("s", s), ("epsilon", epsilon)):
        if not (np.isfinite(value) and value >= 0):
            raise FormatError(f"{path}: {name} is {value}; it must be finite and >= 0")
    off = _HEADER.size
    block = n * d * 8
    snaps = []
    for j in range(count):
        if off + block > len(raw):
            raise FormatError(f"{path}: truncated snapshot {j}")
        a = np.frombuffer(raw, dtype="<f8", count=n * d, offset=off).reshape(n, d).copy()
        if not np.all(np.isfinite(a)):
            raise FormatError(f"{path}: snapshot {j} has non-finite values")
        snaps.append(a)
        off += block
    if off >= len(raw):
        raise FormatError(f"{path}: missing label flag")
    flag = raw[off]
    off += 1
    labels = None
    if flag == 1:
        if off + 4 * n > len(raw):
            raise FormatError(f"{path}: truncated label block")
        labels = np.frombuffer(raw, dtype="<i4", count=n, offset=off).copy()
        off += 4 * n
    elif flag != 0:
        raise FormatError(f"{path}: bad label flag {flag}")
    if off != len(raw):
        raise FormatError(f"{path}: {len(raw) - off} trailing bytes after the label block")
    return EfsbFile(snapshots=snaps, gamma=gamma, s=s, epsilon=epsilon, labels=labels)


def write_csv(path, points, labels=None, seeds=None):
    """Write points as ``x0..x{d-1}`` plus an optional ``label`` or ``seed`` column."""
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    if labels is not None and seeds is not None:
        raise ValueError("a csv carries labels or seeds, not both")
    header = ",".join(f"x{i}" for i in range(d))
    tail = labels if seeds is None else seeds
    if tail is not None:
        header += ",label" if seeds is None else ",seed"
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        for i in range(n):
            row = ",".join(f"{v:.17g}" for v in points[i])
            if tail is not None:
                row += f",{int(tail[i])}"
            f.write(row + "\n")


# Range and dtype of each trailing column; seeds are parsed as exact Python ints.
_TAILS = {"label": (-2**31, 2**31, np.int32), "seed": (0, 2**64, np.uint64)}


def read_csv(path):
    """Returns (points, labels-or-None, seeds-or-None).  Malformed rows name their line."""
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not a text file: {e}") from e
    if not lines:
        raise FormatError(f"{path}: empty file")
    cols = lines[0].split(",")
    tail = cols[-1] if cols[-1] in _TAILS else None
    d = len(cols) - (tail is not None)
    if d < 1 or any(cols[i] != f"x{i}" for i in range(d)):
        raise FormatError(f"{path}: line 1: bad header {lines[0]!r}")
    pts, tails = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(cols):
            raise FormatError(f"{path}: line {lineno}: expected {len(cols)} cells, got {len(cells)}")
        try:
            vals = [float(c) for c in cells[:d]]
            if tail is not None:
                tails.append(int(cells[-1]))
        except ValueError as e:
            raise FormatError(f"{path}: line {lineno}: {e}") from e
        if not all(np.isfinite(v) for v in vals):
            raise FormatError(f"{path}: line {lineno}: non-finite value")
        if tail is not None:
            lo, hi, dtype = _TAILS[tail]
            if not lo <= tails[-1] < hi:
                raise FormatError(f"{path}: line {lineno}: {tail} {tails[-1]} "
                                  f"is outside {np.dtype(dtype).name}")
        pts.append(vals)
    if not pts:
        raise FormatError(f"{path}: no data rows")
    column = None if tail is None else np.array(tails, dtype=_TAILS[tail][2])
    return (np.array(pts), column if tail == "label" else None,
            column if tail == "seed" else None)
