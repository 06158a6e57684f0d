"""File formats: csv point clouds and the efsb binary snapshot container.

efsb layout (all little-endian):

    magic "EFSB" | u16 version=1 | u32 n | u32 d | u32 snapshot_count
    | f64 gamma | f64 s | f64 epsilon
    | snapshot_count blocks of n*d f64, row-major
    | u8 label_flag [ n * i32 labels if flag=1 ]

A single point cloud is snapshot_count=1; gamma/s/epsilon are 0 when the
file does not carry a trajectory.  The binary format round-trips values
bit-exactly; csv stores 17 significant digits (header ``x0,x1,...,label?``,
LF line endings), which also round-trips IEEE doubles exactly through
decimal.
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


def write_csv(path, points, labels=None):
    points = np.asarray(points, dtype=np.float64)
    n, d = points.shape
    header = ",".join(f"x{i}" for i in range(d))
    if labels is not None:
        labels = np.asarray(labels)
        header += ",label"
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        for i in range(n):
            row = ",".join(f"{v:.17g}" for v in points[i])
            if labels is not None:
                row += f",{int(labels[i])}"
            f.write(row + "\n")


def read_csv(path):
    """Returns (points, labels-or-None).  Malformed rows name their line."""
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines:
        raise FormatError(f"{path}: empty file")
    cols = lines[0].split(",")
    has_labels = cols and cols[-1] == "label"
    d = len(cols) - (1 if has_labels else 0)
    if d < 1 or any(cols[i] != f"x{i}" for i in range(d)):
        raise FormatError(f"{path}: line 1: bad header {lines[0]!r}")
    pts, labs = [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(cols):
            raise FormatError(f"{path}: line {lineno}: expected {len(cols)} cells, got {len(cells)}")
        try:
            vals = [float(c) for c in cells[:d]]
        except ValueError as e:
            raise FormatError(f"{path}: line {lineno}: {e}") from e
        if not all(np.isfinite(v) for v in vals):
            raise FormatError(f"{path}: line {lineno}: non-finite value")
        pts.append(vals)
        if has_labels:
            try:
                labs.append(int(cells[-1]))
            except ValueError as e:
                raise FormatError(f"{path}: line {lineno}: {e}") from e
    if not pts:
        raise FormatError(f"{path}: no data rows")
    points = np.array(pts)
    return points, (np.array(labs, dtype=np.int32) if has_labels else None)
