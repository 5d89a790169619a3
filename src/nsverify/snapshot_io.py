"""Binary snapshot files for vector fields.

Layout (all little-endian):

====== ======= ==========================================
offset size    content
====== ======= ==========================================
0      4       magic ``b"NSVF"``
4      4       format version, uint32 (currently 1)
8      4       grid points per axis ``n``, uint32
12     8       box length ``l_box``, float64
20     8       physical time ``t``, float64
28     4       component count, uint32 (3 for velocity)
32     ...     samples, float64, x index fastest, then y,
               then z, components outermost
====== ======= ==========================================

Samples are physical-space collocation values. In-memory arrays are indexed
``[component, ix, iy, iz]`` (z fastest), so components are transposed to
``(iz, iy, ix)`` on write and back on read.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .errors import ConfigurationError
from .spectral import RealVectorField, build_grid

MAGIC = b"NSVF"
VERSION = 1
_HEADER = struct.Struct("<4sIIddI")


def write_snapshot(path, f: RealVectorField, t: float) -> None:
    g = f.grid
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, g.n, g.l_box, float(t), 3))
        for c in range(3):
            fh.write(np.ascontiguousarray(f.samples[c].transpose(2, 1, 0)).tobytes())


def read_snapshot(path) -> tuple:
    """Read a snapshot file; returns ``(RealVectorField, t)``."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ConfigurationError(f"{path}: truncated header")
        magic, version, n, l_box, t, ncomp = _HEADER.unpack(head)
        if magic != MAGIC:
            raise ConfigurationError(f"{path}: not a snapshot file")
        if version != VERSION:
            raise ConfigurationError(f"{path}: unsupported version {version}")
        if ncomp != 3:
            raise ConfigurationError(f"{path}: expected 3 components, got {ncomp}")
        # checked before the grid exists: a header's n sizes its arrays
        count = 3 * n**3
        if os.fstat(fh.fileno()).st_size < _HEADER.size + 8 * count:
            raise ConfigurationError(f"{path}: truncated payload")
        grid = build_grid(n, l_box)
        raw = np.fromfile(fh, dtype="<f8", count=count)
    samples = raw.reshape(3, n, n, n).transpose(0, 3, 2, 1).copy()
    return RealVectorField(grid, samples), float(t)
