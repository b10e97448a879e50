"""Binary persistence for grid fields.

Layout: magic "BMPF", version u32, dim u8, n u64, one f64 box length per
axis, then the n^dim payload values, everything little-endian and the
payload in row-major order.  Cubic grids only, so the per-axis lengths
must agree; they are stored per axis anyway to keep the header honest
about what the format could describe.
"""

from __future__ import annotations

import struct

import numpy as np

from .grid import Field, Grid, _require

__all__ = ["save_field", "load_field", "FORMAT_VERSION"]

_MAGIC = b"BMPF"
FORMAT_VERSION = 1


def save_field(field: Field, path) -> None:
    g = field.grid
    _require((not g.even, "save_field needs a full Grid: the header stores the full grid's n, "
                          "and an EvenGrid holds only the samples of its half"))
    header = _MAGIC + struct.pack("<IBQ", FORMAT_VERSION, g.dim, g.n)
    header += struct.pack(f"<{g.dim}d", *([g.box_length] * g.dim))
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_field(path) -> Field:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != _MAGIC:
        got = blob[:4].hex() if blob else "(empty file)"
        raise ValueError(f"bad magic at offset 0: expected {_MAGIC!r}, got bytes {got}")
    off = 4
    if len(blob) < off + 13:
        raise ValueError(f"truncated header: file ends at byte {len(blob)}")
    version, dim, n = struct.unpack_from("<IBQ", blob, off)
    off += 13
    if version != FORMAT_VERSION:
        raise ValueError(f"unsupported format version {version} (this build reads {FORMAT_VERSION})")
    if not 1 <= dim <= 3:
        raise ValueError(f"unsupported dim {dim} in header (expected 1, 2 or 3)")
    if len(blob) < off + 8 * dim:
        raise ValueError(f"truncated header: file ends at byte {len(blob)}")
    lengths = struct.unpack_from(f"<{dim}d", blob, off)
    off += 8 * dim
    if any(L != lengths[0] for L in lengths):
        raise ValueError(f"per-axis box lengths disagree: {lengths}")
    count = n**dim
    expected = off + 8 * count
    if len(blob) != expected:
        raise ValueError(
            f"truncated payload: expected {expected} bytes total, file has {len(blob)}")
    values = np.frombuffer(blob, dtype="<f8", count=count, offset=off)
    values = values.reshape((n,) * dim).astype(np.float64)
    if not np.all(np.isfinite(values)):
        raise ValueError("payload contains non-finite values")
    return Field(Grid(dim=dim, n=n, box_length=lengths[0]), values)
