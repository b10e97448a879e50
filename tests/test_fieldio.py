"""Binary field format: round trips and corruption handling."""

import struct

import numpy as np
import pytest

from besselmp import Field, Grid, load_field, random_field, save_field
from besselmp.fieldio import FORMAT_VERSION


def _rng(seed):
    return np.random.default_rng(seed)


def _saved(tmp_path, field, name="f.bmpf"):
    path = tmp_path / name
    save_field(field, path)
    return path


def test_round_trip_1d(tmp_path):
    g = Grid(1, 64, 20.0)
    u = random_field(g, _rng(0))
    back = load_field(_saved(tmp_path, u))
    assert back.grid == g
    np.testing.assert_array_equal(back.values, u.values)


def test_round_trip_2d(tmp_path):
    g = Grid(2, 16, 8.0)
    u = random_field(g, _rng(1))
    back = load_field(_saved(tmp_path, u))
    assert back.grid == g
    np.testing.assert_array_equal(back.values, u.values)


def test_save_is_deterministic(tmp_path):
    g = Grid(1, 32, 10.0)
    u = random_field(g, _rng(2))
    p1 = _saved(tmp_path, u, "a.bmpf")
    p2 = _saved(tmp_path, u, "b.bmpf")
    assert p1.read_bytes() == p2.read_bytes()


def test_header_layout(tmp_path):
    g = Grid(2, 16, 8.0)
    u = Field(g, np.zeros(g.shape))
    blob = _saved(tmp_path, u).read_bytes()
    assert blob[:4] == b"BMPF"
    version, dim, n = struct.unpack_from("<IBQ", blob, 4)
    assert (version, dim, n) == (FORMAT_VERSION, 2, 16)
    lengths = struct.unpack_from("<2d", blob, 17)
    assert lengths == (8.0, 8.0)
    assert len(blob) == 17 + 16 + 8 * 16 * 16


@pytest.mark.parametrize("dim", [1, 2])
def test_even_grid_field_is_refused(tmp_path, dim):
    # the header would read as the full grid's n, against the half's samples,
    # so load_field could not read the file back; no file is left behind
    g = Grid(dim, 16, 10.0).half
    path = tmp_path / "half.bmpf"
    with pytest.raises(ValueError, match="save_field needs a full Grid"):
        save_field(Field(g, np.ones(g.shape)), path)
    assert not path.exists()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bmpf"
    path.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(ValueError, match="bad magic at offset 0"):
        load_field(path)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.bmpf"
    path.write_bytes(b"")
    with pytest.raises(ValueError, match="bad magic"):
        load_field(path)


def test_truncated_header_rejected(tmp_path):
    g = Grid(1, 32, 10.0)
    blob = _saved(tmp_path, Field(g, np.zeros(32))).read_bytes()
    path = tmp_path / "trunc.bmpf"
    path.write_bytes(blob[:10])
    with pytest.raises(ValueError, match="truncated header"):
        load_field(path)


def test_truncated_payload_rejected(tmp_path):
    g = Grid(1, 32, 10.0)
    blob = _saved(tmp_path, Field(g, np.zeros(32))).read_bytes()
    path = tmp_path / "trunc.bmpf"
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="truncated payload"):
        load_field(path)


def test_version_bump_rejected(tmp_path):
    g = Grid(1, 32, 10.0)
    blob = bytearray(_saved(tmp_path, Field(g, np.zeros(32))).read_bytes())
    struct.pack_into("<I", blob, 4, FORMAT_VERSION + 1)
    path = tmp_path / "v2.bmpf"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="unsupported format version 2"):
        load_field(path)


@pytest.mark.parametrize("dim", [0, 4])
def test_header_dim_outside_1_to_3_rejected(tmp_path, dim):
    header = b"BMPF" + struct.pack("<IBQ", FORMAT_VERSION, dim, 4)
    path = tmp_path / "dim.bmpf"
    path.write_bytes(header + struct.pack(f"<{dim}d", *[8.0] * dim))
    with pytest.raises(ValueError, match=f"unsupported dim {dim} in header"):
        load_field(path)


def test_non_finite_payload_rejected(tmp_path):
    g = Grid(1, 32, 10.0)
    blob = bytearray(_saved(tmp_path, Field(g, np.zeros(32))).read_bytes())
    struct.pack_into("<d", blob, len(blob) - 8, float("nan"))
    path = tmp_path / "nan.bmpf"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="non-finite"):
        load_field(path)


@pytest.mark.parametrize("dim", [1, 2])
def test_nan_box_length_rejected_as_a_box_length(tmp_path, dim):
    # NaN equals no length, not even NaN, so the per-axis check alone would misname it
    g = Grid(dim, 16, 8.0)
    blob = bytearray(_saved(tmp_path, Field(g, np.zeros(g.shape))).read_bytes())
    struct.pack_into(f"<{dim}d", blob, 17, *[float("nan")] * dim)
    path = tmp_path / "nan_length.bmpf"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="box_length must be positive and finite, got nan"):
        load_field(path)


def test_axis_length_mismatch_rejected(tmp_path):
    g = Grid(2, 16, 8.0)
    blob = bytearray(_saved(tmp_path, Field(g, np.zeros((16, 16)))).read_bytes())
    struct.pack_into("<d", blob, 17 + 8, 9.0)  # second axis length
    path = tmp_path / "skew.bmpf"
    path.write_bytes(bytes(blob))
    with pytest.raises(ValueError, match="disagree"):
        load_field(path)
