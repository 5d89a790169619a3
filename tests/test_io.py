import numpy as np
import pytest

from nsverify.errors import ConfigurationError
from nsverify.snapshot_io import _HEADER, MAGIC, VERSION, read_snapshot, write_snapshot
from nsverify.spectral import RealVectorField

from conftest import random_band_limited


def test_round_trip(tmp_path, grid16):
    f = random_band_limited(grid16, 1)
    path = tmp_path / "field.nsvf"
    write_snapshot(path, f, t=0.375)
    back, t = read_snapshot(path)
    assert t == 0.375
    assert back.grid == grid16
    assert np.array_equal(back.samples, f.samples)


def test_x_fastest_layout(tmp_path, grid16):
    # the first three payload doubles must walk the x index
    f = RealVectorField(grid16, np.zeros((3, 16, 16, 16)))
    f.samples[0, 0, 0, 0] = 1.0
    f.samples[0, 1, 0, 0] = 2.0
    f.samples[0, 2, 0, 0] = 3.0
    path = tmp_path / "layout.nsvf"
    write_snapshot(path, f, t=0.0)
    payload = np.fromfile(path, dtype="<f8", offset=32, count=4)
    assert payload.tolist() == [1.0, 2.0, 3.0, 0.0]


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.nsvf"
    path.write_bytes(b"WRONG" + b"\x00" * 64)
    with pytest.raises(ConfigurationError):
        read_snapshot(path)


def test_truncated(tmp_path, grid16):
    f = random_band_limited(grid16, 2)
    path = tmp_path / "cut.nsvf"
    write_snapshot(path, f, t=0.0)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(ConfigurationError):
        read_snapshot(path)


def write_header_only(path, n, l_box=2.0 * np.pi):
    """A snapshot header for an ``n``-point grid with no payload."""
    path.write_bytes(_HEADER.pack(MAGIC, VERSION, n, l_box, 0.0, 3))


def test_truncated_payload_is_caught_before_the_grid(tmp_path):
    # n = 16384 would make the grid's frequency arrays about 16 TiB: the
    # payload size must be checked against the header before they exist
    path = tmp_path / "huge.nsvf"
    write_header_only(path, n=16384)
    with pytest.raises(ConfigurationError, match="truncated payload"):
        read_snapshot(path)
