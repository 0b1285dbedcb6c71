"""PGM/PPM writers: header and payload bytes."""
import numpy as np
import pytest

from slantext.errors import ShapeError
from slantext.pnm import write_pgm, write_ppm


def split_pnm(raw: bytes, header: bytes) -> np.ndarray:
    """Payload bytes after an exact header, as floats in [0, 1]."""
    assert raw.startswith(header)
    return np.frombuffer(raw[len(header):], dtype=np.uint8) / 255.0


class TestPgm:
    def test_round_trip_quantized(self, tmp_path):
        rng = np.random.default_rng(0)
        img = np.rint(rng.uniform(0, 1, (9, 13)) * 255) / 255.0
        p = tmp_path / "x.pgm"
        write_pgm(p, img)
        payload = split_pnm(p.read_bytes(), b"P5\n13 9\n255\n")
        assert np.allclose(payload.reshape(9, 13), img, atol=1e-12)

    def test_byte_mapping(self, tmp_path):
        p = tmp_path / "x.pgm"
        write_pgm(p, np.array([[0.0, 1.0, 0.5]]))
        assert p.read_bytes() == b"P5\n3 1\n255\n" + bytes([0, 255, 128])

    def test_out_of_range_clips(self, tmp_path):
        p = tmp_path / "x.pgm"
        write_pgm(p, np.array([[-0.5, 2.0]]))
        assert list(p.read_bytes()[-2:]) == [0, 255]

    def test_rejects_3d(self, tmp_path):
        with pytest.raises(ShapeError):
            write_pgm(tmp_path / "x.pgm", np.zeros((2, 2, 3)))


class TestPpm:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = np.rint(rng.uniform(0, 1, (5, 7, 3)) * 255) / 255.0
        p = tmp_path / "x.ppm"
        write_ppm(p, img)
        payload = split_pnm(p.read_bytes(), b"P6\n7 5\n255\n")
        assert np.allclose(payload.reshape(5, 7, 3), img, atol=1e-12)

    def test_rejects_wrong_channels(self, tmp_path):
        with pytest.raises(ShapeError):
            write_ppm(tmp_path / "x.ppm", np.zeros((2, 2, 4)))
