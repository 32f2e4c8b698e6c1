import tracemalloc

import numpy as np
import pytest

from conftest import rand_image
from despeckle import GrayImage, ParameterError, PgmParseError, load_pgm, save_pgm


def test_roundtrip_8bit(tmp_path):
    arr = rand_image(5, 7, 9)
    path = tmp_path / "img.pgm"
    save_pgm(GrayImage.from_array(arr), path)
    back = load_pgm(path)
    expected = np.clip(np.floor(arr + 0.5), 0, 255)
    assert np.array_equal(back.pixels, expected)


def test_roundtrip_is_idempotent(tmp_path):
    arr = rand_image(6, 5, 5)
    first = tmp_path / "a.pgm"
    second = tmp_path / "b.pgm"
    save_pgm(GrayImage.from_array(arr), first)
    save_pgm(load_pgm(first), second)
    assert first.read_bytes()[first.read_bytes().index(b"\n") :] == \
        second.read_bytes()[second.read_bytes().index(b"\n") :]
    assert np.array_equal(load_pgm(first).pixels, load_pgm(second).pixels)


def test_rounding_half_away_from_zero_and_clamping(tmp_path):
    arr = np.array([[0.5, 1.5, -0.4, -3.2, 254.5, 300.0, 12.6, 2.4]])
    path = tmp_path / "round.pgm"
    save_pgm(GrayImage.from_array(arr), path)
    assert load_pgm(path).pixels.tolist() == [[1.0, 2.0, 0.0, 0.0, 255.0, 255.0, 13.0, 2.0]]


def test_16bit_roundtrip_and_big_endian(tmp_path):
    arr = np.array([[0.0, 256.0], [65535.0, 513.2]])
    path = tmp_path / "deep.pgm"
    save_pgm(GrayImage.from_array(arr), path, maxval=65535)
    raw = path.read_bytes()
    header = b"P5\n2 2\n65535\n"
    assert raw.startswith(header)
    body = raw[len(header) :]
    # big-endian: 256 is 0x0100, 513 is 0x0201
    assert body == bytes([0, 0, 1, 0, 255, 255, 2, 1])
    assert np.array_equal(load_pgm(path).pixels, [[0.0, 256.0], [65535.0, 513.0]])


def test_save_rejects_other_maxval(tmp_path):
    img = GrayImage.from_array(np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        save_pgm(img, tmp_path / "x.pgm", maxval=1023)


def test_ascii_variant_with_comments(tmp_path):
    text = b"P2\n# a comment\n3 2 # trailing comment\n255\n0 10 20\n30 40 55\n"
    path = tmp_path / "ascii.pgm"
    path.write_bytes(text)
    img = load_pgm(path)
    assert img.pixels.tolist() == [[0.0, 10.0, 20.0], [30.0, 40.0, 55.0]]


def test_ascii_and_binary_agree(tmp_path):
    ascii_path = tmp_path / "a.pgm"
    ascii_path.write_bytes(b"P2\n2 2\n255\n1 2\n3 4\n")
    binary_path = tmp_path / "b.pgm"
    binary_path.write_bytes(b"P5\n2 2\n255\n" + bytes([1, 2, 3, 4]))
    assert np.array_equal(load_pgm(ascii_path).pixels, load_pgm(binary_path).pixels)


def test_binary_comment_in_header(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 1\n255\n\x07\x09")
    assert load_pgm(path).pixels.tolist() == [[7.0, 9.0]]


def test_16bit_read(tmp_path):
    path = tmp_path / "wide.pgm"
    path.write_bytes(b"P5\n1 2\n65535\n" + bytes([0x01, 0x00, 0x00, 0xFF]))
    assert load_pgm(path).pixels.tolist() == [[256.0], [255.0]]


class TestParseErrors:
    def _err(self, tmp_path, payload):
        path = tmp_path / "bad.pgm"
        path.write_bytes(payload)
        with pytest.raises(PgmParseError) as info:
            load_pgm(path)
        return info.value

    def test_unsupported_magic(self, tmp_path):
        err = self._err(tmp_path, b"P6\n2 2\n255\n" + bytes(12))
        assert err.byte_offset == 0
        assert "magic" in str(err)
        assert "byte offset 0" in str(err)

    def test_malformed_width(self, tmp_path):
        err = self._err(tmp_path, b"P5\nabc 2\n255\n")
        assert err.byte_offset == 3
        assert "width" in str(err)

    def test_truncated_raster(self, tmp_path):
        payload = b"P5\n4 4\n255\n" + bytes(7)
        err = self._err(tmp_path, payload)
        assert "truncated" in str(err)
        assert err.byte_offset == len(payload)

    def test_truncated_ascii_raster(self, tmp_path):
        err = self._err(tmp_path, b"P2\n3 3\n255\n1 2 3 4")
        assert "truncated" in str(err)

    def test_oversized_ascii_header_fails_before_allocating(self, tmp_path):
        # 10**10 declared samples in a 25-byte file: rejected from the
        # header alone, without reserving 80 GB for the raster
        payload = b"P2 100000 100000 255\n1 2\n"
        tracemalloc.start()
        try:
            err = self._err(tmp_path, payload)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "truncated" in str(err)
        assert err.byte_offset == len(payload)
        assert peak < 1 << 20

    def test_zero_dimension(self, tmp_path):
        err = self._err(tmp_path, b"P5\n0 2\n255\n")
        assert "width" in str(err)

    def test_maxval_out_of_range(self, tmp_path):
        err = self._err(tmp_path, b"P5\n2 2\n70000\n" + bytes(8))
        assert "maxval" in str(err)

    def test_missing_header_token(self, tmp_path):
        err = self._err(tmp_path, b"P5\n2")
        assert "height" in str(err)


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_pgm(tmp_path / "nope.pgm")
