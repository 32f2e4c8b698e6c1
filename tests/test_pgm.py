import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rand_image
from despeckle import GrayImage, ParameterError, PgmParseError, load_pgm, save_pgm
from despeckle import pgm
from reference import naive_p2_samples


def test_roundtrip_8bit(tmp_path):
    arr = rand_image(5, 7, 9)
    path = tmp_path / "img.pgm"
    save_pgm(GrayImage(arr), path)
    back = load_pgm(path)
    expected = np.clip(np.floor(arr + 0.5), 0, 255)
    assert np.array_equal(back.pixels, expected)


def test_roundtrip_is_idempotent(tmp_path):
    arr = rand_image(6, 5, 5)
    first = tmp_path / "a.pgm"
    second = tmp_path / "b.pgm"
    save_pgm(GrayImage(arr), first)
    save_pgm(load_pgm(first), second)
    assert first.read_bytes()[first.read_bytes().index(b"\n") :] == \
        second.read_bytes()[second.read_bytes().index(b"\n") :]
    assert np.array_equal(load_pgm(first).pixels, load_pgm(second).pixels)


def test_rounding_half_away_from_zero_and_clamping(tmp_path):
    arr = np.array([[0.5, 1.5, -0.4, -3.2, 254.5, 300.0, 12.6, 2.4]])
    path = tmp_path / "round.pgm"
    save_pgm(GrayImage(arr), path)
    assert load_pgm(path).pixels.tolist() == [[1.0, 2.0, 0.0, 0.0, 255.0, 255.0, 13.0, 2.0]]


def test_16bit_roundtrip_and_big_endian(tmp_path):
    arr = np.array([[0.0, 256.0], [65535.0, 513.2]])
    path = tmp_path / "deep.pgm"
    save_pgm(GrayImage(arr), path, maxval=65535)
    raw = path.read_bytes()
    header = b"P5\n2 2\n65535\n"
    assert raw.startswith(header)
    body = raw[len(header) :]
    # big-endian: 256 is 0x0100, 513 is 0x0201
    assert body == bytes([0, 0, 1, 0, 255, 255, 2, 1])
    assert np.array_equal(load_pgm(path).pixels, [[0.0, 256.0], [65535.0, 513.0]])


def test_save_rejects_other_maxval(tmp_path):
    img = GrayImage(np.zeros((2, 2)))
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

    @pytest.mark.parametrize("what, payload, offset", [
        ("width", b"P5 " + b"9" * 5000 + b" 1 255\n\x00", 3),
        ("height", b"P5 1 " + b"9" * 5000 + b" 255\n\x00", 5),
        ("maxval", b"P5 1 1 " + b"9" * 5000 + b"\n\x00", 7),
        ("sample 1", b"P2 2 1 255 7 " + b"9" * 5000 + b"\n", 13),
        ("sample 1", b"P2 2 1 255 7 256\n", 13),
        ("sample 1", b"P2 2 1 255 7 " + b"0" * 5000 + b"1\n", 13),
        ("sample 1", b"P5 2 1 100\n" + bytes([50, 200]), 12),
        ("sample 2", b"P5 3 1 1000\n" + bytes([3, 232, 0, 7, 255, 255]), 16),
    ], ids=["long-width", "long-height", "long-maxval", "long-sample", "sample-above-maxval",
            "long-zero-padded-sample", "p5-sample-above-maxval", "p5-16-bit-sample-above-maxval"])
    def test_bad_integer_token(self, tmp_path, what, payload, offset):
        # "long": beyond the interpreter's int-string digit limit
        err = self._err(tmp_path, payload)
        assert what in str(err)
        assert err.byte_offset == offset


@pytest.mark.parametrize("magic", [b"P5", b"P2"])
def test_long_zero_padded_tokens_still_parse(tmp_path, magic):
    # 4300 digits is the interpreter's limit and still converts
    pad = b"0" * 4299
    raster = b"\x07" if magic == b"P5" else pad + b"7\n"
    path = tmp_path / "padded.pgm"
    path.write_bytes(magic + b" " + pad + b"1 " + pad + b"1 " + pad + b"9\n" + raster)
    assert load_pgm(path).pixels.tolist() == [[7.0]]


# magic, width, height and maxval, each followed by the separator
_HEADERS = st.builds(
    lambda magic, sep, *values: sep.join([magic, *(b"%d" % v for v in values), b""]),
    st.sampled_from([b"P5", b"P2"]), st.sampled_from([b" ", b"\n", b"\n# c\n"]),
    st.integers(0, 6), st.integers(0, 6), st.sampled_from([0, 1, 9, 255, 256, 65535, 65536]),
)
_ASCII_BODY = st.lists(st.sampled_from([b"0", b"7", b"255", b"65535", b"9" * 400, b"x", b"#", b"-1"]),
                       max_size=40).map(b" ".join)


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.binary(max_size=64),
    st.tuples(_HEADERS, st.binary(max_size=64)).map(b"".join),
    st.tuples(_HEADERS, _ASCII_BODY).map(b"".join),
))
def test_fuzz_load_gives_image_or_parse_error(tmp_path_factory, payload):
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(payload)
    try:
        img = load_pgm(path)
    except PgmParseError:
        return
    assert isinstance(img, GrayImage)


_SEPARATORS = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" \x0b ", b"\x0c", b"   "])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_plain_and_commented_ascii_rasters_load_the_drawn_values(tmp_path_factory, data):
    width, height = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))
    maxval = data.draw(st.sampled_from([1, 9, 255, 65535]))
    values = data.draw(st.lists(st.integers(0, maxval), min_size=width * height,
                                max_size=width * height))
    tokens = [b"0" * data.draw(st.integers(0, 3)) + b"%d" % v for v in values]
    seps = data.draw(st.lists(_SEPARATORS, min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    raster = b"".join(s + t for s, t in zip(seps, tokens)) + seps[-1]
    cut = data.draw(st.integers(0, len(tokens)))
    commented = (b"".join(s + t for s, t in zip(seps[:cut], tokens[:cut]))
                 + b"\n# a comment 12 x\n"
                 + b"".join(s + t for s, t in zip(seps[cut:], tokens[cut:])) + seps[-1])
    header = b"P2\n%d %d\n%d" % (width, height, maxval)
    path = tmp_path_factory.getbasetemp() / "drawn.pgm"
    for body in (raster, commented):
        path.write_bytes(header + body)
        assert load_pgm(path).pixels.tolist() == np.reshape(values, (height, width)).tolist()


_P2_TOKENS = st.sampled_from([b"0", b"7", b"255", b"256", b"65535", b"65536", b"0" * 700 + b"3",
                              b"0" * 5000 + b"1", b"9" * 5000, b"0" * 4299 + b"9"])
_P2_STRAYS = st.sampled_from([b"x", b"-1", b"12x", b"#", b"# c 5\n", b"\x0b"])


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ascii_rasters_load_as_the_token_by_token_oracle_reads_them(tmp_path_factory, data):
    # the pixels, or the first error's message and byte offset
    width, height = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    maxval = data.draw(st.sampled_from([1, 9, 255, 65535]))
    tokens = data.draw(st.lists(_P2_TOKENS, max_size=width * height + 2))
    for _ in range(data.draw(st.integers(0, 2))):
        tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(_P2_STRAYS))
    seps = data.draw(st.lists(st.sampled_from([b"", b" ", b"\n", b"\t", b" \x0b ", b"\n# 1\n"]),
                              min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    header = b"P2\n%d %d\n%d" % (width, height, maxval)  # the raster starts at the newline
    payload = header + b"\n" + b"".join(s + t for s, t in zip(seps, tokens)) + seps[-1]
    path = tmp_path_factory.getbasetemp() / "oracle.pgm"
    path.write_bytes(payload)
    expected = naive_p2_samples(payload, len(header), width * height, maxval)
    if isinstance(expected, tuple):
        with pytest.raises(PgmParseError) as info:
            load_pgm(path)
        assert (str(info.value), info.value.byte_offset) == \
            (f"{expected[0]} (byte offset {expected[1]})", expected[1])
    else:
        assert load_pgm(path).pixels.ravel().tolist() == expected


def test_commented_raster_is_parsed_in_bulk(tmp_path):
    # comments right after maxval, touching a sample, ending at "\r", holding
    # digits or "#", past the last sample, and at the end of the file
    body = b"# c1 7\r1#2\n 2 # x # 9\r\n3\n4 5 6 # tail\n# last"
    path = tmp_path / "commented.pgm"
    path.write_bytes(b"P2 3 2 255" + body)
    with mock.patch.object(pgm, "_read_int", wraps=pgm._read_int) as read_int:
        img = load_pgm(path)
    assert img.pixels.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert read_int.call_count == 3  # the header's three integers only


def test_a_zero_padded_first_sample_keeps_the_raster_in_bulk(tmp_path):
    # the zeros send the raster to the token-bound passes, which stay whole-array
    pixels = rand_image(59, 64, 64, lo=0, hi=255).astype(int)
    samples = [b"%d" % v for v in pixels.ravel()]
    path = tmp_path / "padded.pgm"
    path.write_bytes(b"P2\n64 64\n255\n" + b"0" * 700 + b"\n".join(samples) + b"\n")
    with mock.patch.object(pgm, "_read_int", wraps=pgm._read_int) as read_int:
        img = load_pgm(path)
    assert img.pixels.tolist() == pixels.tolist()
    assert read_int.call_count <= 4


@pytest.mark.parametrize("last, message", [(b"x7", "malformed header: expected integer sample 4095"),
                                           (b"256", "sample 4095 exceeds maxval 255")])
def test_a_bad_last_sample_is_found_in_bulk(tmp_path, last, message):
    # the scanner starts at the bad sample, not at the first
    samples = [b"%d" % v for v in rand_image(58, 64, 64, lo=0, hi=255).astype(int).ravel()]
    head = b"P2\n64 64\n# a comment 1 2\n255\n" + b"\n".join(samples[:-1]) + b" # 9 x\n"
    path = tmp_path / "bad.pgm"
    path.write_bytes(head + last + b"\n")
    with mock.patch.object(pgm, "_read_int", wraps=pgm._read_int) as read_int:
        with pytest.raises(PgmParseError) as info:
            load_pgm(path)
    assert str(info.value) == f"{message} (byte offset {len(head)})"
    assert read_int.call_count == 4  # the header's three integers, and the bad sample


@pytest.mark.parametrize("raster", [b"   ", b"\n# only a comment\n", b"\x0b"])
def test_a_raster_of_whitespace_alone_is_truncated(tmp_path, raster):
    path = tmp_path / "empty.pgm"
    path.write_bytes(b"P2 1 1 255" + raster)
    with pytest.raises(PgmParseError, match=r"^truncated raster: expected 1 samples, got 0"):
        load_pgm(path)


def test_commented_raster_errors_keep_their_offsets(tmp_path):
    data = b"P2\n2 1\n9\n# note\n1 # 99\n12\n"
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(PgmParseError) as info:
        load_pgm(path)
    assert "sample 1 exceeds maxval 9" in str(info.value)
    assert info.value.byte_offset == data.index(b"12\n")


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_pgm(tmp_path / "nope.pgm")
