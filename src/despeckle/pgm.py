"""Reading and writing portable graymap (PGM) files.

Reads both the binary (P5) and ASCII (P2) variants with maxval up to
65535; two-byte binary samples are big-endian as the format requires.
A P2 raster is read in whole-array passes, which also find its first
bad sample. Writing always produces binary P5. Parse failures raise
`PgmParseError` with the byte offset where decoding stopped.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

import numpy as np

from .errors import ParameterError, PgmParseError
from .image import GrayImage

_WHITESPACE = b" \t\r\n\x0b\x0c"
# a comment runs from "#" to the end of its line
_COMMENT = re.compile(rb"#[^\n\r]*")
# whitespace and comments, which may separate any two tokens
_SEPARATORS = re.compile(rb"(?:[" + re.escape(_WHITESPACE) + rb"]+|" + _COMMENT.pattern + rb")*")
_DIGITS = re.compile(rb"[0-9]*")
_DIGIT_BYTES = b"0123456789"
# the bytes a raster may hold once its comments are blanked: digits and whitespace
_RASTER_BYTE = np.zeros(256, dtype=bool)
_RASTER_BYTE[list(_DIGIT_BYTES + _WHITESPACE)] = True


def _read_int(data: bytes, pos: int, what: str) -> tuple[int, int, int]:
    """Parse one ASCII unsigned integer token. Returns (value, token_start, next_pos)."""
    start = _SEPARATORS.match(data, pos).end()
    pos = _DIGITS.match(data, start).end()
    if pos == start:
        raise PgmParseError(f"malformed header: expected integer {what}", start)
    try:
        return int(data[start:pos]), start, pos
    except ValueError:  # more digits than the interpreter converts
        raise PgmParseError(f"integer {what} has too many digits ({pos - start})", start) from None


def _ascii_samples(data: bytes, pos: int, count: int, maxval: int) -> np.ndarray:
    """The first ``count`` samples of the P2 raster at ``data[pos:]``, read
    in whole-array passes. Raises the error of the first sample that is
    missing, above maxval or too long to convert, at its byte offset."""
    body = data[pos:]
    if b"#" in body:
        # same-length blanks keep every byte offset
        body = _COMMENT.sub(lambda m: b" " * len(m[0]), body)
    if body.translate(None, _DIGIT_BYTES + _WHITESPACE):  # cut at the first stray byte
        body = body[: int(np.argmin(_RASTER_BYTE[np.frombuffer(body, dtype=np.uint8)]))]
    # (NumPy reads whitespace alone as the one sample -1)
    samples = np.empty(0) if body.isspace() else np.fromstring(body, dtype=np.float64, sep=" ")
    samples = samples[:count]
    # A sample with more digits than the interpreter converts (a limit of
    # at least 640) that still reads as at most 65535 starts with 636 zeros.
    if samples.size == count and samples.max() <= maxval and b"0" * 636 not in body:
        return samples
    # token bounds, where digits (at or above "0") meet whitespace (below it)
    digit = np.frombuffer(b" " + body + b" ", dtype=np.uint8) >= ord("0")
    bounds = np.flatnonzero(digit[1:] != digit[:-1]).reshape(-1, 2)[:count]
    limit = getattr(sys, "get_int_max_str_digits", int)() or len(body)  # 0: no limit
    bad = (samples > maxval) | (bounds[:, 1] - bounds[:, 0] > limit)
    k = int(np.argmax(bad)) if bad.any() else samples.size
    if k == count:
        return samples
    if k == samples.size and pos + len(body) == len(data):  # no stray byte: the data ends
        raise PgmParseError(f"truncated raster: expected {count} samples, got {k}", len(data))
    # the bad sample, or the stray byte where the missing one should start
    start = int(bounds[k, 0]) if k < samples.size else len(body)
    _, start, _ = _read_int(data, pos + start, f"sample {k}")
    raise PgmParseError(f"sample {k} exceeds maxval {maxval}", start)


def load_pgm(path) -> GrayImage:
    """Load a P5 or P2 graymap as a float64 image.

    Sample values are taken verbatim (no rescaling by maxval) and raster
    order is preserved. A sample above maxval is a parse error.
    """
    data = Path(path).read_bytes()
    magic = data[:2]
    if magic not in (b"P5", b"P2"):
        raise PgmParseError(f"unsupported magic number {magic!r}, expected P5 or P2", 0)
    binary = magic == b"P5"

    width, wstart, pos = _read_int(data, 2, "width")
    height, hstart, pos = _read_int(data, pos, "height")
    maxval, mstart, pos = _read_int(data, pos, "maxval")
    if width < 1:
        raise PgmParseError(f"width must be >= 1, got {width}", wstart)
    if height < 1:
        raise PgmParseError(f"height must be >= 1, got {height}", hstart)
    if not 1 <= maxval <= 65535:
        raise PgmParseError(f"maxval must be in [1, 65535], got {maxval}", mstart)

    count = width * height
    if binary:
        if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
            raise PgmParseError("malformed header: expected single whitespace after maxval", pos)
        pos += 1
        per_sample = 1 if maxval <= 255 else 2
        needed = count * per_sample
        if len(data) - pos < needed:
            raise PgmParseError(
                f"truncated raster: need {needed} bytes from offset {pos}, file ends early",
                len(data),
            )
        raw = data[pos : pos + needed]
        dtype = np.dtype(">u2") if per_sample == 2 else np.dtype("u1")
        samples = np.frombuffer(raw, dtype=dtype)
        if samples.max() > maxval:
            k = int(np.argmax(samples > maxval))
            raise PgmParseError(f"sample {k} exceeds maxval {maxval}", pos + k * per_sample)
    else:
        # every sample but the last needs a digit and a separator
        if count > (len(data) - pos + 1) // 2:
            raise PgmParseError(f"truncated raster: {count} samples cannot fit in the "
                                f"{len(data) - pos} bytes after offset {pos}", len(data))
        samples = _ascii_samples(data, pos, count, maxval)
    return GrayImage(samples.reshape(height, width))


def save_pgm(img: GrayImage, path, maxval: int = 255) -> None:
    """Write a binary P5 graymap.

    Pixels are rounded half up and then clamped to [0, maxval]. Two-byte
    samples (maxval 65535) are written big-endian. Loading the file back
    reproduces the rounded, clamped image exactly.
    """
    if maxval not in (255, 65535):
        raise ParameterError(f"maxval must be 255 or 65535, got {maxval}")
    clamped = np.clip(np.floor(img.pixels + 0.5), 0.0, float(maxval))
    header = f"P5\n{img.width} {img.height}\n{maxval}\n".encode("ascii")
    dtype = np.dtype("u1") if maxval == 255 else np.dtype(">u2")
    Path(path).write_bytes(header + clamped.astype(dtype).tobytes())
