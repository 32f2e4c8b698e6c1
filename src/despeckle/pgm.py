"""Reading and writing portable graymap (PGM) files.

Reads both the binary (P5) and ASCII (P2) variants with maxval up to
65535; two-byte binary samples are big-endian as the format requires.
Writing always produces binary P5. Parse failures raise
`PgmParseError` with the byte offset where decoding stopped.
"""

from __future__ import annotations

import re
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
# the bytes a raster parsed in bulk may hold: digits and whitespace
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


def _bulk_samples(body: bytes, count: int, maxval: int) -> tuple[np.ndarray, int]:
    """The leading samples of a raster of digits, whitespace and ``#``
    comments that whole-array passes take, and the offset in ``body``
    where the sample scanner goes on: all ``count`` samples (and the end
    of ``body``), or those before the first that the scanner must decide
    (a stray byte, a sample above maxval or with too many digits, or the
    end of the data) and the end of the last of them."""
    if b"#" in body:
        # same-length blanks keep every byte offset
        body = _COMMENT.sub(lambda m: b" " * len(m[0]), body)
    clean = body
    if body.translate(None, _DIGIT_BYTES + _WHITESPACE):  # up to the first stray byte
        clean = body[: int(np.argmin(_RASTER_BYTE[np.frombuffer(body, dtype=np.uint8)]))]
    # A sample with more digits than the interpreter converts (a limit of
    # at least 640) that still reads as at most 65535 starts with 636 zeros.
    zeros = clean.find(b"0" * 636)
    if zeros >= 0:
        clean = clean[:zeros].rstrip(_DIGIT_BYTES)
    # (NumPy reads whitespace alone as the one sample -1)
    samples = np.empty(0) if clean.isspace() else np.fromstring(clean, dtype=np.float64, sep=" ")
    samples = samples[:count]
    if samples.size and samples.max() > maxval:
        samples = samples[: int(np.argmax(samples > maxval))]
    if samples.size == count:
        return samples, len(body)
    # the end of the last sample taken (clean holds digits and whitespace, which sorts below "0")
    codes = np.frombuffer(clean + b" ", dtype=np.uint8)
    ends = np.flatnonzero((codes[:-1] >= ord("0")) & (codes[1:] < ord("0"))) + 1
    return samples, int(ends[samples.size - 1]) if samples.size else 0


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
            raise PgmParseError(
                f"truncated raster: {count} samples cannot fit in the "
                f"{len(data) - pos} bytes after offset {pos}",
                len(data),
            )
        samples, offset = _bulk_samples(data[pos:], count, maxval)
        if samples.size < count:
            # from the first sample the bulk passes left on, one sample at a
            # time, so that errors carry the offending sample's byte offset
            taken, pos = samples.size, pos + offset
            samples = np.concatenate([samples, np.empty(count - taken)])
            for k in range(taken, count):
                pos = _SEPARATORS.match(data, pos).end()
                if pos >= len(data):
                    raise PgmParseError(
                        f"truncated raster: expected {count} samples, got {k}", len(data)
                    )
                value, start, pos = _read_int(data, pos, f"sample {k}")
                if value > maxval:
                    raise PgmParseError(f"sample {k} exceeds maxval {maxval}", start)
                samples[k] = value
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
