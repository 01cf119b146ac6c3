"""On-disk formats: raw float64 matrices, 8-bit binary PGM images and CSV.

Matrix format ("OAMPMAT1"): an 8-byte magic, two little-endian uint64 dims
(rows, cols), then rows*cols little-endian IEEE-754 float64 values in
row-major order.  Big-endian is never used.

CSV format: a header line, then one line per row, every line ending in
``\n`` and cells joined by ``,`` with no quoting.  A float (numpy floats
included) is written as ``repr(float(x))``, ``None`` as an empty cell, and
anything else with ``str``, each comma becoming ``;`` and each newline a
space, so every line splits into as many cells as the header.
"""

import os
import struct

import numpy as np

from .errors import InvalidParameterError

MAT_MAGIC = b"OAMPMAT1"

__all__ = ["MAT_MAGIC", "write_matrix", "read_matrix", "read_pgm", "write_pgm",
           "csv_cell", "csv_text"]


def write_matrix(path, arr):
    arr = np.ascontiguousarray(arr, dtype="<f8")
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    if arr.ndim != 2:
        raise InvalidParameterError("matrix export expects a 1-D or 2-D array")
    with open(path, "wb") as fh:
        fh.write(MAT_MAGIC)
        fh.write(struct.pack("<QQ", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes())


def _require_bytes(fh, nbytes, what):
    """Raise unless ``fh`` holds ``nbytes`` more bytes; reads nothing."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if nbytes > left:
        raise InvalidParameterError(
            f"truncated {what}: header claims {nbytes} bytes, {left} left")


def read_matrix(path):
    with open(path, "rb") as fh:
        head = fh.read(24)
        if head[:8] != MAT_MAGIC:
            raise InvalidParameterError(f"bad matrix magic {head[:8]!r}")
        if len(head) < 24:
            raise InvalidParameterError(
                f"truncated matrix header: {len(head)} of 24 bytes")
        rows, cols = struct.unpack("<QQ", head[8:])
        _require_bytes(fh, rows * cols * 8, "matrix payload")
        data = np.frombuffer(fh.read(rows * cols * 8), dtype="<f8")
    return data.reshape(rows, cols).copy()


def _next_token(fh):
    # PGM tokens are separated by whitespace; '#' starts a comment to EOL
    token = b""
    while True:
        ch = fh.read(1)
        if not ch:
            if token:
                return token
            raise InvalidParameterError("unexpected end of PGM header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if token:
                return token
            continue
        token += ch


def _next_int(fh):
    token = _next_token(fh)
    try:
        return int(token)
    except ValueError:
        raise InvalidParameterError(
            f"PGM header token {token!r} is not an integer") from None


def read_pgm(path):
    """Parse a binary (P5) 8-bit PGM; returns (uint8 image, maxval)."""
    with open(path, "rb") as fh:
        if _next_token(fh) != b"P5":
            raise InvalidParameterError("not a binary PGM (P5) file")
        width, height, maxval = _next_int(fh), _next_int(fh), _next_int(fh)
        if width < 1 or height < 1:
            raise InvalidParameterError(
                f"PGM size must be positive, got {width} x {height}")
        if not 0 < maxval < 256:
            raise InvalidParameterError(
                f"only 8-bit PGM supported, got maxval={maxval}")
        _require_bytes(fh, width * height, "PGM pixel data")
        data = fh.read(width * height)
    return np.frombuffer(data, dtype=np.uint8).reshape(height, width).copy(), maxval


def write_pgm(path, img):
    """Write a uint8 (or [0,1] float, scaled) image as binary PGM with
    maxval 255."""
    img = np.asarray(img)
    if img.ndim != 2:
        raise InvalidParameterError("PGM output expects a 2-D image")
    if img.dtype != np.uint8:
        img = np.clip(np.round(img * 255), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.shape[1], img.shape[0]))
        fh.write(img.tobytes())


def csv_cell(value):
    """One CSV cell of ``value`` by the module's CSV rule."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value).replace(",", ";").replace("\n", " ")


def csv_text(header, rows):
    """The header line, then one line per row of cells."""
    return "".join(",".join(map(csv_cell, line)) + "\n"
                   for line in (header, *rows))
