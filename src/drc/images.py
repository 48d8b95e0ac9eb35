"""Bit-exact PGM / PPM / PFM image IO.

Masks are P5 PGM with maxval 1, class-id images P5 PGM with maxval 255,
color images P6 PPM with maxval 255.  Depth is single-channel PFM ('Pf')
with scale -1.0, i.e. little-endian float32, rows stored bottom-up per the
PFM convention.  Arrays are (H, W) or (H, W, 3), row 0 at the top.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import FormatError


def _read_token(fh) -> bytes:
    """Next whitespace-delimited header token, skipping '#' comments."""
    tok = b""
    while True:
        ch = fh.read(1)
        if not ch:
            raise FormatError("unexpected end of image header")
        if ch == b"#":
            while ch not in (b"\n", b""):
                ch = fh.read(1)
            continue
        if ch.isspace():
            if tok:
                return tok
            continue
        tok += ch


def _read_positive(fh, path) -> int:  # a width, height or maxval
    tok = _read_token(fh)
    if not (tok.isdigit() and int(tok) > 0):
        raise FormatError(f"{path}: header value {tok!r} is not a positive integer")
    return int(tok)


def _read_body(fh, path, size: int, what: str) -> bytes:
    """The next ``size`` bytes, checked against the bytes left in the file
    before reading: a header may claim any size."""
    if size > os.fstat(fh.fileno()).st_size - fh.tell():
        raise FormatError(f"{path}: truncated {what} body")
    return fh.read(size)


def write_pgm(path, image: np.ndarray, maxval: int = 255) -> None:
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError("PGM image must be 2-D")
    if not 1 <= maxval <= 255:
        raise ValueError("PGM maxval must be in [1, 255]")
    if img.min() < 0 or img.max() > maxval:
        raise ValueError(f"PGM pixel values must lie in [0, {maxval}]")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n{maxval}\n".encode("ascii"))
        fh.write(img.astype(np.uint8).tobytes())


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Returns (image uint8 (H, W), maxval)."""
    with open(path, "rb") as fh:
        if _read_token(fh) != b"P5":
            raise FormatError(f"{path}: not a binary PGM (P5) file")
        w, h, maxval = (_read_positive(fh, path) for _ in range(3))
        if maxval > 255:
            raise FormatError(f"{path}: 16-bit PGM not supported")
        buf = _read_body(fh, path, w * h, "PGM")
    return np.frombuffer(buf, dtype=np.uint8).reshape(h, w).copy(), maxval


def write_ppm(path, image: np.ndarray) -> None:
    """image: float RGB in [0, 1] or uint8, shape (H, W, 3)."""
    img = np.asarray(image)
    if img.ndim != 3 or img.shape[2] != 3:
        raise ValueError("PPM image must be (H, W, 3)")
    if img.dtype != np.uint8:
        if not np.all((img >= 0.0) & (img <= 1.0)):  # NaN fails
            raise ValueError("float PPM input must be finite and lie in [0, 1]")
        img = np.round(img * 255.0).astype(np.uint8)
    h, w, _ = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def read_ppm(path) -> np.ndarray:
    """Returns uint8 (H, W, 3)."""
    with open(path, "rb") as fh:
        if _read_token(fh) != b"P6":
            raise FormatError(f"{path}: not a binary PPM (P6) file")
        w, h, maxval = (_read_positive(fh, path) for _ in range(3))
        if maxval != 255:
            raise FormatError(f"{path}: only maxval 255 PPM supported")
        buf = _read_body(fh, path, w * h * 3, "PPM")
    return np.frombuffer(buf, dtype=np.uint8).reshape(h, w, 3).copy()


def write_pfm(path, image: np.ndarray) -> None:
    """Single-channel float32 PFM, little-endian (scale -1.0), bottom-up rows."""
    img = np.asarray(image, dtype=np.float32)
    if img.ndim != 2:
        raise ValueError("PFM image must be 2-D single channel")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"Pf\n{w} {h}\n-1.0\n".encode("ascii"))
        fh.write(np.flipud(img).astype("<f4").tobytes())


def read_pfm(path) -> np.ndarray:
    """Returns float32 (H, W), row 0 at the top."""
    with open(path, "rb") as fh:
        tag = _read_token(fh)
        if tag == b"PF":
            raise FormatError(f"{path}: 3-channel PFM not supported (want 'Pf')")
        if tag != b"Pf":
            raise FormatError(f"{path}: not a PFM file")
        w, h = (_read_positive(fh, path) for _ in range(2))
        try:
            scale = float(_read_token(fh))
        except ValueError:
            scale = 0.0  # not a number
        if not (np.isfinite(scale) and scale != 0.0):
            raise FormatError(f"{path}: PFM scale must be finite and non-zero (its sign gives the byte order)")
        buf = _read_body(fh, path, w * h * 4, "PFM")
    dtype = "<f4" if scale < 0 else ">f4"
    img = np.frombuffer(buf, dtype=dtype).reshape(h, w)
    if not np.all(np.isfinite(img)):
        raise FormatError(f"{path}: PFM holds NaN or infinite values")
    return np.flipud(img).astype(np.float32)
