"""Binary PGM (P5) reading and writing, plus a small in-process read cache.

Images are stored 8-bit and mapped to/from float64 [0,1]; masks use the
two values {0, 255} and map to/from boolean arrays.
"""

import os
import re

import numpy as np

from .errors import DataError

# header = 4 tokens (magic, width, height, maxval); a '#' that starts a
# token starts a comment to the end of its line. Lookaheads hold each
# comment to its newline and each token to its whitespace, so a failed
# match cannot backtrack into another parse (3.10 has no possessive
# quantifiers); one \s per repeat, since \s+ would try every split.
_HEADER = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*(?!\S))" * 4)


def write_pgm(path, img):
    """Write a float image in [0,1] as an 8-bit binary PGM."""
    img = np.asarray(img, dtype=np.float64)
    data = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h))
        fh.write(data.tobytes())


def write_mask_pgm(path, mask):
    """Write a boolean mask as a {0,255} binary PGM."""
    mask = np.asarray(mask, dtype=np.bool_)
    write_pgm(path, mask.astype(np.float64))


def _read_pgm_bytes(path):
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read image file {path}: {exc}") from exc

    match = _HEADER.match(data)
    if match is None:
        raise DataError(f"{path}: truncated PGM header")
    if match[1] != b"P5":
        raise DataError(f"{path}: not a binary PGM (magic {match[1]!r})")
    try:
        w, h, maxval = (int(t) for t in match.group(2, 3, 4))
    except ValueError as exc:
        raise DataError(f"{path}: bad PGM header") from exc
    if maxval != 255 or w < 1 or h < 1:
        raise DataError(f"{path}: unsupported PGM geometry {w}x{h}/{maxval}")
    start = match.end() + 1  # one whitespace byte ends the header
    raster = data[start : start + w * h]
    if len(raster) != w * h:
        raise DataError(f"{path}: raster truncated ({len(raster)} of {w * h} bytes)")
    return np.frombuffer(raster, dtype=np.uint8).reshape(h, w)


def read_pgm(path):
    """Read an 8-bit PGM as a float64 array in [0,1]."""
    return _read_pgm_bytes(path).astype(np.float64) / 255.0


def read_mask_pgm(path):
    """Read a {0,255} PGM as a boolean mask."""
    return _read_pgm_bytes(path) >= 128


def _same_size(image_path, mask_path, img, mask):
    if img.shape != mask.shape:
        raise DataError(f"{mask_path}: mask is {mask.shape[1]}x{mask.shape[0]} "
                        f"but image {image_path} is {img.shape[1]}x{img.shape[0]}")
    return img, mask


def pair(image_path, mask_path):
    """``ImageCache.pair`` without the cache: decodes, keeps nothing."""
    return _same_size(image_path, mask_path, read_pgm(image_path),
                      read_mask_pgm(mask_path))


class ImageCache:
    """Caches decoded image/mask arrays by absolute path for one run."""

    def __init__(self):
        self._images = {}
        self._masks = {}

    def image(self, path):
        key = os.path.abspath(path)
        if key not in self._images:
            self._images[key] = read_pgm(path)
        return self._images[key]

    def mask(self, path):
        key = os.path.abspath(path)
        if key not in self._masks:
            self._masks[key] = read_mask_pgm(path)
        return self._masks[key]

    def pair(self, image_path, mask_path):
        """Decoded (image, mask); refuses a mask whose size differs."""
        return _same_size(image_path, mask_path, self.image(image_path),
                          self.mask(mask_path))
