"""Binary PGM (P5) reading and writing, plus a small in-process read cache.

Images are stored 8-bit. The program keeps each image as its decoded
uint8 raster, 1 byte a pixel, and ``to_image`` maps a raster or a stack
of them to float64 [0,1] when a stack is featurized; masks use the two
values {0, 255} and map to/from boolean arrays.

A file is read at the system-call level, with no Python file object:
``os.open``, then one ``os.read`` of 4 KiB, which costs a small file
less time than ``open``. The read goes on, 4 KiB at a time, to end of
file only when that first read is not a whole file of the known layout.

The decoder keeps the last header that parsed and passed its checks,
with the whitespace byte that ends it: the known layout. A file that
starts with those bytes skips the header parse, and is one ``os.read``
when its raster ends within it; any other file is parsed in full. A
stream of same-size files thus parses one header.

``pair_blocks`` decodes a stream of pairs a block at a time, as every
program read does: the same reader, with every check, returns each
file's raster bytes, and the rasters of up to 16 same-shape pairs are
joined into one uint8 stack, their masks' into one boolean stack. Both
conversions, ``to_image``'s divide by 255 and ``>= 128``, work element
by element, so ``to_image`` of a raster stack and the mask stack are
``read_pgm``'s and ``read_mask_pgm``'s arrays stacked, bit for bit.
"""

import os
import re
from operator import itemgetter

import numpy as np

from .errors import DataError
from .kernels import shape_blocks

# header = 4 tokens (magic, width, height, maxval); a '#' that starts a
# token starts a comment to the end of its line. Lookaheads hold each
# comment to its newline and each token to its whitespace, so a failed
# match cannot backtrack into another parse (3.10 has no possessive
# quantifiers); one \s per repeat, since \s+ would try every split.
_HEADER = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]\S*(?!\S))" * 4)

# bytes per os.read; a larger read buffer raises peak memory
_READ_SIZE = 4096

# (header bytes through the whitespace byte that ends them, w, h) of the
# last header that parsed and passed its checks; () matches no file
_known_header = ()


def write_pgm(path, img):
    """Write a float image, clamped to [0,1], as an 8-bit binary PGM.

    A file that cannot be written raises ``DataError`` naming it.
    """
    img = np.asarray(img, dtype=np.float64)
    data = np.rint(np.clip(img, 0.0, 1.0) * 255.0).astype(np.uint8)
    h, w = data.shape
    try:
        with open(path, "wb") as fh:
            fh.write(b"P5\n%d %d\n255\n" % (w, h))
            fh.write(data.tobytes())
    except OSError as exc:
        raise DataError(f"cannot write image file {path}: {exc}") from exc


def write_mask_pgm(path, mask):
    """Write a boolean mask as a {0,255} binary PGM."""
    mask = np.asarray(mask, dtype=np.bool_)
    write_pgm(path, mask.astype(np.float64))


def _read_pgm_bytes(path):
    """The raster bytes of a binary PGM file and its (h, w) shape."""
    global _known_header
    header, w, h = _known_header or (None, 0, 0)
    try:
        fd = os.open(path, os.O_RDONLY)
        try:
            data = os.read(fd, _READ_SIZE)
            # a file with the known header is whole at its raster's end
            if not (header is not None and data.startswith(header)
                    and len(data) >= len(header) + w * h):
                data += b"".join(iter(lambda: os.read(fd, _READ_SIZE), b""))
        finally:
            os.close(fd)
    except OSError as exc:
        raise DataError(f"cannot read image file {path}: {exc}") from exc

    if header is not None and data.startswith(header):
        start = len(header)
    else:
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
        if start <= len(data):  # kept only with that byte, which fixes the parse
            _known_header = (data[:start], w, h)
    raster = data[start : start + w * h]
    if len(raster) != w * h:
        raise DataError(f"{path}: raster truncated ({len(raster)} of {w * h} bytes)")
    return raster, (h, w)


def _raster(data, shape):
    return np.frombuffer(data, dtype=np.uint8).reshape(shape)


def _mask(data, shape):
    return _raster(data, shape) >= 128


def to_image(raster):
    """A uint8 raster, or a stack of them, as float64 in [0,1]: byte / 255.

    Refuses any other dtype, so an image is never converted twice.
    """
    if raster.dtype != np.uint8:
        raise ValueError(f"to_image takes a uint8 raster, got {raster.dtype}")
    return np.divide(raster, 255.0)


def read_pgm(path):
    """Read an 8-bit PGM as a float64 array in [0,1]."""
    return to_image(_raster(*_read_pgm_bytes(path)))


def read_mask_pgm(path):
    """Read a {0,255} PGM as a boolean mask."""
    return _mask(*_read_pgm_bytes(path))


def _pair_rasters(image_path, mask_path):
    image, shape = _read_pgm_bytes(image_path)
    mask, mask_shape = _read_pgm_bytes(mask_path)
    if shape != mask_shape:
        raise DataError(f"{mask_path}: mask is {mask_shape[1]}x{mask_shape[0]} "
                        f"but image {image_path} is {shape[1]}x{shape[0]}")
    return shape, image, mask


def pair_blocks(path_pairs):
    """The decoded (image path, mask path) pairs, as (rasters, masks) stacks.

    A stack holds up to 16 consecutive same-shape pairs
    (``kernels.shape_blocks``): a read-only uint8 stack of the images'
    rasters, whose ``to_image`` is ``read_pgm``'s arrays stacked, bit for
    bit, and ``read_mask_pgm``'s arrays stacked. Each block's image
    rasters are joined by one ``np.frombuffer``, and its masks' converted
    by one ``>= 128``, in place of those calls per file. Files are read
    in order, none before the first ``next()``; a bad file, or a mask
    sized unlike its image, raises naming it when met.
    """
    rasters = (_pair_rasters(*paths) for paths in path_pairs)
    for block in shape_blocks(rasters, shape=itemgetter(0)):
        shape = (len(block), *block[0][0])
        yield (_raster(b"".join([image for _, image, _ in block]), shape),
               _mask(b"".join([mask for _, _, mask in block]), shape))


class ImageCache:
    """Keeps decodes by path; no program path uses it (tests share one)."""

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
