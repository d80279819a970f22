"""PGM round trips, header parsing, malformed-file rejection, and the read cache."""

import numpy as np
import pytest

from iem.errors import DataError
from iem.pgm import ImageCache, read_mask_pgm, read_pgm, write_mask_pgm, write_pgm


def test_image_round_trip_exact_on_8bit_grid(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (7, 5)).astype(np.float64) / 255.0
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_write_clamps_out_of_range(tmp_path):
    img = np.array([[-0.5, 0.0], [1.0, 1.5]])
    path = tmp_path / "img.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), np.array([[0.0, 0.0], [1.0, 1.0]]))


def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    mask = rng.random((9, 4)) < 0.5
    path = tmp_path / "mask.pgm"
    write_mask_pgm(path, mask)
    assert np.array_equal(read_mask_pgm(path), mask)


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + bytes(6))
    img = read_pgm(path)
    assert img.shape == (2, 3)
    assert not img.any()


def test_header_takes_every_whitespace_separator(tmp_path):
    # tab, CR, VT and FF separate tokens; the one byte after maxval ends
    # the header, so the raster may start with a whitespace value
    path = tmp_path / "ws.pgm"
    path.write_bytes(b"P5\t3\r\n2\x0b#c\x0c\n255\x0c"
                     + bytes([9, 10, 11, 12, 13, 32]))
    assert np.array_equal(read_pgm(path) * 255.0,
                          [[9.0, 10.0, 11.0], [12.0, 13.0, 32.0]])


@pytest.mark.parametrize(
    "payload, complaint",
    [
        (b"P2\n2 2\n255\n" + bytes(4), "not a binary PGM"),
        (b"P5\n2 2\n65535\n" + bytes(8), "unsupported"),
        (b"P5\n2 2\n255\n\x00\x00", "truncated"),
        (b"P5\nx 2\n255\n" + bytes(4), "bad PGM header"),
        (b"", "truncated PGM header"),
        # '#' only starts a comment at the start of a token
        (b"P5\n3#x 2\n255\n" + bytes(6), "bad PGM header"),
        (b"P5\n3 2 # comment to the end of the file", "truncated PGM header"),
        (b"P5 3 2", "truncated PGM header"),
    ],
)
def test_malformed_files_rejected(tmp_path, payload, complaint):
    path = tmp_path / "bad.pgm"
    path.write_bytes(payload)
    with pytest.raises(DataError, match=complaint):
        read_pgm(path)


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_pgm(tmp_path / "nope.pgm")


def test_cache_returns_same_arrays(tmp_path):
    img_path, mask_path = tmp_path / "i.pgm", tmp_path / "m.pgm"
    write_pgm(img_path, np.full((3, 3), 0.4))
    write_mask_pgm(mask_path, np.ones((3, 3), dtype=bool))
    cache = ImageCache()
    first = cache.image(str(img_path))
    assert cache.image(str(img_path)) is first
    img, mask = cache.pair(str(img_path), str(mask_path))
    assert img is first
    assert mask.all()
