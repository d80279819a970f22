"""PGM round trips, header parsing, malformed-file rejection, and the read cache."""

import collections
import random

import numpy as np
import pytest

import oracles
from iem.errors import DataError
from iem.pgm import (ImageCache, pair, read_mask_pgm, read_pgm, write_mask_pgm,
                     write_pgm)


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


_WHITESPACE = b" \t\n\r\x0b\x0c"
_ODD_MAGIC = [b"P2", b"p5", b"P", b"P5#", b"P5\xff", b"P55"]
_ODD_SIZE = [b"0", b"-1", b"+2", b"1_0", b"3#x", b"x", b"\xff", b"2.0", b"02"]
_ODD_MAXVAL = [b"65535", b"256", b"0255", b"255#", b"25x", b"+255"]


def _fuzzed_pgm(rng):
    """Bytes shaped like a PGM file, with every kind of header damage.

    Header tokens sit between runs of any whitespace and comments; a
    comment may hold '#' and whitespace and may lack its newline, a gap
    may be empty (joining two tokens), a token may hold '#', and the
    raster may be a few bytes short or long.
    """
    out = bytearray()

    def gap(least):
        for _ in range(rng.randint(least, 3)):
            if rng.random() < 0.2:
                out.extend(b"#" + bytes(rng.choice(b"ab5 #\t\r\x0b")
                                        for _ in range(rng.randint(0, 4))))
                if rng.random() < 0.9:
                    out.extend(b"\n")
            else:
                out.extend(rng.choice(_WHITESPACE) for _ in range(rng.randint(1, 2)))

    tokens = [b"P5" if rng.random() < 0.8 else rng.choice(_ODD_MAGIC)]
    for _ in range(2):
        tokens.append(b"%d" % rng.randint(1, 4) if rng.random() < 0.85
                      else rng.choice(_ODD_SIZE))
    tokens.append(b"255" if rng.random() < 0.85 else rng.choice(_ODD_MAXVAL))
    if rng.random() < 0.1:
        tokens = tokens[:rng.randint(0, 3)] + [b"1"] * rng.randint(0, 1)
    for i, token in enumerate(tokens):
        gap(0 if i == 0 or rng.random() < 0.03 else 1)
        out.extend(token)
    if rng.random() < 0.95:
        out.append(rng.choice(_WHITESPACE))  # the byte that ends the header
    try:
        size = int(tokens[1]) * int(tokens[2])
    except (IndexError, ValueError):
        size = 4
    length = min(size, 16)
    if rng.random() < 0.3:  # a raster short or long by a byte or two
        length = max(0, length + rng.randint(-2, 2))
    out.extend(rng.choice(b"\x00\x7f\x80\xff#" + _WHITESPACE)
               for _ in range(length))
    return bytes(out)


def test_header_match_agrees_with_the_token_loop_on_fuzzed_files(tmp_path):
    rng = random.Random(20)
    path = tmp_path / "fuzz.pgm"
    outcomes = collections.Counter()
    # one file rewritten in place: a close after each truncation can make
    # the file system flush it, at hundreds of microseconds a case
    with open(path, "wb", buffering=0) as fh:
        for _ in range(20000):
            data = _fuzzed_pgm(rng)
            fh.seek(0)
            fh.write(data)
            fh.truncate()
            want, complaint = oracles.decode_pgm(data, path)
            if complaint is None:
                outcomes["decoded"] += 1
                img, mask = read_pgm(path), read_mask_pgm(path)
                assert img.shape == mask.shape == want.shape, data
                assert (img.tobytes()
                        == (want.astype(np.float64) / 255.0).tobytes()), data
                assert mask.tobytes() == (want >= 128).tobytes(), data
                continue
            outcomes[complaint[len(str(path)) + 2:][:12]] += 1
            for read in (read_pgm, read_mask_pgm):
                with pytest.raises(DataError) as exc:
                    read(path)
                assert str(exc.value) == complaint, data
    # decoded, and each of the five complaints, drawn many times
    assert len(outcomes) == 6 and min(outcomes.values()) > 300, outcomes


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


@pytest.mark.parametrize("read_pair", [pair, lambda i, m: ImageCache().pair(i, m)],
                         ids=["pgm.pair", "ImageCache.pair"])
def test_pair_refuses_a_mask_of_another_size(tmp_path, read_pair):
    img_path, mask_path = tmp_path / "i.pgm", tmp_path / "m.pgm"
    write_pgm(img_path, np.full((24, 24), 0.4))
    write_mask_pgm(mask_path, np.ones((16, 20), dtype=bool))
    with pytest.raises(DataError) as exc:
        read_pair(str(img_path), str(mask_path))
    assert str(exc.value) == (f"{mask_path}: mask is 20x16 but image "
                              f"{img_path} is 24x24")
