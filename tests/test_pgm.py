"""PGM round trips, header parsing and reuse, malformed files, and the read cache."""

import collections
import os
import random
import types

import numpy as np
import pytest

import oracles
from iem import pgm
from iem.errors import DataError
from iem.pgm import (ImageCache, pair, read_mask_pgm, read_pgm, write_mask_pgm,
                     write_pgm)


def test_image_round_trip_exact_on_8bit_grid(tmp_path):
    rng = np.random.default_rng(1)
    # 300x257 is a 77 kB file, read in many 4 KiB pieces
    for shape in ((7, 5), (300, 257)):
        img = rng.integers(0, 256, shape).astype(np.float64) / 255.0
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


def _fuzzed_raster(rng, length):
    return bytes(rng.choice(b"\x00\x7f\x80\xff#" + _WHITESPACE)
                 for _ in range(length))


def _fuzzed_pgm(rng):
    """Bytes shaped like a PGM file, with every kind of header damage.

    Header tokens sit between runs of any whitespace and comments; a
    comment may hold '#' and whitespace and may lack its newline, a gap
    may be empty (joining two tokens), a token may hold '#', and the
    raster may be a few bytes short or long. Returns the bytes, the
    length of the part before the raster, and the raster size the size
    tokens ask for (4 when they are not integers).
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
    header_len = len(out)
    length = min(size, 16)
    if rng.random() < 0.3:  # a raster short or long by a byte or two
        length = max(0, length + rng.randint(-2, 2))
    out.extend(_fuzzed_raster(rng, length))
    return bytes(out), header_len, size


def test_header_match_agrees_with_the_token_loop_on_fuzzed_files(tmp_path):
    rng = random.Random(20)
    reuse = random.Random(21)  # its own draws, so rng's files stay the same
    path = tmp_path / "fuzz.pgm"
    outcomes = collections.Counter()
    reused = collections.Counter()
    # one file rewritten in place: a close after each truncation can make
    # the file system flush it, at hundreds of microseconds a case
    with open(path, "wb", buffering=0) as fh:

        def check(data, counts):
            fh.seek(0)
            fh.write(data)
            fh.truncate()
            want, complaint = oracles.decode_pgm(data, path)
            if complaint is None:
                counts["decoded"] += 1
                img, mask = read_pgm(path), read_mask_pgm(path)
                assert img.shape == mask.shape == want.shape, data
                assert (img.tobytes()
                        == (want.astype(np.float64) / 255.0).tobytes()), data
                assert mask.tobytes() == (want >= 128).tobytes(), data
                return
            counts[complaint[len(str(path)) + 2:][:12]] += 1
            for read in (read_pgm, read_mask_pgm):
                with pytest.raises(DataError) as exc:
                    read(path)
                assert str(exc.value) == complaint, data

        for _ in range(20000):
            data, header_len, size = _fuzzed_pgm(rng)
            check(data, outcomes)
            if reuse.random() < 0.25:
                # the header bytes just read again, before a raster short
                # or long by a few bytes, or long past one 4 KiB read; at
                # times first alone, so a file ends where its header does
                if reuse.random() < 0.3:
                    check(data[:header_len], reused)
                length = max(0, size + reuse.randint(-3, 3))
                raster = _fuzzed_raster(reuse, length)
                if reuse.random() < 0.2:
                    raster += reuse.randbytes(reuse.randint(1, 5000))
                check(data[:header_len] + raster, reused)
    # decoded, and each of the five complaints, drawn many times
    assert len(outcomes) == 6 and min(outcomes.values()) > 300, outcomes
    assert min(reused["decoded"], reused["raster trunc"]) > 300, reused


@pytest.fixture
def no_known_header(monkeypatch):
    """The decoder as at import: no header kept from an earlier file."""
    monkeypatch.setattr(pgm, "_known_header", ())


def _same_layout_files(tmp_path, n):
    rng = np.random.default_rng(3)
    paths, want = [], []
    for i in range(n):
        img = rng.integers(0, 256, (24, 24)).astype(np.float64) / 255.0
        path = tmp_path / f"{i}.pgm"
        write_pgm(path, img)
        paths.append(path)
        want.append(img)
    return paths, want


def test_files_of_one_layout_parse_the_header_once(tmp_path, monkeypatch,
                                                   no_known_header):
    paths, want = _same_layout_files(tmp_path, 50)
    matches = []

    def counted_match(data):
        matches.append(data)
        return header.match(data)

    header = pgm._HEADER
    monkeypatch.setattr(pgm, "_HEADER", types.SimpleNamespace(match=counted_match))
    for path, img in zip(paths, want):
        assert np.array_equal(read_pgm(path), img)
    assert len(matches) == 1


def test_a_known_header_stops_the_read_at_the_raster_end(tmp_path, monkeypatch,
                                                         no_known_header):
    paths, want = _same_layout_files(tmp_path, 50)
    reads = []

    def counted_read(fd, n):
        reads.append(n)
        return os_read(fd, n)

    os_read = os.read
    monkeypatch.setattr(os, "read", counted_read)
    for path, img in zip(paths, want):
        assert np.array_equal(read_pgm(path), img)
    # the first file is read to end of file: its data, then b""
    assert len(reads) == 2 + 49


def test_a_header_cut_at_the_end_of_data_is_not_kept(tmp_path, no_known_header):
    # the header match of b"P5\n1 1\n255" ends at the end of data; kept
    # without the byte that ends it, it would read the next file's
    # b"\n" as the raster
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n1 1\n255")
    with pytest.raises(DataError) as exc:
        read_pgm(path)
    assert str(exc.value) == f"{path}: raster truncated (0 of 1 bytes)"
    path.write_bytes(b"P5\n1 1\n255\n\x07")
    assert np.array_equal(read_pgm(path) * 255.0, [[7.0]])


@pytest.mark.parametrize(
    "payload",
    [
        b"P5\n24 24\n255\n" + bytes(575),  # the raster a byte short
        b"P5\n24 24\n255\n",
        b"P5\n24 24\n255",
        b"P2\n24 24\n255\n" + bytes(576),
        b"P5\n20 16\n255\n" + bytes(320),  # another size decodes as itself
        b"P5\n20 16\n255\n" + bytes(319),
        b"P5\n24 24 255\n" + bytes(576),  # the same tokens, other bytes
        b"P5\n24 24\n255\n" + bytes(range(256)) * 20,  # long, past 4 KiB
        b"P5\n24 24\n255\n#" + bytes(575),  # the raster may start with '#'
    ],
    ids=["short", "no-raster", "no-end-byte", "P2", "20x16", "20x16-short",
         "other-spacing", "long", "hash"],
)
def test_a_kept_header_changes_no_outcome(tmp_path, no_known_header, payload):
    known = tmp_path / "known.pgm"
    write_pgm(known, np.full((24, 24), 0.4))
    read_pgm(known)
    assert pgm._known_header == (b"P5\n24 24\n255\n", 24, 24)
    path = tmp_path / "next.pgm"
    path.write_bytes(payload)
    want, complaint = oracles.decode_pgm(payload, path)
    if complaint is None:
        assert read_pgm(path).tobytes() == (want / 255.0).tobytes()
        assert read_mask_pgm(path).tobytes() == (want >= 128).tobytes()
    else:
        for read in (read_pgm, read_mask_pgm):
            with pytest.raises(DataError) as exc:
                read(path)
            assert str(exc.value) == complaint
    # the file before still decodes the same
    assert np.array_equal(read_pgm(known), np.full((24, 24), 0.4))


def test_missing_file_is_data_error(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        read_pgm(tmp_path / "nope.pgm")


def test_directory_path_is_data_error(tmp_path):
    # a directory opens, and its first read fails
    with pytest.raises(DataError) as exc:
        read_pgm(tmp_path)
    assert str(exc.value).startswith(f"cannot read image file {tmp_path}: ")


def test_failed_reads_leave_no_file_open(tmp_path):
    fd_dir = "/proc/self/fd"
    if not os.path.isdir(fd_dir):
        pytest.skip(f"no {fd_dir} to count open files in")
    before = len(os.listdir(fd_dir))
    for path in [tmp_path, tmp_path / "nope.pgm"] * 100:
        with pytest.raises(DataError, match="cannot read"):
            read_pgm(path)
    assert len(os.listdir(fd_dir)) == before


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
