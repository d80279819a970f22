"""Exception types shared across the package, and the one text-file
reader and writer."""


class DataError(Exception):
    """A file, manifest, or serialized state is missing or malformed, or a
    file cannot be written."""


class NumericError(Exception):
    """Training produced non-finite values (learning rate too high)."""


def read_lines(path, what):
    """The lines of a UTF-8 text file, such as a config, manifest or state.

    A leading byte-order mark is not part of the text. A file that cannot
    be read or is not UTF-8 raises ``DataError`` naming ``what`` and the
    file, and for a bad byte its line.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call, so exc.object is all of
        # it after any byte-order mark, which holds no newline
        lineno = exc.object.count(b"\n", 0, exc.start) + 1
        raise DataError(f"cannot read {what} {path}:{lineno}: {exc}") from exc


def write_lines(lines, path):
    """Write ``lines`` to ``path`` as UTF-8 text, each ended by a newline.

    No lines gives an empty file. Every text file the package writes is
    written here. A file that cannot be written raises ``DataError``
    naming it.
    """
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(f"{line}\n" for line in lines)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
