"""Count the lines of each ``src/iem`` module by kind, with the stdlib only.

Every line is one of four kinds: docstring (the lines of a module, class
or function docstring, ranges from ``ast``), then, outside those, blank
(whitespace only), comment (first non-blank character ``#``) and code
(the rest). The four parts sum to the file's line count, as ``wc -l``
reads it.

Usage: ``python3 tools/count_lines.py``; it counts the repository's
``src/iem/*.py``.
"""

import ast
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def docstring_lines(source):
    """The 1-based numbers of the lines that module, class and function
    docstrings span in ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source):
    """A dict of the line count of each kind in ``KINDS``."""
    docs = docstring_lines(source)
    counts = dict.fromkeys(KINDS, 0)
    for lineno, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if lineno in docs:
            counts["docstring"] += 1
        elif not text:
            counts["blank"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main():
    paths = sorted(
        (Path(__file__).resolve().parent.parent / "src" / "iem").glob("*.py"))
    rows = [(path.name, count(path.read_text(encoding="utf-8")))
            for path in paths]
    rows.append(("total", {k: sum(c[k] for _, c in rows) for k in KINDS}))
    print(f"{'lines':>6} " + " ".join(f"{k:>9}" for k in KINDS) + "  file")
    for name, counts in rows:
        print(f"{sum(counts.values()):>6} "
              + " ".join(f"{counts[k]:>9}" for k in KINDS) + f"  {name}")


if __name__ == "__main__":
    main()
