"""The line counter in ``tools/count_lines.py``."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "count_lines", ROOT / "tools" / "count_lines.py")
count_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_lines)

FIXTURE = '''"""Module docstring
on two lines."""

import os  # a trailing comment is code


# a comment
class A:
    """One line."""

    def f(self):
        """Three lines,

        one of them blank."""
        x = """not a docstring"""
        return x
'''


def test_fixture_splits_into_its_known_parts():
    counts = count_lines.count(FIXTURE)
    assert counts == {"code": 5, "docstring": 6, "comment": 1, "blank": 4}
    assert sum(counts.values()) == FIXTURE.count("\n")
