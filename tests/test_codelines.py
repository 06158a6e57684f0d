"""The code-line count (tools/codelines.py) on a small fixture package."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("codelines", ROOT / "tools" / "codelines.py")
codelines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(codelines)

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line

# a comment-only line


class Shape:
    """One-line class docstring."""

    sides = 0


def area(r):
    """Function docstring.

    Its blank line is inside it.
    """
    text = """a string that is
not a docstring"""
    return math.pi * r * r
'''


def test_count_skips_blanks_comments_and_docstrings():
    # import, class, sides, def, text (2 lines), return
    assert codelines.count_lines(FIXTURE) == 7


def test_main_prints_each_module_then_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n\nx = 1\n')
    assert codelines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out.splitlines() == ["a.py=7", "b.py=1", "total=8"]
