#!/usr/bin/env python3
"""Code-line count of a package, the figure a simplicity change quotes.

    python3 tools/codelines.py [DIR]      # DIR defaults to src/efs

A line counts unless it is blank, holds only a comment, or lies inside the
docstring of a module, class or function.  Prints one ``<file>=<n>`` line
per module (``*.py`` under DIR, sorted, paths relative to DIR), then
``total=<n>``.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by the docstrings of the module, classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> int:
    """Code lines of one module's source."""
    skip = docstring_lines(ast.parse(source))
    return sum(1 for i, line in enumerate(source.splitlines(), start=1)
               if i not in skip and line.strip() and not line.strip().startswith("#"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default=str(ROOT / "src" / "efs"))
    base = Path(parser.parse_args(argv).dir)
    total = 0
    for path in sorted(base.rglob("*.py")):
        n = count_lines(path.read_text())
        total += n
        print(f"{path.relative_to(base)}={n}")
    print(f"total={total}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
