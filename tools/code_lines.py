"""Count the code lines of Python modules.

    python tools/code_lines.py PATH...

A code line is a line that holds a token other than a comment, a blank
line's NL, NEWLINE, INDENT or DEDENT, and that is not part of a module,
class or function docstring.  Prints each module's count and the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_spans(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) of every module, class and function docstring, as
    tokenize positions: ast counts columns in UTF-8 bytes, tokenize in
    characters."""
    lines = source.splitlines()

    def position(row: int, col: int) -> tuple[int, int]:
        return row, len(lines[row - 1].encode()[:col].decode())

    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append((position(first.lineno, first.col_offset),
                              position(first.end_lineno, first.end_col_offset)))
    return spans


def count_code_lines(source: str) -> int:
    spans = _docstring_spans(source)
    rows: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE or any(lo <= tok.start and tok.end <= hi for lo, hi in spans):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(paths: list[str]) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            count = count_code_lines(handle.read())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
