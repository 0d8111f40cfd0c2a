"""Count the code lines of the rdfstar2pg package.

A code line is a line that holds a token other than a comment or a
docstring (a module, class or function's leading string). Blank lines,
comment lines and docstring lines do not count; a string or bracket that
spans lines counts every line it spans.

    python tools/code_lines.py [PACKAGE_DIR]

prints each module's count and the total, for src/rdfstar2pg/ by default.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(source: str) -> set:
    """The (line, column) where each docstring of the module starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(source: str) -> int:
    """How many lines of source hold a token that is neither a comment nor a docstring."""
    docstrings = _docstring_starts(source)
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or (token.type == tokenize.STRING and token.start in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list) -> int:
    package = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "rdfstar2pg"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:20} {count:6,}")
    print(f"{'total':20} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
