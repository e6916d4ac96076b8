"""Count the code lines of the package: non-blank lines outside docstrings
and comments.

A line counts when it holds a token of code (`tokenize`), so blank lines,
comment lines and the lines of a module, class or function docstring
(`ast`) do not.  Prints the count of each file of `src/stardecomp`, the
core (engine, projections and subspaces) and the whole package.

Run from anywhere: `python tests/core_lines.py [root]`, root being a
checkout (this one by default).
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

CORE = ("engine.py", "projections.py", "subspaces.py")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(path: Path) -> int:
    """The code lines of one Python file."""
    source = path.read_text(encoding="utf-8")
    skip = _docstring_lines(ast.parse(source))
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _NOT_CODE:
                code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    package = root / "src" / "stardecomp"
    counts = {p.name: count(p) for p in sorted(package.glob("*.py"))}
    for name, n in counts.items():
        print(f"{n:6d}  {name}")
    print(f"{sum(counts[name] for name in CORE):6d}  core ({', '.join(CORE)})")
    print(f"{sum(counts.values()):6d}  src/stardecomp")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
