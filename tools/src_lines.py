"""Line counts of the orbitlab package: per module and in total.

Prints each module's lines and code lines, then the totals.  Code lines are
the lines that hold a token of code: blank lines, comment-only lines and the
docstrings of modules, classes and functions are left out.  Standard library
only; run from the repository root as

    python tools/src_lines.py [package directory, default src/orbitlab]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str) -> tuple:
    """(lines, code lines) of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def counts(root: Path) -> dict:
    """{module: (lines, code lines)} of the modules of a package directory,
    and their sum under "total"."""
    rows = {path.name: count_lines(path.read_text()) for path in sorted(root.glob("*.py"))}
    return rows | {"total": tuple(map(sum, zip(*rows.values()))) or (0, 0)}


def main(argv: list) -> int:
    print(f"{'module':<20} {'lines':>6} {'code':>6}")
    for name, (lines, code) in counts(Path(argv[1] if len(argv) > 1 else "src/orbitlab")).items():
        print(f"{name:<20} {lines:>6} {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
