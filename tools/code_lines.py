"""Print the code-line count of each module of src/lzs_sim and their
total, then the total of tests/, so code moved into the tests shows.

A code line holds a token other than a comment and lies outside every
module, class and function docstring; blank lines and lines holding
only a comment do not count.

Usage: python tools/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "lzs_sim"
TESTS = ROOT / "tests"
SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main() -> None:
    counts = {path.stem: code_lines(path.read_text()) for path in PACKAGE.glob("*.py")}
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<10}{count:>6}")
    print(f"{'total':<10}{sum(counts.values()):>6}")
    tests = sum(code_lines(path.read_text()) for path in TESTS.glob("*.py"))
    print(f"{'tests/':<10}{tests:>6}")


if __name__ == "__main__":
    main()
