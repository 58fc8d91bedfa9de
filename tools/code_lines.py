"""Print the code-line count of each module of src/lzs_sim and their
total, then the total of tests/, so code moved into the tests shows;
beside each count, how many of those lines pass 100 columns, so a
smaller count cannot come from packing lines.

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


def code_lines(source: str) -> list[str]:
    """The code lines of source, in order."""
    docstrings = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    text = source.split("\n")
    return [text[i - 1] for i in sorted(lines - docstrings)]


def row(name: str, lines: list[str]) -> str:
    """name, the number of lines and how many of them pass 100 columns."""
    return f"{name:<10}{len(lines):>6}{sum(len(line) > 100 for line in lines):>6}"


def main() -> None:
    modules = {path.stem: code_lines(path.read_text()) for path in PACKAGE.glob("*.py")}
    print(f"{'':<10}{'lines':>6}{'>100':>6}")
    for name, lines in sorted(modules.items(), key=lambda item: (-len(item[1]), item[0])):
        print(row(name, lines))
    print(row("total", [line for lines in modules.values() for line in lines]))
    tests = [line for path in TESTS.glob("*.py") for line in code_lines(path.read_text())]
    print(row("tests/", tests))


if __name__ == "__main__":
    main()
