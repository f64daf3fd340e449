"""Print the code lines of the `modal_market` package, of each of its modules
and of each function named on the command line.

A code line is a non-blank line that holds something other than a comment,
with docstrings excluded: the string that opens a module, a class or a
function. Every line of a multi-line string that is not a docstring counts
as code. The package is read from the checkout that holds this script:

    python tools/code_lines.py [FUNCTION ...]

A function is named bare (`_newton`), which counts every function of that
name in the package, or with its module (`equilibrium._newton`).
"""
import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "modal_market"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> tuple[set[int], ast.Module]:
    """The numbers of the source's code lines, and its syntax tree."""
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return lines - docstrings, tree


def main(names: list[str]) -> None:
    total, counted = 0, {name: 0 for name in names}
    for path in sorted(PACKAGE.glob("*.py")):
        lines, tree = code_lines(path.read_text())
        total += len(lines)
        print(f"{len(lines):6d}  {path.name}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for name in names:
                    if name in (node.name, f"{path.stem}.{node.name}"):
                        counted[name] += len({i for i in lines
                                              if node.lineno <= i <= node.end_lineno})
    print(f"{total:6d}  package")
    for name, count in counted.items():
        print(f"{count:6d}  {name}")


if __name__ == "__main__":
    main(sys.argv[1:])
