"""Line counts of the dragprof sources.

    python3 tools/loc.py [ROOT]

For each module of ROOT/src/dragprof (ROOT defaults to this checkout)
prints its `wc -l` count and its code-only count, then both totals.  A
code-only line holds part of a token other than a comment; lines that
belong only to a docstring (of the module, a class or a function) do
not count.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """The line numbers of every docstring in the module tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Lines of path with code on them, docstrings and comments aside."""
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    tree = ast.parse(path.read_bytes(), filename=str(path))
    return len(lines - docstring_lines(tree))


def main(argv) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).parent.parent
    total_wc = total_code = 0
    print(f"{'module':<16} {'wc -l':>6} {'code':>6}")
    for path in sorted((root / "src" / "dragprof").glob("*.py")):
        wc = len(path.read_bytes().splitlines())
        code = code_lines(path)
        total_wc += wc
        total_code += code
        print(f"{path.name:<16} {wc:>6} {code:>6}")
    print(f"{'total':<16} {total_wc:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
