"""Count the code lines of Python sources.

    python tests/codelines.py src/tmeshkit

A code line holds a token that is not a comment, a docstring or a line
break, so blank lines, comment lines and docstrings are not counted; a
statement or string literal spanning several lines counts each of them.
A docstring is the string statement that opens a module, class or
function body (`ast.get_docstring`).  Prints one "count path" line per
`*.py` file under the given files or directories, then the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(paths) -> None:
    files = sorted(f for p in map(Path, paths)
                   for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        count = code_lines(f)
        total += count
        print(count, f)
    print(total, "total")


if __name__ == "__main__":
    main(sys.argv[1:])
