"""Print the code lines of each module of src/chernofflab and their total,
and beside them the module's docstring lines.

A line counts as code if it holds a token other than a comment and is not
part of a module, class or function docstring; blank lines and lines that
hold only a comment do not count. The code total is the package's size;
the docstring column shows where the other lines went. Run from anywhere:

    python scripts/code_lines.py
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "chernofflab"
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines of ``source`` by the rule above."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main():
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text()
        counts[path.name] = code_lines(text), len(docstring_lines(ast.parse(text)))
    print("  code    doc  module")
    for name, (code, doc) in counts.items():
        print(f"{code:6d} {doc:6d}  {name}")
    code, doc = (sum(column) for column in zip(*counts.values()))
    print(f"{code:6d} {doc:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
