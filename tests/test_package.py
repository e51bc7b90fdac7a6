"""The package's export list: every name in ``chernofflab.__all__``
resolves on the package and is listed once. The package's own checks
raise: no ``assert`` statement in its source, which ``python -O`` strips."""

import ast
from collections import Counter
from pathlib import Path

import chernofflab


def test_every_export_resolves_once():
    names = chernofflab.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    assert [n for n in names if not hasattr(chernofflab, n)] == []


def test_source_holds_no_assert():
    src = Path(chernofflab.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []
