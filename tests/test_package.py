"""The package's export list: every name in ``chernofflab.__all__``
resolves on the package, is listed once and has a user outside the module
that defines it. The package's own checks raise: no ``assert`` statement
in its source, which ``python -O`` strips. Only ``grid``, ``pde`` and
``expectations`` import ``_kernels``. The code-line counter of
``scripts/code_lines.py`` follows its rule."""

import ast
import importlib.util
import re
from collections import Counter
from pathlib import Path

import chernofflab


def test_every_export_resolves_once():
    names = chernofflab.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    assert [n for n in names if not hasattr(chernofflab, n)] == []


def test_every_export_is_named_outside_its_module():
    # a name that no other package module, no perfbench file and not the
    # README names serves no run, benchmark op or example: it leaves __all__
    src = Path(chernofflab.__file__).parent
    root = Path(__file__).resolve().parents[1]
    modules = {path.stem: path.read_text() for path in src.glob("*.py")
               if path.name != "__init__.py"}
    outside = [path.read_text() for path in sorted((root / "perfbench").rglob("*"))
               if path.suffix in (".py", ".md")] + [(root / "README.md").read_text()]

    def named(name):
        home = getattr(getattr(chernofflab, name), "__module__", "").rsplit(".", 1)[-1]
        word = re.compile(rf"\b{name}\b")
        return any(word.search(text) for text in outside) or any(
            word.search(text) for stem, text in modules.items() if stem != home)
    assert [n for n in chernofflab.__all__ if not named(n)] == []


def test_source_holds_no_assert():
    src = Path(chernofflab.__file__).parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert found == []


# the modules that reach the kernels: the others gather through Grid and
# GridFunction, and reduce through the models
KERNEL_GATEWAYS = ("expectations", "grid", "pde")


def imported_names(tree):
    """The dotted name of every module or name an import of ``tree`` reads:
    ``a.b`` for ``import a.b``, ``a.b`` and ``.b`` for ``from a import b``
    and ``from . import b``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield from (f"{node.module or ''}.{alias.name}" for alias in node.names)


def test_only_the_gateways_import_the_kernels():
    src = Path(chernofflab.__file__).parent
    found = [path.stem for path in sorted(src.glob("*.py"))
             if path.stem not in KERNEL_GATEWAYS and any(
                 "_kernels" in name.split(".")
                 for name in imported_names(ast.parse(path.read_text())))]
    assert found == []


def test_code_lines_count_code_and_leave_out_docstrings_and_comments():
    # the rule of scripts/code_lines.py: a line counts if it holds a token
    # other than a comment and no module, class or function docstring
    spec = importlib.util.spec_from_file_location(
        "code_lines", Path(__file__).resolve().parents[1] / "scripts" / "code_lines.py")
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    source = '''"""Module
docstring."""
# a comment

class A:
    """One line."""

    def f(self, x):  # counted
        """Two
        lines."""
        text = """a string
        over two lines"""
        return (x +
                1)
'''
    assert code_lines.code_lines(source) == 6
    assert len(code_lines.docstring_lines(ast.parse(source))) == 5
