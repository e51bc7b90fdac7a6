"""The package's export list: every name in ``chernofflab.__all__``
resolves on the package and is listed once."""

from collections import Counter

import chernofflab


def test_every_export_resolves_once():
    names = chernofflab.__all__
    assert [n for n, k in Counter(names).items() if k > 1] == []
    assert [n for n in names if not hasattr(chernofflab, n)] == []
