"""Every entry point the end-to-end layer tracer patches still exists.

``benchmarks/e2e/trace.py`` wraps each ``(module, class, attribute)``
of ``LAYER_SPECS`` through ``vars(owner)[attr]``.  A renamed or removed
entry point would otherwise surface only when the benchmark runs.
"""

import importlib

import pytest

from benchmarks.e2e.trace import LAYER_SPECS

TARGETS = [(module, cls, attr)
           for _layer, module, cls, attrs, _items in LAYER_SPECS
           for attr in attrs]


@pytest.mark.parametrize(
    "module, cls, attr", TARGETS,
    ids=[".".join(part for part in target if part) for target in TARGETS])
def test_traced_entry_point_resolves(module, cls, attr):
    owner = importlib.import_module(module)
    if cls is not None:
        owner = getattr(owner, cls)
    assert callable(vars(owner).get(attr))
