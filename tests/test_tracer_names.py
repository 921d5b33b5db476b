"""Every name the benchmark tracer wraps must exist in the library.

``harbench.tracer.Tracer.install`` looks each ``(module, attribute path)`` of
``TRACED`` up with ``vars(owner)[attr]``, so renaming or deleting a traced
function makes a traced benchmark run fail with a ``KeyError``. This test
makes the same lookups, so such a change fails the test suite instead.
"""

import importlib
import os
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from harbench.tracer import TRACED  # noqa: E402


@pytest.mark.parametrize(
    "module_name, path", [(m, p) for _, m, p in TRACED],
    ids=[f"{m}:{p}" for _, m, p in TRACED],
)
def test_traced_name_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    cls_name, _, attr = path.rpartition(".")
    if cls_name:
        owner = getattr(owner, cls_name)
    assert callable(vars(owner).get(attr)), f"{module_name}.{path} is gone"
