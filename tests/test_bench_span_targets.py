"""Every entry point the serving benchmark wraps still exists.

``bench/spans.py`` times layers from outside by swapping
``owner.__dict__[name]`` (methods) and module-level functions for
recording wrappers.  A rename or move under ``src/`` would otherwise
surface only as a ``KeyError`` in a traced bench round; here it fails
the tier-1 suite.  The module is loaded by path — ``bench/`` is not a
package — and only its target lists are read.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_method_target_is_defined_on_its_owner(spans):
    targets = spans._method_targets()
    assert targets
    missing = [
        f"{owner.__qualname__}.{attribute}"
        for owner, attribute, _, _ in targets
        if attribute not in owner.__dict__
    ]
    assert missing == []


def test_every_function_target_is_importable(spans):
    targets = spans._function_targets()
    assert targets
    for function, name, _ in targets:
        assert inspect.isfunction(function), name
        module = importlib.import_module(function.__module__)
        assert getattr(module, function.__name__) is function, name
