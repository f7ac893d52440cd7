"""Self-test of the call census plugin (``tests/call_census.py``)."""

import importlib.util
import sys

import pytest

from . import call_census

SOURCE = '''\
import functools


def unused():
    return 0


@functools.lru_cache(maxsize=None)
def cached(value):
    return [value for _ in range(2)]


class Kind:
    def method(self):
        return cached(1) + list(self.rows())

    def rows(self):
        yield 1

    def idle(self):
        def inner():
            return 2
        return inner
'''


@pytest.mark.slow
def test_lists_the_functions_never_entered(tmp_path):
    (tmp_path / "tiny.py").write_text(SOURCE)
    spec = importlib.util.spec_from_file_location(
        "call_census_tiny", tmp_path / "tiny.py"
    )
    tiny = importlib.util.module_from_spec(spec)
    # Under the plugin itself the hook is already on; leave it on.
    hooked = sys.getprofile() is call_census._record
    call_census.start()
    try:
        spec.loader.exec_module(tiny)
        assert tiny.Kind().method() == [1, 1, 1]
    finally:
        if not hooked:
            call_census.stop()
    defined, never = call_census.census(tmp_path)
    assert defined == 6
    assert [line.split()[0] for line in never] == [
        f"{tmp_path.name}/tiny.py:4",
        f"{tmp_path.name}/tiny.py:20",
        f"{tmp_path.name}/tiny.py:21",
    ]
    assert [line.split()[1].rsplit(".", 1)[-1] for line in never] == [
        "unused", "idle", "inner",
    ]
