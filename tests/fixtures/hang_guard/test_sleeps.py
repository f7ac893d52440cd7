"""A deliberately hanging test, for ``tests/test_hang_guard.py`` only.

Never collected by the suite (``fixtures`` is in ``norecursedirs``);
the guard test runs it in a subprocess and expects the run to be
killed with a traceback dump.  The deadline is shrunk at import —
collection happens before any fixture arms the guard — so proving the
guard does not cost the real constant's two minutes.
"""

import time

import tests.conftest as suite_conftest

suite_conftest.HANG_GUARD_S = 1


def test_sleeps_past_the_guard():
    time.sleep(60)
