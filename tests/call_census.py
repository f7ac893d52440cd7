"""A call census: the ``src/repro`` functions a test run never enters.

A pytest plugin over the stdlib profiler hook (no coverage package
needed)::

    PYTHONPATH=src python -m pytest -q -p tests.call_census

Every Python call made in the pytest process (all threads) is recorded
from before the first conftest import; the terminal summary lists each
function and method defined under ``src/repro`` whose code was never
entered.  Work done only in forked children (the sharded service's
workers, ``repro._pool``) is not seen, so what runs only there is
listed too.
"""

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"
_CO_NEWLOCALS = 0x2  # set on functions, not on module or class bodies

_entered = {}


def _record(frame, event, arg):
    if event == "call":
        _entered[id(frame.f_code)] = frame.f_code


def start():
    sys.setprofile(_record)
    threading.setprofile(_record)


def stop():
    sys.setprofile(None)
    threading.setprofile(None)


def census(root):
    """How many functions the ``.py`` files under ``root`` define, and
    ``path:line name`` of each one not entered since :func:`start`."""
    root = Path(root).resolve()
    entered = {
        (str(Path(code.co_filename).resolve()), code.co_firstlineno)
        for code in list(_entered.values())
    }
    defined = []
    for path in sorted(root.rglob("*.py")):
        pending = [compile(path.read_text(), str(path), "exec")]
        while pending:
            code = pending.pop()
            pending.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if code.co_flags & _CO_NEWLOCALS and code.co_name[0] != "<":
                defined.append((str(path), code.co_firstlineno, code))
    never = [
        f"{Path(path).relative_to(root.parent)}:{line} "
        f"{getattr(code, 'co_qualname', code.co_name)}"
        for path, line, code in sorted(defined, key=lambda d: d[:2])
        if (path, line) not in entered
    ]
    return len(defined), never


def pytest_load_initial_conftests(early_config, parser, args):
    start()


def pytest_terminal_summary(terminalreporter):
    stop()
    defined, never = census(ROOT)
    terminalreporter.section("call census")
    terminalreporter.write_line(
        f"{len(never)} of {defined} src/repro functions never entered "
        f"in process"
    )
    for line in never:
        terminalreporter.write_line(line)
