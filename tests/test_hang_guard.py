"""The per-test hang guard (``tests/conftest.py``) kills and dumps."""

import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SLEEPER = "tests/fixtures/hang_guard/test_sleeps.py"


def test_guard_kills_a_hanging_test_and_dumps_tracebacks():
    started = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q",
            "-p", "no:cacheprovider", SLEEPER,
        ],
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=50,
    )
    elapsed = time.monotonic() - started
    # Killed at the (shrunk) deadline, not after the 60 s sleep ...
    assert elapsed < 40
    assert proc.returncode != 0
    # ... with the hung frame named on the real stderr, past capture.
    assert "Timeout" in proc.stderr
    assert "test_sleeps_past_the_guard" in proc.stderr
    assert "passed" not in proc.stdout
