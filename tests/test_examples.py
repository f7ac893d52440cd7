"""Every script under ``examples/`` runs to completion.

The examples import from the modules that define each name, so a name
that moves or a package that stops re-exporting it breaks them; this
runs each one as a user would, with ``src`` on ``PYTHONPATH``, in a
scratch working directory (``trace_a_walk.py`` writes its trace there).
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 10


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=100,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
