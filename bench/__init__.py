"""The serving benchmark (see ``bench/README.md``).

Stand-alone: nothing outside this directory imports it, and it reaches
the program under test only through ``repro``'s public modules.
"""

import sys
from pathlib import Path

#: The checkout root: the benchmark runs from any working directory.
ROOT = Path(__file__).resolve().parent.parent

# ``repro`` is not installed in a bare checkout; make ``src/`` importable
# without asking the caller for PYTHONPATH.
_SRC = str(ROOT / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
