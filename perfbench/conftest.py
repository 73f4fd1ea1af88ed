"""Make the benchmark modules and the repro sources importable in its tests.

Run the benchmark's own tests from the root of a checkout with
``python3 -m pytest perfbench``.
"""

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

# Subprocesses the tests start (CLI runs) import repro from the sources too.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(HERE.parent / "src"), os.environ.get("PYTHONPATH")])
)
