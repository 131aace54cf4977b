"""Make the benchmark package and the library's sources importable for
``python3 -m pytest perfbench/tests``."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
