"""The library's source on sys.path, so that the suite runs from a checkout
without an install, as the benchmark's own tests do."""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
