import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
# the library, the benchmark's modules, and the repo root for tests.test_acceptance
for path in (ROOT / "src", ROOT / "perfbench", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
