"""Put the suite's flat modules and the package under test on the path."""

import sys
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parents[1]
for entry in (SUITE_DIR, SUITE_DIR.parents[1] / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))
