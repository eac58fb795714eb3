"""Puts the repository root and src/ on sys.path for the benchmark's tests.

Run with: python3 -m pytest perfbench
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (str(ROOT / "src"), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)
