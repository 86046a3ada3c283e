"""Puts the harness directory on the import path of its self-tests.

Run them with ``PYTHONPATH=src python -m pytest benchmarks/e2e/tests``;
tier-1's ``testpaths`` does not include this directory.
"""

import sys
from pathlib import Path

HARNESS = Path(__file__).resolve().parents[1]
if str(HARNESS) not in sys.path:
    sys.path.insert(0, str(HARNESS))
