"""Put this directory on sys.path, so the test modules can import the shared
reference code (qbg_reference, inverse_reference) under every pytest import
mode."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
