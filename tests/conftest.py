"""Child processes started by the tests (``python -m mfcat.cli``) import
the package from src/, as pyproject's pytest ``pythonpath`` does for the
test process itself."""

import os

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
