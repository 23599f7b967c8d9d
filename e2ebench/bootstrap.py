"""Locate the program under test: ``<checkout>/src`` beside this directory.

The benchmark runs from the root of a checkout and imports the program
from its ``src/`` tree.  Without that tree there is nothing to measure,
so :func:`require_program` exits with code 2 before any result is
printed.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_program() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program to measure under {SRC}",
              file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
