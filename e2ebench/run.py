"""Command-line entry of the end-to-end benchmark.

From the root of a checkout::

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the JSON result.  Exit code 0 when
every answer checked out, 1 when a correctness check failed, 2 when the
checkout holds no program to measure, 3 when the run could not finish.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from e2ebench import bootstrap  # noqa: E402

bootstrap.require_program()

from e2ebench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
