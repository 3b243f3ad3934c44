"""``python -m benchmarks.perf`` — see :mod:`benchmarks.perf.cli`."""

import sys

from .run import main

if __name__ == "__main__":
    sys.exit(main())
