"""Entry point for ``python3 -m benchmarks.perf``."""

import sys

from .harness import main

if __name__ == "__main__":
    sys.exit(main())
