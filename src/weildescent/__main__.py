"""python -m weildescent: the same commands as the weildescent script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
