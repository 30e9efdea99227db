"""`python -m rggames`: the command-line tool, as the `rggames` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
