"""``python -m kronhf``: the command line interface of kronhf.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
