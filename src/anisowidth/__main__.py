"""``python -m anisowidth``: the same command line as the ``anisowidth`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
