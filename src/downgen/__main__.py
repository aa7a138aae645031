"""`python -m downgen`: the command-line interface of `downgen.cli`."""

import sys

from . import cli

if __name__ == "__main__":
    sys.exit(cli.main())
