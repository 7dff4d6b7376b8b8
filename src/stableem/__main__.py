"""``python -m stableem``: the ``stableem`` command, for a source checkout on PYTHONPATH."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
