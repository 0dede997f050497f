"""`python -m speckit`: the `speckit` command line."""

import sys

from .cli import main

sys.exit(main())
