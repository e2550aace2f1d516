"""python -m fdelab: the fdelab command line (see fdelab.cli)."""

import sys

from .cli import main

sys.exit(main())
