"""Module entry point for ``python -m repro.verify``."""

import sys

from repro.verify.cli import main

sys.exit(main())
