"""``python -m hypermono ...`` runs the command-line interface."""

import sys

from .cli import main

sys.exit(main())
