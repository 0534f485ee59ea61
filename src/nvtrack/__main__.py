"""``python -m nvtrack``: the ``nvtrack`` command line."""

from .cli import main

raise SystemExit(main())
