"""``python -m rellich``: the ``rellich`` command line, as ``rellich.cli.main``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
