"""Entry point for ``python -m sigvol``; the same interface as the ``sigvol`` script."""

from .cli import main

if __name__ == "__main__":
    main()
