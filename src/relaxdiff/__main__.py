"""Entry point for ``python -m relaxdiff``: the same CLI as the ``relaxdiff`` script."""

from .cli import console_main

if __name__ == "__main__":
    console_main()
