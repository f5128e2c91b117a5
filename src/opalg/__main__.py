"""``python -m opalg``: the same command line as the ``opalg`` script."""
from .cli import entry

entry()
