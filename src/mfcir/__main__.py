"""``python -m mfcir``: the same command line as the ``mfcir`` entry point."""

from .cli import main_entry

main_entry()
