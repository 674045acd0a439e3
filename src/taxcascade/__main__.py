"""The process entry of the command line: ``python -m taxcascade`` and the
``taxcascade`` script both call :func:`entry`.

A command allocates few reference cycles (about 640 objects, at any bundle
size), so the process runs it with the cyclic collector off and freezes
every object before it exits: the collector's passes over numpy's
import-time objects, while they load and again at shutdown, are skipped.
The process still exits through ``sys.exit``, so atexit handlers run and
stdout and stderr are flushed.  ``cli.main`` and the library leave the
collector as they find it, for callers in their own process.
"""

import gc
import sys
from typing import NoReturn


def entry() -> NoReturn:
    """Run the command in ``sys.argv`` and exit with its status."""
    gc.disable()
    from .cli import main

    try:
        status = main()
    finally:  # however main leaves, nothing it made is collected before exit
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    entry()
