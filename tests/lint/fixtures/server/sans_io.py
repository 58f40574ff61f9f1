"""REP106 fixture: the event loop imported into a sans-IO serving module.

``/server/sans_io.py`` is inside the REP106 scope and not on the
allowlist, so both imports below must be reported.  Parsed by the lint
tests, never imported or executed.
"""

import asyncio
from asyncio import get_running_loop


def deadline(bound):
    return get_running_loop().time() + bound, asyncio
