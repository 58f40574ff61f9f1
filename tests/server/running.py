"""``run(coroutine)``: how a server test runs its scenario — on a fresh
event loop, failing the test once the scenario has run for
:data:`BOUND` seconds.  A lost wake-up (a pipe nobody reads, a reply
never written) then fails in about a minute instead of hanging the
suite."""

import asyncio

#: Seconds one scenario may run; the slowest takes a few.
BOUND = 60.0


def run(coroutine):
    return asyncio.run(asyncio.wait_for(coroutine, BOUND))
