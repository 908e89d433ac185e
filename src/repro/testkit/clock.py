"""Injectable time sources: the real clock and a deterministic fake.

Timing-sensitive components (the deadline scheduler, the micro-batcher
window, the worker tier's retry backoff) historically called
``time.monotonic`` / ``asyncio.sleep`` directly, which forced their
tests to *actually wait* — and to guess how long was long enough on a
loaded CI machine.  Every such component now takes an optional
``clock`` argument:

* :data:`SYSTEM_CLOCK` (the default) — ``time.monotonic`` +
  ``asyncio.sleep``, unchanged production behaviour.
* :class:`FakeClock` — virtual time.  ``sleep`` advances the virtual
  clock instantly (yielding to the event loop once so concurrent tasks
  interleave deterministically), so a 5 s batch window elapses in
  microseconds of real time and a test can step time explicitly with
  :meth:`FakeClock.advance`.

:func:`cancel_and_wait` is the one teardown of a background task that
the service and fleet tiers use.
"""

from __future__ import annotations

import asyncio
import time
from typing import Optional


class SystemClock:
    """The real clock: ``time.monotonic`` and ``asyncio.sleep``."""

    def monotonic(self) -> float:
        """Current monotonic time in seconds."""
        return time.monotonic()

    async def sleep(self, seconds: float) -> None:
        """Suspend the calling task for *seconds* of real time."""
        await asyncio.sleep(seconds)


#: Process-wide default clock instance (stateless, safe to share).
SYSTEM_CLOCK = SystemClock()


class FakeClock:
    """A deterministic virtual clock for tests.

    ``sleep`` advances virtual time by the requested amount and yields
    to the event loop exactly once, so code written against the clock
    protocol runs at full speed while still observing time passing.
    Set ``auto_advance=False`` to make ``sleep`` wait (yielding) until
    the test advances time explicitly via :meth:`advance` — useful to
    hold a component *inside* its waiting loop while the test acts.

    Args:
        start: initial virtual time in seconds.
        auto_advance: whether ``sleep`` moves time forward by itself.
    """

    def __init__(self, start: float = 1000.0,
                 auto_advance: bool = True) -> None:
        """See class docstring."""
        self._now = float(start)
        self.auto_advance = auto_advance
        self.sleep_calls = 0

    def monotonic(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Move virtual time forward by *seconds* (never backwards)."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        self._now += seconds

    async def sleep(self, seconds: float) -> None:
        """Advance virtual time (or wait for :meth:`advance`) and yield."""
        self.sleep_calls += 1
        if self.auto_advance:
            self._now += max(0.0, float(seconds))
            await asyncio.sleep(0)
            return
        target = self._now + max(0.0, float(seconds))
        while self._now < target:
            await asyncio.sleep(0)


#: Real seconds between re-cancels of a task that swallowed a cancel.
_RECANCEL_S = 0.05


async def cancel_and_wait(task: Optional["asyncio.Task"]) -> None:
    """Cancel the background *task* and return once it is done.

    A task whose body swallowed the cancel (an ``except
    CancelledError`` somewhere on its call path) is cancelled again
    every 50 ms of real time until it ends.  A
    cancellation aimed at the caller is never swallowed: it propagates
    out of the wait.  An exception other than the cancel that ended
    *task* is re-raised.  ``None`` is a no-op.
    """
    if task is None:
        return
    while not task.done():
        task.cancel()
        await asyncio.wait((task,), timeout=_RECANCEL_S)
    if not task.cancelled():
        task.result()
