"""One clock for the async stack: the running event loop's.

Serving, cluster and tenant code reads time only through :func:`now`.
Under ``asyncio.run`` that is the host's monotonic clock, so a latency
includes CPU work: the clock for *cost* checks.  Under
:func:`run_virtual` time stands still while anything is ready to run
and jumps to the next timer when nothing is, so an ``asyncio.sleep(d)``
takes exactly ``d`` and CPU work takes nothing: the clock for
*queueing* checks, which then repeat exactly for a seed — the way the
paper's machine is simulated.
"""

from __future__ import annotations

import asyncio
import selectors

__all__ = ["now", "run_virtual"]


def now() -> float:
    """Seconds on the running event loop's clock."""
    return asyncio.get_running_loop().time()


class _VirtualSelector(selectors.DefaultSelector):
    """Polls instead of waiting; a wait that finds nothing ready is a
    jump of :attr:`time` to the loop's next timer.  With no timer
    (``timeout=None``) only another thread can wake the loop, so that
    wait is real."""

    def __init__(self) -> None:
        super().__init__()
        self.time = 0.0

    def select(self, timeout=None):
        if timeout is None:
            return super().select(None)
        ready = super().select(0)
        if not ready:
            self.time += timeout
        return ready


class _VirtualLoop(asyncio.SelectorEventLoop):
    def __init__(self) -> None:
        self._virtual = _VirtualSelector()
        super().__init__(self._virtual)

    def time(self) -> float:
        return self._virtual.time


def run_virtual(coro):
    """Run *coro* on a fresh virtual-time loop, starting at 0.0.

    Teardown matches ``asyncio.run`` (which takes no loop factory
    before Python 3.11): leftover tasks are cancelled, async generators
    finalised, the loop closed.  Called from a running loop it raises
    ``RuntimeError``, as ``asyncio.run`` does.
    """
    try:
        asyncio.get_running_loop()
    except RuntimeError:
        pass
    else:
        coro.close()
        raise RuntimeError(
            "run_virtual() cannot be called from a running event loop")
    loop = _VirtualLoop()
    try:
        asyncio.set_event_loop(loop)
        return loop.run_until_complete(coro)
    finally:
        try:
            leftover = asyncio.all_tasks(loop)
            for task in leftover:
                task.cancel()
            loop.run_until_complete(
                asyncio.gather(*leftover, return_exceptions=True))
            for task in leftover:
                if not task.cancelled() and task.exception() is not None:
                    loop.call_exception_handler({
                        "message": "unhandled exception during shutdown",
                        "exception": task.exception(), "task": task})
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            asyncio.set_event_loop(None)
            loop.close()
