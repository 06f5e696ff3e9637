"""One flush per event-loop turn: the batching the engine and router share.

What arrives between two scheduler turns goes out as one batch, the
FA-BSP idea of the paper's L1 layer applied to reads.  The first
:class:`Request` submitted to a :class:`TurnQueue` in a loop turn
schedules one ``call_soon`` flush, which gets every request of the
turn.  A :class:`Turn` concatenates them, so the caller cuts the keys
at most once (by node, or by shard in service) and settles slots as
answers come in; each request's future resolves once, with its own
slice of the answers.
"""

from __future__ import annotations

import asyncio

import numpy as np

__all__ = ["Request", "Turn", "TurnQueue"]


class Request:
    """Keys awaiting answers, and the caller's ``tag`` for them;
    ``failed`` collects the key positions settled by a retryable error."""

    __slots__ = ("keys", "tag", "pending", "failed", "future")

    def __init__(self, keys: np.ndarray, tag=None):
        self.keys, self.tag = keys, tag
        self.pending = int(keys.size)
        self.failed: list[np.ndarray] = []
        self.future = asyncio.get_running_loop().create_future()


class TurnQueue:
    """One loop turn's requests; its flush calls *flush* once per group."""

    def __init__(self, flush):
        self._flush = flush
        self._groups: dict = {}
        self._handle: asyncio.Handle | None = None

    def submit(self, request: Request, group=None) -> None:
        if not self._groups:
            self._handle = asyncio.get_running_loop().call_soon(self._run)
        self._groups.setdefault(group, []).append(request)

    def _run(self) -> None:
        groups, self._groups = self._groups, {}
        for requests in groups.values():
            self._flush(requests)

    def clear(self) -> None:
        """Drop the requests not flushed yet, and their flush."""
        if self._groups:
            self._handle.cancel()
        self._groups = {}


class Turn:
    """A turn's requests, concatenated: request *i* holds slots
    ``starts[i]:starts[i + 1]`` of :attr:`keys` and :attr:`answers`.
    A :attr:`retryable` error marks slots failed on their request; any
    other error fails the request."""

    retryable: tuple[type[Exception], ...] = ()

    def __init__(self, requests: list[Request]):
        self.requests = requests
        self.keys = (requests[0].keys if len(requests) == 1
                     else np.concatenate([r.keys for r in requests]))
        self.starts = np.cumsum([0] + [r.keys.size for r in requests]).tolist()
        self.answers = np.empty(self.keys.size, dtype=np.int64)

    def parts(self, slots: np.ndarray | None = None):
        """``(request, start, its slots)`` for ascending *slots* (None: all)."""
        if slots is None:
            slots = np.arange(self.keys.size)
        cuts = np.searchsorted(slots, self.starts).tolist()
        return [(r, start, slots[a:b]) for r, start, a, b in zip(
            self.requests, self.starts, cuts, cuts[1:]) if a < b]

    def settle(self, slots: np.ndarray | None = None,
               error: Exception | None = None) -> None:
        """*slots* (as in :meth:`parts`) answered in :attr:`answers`, or
        failed by *error*; a request resolves with its last slot."""
        for request, start, part in self.parts(slots):
            future = request.future
            if isinstance(error, self.retryable):
                request.failed.append(part - start)
            elif error is not None and not future.done():
                future.set_exception(error)
            request.pending -= part.size
            if not request.pending and not future.done():
                future.set_result(self.answers[start:start + request.keys.size])
