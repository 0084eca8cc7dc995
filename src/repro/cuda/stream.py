"""CUDA streams: in-order queues over the device engines.

Work items enqueued on one stream execute strictly in order; different
streams proceed independently — the property MPI pipelining implementations
get wrong at their peril: "this approach can even hurt performance for
medium-size messages, due to them not using independent CUDA STREAMs,
thereby introducing an implicit synchronization that ruins the
computation-communication overlap" (§II).

A work item is a thunk returning a device-side completion
:class:`~repro.sim.core.Event`; the stream worker awaits each in turn.
:meth:`CudaStream.enqueue` returns the item's own completion event, so a
caller synchronizes on a work item by yielding that event.
"""

from __future__ import annotations

from typing import Callable

from ..sim import Event, Simulator, Store

__all__ = ["CudaStream"]


class CudaStream:
    """One in-order execution queue bound to a GPU."""

    def __init__(self, sim: Simulator, name: str = "stream"):
        self.sim = sim
        self.name = name
        self._queue: Store = Store(sim)
        sim.process(self._worker(), name=f"{name}.worker")

    def enqueue(self, thunk: Callable[[], Event]) -> Event:
        """Queue a work item; returns its per-item completion event."""
        done = Event(self.sim)
        self._queue.put((thunk, done))
        return done

    def _worker(self):
        while True:
            thunk, done = yield self._queue.get()
            try:
                completion = thunk()
                if completion is not None:
                    result = yield completion
                else:
                    result = None
            except GeneratorExit:  # worker GC'd at simulation teardown
                raise
            except BaseException as exc:  # repro: noqa-SIM001 — crash boundary:
                # the failure is re-raised through the waiter's event.
                done.fail(exc)
                continue
            done.succeed(result)
