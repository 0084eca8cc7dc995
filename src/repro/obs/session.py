"""Trace sessions: the recording half of :mod:`repro.obs`.

A :class:`TraceSession` collects *span*, *counter* and *instant* records
from every :class:`~repro.sim.core.Simulator` constructed while the session
is active (``with session.activate(): ...``).  Components never talk to the
session directly — each simulator gets a small per-run *scope*
(``sim._obs``) that stamps records with the simulator's run index and reads
timestamps from ``sim.now``, mirroring the paper's methodology of timing
each pipeline block (TX engine, Nios II firmware, RX DMA — §IV-§V) in situ.

The discipline that keeps traced runs bit-identical to untraced ones:

* probe sites only *read* simulation state (``sim.now``, queue depths) and
  never create events, acquire resources, or advance time;
* span ends ride existing completion events (``done.callbacks.append``) or
  use completion times the model already computed (:meth:`_SimScope.span_at`),
  so the event heap and sequence numbers are untouched;
* when no session is active ``sim._obs`` is ``None`` and every probe site
  reduces to one attribute load and an is-None test.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from ..sim import core as _kernel

__all__ = ["TraceSession", "Span"]

# A bounded record buffer so a runaway full-parameter sweep cannot eat the
# heap: beyond the cap new records are counted in ``dropped`` and discarded
# (never silently — exports and summaries surface the drop count).
DEFAULT_MAX_EVENTS = 2_000_000


class Span:
    """An open interval on one component's timeline.

    Returned by ``scope.span(component, name)``; closed by :meth:`end`,
    by using it as a context manager, or by appending :meth:`end_event`
    to an existing completion event's callbacks.  Ending twice is a no-op
    so spans can safely ride events with multiple observers.
    """

    __slots__ = ("_scope", "component", "name", "begin", "args", "_open")

    def __init__(self, scope: "_SimScope", component: str, name: str, args: dict):
        self._scope = scope
        self.component = component
        self.name = name
        self.begin = scope.sim.now
        self.args = args
        self._open = True

    def end(self) -> None:
        """Close the span at the simulator's current time."""
        if not self._open:
            return
        self._open = False
        scope = self._scope
        scope._emit_span(self.component, self.name, self.begin, scope.sim.now, self.args)

    def end_event(self, _event=None) -> None:
        """Event-callback adapter: ``done.callbacks.append(span.end_event)``."""
        self.end()

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()


class _SimScope:
    """One simulator's view into a session (stamps the run index)."""

    __slots__ = ("session", "sim", "run")

    def __init__(self, session: "TraceSession", sim, run: int):
        self.session = session
        self.sim = sim
        self.run = run

    # -- recording ----------------------------------------------------------

    def span(self, component: str, name: str, **args: Any) -> Span:
        """Open a span starting now; close it with ``.end()``."""
        return Span(self, component, name, args)

    def span_at(
        self, component: str, name: str, begin: float, end: float, **args: Any
    ) -> None:
        """Record a completed span from times the model already computed.

        This is the zero-event path for components like
        :class:`~repro.sim.channel.Channel` that know their completion time
        up front: no callback, no state, just a record.
        """
        self._emit_span(component, name, begin, end, args)

    def counter(self, component: str, track: str, value: float) -> None:
        """Sample *track* (a named value series, e.g. queue depth) at now."""
        session = self.session
        events = session.events
        if len(events) >= session.max_events:
            session.dropped += 1
            return
        events.append(
            {
                "ph": "C",
                "run": self.run,
                "comp": component,
                "name": track,
                "ts": self.sim.now,
                "value": value,
            }
        )

    def instant(self, component: str, name: str, **args: Any) -> None:
        """Record a point-in-time marker (e.g. a dropped RX packet)."""
        session = self.session
        events = session.events
        if len(events) >= session.max_events:
            session.dropped += 1
            return
        rec = {
            "ph": "i",
            "run": self.run,
            "comp": component,
            "name": name,
            "ts": self.sim.now,
        }
        if args:
            rec["args"] = args
        events.append(rec)

    # -- internal -----------------------------------------------------------

    def _emit_span(
        self, component: str, name: str, begin: float, end: float, args: dict
    ) -> None:
        session = self.session
        events = session.events
        if len(events) >= session.max_events:
            session.dropped += 1
            return
        rec = {
            "ph": "X",
            "run": self.run,
            "comp": component,
            "name": name,
            "ts": begin,
            "dur": end - begin,
        }
        if args:
            rec["args"] = args
        events.append(rec)


class TraceSession:
    """Recording context for one traced run (or one experiment).

    Usage::

        session = TraceSession(label="selftest")
        with session.activate():
            ...  # build Simulators, run workloads
        doc = chrome_trace_doc({"selftest": session.payload()})

    Each ``Simulator()`` constructed while active registers with the session
    and gets a run index (construction order — deterministic, so traces are
    identical across ``--jobs`` values and across processes).
    """

    def __init__(self, label: str = "", max_events: int = DEFAULT_MAX_EVENTS):
        self.label = label
        self.max_events = max_events
        self.events: list[dict] = []
        self.dropped = 0
        self.runs = 0

    # -- kernel hooks --------------------------------------------------------

    def scope_for(self, sim) -> _SimScope:
        """Called by ``Simulator.__init__``: bind *sim* to this session."""
        run = self.runs
        self.runs += 1
        return _SimScope(self, sim, run)

    # -- activation ----------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["TraceSession"]:
        """Make this the session that new Simulators record to.

        One session is active at a time.  A nested activation records
        alone: the enclosing session gets no records from Simulators built
        inside it, and is active again once it exits.
        """
        previous = _kernel._TRACE_SESSION
        _kernel._TRACE_SESSION = self
        try:
            yield self
        finally:
            _kernel._TRACE_SESSION = previous

    # -- inspection ----------------------------------------------------------

    def components(self) -> list[str]:
        """Sorted distinct component names seen so far."""
        return sorted({rec["comp"] for rec in self.events})

    def span_count(self) -> int:
        """Number of completed spans recorded so far."""
        return sum(1 for rec in self.events if rec["ph"] == "X")

    def payload(self, label: Optional[str] = None) -> dict:
        """JSON-ready dict for export / shipping across worker processes."""
        return {
            "label": self.label if label is None else label,
            "runs": self.runs,
            "dropped": self.dropped,
            "events": self.events,
        }
