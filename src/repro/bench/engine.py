"""The shared execution core behind the CLI sweeps and ``repro.serve``.

Exactly one place in the tree knows how to turn ``(experiment_id, quick,
trace)`` into a result payload: :class:`ExecutionEngine`.  The runner
(:mod:`repro.bench.runner`) calls it in-process for serial sweeps; for
``--jobs N`` sweeps and for every request of the always-on service
(:mod:`repro.serve`) it runs inside single-shot worker processes started
by :class:`~repro.bench.supervisor.WorkerSupervisor`.  All paths
therefore produce byte-identical payloads for the same request — which
is what lets the two front ends share one on-disk
:class:`~repro.bench.runner.ResultCache` and lets the supervisor promise
that a retried execution (after a worker crash) returns a payload
bit-identical to an undisturbed run.

The payload contract (``engine.execute`` never raises for experiment
failures):

* success — ``{"experiment_id", "title", "rendered", "comparisons",
  "wall_s", "events", "data"}`` plus ``"trace"`` when traced;
* failure — ``{"experiment_id", "error", "error_class", "args",
  "wall_s", "events"}`` (the traceback string, the exception class name,
  and the original request arguments).

``comparisons``/``rendered``/``data`` are pure functions of the request
(the simulation is seedless).  ``events`` is exact from run to run as
well, and only ``wall_s`` varies.  Consumers that need bit-identity (the
service's result bodies, the cache parity tests) compare
:func:`deterministic_view` of a payload, which leaves out both telemetry
keys; ``scripts/check_bench.py`` compares ``events`` alongside it.
"""

from __future__ import annotations

import dataclasses
import time
import traceback

from ..sim import kernel_event_count
from . import harness

__all__ = ["ExecutionEngine", "deterministic_view"]

#: Payload keys that are pure functions of (experiment, quick, calibration,
#: version) — everything except wall-clock/event telemetry and traces.
DETERMINISTIC_KEYS = ("experiment_id", "title", "rendered", "comparisons", "data")


def _jsonable(obj):
    """Recursively coerce an experiment ``data`` block to JSON-safe types.

    Payloads cross a JSON boundary twice (the result cache and the
    ``--json`` artifact), but experiments are free to stash richer
    objects — dataclasses (e.g. figure ``Series``), tuples, sets — in
    ``ExperimentResult.data``.  Dataclasses become dicts, tuples/sets
    become lists, dict keys become strings, and anything else falls back
    to ``repr`` rather than failing the whole sweep.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj, key=repr) if isinstance(obj, (set, frozenset)) else obj
        return [_jsonable(v) for v in seq]
    return repr(obj)


def deterministic_view(payload: dict) -> dict:
    """The bit-identical subset of a result payload.

    Strips the telemetry (``wall_s``, which differs between two executions
    of the same request, and ``events``) and trace data, keeping only the
    keys that the determinism contract covers.  The service's
    crash-retry acceptance gate compares these views byte for byte.
    """
    return {k: payload[k] for k in DETERMINISTIC_KEYS if k in payload}


class ExecutionEngine:
    """Runs registered experiments and renders their outcome as payloads.

    Stateless by design — an engine can be constructed per process, per
    request, or once and shared; every behaviour lives in
    :meth:`execute`'s arguments so CLI and service cannot drift apart.
    """

    def execute(self, experiment_id: str, quick: bool, trace: bool = False) -> dict:
        """Run one experiment in this process; always returns a payload dict.

        With ``trace=True`` the experiment runs under a fresh
        :class:`~repro.obs.TraceSession` and the payload gains a ``"trace"``
        key (the session payload).  Tracing is observation-only, so the
        comparison rows are identical either way; each experiment gets its
        own session, so trace content is independent of worker scheduling.
        """
        session = None
        session_cm = None
        if trace:
            from ..obs import TraceSession

            session = TraceSession(label=experiment_id)
            session_cm = session.activate()
            session_cm.__enter__()
        t0 = time.perf_counter()
        ev0 = kernel_event_count()
        try:
            result = harness.run(experiment_id, quick=quick)
        except (KeyboardInterrupt, SystemExit):
            # Ctrl-C / interpreter shutdown must tear the sweep down, not be
            # folded into an error payload.
            raise
        except Exception as exc:  # repro: noqa-SIM001 — execution isolation
            # boundary: one failing experiment becomes an "error" payload
            # instead of killing the other workers; the class, args and
            # traceback are all preserved so nothing is swallowed.
            return {
                "experiment_id": experiment_id,
                "error": traceback.format_exc(),
                "error_class": type(exc).__name__,
                "args": {"experiment_id": experiment_id, "quick": bool(quick)},
                "wall_s": time.perf_counter() - t0,
                "events": kernel_event_count() - ev0,
            }
        finally:
            if session_cm is not None:
                session_cm.__exit__(None, None, None)
        payload = {
            "experiment_id": experiment_id,
            "title": result.title,
            "rendered": result.rendered,
            "comparisons": [list(row) for row in result.comparisons],
            "wall_s": time.perf_counter() - t0,
            "events": kernel_event_count() - ev0,
            "data": _jsonable(getattr(result, "data", None)),
        }
        if session is not None:
            payload["trace"] = session.payload()
        return payload


#: Process-wide engine the runner's serial path executes through.
ENGINE = ExecutionEngine()
