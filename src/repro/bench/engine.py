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
  and the original request arguments).  A run whose sanitized
  simulators (``REPRO_SANITIZE=1``) report any violation fails too, with
  ``error_class`` ``"SanitizerViolation"`` and the rendered violations
  as ``error``: every front end reports it as it reports an exception.

``comparisons``/``rendered``/``data`` are pure functions of the request
(the simulation is seedless).  ``events`` is exact from run to run as
well, and only ``wall_s`` varies.  Consumers that need bit-identity (the
service's result bodies, the cache parity tests) compare
:func:`deterministic_view` of a payload, which leaves out both telemetry
keys; ``scripts/check_bench.py`` compares ``events`` alongside it.
:func:`view_differences` is the one comparator of two views: the sweep
gate reports through it.
"""

from __future__ import annotations

import dataclasses
import sys
import time
import traceback

from ..sim import kernel_event_count
from . import harness

__all__ = ["ExecutionEngine", "deterministic_view", "view_differences"]

#: Payload keys that are pure functions of (experiment, quick, calibration,
#: version) — everything except wall-clock/event telemetry and traces.
DETERMINISTIC_KEYS = ("experiment_id", "title", "rendered", "comparisons", "data")

#: The module holding the registry of sanitized simulators.  A simulator
#: imports it only when it sanitizes, so while it is not loaded the
#: registry is empty, and the engine never loads it itself.
_SANITIZER_MODULE = "repro.analysis.sanitizer"


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


def view_differences(view: dict, baseline: dict) -> list[str]:
    """How *view* differs from the *baseline* view, one line per difference.

    Comparison rows are compared row by row, so a moved number names its
    row; any other key that differs is named whole.  Empty when the views
    are equal.
    """
    lines: list[str] = []
    for key in sorted(view.keys() | baseline.keys()):
        value, ref_value = view.get(key), baseline.get(key)
        if value == ref_value:
            continue
        if key == "comparisons" and isinstance(value, list) and isinstance(ref_value, list):
            if len(value) != len(ref_value):
                lines.append(
                    f"{len(value)} comparison rows != baseline {len(ref_value)}"
                )
            lines.extend(
                _row_difference(row, ref_row)
                for row, ref_row in zip(value, ref_value)
                if row != ref_row
            )
        else:
            lines.append(f"{key} differs from the baseline")
    return lines


def _row_difference(row: list, ref: list) -> str:
    if row[:1] == ref[:1] and row[2:] == ref[2:]:
        return f"row {ref[0]!r} = {row[1]!r} != baseline {ref[1]!r}"
    return f"row {row!r} != baseline {ref!r}"


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

        Every execution carries its sanitizer verdict.  The registry of
        sanitized simulators is emptied before the run and drained after
        it, also when the experiment raised, so it holds nothing between
        executions.  Any violation in a run that did not raise turns the
        payload into a ``"SanitizerViolation"`` error payload; a run that
        raised reports its exception.
        """
        sanitizer = sys.modules.get(_SANITIZER_MODULE)
        if sanitizer is not None:
            sanitizer.reset_registry()
        session = None
        session_cm = None
        if trace:
            from ..obs import TraceSession

            session = TraceSession(label=experiment_id)
            session_cm = session.activate()
            session_cm.__enter__()
        t0 = time.perf_counter()
        ev0 = kernel_event_count()
        error_class = error = None
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
            error_class, error = type(exc).__name__, traceback.format_exc()
        finally:
            if session_cm is not None:
                session_cm.__exit__(None, None, None)
        wall_s = time.perf_counter() - t0
        events = kernel_event_count() - ev0
        sanitizer = sys.modules.get(_SANITIZER_MODULE)
        if sanitizer is not None:
            violations = [v for r in sanitizer.collect_reports() for v in r.violations]
            if violations and error is None:
                error_class = "SanitizerViolation"
                error = "\n".join(v.render() for v in violations)
        if error is not None:
            return {
                "experiment_id": experiment_id,
                "error": error,
                "error_class": error_class,
                "args": {"experiment_id": experiment_id, "quick": bool(quick)},
                "wall_s": wall_s,
                "events": events,
            }
        payload = {
            "experiment_id": experiment_id,
            "title": result.title,
            "rendered": result.rendered,
            "comparisons": [list(row) for row in result.comparisons],
            "wall_s": wall_s,
            "events": events,
            "data": _jsonable(getattr(result, "data", None)),
        }
        if session is not None:
            payload["trace"] = session.payload()
        return payload


#: Process-wide engine the runner's serial path executes through.
ENGINE = ExecutionEngine()
