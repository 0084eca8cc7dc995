"""Supervised worker-process execution: crash detection, deadlines, retry.

One simulation request = one single-shot worker process.  The supervisor
starts the worker, watches its result pipe under the request's deadline,
and classifies every way the attempt can end:

* **ok** — the worker delivered a success payload;
* **execution-error** — the worker delivered an *error* payload (the
  experiment raised).  The simulation is deterministic, so re-running a
  failed experiment reproduces the same exception: execution errors are
  terminal immediately, never retried;
* **crashed** — the worker died without delivering a payload (segfault,
  OOM kill, ``SIGKILL`` from a chaos test).  Crashes are environmental,
  so the attempt is retried with exponential backoff up to a bounded
  budget; determinism guarantees the retried payload is bit-identical to
  what the crashed attempt would have produced;
* **hung** — the per-request deadline expired with the worker still
  running.  The worker is killed (SIGTERM, then SIGKILL after a grace
  period) and the request terminates with a structured ``timeout``
  outcome — a stuck simulation can never hang the service.

Every terminal state is a structured :class:`SupervisedResult`; the
supervisor never raises for worker misbehaviour and never leaks a worker
process (each attempt joins its process before returning).

The supervisor is synchronous by design — the service runs it on worker
threads via ``asyncio.to_thread`` — and uses the ``fork`` start method
where available so workers inherit runtime-registered experiments, same
as the CLI runner's pool.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..bench.engine import ExecutionEngine

__all__ = ["WorkSpec", "SupervisedResult", "WorkerSupervisor"]


@dataclass(frozen=True)
class WorkSpec:
    """What a worker should execute (the coalescing unit's identity)."""

    experiment_id: str
    quick: bool = True
    trace: bool = False


@dataclass
class SupervisedResult:
    """Terminal outcome of a supervised execution.

    ``outcome`` is one of ``"done"``, ``"execution-error"``,
    ``"worker-crash"`` (retry budget exhausted), ``"timeout"`` (deadline
    tripped).  ``payload`` is the engine payload for ``done`` and
    ``execution-error``, ``None`` otherwise.
    """

    outcome: str
    payload: Optional[dict] = None
    attempts: int = 0
    retries: int = 0
    wall_s: float = 0.0
    detail: str = ""
    exitcodes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the execution produced a success payload."""
        return self.outcome == "done"


def _child_main(conn, spec: WorkSpec) -> None:
    """Worker-process entry point: execute, ship the payload, exit."""
    import signal

    # Shed the parent's asyncio signal plumbing.  A forked worker inherits
    # both the parent's SIGTERM/SIGINT handlers and its signal wakeup fd —
    # so a supervisor SIGTERM aimed at a hung worker would write into the
    # *parent's* event-loop pipe and trigger the parent's drain handler
    # (the service would shut itself down every time it killed a worker).
    # Default dispositions also let proc.terminate() actually terminate.
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_DFL)
    payload = ExecutionEngine().execute(spec.experiment_id, spec.quick, spec.trace)
    conn.send(payload)
    conn.close()
    # Hard-exit once the payload is on the wire.  The worker is forked from
    # a thread of an asyncio parent, and CPython's interpreter teardown in
    # that configuration can die inside threading._shutdown() with a silent
    # exit code 1 — which the supervisor would misread as a crash.  There is
    # nothing left to tear down (the cache write happens in the parent), so
    # skip straight to a deterministic exit status.
    os._exit(0)


def _pool_context():
    """Fork where available (workers inherit runtime-registered
    experiments, mirroring the CLI runner's pool)."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


class WorkerSupervisor:
    """Runs :class:`WorkSpec`\\ s in watched single-shot worker processes.

    *retry_limit* bounds crash retries per request (attempts =
    ``retry_limit + 1``); *backoff_base_s* and *backoff_factor* shape the
    exponential backoff between crash retries (``base * factor ** n``,
    never constant — the RETRY001 discipline); *kill_grace_s* is how long
    a deadline-tripped worker gets to die on SIGTERM before SIGKILL.

    *on_retry* / *on_worker_exit* are metric hooks called with no
    arguments and with the worker's exitcode respectively.
    """

    def __init__(
        self,
        retry_limit: int = 2,
        backoff_base_s: float = 0.25,
        backoff_factor: float = 2.0,
        kill_grace_s: float = 2.0,
        poll_interval_s: float = 0.02,
        on_retry: Optional[Callable[[], None]] = None,
        on_worker_exit: Optional[Callable[[Optional[int]], None]] = None,
    ):
        if retry_limit < 0:
            raise ValueError(f"retry_limit must be >= 0, got {retry_limit}")
        if backoff_factor < 1.0:
            raise ValueError(f"backoff_factor must be >= 1, got {backoff_factor}")
        self.retry_limit = retry_limit
        self.backoff_base_s = backoff_base_s
        self.backoff_factor = backoff_factor
        self.kill_grace_s = kill_grace_s
        self.poll_interval_s = poll_interval_s
        self.on_retry = on_retry
        self.on_worker_exit = on_worker_exit
        self._ctx = _pool_context()

    # -- single attempt ------------------------------------------------------

    def _attempt(self, spec: WorkSpec, timeout_s: float):
        """One worker-process execution.

        Returns ``(status, payload, exitcode)`` with status in
        ``{"ok", "error", "crashed", "hung"}``.
        """
        recv, send = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_child_main, args=(send, spec), name="repro-serve-worker"
        )
        proc.start()
        send.close()
        deadline = time.monotonic() + timeout_s
        payload = None
        status = "crashed"
        try:
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    status = "hung"
                    break
                if recv.poll(min(remaining, self.poll_interval_s)):
                    try:
                        payload = recv.recv()
                    except EOFError:
                        status = "crashed"  # died between connect and send
                        break
                    status = "error" if payload.get("error") else "ok"
                    break
                if not proc.is_alive() and not recv.poll(0):
                    status = "crashed"
                    break
        finally:
            recv.close()
            exitcode = self._reap(proc, hung=status == "hung")
        if self.on_worker_exit is not None:
            self.on_worker_exit(exitcode)
        return status, payload, exitcode

    def _reap(self, proc, hung: bool) -> Optional[int]:
        """Join the worker (escalating SIGTERM -> SIGKILL for hung ones);
        returns its exitcode and releases the process object."""
        if hung and proc.is_alive():
            proc.terminate()
            proc.join(self.kill_grace_s)
            if proc.is_alive():
                proc.kill()
        proc.join(self.kill_grace_s)
        if proc.is_alive():  # pragma: no cover - kill cannot be refused
            proc.kill()
            proc.join()
        exitcode = proc.exitcode
        proc.close()
        return exitcode

    # -- retry loop ----------------------------------------------------------

    def run(self, spec: WorkSpec, deadline_s: float) -> SupervisedResult:
        """Execute *spec* to a terminal outcome within *deadline_s* seconds.

        The deadline covers the whole request — every attempt and every
        backoff sleep; a request can therefore never occupy a worker slot
        for longer than ``deadline_s`` plus one kill grace period.
        """
        if deadline_s <= 0:
            raise ValueError(f"deadline_s must be > 0, got {deadline_s}")
        start = time.monotonic()
        attempts = 0
        exitcodes: list = []
        while True:
            remaining = deadline_s - (time.monotonic() - start)
            if remaining <= 0:
                return SupervisedResult(
                    outcome="timeout",
                    attempts=attempts,
                    retries=max(attempts - 1, 0),
                    wall_s=time.monotonic() - start,
                    detail=f"deadline of {deadline_s:g}s exhausted by retries",
                    exitcodes=exitcodes,
                )
            attempts += 1
            status, payload, exitcode = self._attempt(spec, remaining)
            exitcodes.append(exitcode)
            wall_s = time.monotonic() - start
            if status == "ok":
                return SupervisedResult(
                    outcome="done",
                    payload=payload,
                    attempts=attempts,
                    retries=attempts - 1,
                    wall_s=wall_s,
                    exitcodes=exitcodes,
                )
            if status == "error":
                return SupervisedResult(
                    outcome="execution-error",
                    payload=payload,
                    attempts=attempts,
                    retries=attempts - 1,
                    wall_s=wall_s,
                    detail=payload.get("error_class") or "Exception",
                    exitcodes=exitcodes,
                )
            if status == "hung":
                return SupervisedResult(
                    outcome="timeout",
                    attempts=attempts,
                    retries=attempts - 1,
                    wall_s=wall_s,
                    detail=(
                        f"worker still running at the {deadline_s:g}s deadline; "
                        "killed"
                    ),
                    exitcodes=exitcodes,
                )
            # status == "crashed": retry with exponential backoff while the
            # budget and the deadline allow.
            if attempts > self.retry_limit:
                return SupervisedResult(
                    outcome="worker-crash",
                    attempts=attempts,
                    retries=attempts - 1,
                    wall_s=wall_s,
                    detail=(
                        f"worker crashed {attempts} time(s) "
                        f"(exitcodes {exitcodes}); retry budget "
                        f"({self.retry_limit}) exhausted"
                    ),
                    exitcodes=exitcodes,
                )
            if self.on_retry is not None:
                self.on_retry()
            delay = self.backoff_base_s * self.backoff_factor ** (attempts - 1)
            remaining = deadline_s - (time.monotonic() - start)
            time.sleep(max(0.0, min(delay, remaining)))
