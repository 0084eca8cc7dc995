"""The simulation service core: admission, dedup, supervision, drain.

:class:`SimulationService` is the HTTP-free heart of ``repro.serve`` —
the chaos tests drive it directly, the asyncio HTTP front end
(:mod:`repro.serve.http`) is a thin routing layer over it.  One instance
owns:

* a **bounded admission queue**: at most ``queue_limit`` executions may
  be waiting for a worker slot; submissions beyond that are rejected
  immediately with HTTP 429 and a ``Retry-After`` hint, never queued
  unboundedly (overload degrades explicitly, not by OOM);
* **request deduplication**: the coalescing key is the runner's
  :func:`~repro.bench.runner.cache_key` (experiment, quick, calibration,
  version) plus the trace flag — identical concurrent
  submissions attach to one in-flight execution, and completed results
  are answered from the shared on-disk :class:`~repro.bench.runner.ResultCache`
  (the same cache ``python -m repro.bench`` reads and writes);
* a **supervised worker pool**: each execution runs on a single-shot
  worker process watched by :class:`~repro.serve.supervisor.WorkerSupervisor`
  (crash -> exponential-backoff retry within a bounded budget, hang ->
  deadline kill), with ``workers`` concurrent slots;
* **graceful drain**: :meth:`begin_drain` stops admission (readiness and
  ``repro_serve_up`` drop immediately), lets in-flight executions finish,
  then fires :attr:`drained` — the CLI front end exits 0 afterwards.

Every request is traced through four service spans — ``admission`` (submit
validation + cache/dedup checks), ``queue`` (waiting for a worker slot),
``execute`` (the supervised run), ``land`` (cache write + request
resolution) — recorded in the :mod:`repro.obs` event schema so a traced
request's serve-side story exports alongside its simulation spans.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Optional

from .. import __version__
from ..bench import harness
from ..bench.engine import deterministic_view
from ..bench.runner import ResultCache, cache_key, default_cache_dir
from .metrics import Registry
from .supervisor import SupervisedResult, WorkerSupervisor, WorkSpec

__all__ = ["ServeConfig", "SimulationService", "Rejected"]


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one service instance (all overridable from the CLI)."""

    host: str = "127.0.0.1"
    port: int = 8642
    workers: int = 2  # concurrent supervised executions
    queue_limit: int = 16  # executions waiting for a slot; beyond -> 429
    deadline_s: float = 300.0  # per-request deadline (attempts + backoff)
    retry_limit: int = 2  # crash retries per request
    backoff_base_s: float = 0.25
    backoff_factor: float = 2.0
    retry_after_s: float = 2.0  # hint on 429/503 responses
    use_cache: bool = True
    cache_dir: Optional[str] = None  # None = the runner's default
    request_history: int = 4096  # terminal requests kept for /status


class Rejected(Exception):
    """A submission the service refuses to admit.

    Carries the HTTP status the front end should answer with (400 unknown
    request, 429 overload, 503 draining) and whether a ``Retry-After``
    hint applies (overload and drain are transient; bad requests are not).
    """

    def __init__(self, status: int, reason: str, retry_after_s: Optional[float] = None):
        super().__init__(reason)
        self.status = status
        self.reason = reason
        self.retry_after_s = retry_after_s


@dataclass
class _Request:
    """One submission's lifecycle record."""

    id: str
    experiment_id: str
    quick: bool
    trace: bool
    key: str
    submitted_m: float  # monotonic, for latency
    state: str = "queued"  # queued | running | done | failed
    outcome: Optional[str] = None  # done|timeout|worker-crash|execution-error
    cached: bool = False
    coalesced: bool = False
    attempts: int = 0
    retries: int = 0
    wall_s: float = 0.0
    detail: str = ""
    payload: Optional[dict] = None  # engine payload for terminal ok/error
    spans: list = field(default_factory=list)

    def public(self, include_result: bool = False) -> dict:
        """The JSON view served by /status and /result."""
        doc = {
            "request_id": self.id,
            "experiment": self.experiment_id,
            "quick": self.quick,
            "trace": self.trace,
            "state": self.state,
            "outcome": self.outcome,
            "cached": self.cached,
            "coalesced": self.coalesced,
        }
        if self.state in ("done", "failed"):
            doc["telemetry"] = {
                "attempts": self.attempts,
                "retries": self.retries,
                "wall_s": self.wall_s,
                "spans": self.spans,
            }
            if self.detail:
                doc["detail"] = self.detail
        if include_result and self.payload is not None:
            if self.state == "done":
                # The deterministic view: bit-identical across retries,
                # workers, and front ends (CLI vs service).
                doc["result"] = deterministic_view(self.payload)
                if self.trace and "trace" in self.payload:
                    doc["trace"] = self.payload["trace"]
            else:
                doc["error"] = {
                    "error_class": self.payload.get("error_class"),
                    "traceback": self.payload.get("error"),
                }
        return doc


class _Execution:
    """One in-flight supervised run; the unit requests coalesce onto."""

    __slots__ = (
        "key", "spec", "deadline_s", "use_cache", "request_ids", "state",
        "spans", "t0_m",
    )

    def __init__(
        self,
        key: str,
        spec: WorkSpec,
        deadline_s: float,
        t0_m: float,
        use_cache: bool = True,
    ):
        self.key = key
        self.spec = spec
        self.deadline_s = deadline_s
        self.use_cache = use_cache
        self.request_ids: list[str] = []
        self.state = "queued"  # queued | running
        self.spans: list[dict] = []
        self.t0_m = t0_m


class SimulationService:
    """Admission + dedup + supervision + metrics, behind async methods.

    Construct, then call :meth:`submit` / :meth:`status` / :meth:`result`
    from one event loop.  The supervisor's blocking work runs on
    ``asyncio.to_thread`` workers, bounded by a semaphore of
    ``config.workers`` slots.
    """

    def __init__(self, config: ServeConfig = ServeConfig()):
        self.config = config
        self.accepting = True
        self.drained = asyncio.Event()
        self._draining = False
        self._start_m = time.monotonic()
        self._seq = 0
        self._requests: dict[str, _Request] = {}
        self._order: list[str] = []  # insertion order, for history eviction
        self._executions: dict[str, _Execution] = {}
        self._tasks: set[asyncio.Task] = set()
        self._slots = asyncio.Semaphore(config.workers)
        self._cache = ResultCache(
            config.cache_dir if config.cache_dir is not None else default_cache_dir()
        )
        self._init_metrics()
        self.supervisor = WorkerSupervisor(
            retry_limit=config.retry_limit,
            backoff_base_s=config.backoff_base_s,
            backoff_factor=config.backoff_factor,
            on_retry=self.m_retries.inc,
            on_worker_exit=self._note_worker_exit,
        )

    # -- metrics -------------------------------------------------------------

    def _init_metrics(self) -> None:
        r = self.registry = Registry()
        self.m_info = r.gauge(
            "repro_serve_info",
            "Constant 1, with the package version as a label.",
            ("version",),
        )
        self.m_info.set(1, version=__version__)
        self.m_up = r.gauge(
            "repro_serve_up",
            "1 while accepting work, 0 once draining for shutdown.",
        )
        self.m_up.set(1)
        self.m_http = r.counter(
            "repro_serve_http_requests_total",
            "HTTP requests served, by route and status code.",
            ("route", "code"),
        )
        self.m_requests = r.counter(
            "repro_serve_requests_total",
            "Submitted simulation requests, by admission outcome "
            "(accepted|rejected).",
            ("outcome",),
        )
        self.m_inflight = r.gauge(
            "repro_serve_requests_inflight",
            "Requests in a non-terminal state (accepted, queued or running).",
        )
        self.m_queue_depth = r.gauge(
            "repro_serve_queue_depth",
            "Executions admitted but not yet running on a worker.",
        )
        self.m_cache_hits = r.counter(
            "repro_serve_cache_hits_total",
            "Requests answered from the on-disk result cache.",
        )
        self.m_cache_misses = r.counter(
            "repro_serve_cache_misses_total",
            "Requests that required a fresh execution (cache miss or "
            "cache=false).",
        )
        self.m_dedup_hits = r.counter(
            "repro_serve_dedup_hits_total",
            "Requests attached to an identical already-in-flight execution.",
        )
        self.m_completed = r.counter(
            "repro_serve_completed_total",
            "Terminal requests, by outcome "
            "(done|timeout|execution-error|worker-crash).",
            ("outcome",),
        )
        self.m_latency = r.histogram(
            "repro_serve_request_latency_seconds",
            "Submit-to-terminal latency per experiment, in seconds.",
            ("experiment",),
        )
        self.m_sim_events = r.counter(
            "repro_serve_sim_events_total",
            "Simulated DES kernel events processed by completed executions.",
        )
        self.m_sim_wall = r.counter(
            "repro_serve_sim_wall_seconds_total",
            "Worker wall-clock seconds spent executing simulations (rate "
            "ratio with repro_serve_sim_events_total gives sim events/s).",
        )
        self.m_retries = r.counter(
            "repro_serve_retries_total",
            "Execution attempts retried after a worker crash (exponential "
            "backoff, bounded budget).",
        )
        self.m_worker_restarts = r.counter(
            "repro_serve_worker_restarts_total",
            "Worker processes that exited abnormally (crashed or killed).",
        )
        self.m_obs_spans = r.counter(
            "repro_sim_spans_total",
            "Obs bridge: spans recorded by traced executions, by component "
            "and span name.",
            ("component", "name"),
        )
        self.m_obs_span_seconds = r.counter(
            "repro_sim_span_seconds_total",
            "Obs bridge: total simulated time inside spans, by component and "
            "span name.",
            ("component", "name"),
        )
        self.m_obs_counter_last = r.gauge(
            "repro_sim_counter_last",
            "Obs bridge: last sampled value of each simulation counter track.",
            ("component", "track"),
        )

    def _note_worker_exit(self, exitcode: Optional[int]) -> None:
        if exitcode != 0:
            self.m_worker_restarts.inc()

    def metrics_text(self) -> str:
        """The /metrics document."""
        return self.registry.render()

    # -- span helpers --------------------------------------------------------

    def _now_ns(self) -> float:
        """Wall nanoseconds since service start (the serve-span clock)."""
        return (time.monotonic() - self._start_m) * 1e9

    def _span(self, sink: list, name: str, begin_ns: float, **args) -> None:
        """Record one completed serve-phase span in the obs event schema."""
        rec = {
            "ph": "X",
            "run": 0,
            "comp": "serve",
            "name": name,
            "ts": begin_ns,
            "dur": self._now_ns() - begin_ns,
        }
        if args:
            rec["args"] = args
        sink.append(rec)

    # -- submission ----------------------------------------------------------

    def _next_id(self) -> str:
        self._seq += 1
        return f"req-{self._seq:06d}"

    def _parse(self, body: dict) -> tuple[str, bool, bool, bool, float]:
        if not isinstance(body, dict):
            raise Rejected(400, "request body must be a JSON object")
        experiment_id = body.get("experiment")
        if not isinstance(experiment_id, str) or not experiment_id:
            raise Rejected(400, "missing required field 'experiment'")
        try:
            harness.get(experiment_id)
        except KeyError as exc:
            raise Rejected(400, exc.args[0]) from None
        quick = body.get("quick", True)
        if not isinstance(quick, bool):
            raise Rejected(400, "'quick' must be a boolean")
        trace = body.get("trace", False)
        if not isinstance(trace, bool):
            raise Rejected(400, "'trace' must be a boolean")
        use_cache = body.get("cache", True)
        if not isinstance(use_cache, bool):
            raise Rejected(400, "'cache' must be a boolean")
        deadline_s = body.get("deadline_s", self.config.deadline_s)
        if not isinstance(deadline_s, (int, float)) or isinstance(deadline_s, bool) \
                or not deadline_s > 0:
            raise Rejected(400, "'deadline_s' must be a positive number")
        return experiment_id, quick, trace, use_cache, float(deadline_s)

    async def submit(self, body: dict) -> tuple[int, dict]:
        """Admit one submission; returns ``(http_status, response_doc)``.

        Raises :class:`Rejected` for anything the service refuses: 400 for
        malformed requests, 429 with ``Retry-After`` when the admission
        queue is full, 503 while draining.
        """
        t_adm = self._now_ns()
        if not self.accepting:
            self.m_requests.inc(outcome="rejected")
            raise Rejected(
                503, "service is draining", retry_after_s=self.config.retry_after_s
            )
        experiment_id, quick, trace, use_cache, deadline_s = self._parse(body)
        use_cache = use_cache and self.config.use_cache and not trace
        key = cache_key(experiment_id, quick)
        if trace:
            key += "+trace"

        req = _Request(
            id=self._next_id(),
            experiment_id=experiment_id,
            quick=quick,
            trace=trace,
            key=key,
            submitted_m=time.monotonic(),
        )

        # 1. The shared on-disk cache (the CLI runner's): a hit is terminal
        #    immediately — no queue, no worker.
        if use_cache:
            payload = self._cache.get(key)
            if payload is not None:
                self.m_cache_hits.inc()
                req.cached = True
                req.payload = payload
                self._span(req.spans, "admission", t_adm, resolution="cache-hit")
                self._remember(req)
                self._finish_request(req, "done", payload=payload)
                self.m_requests.inc(outcome="accepted")
                return 200, req.public(include_result=True)
        self.m_cache_misses.inc()

        # 2. In-flight coalescing: identical concurrent submissions share
        #    one execution (and the first request's deadline).
        exe = self._executions.get(key)
        if exe is not None:
            self.m_dedup_hits.inc()
            req.coalesced = True
            req.state = exe.state
            self._span(req.spans, "admission", t_adm, resolution="coalesced")
            exe.request_ids.append(req.id)
            self._remember(req)
            self._admit(req)
            return 202, req.public()

        # 3. Bounded admission: reject rather than queue without limit.
        queued = sum(1 for e in self._executions.values() if e.state == "queued")
        if queued >= self.config.queue_limit:
            self.m_requests.inc(outcome="rejected")
            raise Rejected(
                429,
                f"admission queue full ({queued} executions waiting, "
                f"limit {self.config.queue_limit})",
                retry_after_s=self.config.retry_after_s,
            )

        spec = WorkSpec(experiment_id=experiment_id, quick=quick, trace=trace)
        exe = _Execution(
            key, spec, deadline_s, t0_m=time.monotonic(), use_cache=use_cache
        )
        exe.request_ids.append(req.id)
        self._executions[key] = exe
        self.m_queue_depth.set(queued + 1)
        self._span(req.spans, "admission", t_adm, resolution="executed")
        self._remember(req)
        self._admit(req)
        task = asyncio.get_running_loop().create_task(self._run_execution(exe))
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)
        return 202, req.public()

    def _admit(self, req: _Request) -> None:
        self.m_requests.inc(outcome="accepted")
        self.m_inflight.inc()

    def _remember(self, req: _Request) -> None:
        self._requests[req.id] = req
        self._order.append(req.id)
        # Bound the history: evict the oldest *terminal* requests beyond the
        # cap so /status answers stay O(1) memory under sustained load.
        while len(self._order) > self.config.request_history:
            for i, rid in enumerate(self._order):
                old = self._requests.get(rid)
                if old is None or old.state in ("done", "failed"):
                    del self._order[i]
                    self._requests.pop(rid, None)
                    break
            else:
                break  # everything is in flight; nothing evictable

    # -- execution -----------------------------------------------------------

    async def _run_execution(self, exe: _Execution) -> None:
        t_queue = self._now_ns()
        async with self._slots:
            exe.state = "running"
            for rid in exe.request_ids:
                req = self._requests.get(rid)
                if req is not None:
                    req.state = "running"
            self.m_queue_depth.set(
                sum(1 for e in self._executions.values() if e.state == "queued")
            )
            self._span(exe.spans, "queue", t_queue)
            t_exec = self._now_ns()
            result = await asyncio.to_thread(
                self.supervisor.run, exe.spec, exe.deadline_s
            )
            self._span(
                exe.spans,
                "execute",
                t_exec,
                outcome=result.outcome,
                attempts=result.attempts,
            )
            await self._land(exe, result)
        self._executions.pop(exe.key, None)
        self._maybe_drained()

    async def _land(self, exe: _Execution, result: SupervisedResult) -> None:
        t_land = self._now_ns()
        if result.ok:
            if exe.use_cache:
                # Same payload format the CLI runner stores — the two front
                # ends share one cache.  The trace is stripped exactly like
                # runner._land does.
                stored = {
                    k: v for k, v in result.payload.items() if k != "trace"
                }
                await asyncio.to_thread(self._cache.put, exe.key, stored)
            payload = result.payload
            if exe.spec.trace and "trace" in payload:
                self._bridge_trace(payload["trace"])
                # The serve-phase spans ride the trace payload so a traced
                # request exports end to end (admission -> queue -> execute;
                # "land" is still open here and lands in request telemetry).
                payload["trace"]["events"] = (
                    list(self._spans_for(exe)) + payload["trace"]["events"]
                )
            self.m_sim_events.inc(payload.get("events", 0))
            self.m_sim_wall.inc(payload.get("wall_s", 0.0))
        # The land span covers the cache write and trace bridging; recorded
        # before the finish loop so request telemetry carries all four
        # service phases (admission -> queue -> execute -> land).
        self._span(exe.spans, "land", t_land)
        state = "done" if result.ok else "failed"
        for rid in exe.request_ids:
            req = self._requests.get(rid)
            if req is None:
                continue
            req.attempts = result.attempts
            req.retries = result.retries
            req.wall_s = result.wall_s
            req.detail = result.detail
            req.spans = req.spans + exe.spans
            self._finish_request(req, state, payload=result.payload,
                                 outcome=result.outcome)

    def _spans_for(self, exe: _Execution) -> list[dict]:
        first = self._requests.get(exe.request_ids[0]) if exe.request_ids else None
        admission = first.spans if first is not None else []
        return admission + exe.spans

    def _finish_request(
        self, req: _Request, state: str, payload=None, outcome: str = "done"
    ) -> None:
        was_inflight = req.state in ("queued", "running") and not req.cached
        req.state = state
        req.outcome = outcome
        req.payload = payload
        if was_inflight:
            self.m_inflight.dec()
        self.m_completed.inc(outcome=outcome)
        self.m_latency.observe(
            time.monotonic() - req.submitted_m, experiment=req.experiment_id
        )

    def _bridge_trace(self, trace_payload: dict) -> None:
        """Aggregate a traced execution's records into Prometheus metrics."""
        for rec in trace_payload.get("events", ()):
            ph = rec.get("ph")
            if ph == "X":
                self.m_obs_spans.inc(component=rec["comp"], name=rec["name"])
                self.m_obs_span_seconds.inc(
                    rec.get("dur", 0.0) / 1e9,
                    component=rec["comp"],
                    name=rec["name"],
                )
            elif ph == "C":
                self.m_obs_counter_last.set(
                    rec.get("value", 0.0), component=rec["comp"], track=rec["name"]
                )

    # -- lookup --------------------------------------------------------------

    def status(self, request_id: str) -> Optional[dict]:
        """The /status view of one request, or None when unknown/evicted."""
        req = self._requests.get(request_id)
        return None if req is None else req.public()

    def result(self, request_id: str) -> Optional[dict]:
        """The /result view (includes the deterministic result body)."""
        req = self._requests.get(request_id)
        return None if req is None else req.public(include_result=True)

    # -- drain ---------------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting; finish in-flight work; then :attr:`drained` fires.

        Idempotent.  ``repro_serve_up`` drops to 0 immediately so scrapers
        observe the drain before the process exits; /metrics, /status and
        /result keep answering until the front end shuts down.
        """
        if self._draining:
            return
        self._draining = True
        self.accepting = False
        self.m_up.set(0)
        self._maybe_drained()

    def _maybe_drained(self) -> None:
        if self._draining and not self._executions:
            self.drained.set()

    @property
    def draining(self) -> bool:
        """True once :meth:`begin_drain` has been called."""
        return self._draining

    def inflight_executions(self) -> int:
        """Executions not yet landed (the drain gate)."""
        return len(self._executions)
