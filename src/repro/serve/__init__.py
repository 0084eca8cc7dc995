"""``repro.serve`` — a fault-tolerant, always-on simulation service.

The batch front end (``python -m repro.bench``) answers one interconnect
question per process; this package turns the same execution core
(:class:`~repro.bench.engine.ExecutionEngine`) into a long-running
capacity-planning service: an asyncio HTTP server (stdlib only) that
accepts simulation requests (experiment id, quick/full, optional
tracing), deduplicates them against the on-disk result cache the
CLI already shares, runs them on a supervised worker-process pool, and
exports Prometheus metrics.

Robustness is the headline, in four guarantees:

* **overload degrades explicitly** — a bounded admission queue answers
  HTTP 429 with ``Retry-After`` instead of queueing without limit;
* **no request hangs** — per-request deadlines kill stuck workers and
  terminate the request with a structured ``timeout`` outcome;
* **crashes are survived** — a killed worker is retried with exponential
  backoff inside a bounded budget, and determinism guarantees the retried
  payload is bit-identical to an undisturbed run (the idempotent-replay
  discipline the RDMA layer's ``reliable_put`` established, applied to
  serving);
* **shutdown is graceful** — SIGTERM stops admission (``repro_serve_up``
  drops to 0, /readyz answers 503), in-flight work finishes, metrics are
  flushed, and the process exits 0.

Run it::

    python -m repro.serve --port 8642 --workers 4

See DESIGN.md §13 for the architecture and ``scripts/serve_smoke.py`` for
a full client session (submit, poll, scrape, drain).
"""

from .http import HttpFrontend
from .metrics import Counter, Gauge, Histogram, Registry
from .service import Rejected, ServeConfig, SimulationService
from .supervisor import SupervisedResult, WorkerSupervisor, WorkSpec

__all__ = [
    "ServeConfig",
    "SimulationService",
    "HttpFrontend",
    "Rejected",
    "WorkerSupervisor",
    "WorkSpec",
    "SupervisedResult",
    "Registry",
    "Counter",
    "Gauge",
    "Histogram",
]
