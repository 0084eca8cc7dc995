"""Parallel experiment execution with on-disk result caching.

The registry in :mod:`repro.bench.harness` holds fully independent
experiments (each builds its own :class:`~repro.sim.Simulator`), so a full
reproduction sweep is embarrassingly parallel.  This module provides:

* :func:`run_experiments` — fan the requested experiments out over
  supervised worker processes (``jobs > 1``, through
  :class:`~repro.bench.supervisor.WorkerSupervisor`, the same supervisor
  the service uses) or run them in-process (``jobs == 1``), with
  per-experiment wall-clock and simulated-event telemetry;
* :class:`ResultCache` — an on-disk JSON cache keyed by a hash of the
  experiment id, quick/full flag, every calibration constant, the
  package version and the package's source code, so unchanged
  experiments are skipped on re-runs;
* :func:`write_json` — the ``results/run-<id>.json`` artifact that
  ``scripts/check_bench.py`` gates against ``benchmarks/baselines/sweep.json``.

Determinism: the simulation is seedless and deterministic, so a given
(experiment, quick, calibration, source) tuple always produces identical
``comparisons`` rows — which is what makes the cache sound and lets CI
assert that parallel and serial sweeps agree bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

from .. import __version__
from ..apenet.config import DEFAULT_CONFIG
from . import harness
from .engine import ENGINE

__all__ = [
    "RunRecord",
    "ResultCache",
    "cache_key",
    "calibration_hash",
    "default_cache_dir",
    "run_experiments",
    "write_json",
]

#: Default location of the cache, relative to the working directory.
DEFAULT_CACHE_DIR = Path("results") / "cache"

#: Keys a cached payload must carry to be considered intact.
_REQUIRED_PAYLOAD_KEYS = frozenset(
    {"experiment_id", "title", "rendered", "comparisons", "wall_s", "events"}
)


@dataclass
class RunRecord:
    """Outcome + telemetry of one experiment in a sweep."""

    experiment_id: str
    title: str = ""
    status: str = "ok"  # "ok" | "cached" | "error"
    wall_s: float = 0.0  # wall-clock of the (original) execution
    events: int = 0  # simulated events processed by the execution
    cached: bool = False
    comparisons: list = field(default_factory=list)
    rendered: str = ""
    error: Optional[str] = None
    error_class: Optional[str] = None  # exception class name for "error" records
    trace: Optional[dict] = None  # obs session payload when traced
    data: Optional[dict] = None  # experiment's free-form data block (may be None)

    def to_dict(self) -> dict:
        """JSON-ready representation (tuples normalised to lists).

        The trace payload is excluded — it can be millions of records and
        has its own export path (``repro.obs.write_chrome_trace``).
        """
        d = asdict(replace(self, trace=None))
        d.pop("trace", None)
        d["comparisons"] = [list(row) for row in self.comparisons]
        return d


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------


# DEFAULT_CONFIG is a frozen dataclass, so its dict form — walked for
# every cache key and every artifact stamp — is computed once per
# process, not once per experiment.
_calibration_dict_memo: Optional[dict] = None
_calibration_hash_memo: Optional[str] = None
_source_digest_memo: Optional[str] = None


def _calibration_dict() -> dict:
    """Memoised ``asdict(DEFAULT_CONFIG)`` (treat as read-only)."""
    global _calibration_dict_memo
    if _calibration_dict_memo is None:
        _calibration_dict_memo = asdict(DEFAULT_CONFIG)
    return _calibration_dict_memo


def _source_digest() -> str:
    """Memoised digest of every ``*.py`` file under the ``repro`` package.

    Each file contributes its path relative to the package root and its
    bytes, in sorted path order, so the digest does not depend on where
    the package lives but changes with any edit to its code.
    """
    global _source_digest_memo
    if _source_digest_memo is None:
        root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for rel in sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py")):
            data = (root / rel).read_bytes()
            digest.update(f"{rel}\0{len(data)}\0".encode())
            digest.update(data)
        _source_digest_memo = digest.hexdigest()
    return _source_digest_memo


def cache_key(experiment_id: str, quick: bool) -> str:
    """Content hash identifying one experiment execution.

    Covers the experiment id, the quick/full flag, every calibration
    constant of :data:`~repro.apenet.config.DEFAULT_CONFIG`, the package
    version and a digest of the package's source files — any change to
    model constants or to the code invalidates all cached results.
    """
    ident = {
        "experiment": experiment_id,
        "quick": bool(quick),
        "calibration": _calibration_dict(),
        "version": __version__,
        "source": _source_digest(),
    }
    blob = json.dumps(ident, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def calibration_hash() -> str:
    """Short content hash of every calibration constant.

    Stamped into the ``--json`` run artifact so a result can never be
    compared across different model calibrations unnoticed.  Computed
    once per process (``tests/bench/test_calibration_once.py`` pins this).
    """
    global _calibration_hash_memo
    if _calibration_hash_memo is None:
        blob = json.dumps(
            _calibration_dict(), sort_keys=True, separators=(",", ":")
        )
        _calibration_hash_memo = hashlib.sha256(blob.encode()).hexdigest()[:12]
    return _calibration_hash_memo


def default_cache_dir() -> Path:
    """The cache location (overridable via ``REPRO_CACHE_DIR``)."""
    return Path(os.environ.get("REPRO_CACHE_DIR", str(DEFAULT_CACHE_DIR)))


class ResultCache:
    """On-disk JSON store of experiment payloads, one file per key.

    Corrupted or truncated files (interrupted writers, disk trouble) are
    treated as misses and silently overwritten by the next store.
    """

    def __init__(self, root: Path | str = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def path(self, key: str) -> Path:
        """Where *key*'s payload lives."""
        return self.root / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        """The cached payload for *key*, or None on miss/corruption."""
        path = self.path(key)
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(payload, dict) or not _REQUIRED_PAYLOAD_KEYS <= payload.keys():
            return None
        return payload

    def put(self, key: str, payload: dict) -> None:
        """Store *payload* under *key*, crash-safely.

        A ``trace`` key is never stored (traces are large and have their
        own export path); the caller's dict is left intact.  The payload
        is written to a private temp file in the cache directory, flushed
        and fsync'ed, then moved into place with the atomic
        ``os.replace`` — so a reader can only ever observe either the old
        complete entry or the new complete entry.  A writer killed
        mid-``put`` leaves at worst an orphaned ``*.tmp`` file, never a
        torn JSON that would poison later ``get``\\ s; concurrent writers
        race benignly (last rename wins, both payloads are identical by
        determinism).
        """
        stored = {k: v for k, v in payload.items() if k != "trace"}
        self.root.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                json.dump(stored, fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path(key))
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _record_from_payload(payload: dict, cached: bool) -> RunRecord:
    if payload.get("error"):
        return RunRecord(
            experiment_id=payload["experiment_id"],
            status="error",
            wall_s=payload.get("wall_s", 0.0),
            events=payload.get("events", 0),
            error=payload["error"],
            error_class=payload.get("error_class"),
        )
    return RunRecord(
        experiment_id=payload["experiment_id"],
        title=payload["title"],
        status="cached" if cached else "ok",
        wall_s=payload["wall_s"],
        events=payload["events"],
        cached=cached,
        comparisons=[tuple(row) for row in payload["comparisons"]],
        rendered=payload["rendered"],
        trace=payload.get("trace"),
        data=payload.get("data"),
    )


def run_experiments(
    ids: Sequence[str],
    quick: bool = True,
    jobs: int = 1,
    use_cache: bool = True,
    cache_dir: Optional[Path | str] = None,
    progress: Optional[Callable[[RunRecord], None]] = None,
    trace: bool = False,
) -> list[RunRecord]:
    """Run *ids*, fanning out over *jobs* worker processes.

    Cache hits are resolved up front (never shipped to workers); the
    remaining experiments run in-process for ``jobs == 1`` (or a single
    pending experiment), otherwise each in its own worker process under
    one :class:`~repro.bench.supervisor.WorkerSupervisor`, at most *jobs*
    at a time.  A killed worker is retried within the supervisor's budget;
    one that keeps dying becomes an ``error`` record with ``error_class``
    ``"worker-crash"``.  Ctrl-C stops the supervisor, which kills the
    running workers and retries none.  Results land on the calling thread
    in the order of *ids* regardless of *jobs*; landing is the cache write
    and the *progress* callback, called with each :class:`RunRecord`.

    With ``trace=True`` every experiment executes under its own
    :class:`~repro.obs.TraceSession` and each ok record carries the session
    payload in ``record.trace``.  Tracing disables the cache for the sweep
    (cached payloads carry no trace, and trace payloads are too large to
    store), but the comparison rows are bit-identical either way.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if trace:
        use_cache = False
    for exp_id in ids:
        harness.get(exp_id)  # fail fast on unknown ids
    cache = ResultCache(cache_dir if cache_dir is not None else default_cache_dir())

    records: dict[str, RunRecord] = {}
    pending: list[str] = []
    for exp_id in ids:
        payload = cache.get(cache_key(exp_id, quick)) if use_cache else None
        if payload is not None:
            records[exp_id] = _record_from_payload(payload, cached=True)
            if progress:
                progress(records[exp_id])
        else:
            pending.append(exp_id)

    if jobs == 1 or len(pending) == 1:
        for exp_id in pending:
            payload = ENGINE.execute(exp_id, quick, trace)
            _land(payload, records, cache, use_cache, quick, progress)
    elif pending:
        # Imported here to keep `import repro.bench` light: the supervisor
        # loads the process machinery, concurrent.futures loads logging.
        from concurrent.futures import ThreadPoolExecutor

        from .supervisor import WorkerSupervisor, WorkSpec

        supervisor = WorkerSupervisor()

        def supervised(exp_id: str) -> dict:
            result = supervisor.run(WorkSpec(exp_id, quick, trace), math.inf)
            if result.payload is not None:
                return result.payload
            return {
                "experiment_id": exp_id,
                "error": result.detail,
                "error_class": result.outcome,
                "wall_s": result.wall_s,
                "events": 0,
            }

        with ThreadPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            try:
                for payload in pool.map(supervised, pending):
                    _land(payload, records, cache, use_cache, quick, progress)
            finally:
                # On Ctrl-C (or a failing landing): kill the running
                # workers before the pool waits for its threads.
                supervisor.stop()

    return [records[exp_id] for exp_id in ids]


def _land(payload, records, cache, use_cache, quick, progress) -> None:
    record = _record_from_payload(payload, cached=False)
    records[record.experiment_id] = record
    if use_cache and record.status == "ok":
        cache.put(cache_key(record.experiment_id, quick), payload)
    if progress:
        progress(record)


# ---------------------------------------------------------------------------
# Artifact
# ---------------------------------------------------------------------------


def default_run_id() -> str:
    """A timestamp-based id for the results artifact."""
    return time.strftime("%Y%m%d-%H%M%S")


def write_json(
    records: Sequence[RunRecord],
    path: Path | str,
    quick: bool = True,
    jobs: int = 1,
    run_id: Optional[str] = None,
) -> Path:
    """Write the sweep's JSON artifact to *path* and return it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "run_id": run_id or default_run_id(),
        "repro_version": __version__,
        "calibration_hash": calibration_hash(),
        "mode": "quick" if quick else "full",
        "jobs": jobs,
        "total_wall_s": sum(r.wall_s for r in records if not r.cached),
        "n_cached": sum(1 for r in records if r.cached),
        "n_errors": sum(1 for r in records if r.status == "error"),
        "records": [r.to_dict() for r in records],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path

