"""Host-time benchmark of the APEnet+ simulator on the experiments' own calls.

Run from the repository root::

    python3 perfbench/run.py --workload p2p --seed 1 --seconds 10 --trace 0

A workload is a fixed pool of points, each one call the registered
experiments make (see ``workloads.py``).  A run starts five worker
interpreters one after the other.  Each imports the simulator, answers the
whole pool once untimed (the warm-up pass), then answers it in passes,
each in an order drawn from ``--seed``, for a fifth of ``--seconds``.
Every answer is checked for exact equality against ``golden.json``.  The
last line of output is one JSON object:

* ``--trace 0`` — end-to-end metrics.  ``pass_cost`` is the median cost
  of one pass over all workers' passes: the sum over its points of each
  point's host time divided by the time of :func:`reference_loop`, a fixed
  piece of pure-Python work timed right before and right after the point.
  On a shared host the CPU alternates for seconds at a time between speeds
  up to 1.6x apart; the reference slows down with it, so the ratio keeps
  what the simulator costs and drops most of what the host's state adds.
  The ratio also shifts by several percent with where an interpreter's
  memory lands, so a run pools five interpreters.  ``setup_s`` is the
  median time from starting a worker to the end of its warm-up pass,
  scaled the same way: divided by the reference time the worker measured
  during its set-up and multiplied by :data:`REFERENCE_S`.
  ``peak_rss_mb`` is the median peak resident memory of the workers.
* ``--trace 1`` — the per-layer profile: every point runs under
  ``cProfile``; self time per pass is grouped by simulator package (time
  in the Python runtime or NumPy is charged to the package that called
  it), with function calls per package and DES kernel events per pass.
  ``traced_pass_ms`` is the median pass time under the profiler.

Exits 0 when every answer was right, 1 when one was wrong, and 2 without a
result when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import os
import pstats
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Per-layer grouping: simulator package -> layer name.
LAYERS = {
    "sim": "sim",
    "pcie": "pcie",
    "gpu": "gpu",
    "cuda": "gpu",
    "apenet": "apenet",
    "mpi": "mpi",
    "ib": "mpi",
    "net": "net",
    "apps": "apps",
    "recovery": "recovery",
    "faults": "recovery",
    "scale": "scale",
    "bench": "bench",
    "serve": "bench",
}
LAYER_NAMES = ("sim", "pcie", "gpu", "apenet", "mpi", "net", "apps", "recovery", "scale", "bench")

WORKERS = 5

#: Nominal time of :func:`reference_loop`; ``setup_s`` is set-up time on a
#: host as fast as that (about the speed of the host it was tuned on).
REFERENCE_S = 0.005


def reference_loop() -> None:
    """Fixed pure-Python work timed beside every point: heap and dict churn,
    the operations the simulator's event loop spends its time on."""
    heap: list = []
    table: dict = {}
    for i in range(8000):
        heapq.heappush(heap, (i * 7919) % 10007)
        table[i & 1023] = (i, heap[0])
    while heap:
        heapq.heappop(heap)


def _timed_reference() -> float:
    gc.collect()
    t0 = time.perf_counter()
    reference_loop()
    return time.perf_counter() - t0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", type=int, default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _layer_of(filename: str):
    """Layer of a profiled function, ``"other"`` for benchmark code, None
    for code outside the repository (charged to its callers)."""
    path = filename.replace(os.sep, "/")
    marker = "/src/repro/"
    at = path.rfind(marker)
    if at >= 0:
        package = path[at + len(marker) :].split("/", 1)[0]
        return LAYERS.get(package, "other")
    if path.startswith(str(Path(__file__).resolve().parent).replace(os.sep, "/")):
        return "other"
    return None


def _layer_profile(profile: cProfile.Profile) -> tuple[dict, dict]:
    """(self seconds, calls) per layer.

    Functions outside the repository (builtins, the standard library,
    NumPy) have their self time split among their callers in proportion
    to the time each caller spent in them, up the call chain until a
    repository function is reached.
    """
    stats = pstats.Stats(profile).stats
    seconds = dict.fromkeys(LAYER_NAMES + ("other",), 0.0)
    calls = dict.fromkeys(LAYER_NAMES + ("other",), 0)
    layer = {func: _layer_of(func[0]) for func in stats}

    def charge(func, amount, depth):
        if layer[func] is not None:
            seconds[layer[func]] += amount
            return
        callers = stats[func][4]
        weight = sum(c[2] for c in callers.values())
        if depth > 20 or not callers or weight <= 0:
            seconds["other"] += amount
            return
        for caller, c in callers.items():
            if caller in stats:
                charge(caller, amount * c[2] / weight, depth + 1)
            else:
                seconds["other"] += amount * c[2] / weight

    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        if layer[func] is not None:
            calls[layer[func]] += nc
        charge(func, tt, 0)
    return seconds, calls


def worker(args) -> dict:
    """One worker interpreter: set up, warm up, measure; returns its record."""
    import workloads as wl
    from repro.sim import kernel_event_count

    pool = wl.points(args.workload)
    golden = wl.golden(args.workload)
    order = sorted(pool)
    problems = []
    attempted = failed = 0

    def answer(pid, profile=None):
        """Answer and check one point; returns its host time or None."""
        nonlocal attempted, failed
        attempted += 1
        gc.collect()
        try:
            if profile is not None:
                profile.enable()
            t0 = time.perf_counter()
            value = pool[pid]()
            dt = time.perf_counter() - t0
        except Exception as exc:  # a crashing point is a failed point
            failed += 1
            problems.append(f"{pid} raised {exc!r}")
            return None
        finally:
            if profile is not None:
                profile.disable()
        if wl.canonical(value) != golden.get(pid):
            failed += 1
            problems.append(f"{pid}: got {value!r}, golden {golden.get(pid)!r}")
        return dt

    ref0 = _timed_reference()
    for pid in order:  # warm-up pass, untimed
        answer(pid)
    gc.collect()
    gc.freeze()  # what set-up built stays; each point's garbage is collected before the next
    print(f"ready {(ref0 + _timed_reference()) / 2!r}", flush=True)

    rng = random.Random(f"{args.seed}/{args.worker}")
    profile = cProfile.Profile() if args.trace else None
    costs, pass_times, refs = [], [], []
    ev0 = kernel_event_count()
    deadline = time.perf_counter() + args.seconds
    while not costs or time.perf_counter() < deadline:
        rng.shuffle(order)
        before = _timed_reference()
        cost = elapsed = 0.0
        for pid in order:
            dt = answer(pid, profile)
            after = _timed_reference()
            refs.append(after)
            if dt is not None:
                cost += dt / ((before + after) / 2)
                elapsed += dt
            before = after
        costs.append(cost)
        pass_times.append(elapsed)
    record = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "costs": costs,
        "pass_times": pass_times,
        "refs": refs,
        "events": kernel_event_count() - ev0,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if profile is not None:
        record["seconds"], record["calls"] = _layer_profile(profile)
    return record


def _run_worker(args, index: int) -> tuple[float, float, dict]:
    """Start worker *index*; returns (its set-up seconds, the reference
    time it measured during set-up, its record)."""
    cmd = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds / WORKERS),
        "--trace", str(args.trace),
        "--worker", str(index),
    ]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            out = proc.stdout.read()
            proc.wait(timeout=150)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    word, _, ref = ready.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {index} exited with code {proc.returncode}")
    return setup_s, float(ref), json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    if args.workload not in wl.WORKLOAD_NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.worker is not None:
        print(json.dumps(worker(args)))
        return 0

    walls, setups, records = [], [], []
    for index in range(WORKERS):
        wall, ref, record = _run_worker(args, index)
        walls.append(wall)
        setups.append(wall * REFERENCE_S / ref)
        records.append(record)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems = [p for r in records for p in r["problems"]]
    costs = [c for r in records for c in r["costs"]]
    passes = len(costs)

    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)
    print(
        f"perfbench: {args.workload} seed {args.seed}: {passes} passes, "
        f"{attempted} points, {failed} failed, set-up wall time {statistics.median(walls):.3f} s",
        file=sys.stderr,
    )
    if not args.trace:
        metrics = {
            "pass_cost": (statistics.median(costs), "ref"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["rss_mb"] for r in records), "MB"),
        }
    else:
        metrics = {
            f"{name}_ms": (sum(r["seconds"][name] for r in records) * 1e3 / passes, "ms")
            for name in LAYER_NAMES + ("other",)
        }
        metrics.update(
            {
                f"{name}_calls": (sum(r["calls"][name] for r in records) / passes, "count")
                for name in LAYER_NAMES
            }
        )
        metrics["kernel_events"] = (sum(r["events"] for r in records) / passes, "count")
        pass_times = [t for r in records for t in r["pass_times"]]
        metrics["traced_pass_ms"] = (statistics.median(pass_times) * 1e3, "ms")
        refs = [t for r in records for t in r["refs"]]
        metrics["reference_ms"] = (statistics.median(refs) * 1e3, "ms")
    correct = failed == 0 and not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
