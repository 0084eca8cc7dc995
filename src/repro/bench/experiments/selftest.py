"""DES kernel self-benchmark: measures the simulator's own hot path.

Not a paper artefact — this experiment benchmarks the machinery every
other experiment runs on.  It times one identical workload twice:

* **fast path** — :meth:`Simulator.run`, the inlined drain loop with
  pre-bound queue locals and the dedicated Timeout scheduling path;
* **generic path** — the same workload driven one event at a time through
  :meth:`Simulator.step`, the un-inlined reference implementation (the
  seed kernel's per-event machinery).

It also measures kernel throughput on a procs × steps grid of the mixed
workload plus a timer-heavy retransmission scenario (the dominant traffic
class since the fault/recovery layers landed), reporting events/sec per
scenario.  The raw numbers land in the result's ``data["kernel_bench"]``
block, which the runner can export as ``BENCH_kernel.json`` for the CI
perf-history gate.

It also quantifies the optional back-to-back TLP batching of
:meth:`PCIeFabric.write` as a simulated-event reduction factor, and
smoke-tests the :mod:`repro.obs` observability layer: a tiny G-G RDMA PUT
plus an MPI exchange run once untraced and once under a local
:class:`~repro.obs.TraceSession`, proving in-sweep that traced runs are
bit-identical and that spans arrive from every stack layer.

Wall-clock numbers (and the speedups) appear only in the rendered output
and the ``data`` block — ``comparisons`` carries exclusively deterministic
quantities (event counts, parity checks, reduction factors)
so that cached, serial and parallel sweeps stay bit-identical.
"""

from __future__ import annotations

import gc
import time

from ...apenet import BufferKind
from ...cuda.memcpy import memcpy_sync
from ...ib.cluster import build_ib_cluster
from ...mpi.comm import MpiWorld
from ...obs import TraceSession
from ...pcie.device import HostMemory
from ...pcie.fabric import PCIeFabric
from ...sim import Channel, Simulator
from ...units import GBps, kib, ns, us
from ..harness import ExperimentError, ExperimentResult, register
from ..microbench import make_cluster
from ..tables import render_table

__all__ = [
    "kernel_workload",
    "timer_workload",
    "time_kernel",
    "time_workload",
    "kernel_bench",
    "batching_events",
    "observability_smoke",
]


def kernel_workload(sim: Simulator, n_procs: int, n_steps: int) -> None:
    """A representative mix of timeouts, event waits, and channel traffic.

    Deterministic: delays derive only from loop indices.  Roughly matches
    the real experiments' event profile — mostly Timeouts (firmware costs,
    link serialization) with a sprinkling of triggered Events (completion
    notifications) and Channel transfers.
    """
    ch = Channel(sim, bandwidth=GBps(4.0), latency=ns(120.0), name="selftest-link")
    rendezvous = [sim.event() for _ in range(n_procs // 4 or 1)]

    def worker(i):
        for k in range(n_steps):
            yield sim.timeout((i % 13) + 0.5 * (k % 7))
            # Fire-and-forget notification nobody joins on (posted-write
            # completions, flushed packets): pure kernel dispatch.
            sim.timeout(0.25 * (k % 5))
            if k % 16 == 0:
                yield ch.transfer(512 + 64 * (i % 8))
        ev = rendezvous[i % len(rendezvous)]
        if not ev.triggered:
            ev.succeed(i)

    def waiter(j):
        yield rendezvous[j]

    for j in range(len(rendezvous)):
        sim.process(waiter(j))
    for i in range(n_procs):
        sim.process(worker(i))


def timer_workload(sim: Simulator, n_agents: int, n_rounds: int) -> None:
    """Dense short-horizon timer traffic — the retransmission profile.

    Models what the ACK/NAK and recovery layers do to the event queue:
    every agent repeatedly arms a short replay timer (yield-and-drop) and
    posts a fire-and-forget ack-window timer nobody joins on.  Nearly all
    events are Timeouts landing a few ns out: the event heap's densest
    sift traffic.
    """
    base = ns(1.0)

    def retry_agent(i):
        for k in range(n_rounds):
            # Replay timer with a deterministic pseudo-backoff spread.
            yield sim.timeout(base + 0.125 * ((i + k) % 32))
            # Ack-window timer, fire-and-forget.
            sim.timeout(0.5 * base + 0.0625 * ((i * 3 + k) % 16))

    for i in range(n_agents):
        sim.process(retry_agent(i))


def time_kernel(n_procs: int, n_steps: int, generic: bool, repeats: int = 3):
    """Best-of-*repeats* wall time (s) and event count for the workload."""
    best = float("inf")
    events = 0
    for _ in range(repeats):
        sim = Simulator()
        kernel_workload(sim, n_procs, n_steps)
        gc_was_on = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            if generic:
                while sim.pending_count():
                    sim.step()
            else:
                sim.run()
            best = min(best, time.perf_counter() - t0)
        finally:
            if gc_was_on:
                gc.enable()
        events = sim.events_processed
    return best, events


def time_workload(build, repeats: int = 3):
    """Best-of-*repeats* (wall s, events) for ``build(sim)``.

    Cyclic GC is collected then paused around the timed drain so the
    number measures the kernel, not whatever garbage the surrounding
    sweep happens to have accumulated (inside a full ``repro.bench``
    sweep, ambient GC pauses otherwise halve the reported throughput).
    """
    best = float("inf")
    events = 0
    for _ in range(repeats):
        sim = Simulator()
        build(sim)
        gc_was_on = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            sim.run()
            best = min(best, time.perf_counter() - t0)
        finally:
            if gc_was_on:
                gc.enable()
        events = sim.events_processed
    return best, events


def kernel_bench(n_procs: int, n_steps: int, repeats: int = 3) -> dict:
    """Benchmark the kernel on the grid + timer scenario.

    Returns per-scenario ``{wall_s, events, events_per_s}`` under
    ``"scenarios"`` plus the aggregate ``events``, ``wall_s`` and
    ``events_per_s``.

    Repeats are interleaved across scenarios (round-robin, best-of kept)
    so slow drift in machine speed — thermal throttling, noisy CI
    neighbours — biases every scenario equally instead of whichever ran
    last.
    """
    grid = [
        (max(1, n_procs // 2), max(1, n_steps // 2)),
        (n_procs, n_steps),
    ]
    scenarios: list[tuple[str, object]] = [
        (
            f"mixed {p}x{s}",
            (lambda sim, p=p, s=s: kernel_workload(sim, p, s)),
        )
        for p, s in grid
    ]
    scenarios.append(
        (
            f"timers {n_procs}x{n_steps}",
            (lambda sim: timer_workload(sim, n_procs, n_steps)),
        )
    )
    best: dict = {}
    for _ in range(repeats):
        for label, build in scenarios:
            wall_s, events = time_workload(build, repeats=1)
            prev = best.get(label)
            if prev is None or wall_s < prev[0]:
                best[label] = (wall_s, events)
    per = {}
    total_s = 0.0
    total_events = 0
    for label, _ in scenarios:
        wall_s, events = best[label]
        per[label] = {
            "wall_s": wall_s,
            "events": events,
            "events_per_s": events / wall_s if wall_s > 0 else float("inf"),
        }
        total_s += wall_s
        total_events += events
    return {
        "scenarios": per,
        "events": total_events,
        "wall_s": total_s,
        "events_per_s": total_events / total_s if total_s > 0 else float("inf"),
    }


def batching_events(batch: int, nbytes: int = 1 << 19):
    """(final time, events) for one bulk posted write at *batch*."""
    sim = Simulator()
    fabric = PCIeFabric(sim, write_batch=batch)
    root = fabric.add_root()
    src = HostMemory(sim, base=0x0, size=1 << 20, name="selftest-src")
    dst = HostMemory(sim, base=1 << 30, size=1 << 20, name="selftest-dst")
    fabric.add_endpoint(src, root)
    fabric.add_endpoint(dst, root)
    done = fabric.write(src, 1 << 30, nbytes)
    sim.run()
    if not done.processed or done.value != nbytes:
        raise ExperimentError(
            f"bulk write incomplete: processed={done.processed}, "
            f"value={done.value!r}, expected {nbytes}"
        )
    return sim.now, sim.events_processed


def _obs_smoke_workload():
    """One tiny pass through every stack layer; returns its fingerprint.

    A 16 KiB G-G RDMA PUT over a 2-node torus (exercises cuda/gpu/pcie/
    apenet/sim) followed by a 4 KiB host MPI exchange over InfiniBand
    (exercises mpi).  The returned tuple of (final time, event count) pairs
    is the workload's exact behavioural fingerprint: any divergence between
    a traced and an untraced run shows up as an inequality.
    """
    nbytes = kib(16)

    # -- G-G P2P put over the torus ------------------------------------
    sim, cluster = make_cluster(2, 1, 1)
    a, b = cluster.nodes
    src, dst = a.gpu.alloc(nbytes), b.gpu.alloc(nbytes)
    host_src = a.runtime.host_alloc(nbytes)

    def sender():
        # Stage real bytes into the GPU first so the DMA engines and the
        # CUDA memcpy cost model appear in the trace too.
        yield from memcpy_sync(a.runtime, src.addr, host_src.addr, nbytes)
        yield from a.endpoint.register(src.addr, nbytes)
        done = yield from a.endpoint.put(
            1, src.addr, dst.addr, nbytes, src_kind=BufferKind.GPU
        )
        yield done

    def receiver():
        yield from b.endpoint.register(dst.addr, nbytes)
        yield from b.endpoint.wait_event()

    sim.process(receiver(), name="smoke.rx")
    sim.process(sender(), name="smoke.tx")
    sim.run()
    p2p_fp = (sim.now, sim.events_processed)

    # -- host MPI exchange over IB -------------------------------------
    ib_nbytes = kib(4)
    sim2 = Simulator()
    ib = build_ib_cluster(sim2, 2)
    world = MpiWorld(ib)
    ep0, ep1 = world.endpoint(0), world.endpoint(1)
    buf0 = ib.nodes[0].runtime.host_alloc(ib_nbytes)
    buf1 = ib.nodes[1].runtime.host_alloc(ib_nbytes)

    def mpi_sender():
        yield sim2.timeout(us(1.0))
        yield from ep0.send(1, buf0.addr, ib_nbytes)

    def mpi_receiver():
        yield from ep1.recv(0, buf1.addr, ib_nbytes)

    sim2.process(mpi_receiver(), name="smoke.mpi.rx")
    sim2.process(mpi_sender(), name="smoke.mpi.tx")
    sim2.run()
    return p2p_fp, (sim2.now, sim2.events_processed)


def observability_smoke():
    """Run the smoke workload untraced and traced; report the evidence.

    Returns a dict with the traced/untraced fingerprints, the identity
    verdict, the distinct components that produced spans, and the span
    count.  Runs under a *local* session so the result is the same whether
    or not an outer ``--trace`` session is active (nested sessions fan
    out; see :mod:`repro.obs.session`).
    """
    baseline = _obs_smoke_workload()
    session = TraceSession(label="selftest-smoke")
    with session.activate():
        traced = _obs_smoke_workload()
    return {
        "baseline": baseline,
        "traced": traced,
        "identical": baseline == traced,
        "components": session.components(),
        "spans": session.span_count(),
    }


@register("selftest", "DES kernel self-benchmark (fast vs generic path)", "—")
def run_selftest(quick: bool) -> ExperimentResult:
    """Time the DES kernel's inlined run loop against the generic
    ``step()`` reference, benchmark the kernel on a mixed grid plus a
    timer-heavy retransmission scenario, and quantify the event-count
    reduction of batched TLP write scheduling."""
    n_procs, n_steps = (240, 120) if quick else (600, 400)

    fast_s, fast_events = time_kernel(n_procs, n_steps, generic=False)
    generic_s, generic_events = time_kernel(n_procs, n_steps, generic=True)
    speedup = generic_s / fast_s if fast_s > 0 else float("inf")
    events_per_s = fast_events / fast_s if fast_s > 0 else float("inf")

    bench = kernel_bench(n_procs, n_steps)

    t_plain, ev_plain = batching_events(batch=1)
    t_batched, ev_batched = batching_events(batch=8)
    reduction = ev_plain / ev_batched
    time_shift = 100.0 * (t_batched - t_plain) / t_plain

    smoke = observability_smoke()
    expected_components = {"apenet", "cuda", "gpu", "mpi", "pcie", "sim"}
    smoke_cover = len(expected_components & set(smoke["components"]))

    rows = [
        ["fast path (run loop)", f"{fast_s * 1e3:.1f} ms", f"{fast_events}"],
        ["generic path (step loop)", f"{generic_s * 1e3:.1f} ms", f"{generic_events}"],
        ["speedup", f"{speedup:.2f}x", "—"],
        ["throughput (fast)", f"{events_per_s / 1e6:.2f} Mev/s", "—"],
    ]
    rows.append(
        [
            "kernel bench (aggregate)",
            f"{bench['events_per_s'] / 1e6:.2f} Mev/s",
            f"{bench['events']}",
        ]
    )
    for label, s in bench["scenarios"].items():
        rows.append(
            [
                f"  {label}",
                f"{s['wall_s'] * 1e3:.1f} ms ({s['events_per_s'] / 1e6:.2f} Mev/s)",
                f"{s['events']}",
            ]
        )
    rows += [
        ["write batch=1", f"t={t_plain:.0f} ns", f"{ev_plain}"],
        ["write batch=8", f"t={t_batched:.0f} ns", f"{ev_batched}"],
        ["batching event reduction", f"{reduction:.2f}x", "—"],
        [
            "obs smoke: traced == untraced",
            "yes" if smoke["identical"] else "NO",
            f"{smoke['traced'][0][1] + smoke['traced'][1][1]}",
        ],
        [
            "obs smoke: traced components",
            ",".join(smoke["components"]),
            f"{smoke['spans']} spans",
        ],
    ]
    rendered = render_table(
        ["measurement", "value", "events"],
        rows,
        title=f"DES kernel selftest ({n_procs} procs x {n_steps} steps)",
    )

    # Deterministic rows only (see module docstring).
    comparisons = [
        ("kernel events, fast path", float(fast_events), None, "events"),
        (
            "fast/generic event parity",
            1.0 if fast_events == generic_events else 0.0,
            1.0,
            "bool",
        ),
        ("TLP batching event reduction (batch=8)", reduction, None, "x"),
        ("TLP batching completion-time shift", time_shift, None, "%"),
        (
            "obs traced == untraced identity",
            1.0 if smoke["identical"] else 0.0,
            1.0,
            "bool",
        ),
        (
            "obs distinct traced components",
            float(smoke_cover),
            float(len(expected_components)),
            "components",
        ),
    ]
    return ExperimentResult(
        experiment_id="selftest",
        title="DES kernel self-benchmark (fast vs generic path)",
        rendered=rendered,
        comparisons=comparisons,
        data={
            "fast_s": fast_s,
            "generic_s": generic_s,
            "speedup": speedup,
            "events_per_s": events_per_s,
            "kernel_bench": bench,
            "batch_events": {"1": ev_plain, "8": ev_batched},
            "obs_smoke": smoke,
        },
    )
