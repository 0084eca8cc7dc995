"""Observability smoke: traced runs are bit-identical to untraced runs.

Not a paper artefact — this experiment checks the :mod:`repro.obs`
tracing layer inside the sweep itself.  A tiny G-G RDMA PUT plus an MPI
exchange run once untraced and once under a local
:class:`~repro.obs.TraceSession`, proving that traced runs are
bit-identical and that spans arrive from every stack layer.

Everything the experiment reports (fingerprints, components, span
count) is a pure function of the model, so cached, serial, parallel and
crash-retried sweeps return the same result.
"""

from __future__ import annotations

from ...apenet import BufferKind
from ...cuda.memcpy import memcpy_sync
from ...ib.cluster import build_ib_cluster
from ...mpi.comm import MpiWorld
from ...obs import TraceSession
from ...sim import Simulator
from ...units import kib, us
from ..harness import ExperimentResult, register
from ..microbench import make_cluster
from ..tables import render_table

__all__ = ["observability_smoke"]


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


@register("selftest", "Observability smoke (traced == untraced)", "—")
def run_selftest(quick: bool) -> ExperimentResult:
    """Run a G-G PUT plus an MPI exchange untraced and traced, and check
    that the fingerprints are identical and that every instrumented stack
    layer produced spans.  The smoke is the same in quick and full mode."""
    smoke = observability_smoke()
    expected_components = {"apenet", "cuda", "gpu", "mpi", "pcie", "sim"}
    smoke_cover = len(expected_components & set(smoke["components"]))

    rows = [
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
        title="Observability smoke (16 KiB G-G PUT + 4 KiB MPI exchange)",
    )
    comparisons = [
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
        title="Observability smoke (traced == untraced)",
        rendered=rendered,
        comparisons=comparisons,
        data={"obs_smoke": smoke},
    )
