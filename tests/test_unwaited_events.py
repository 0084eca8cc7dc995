"""What the event queue holds that no callback reads, end to end.

A heap entry whose callbacks list is empty when it pops costs a push, a
pop and an allocation for nothing.  The kernel and the models queue only
what a waiter reads, so a PUT stream leaves none, except the one source
the model keeps: the posted-write completion of each GPU TX mailbox
descriptor (``GpuTxEngine`` ignores the event ``PCIeFabric.write``
returns).  A host-buffer MPI ping-pong over InfiniBand leaves none
either: the RTS and CTS local completions nobody reads are not queued.
"""

import pytest

import repro.sim.core as core
from repro.apenet.buflist import BufferKind
from repro.bench.microbench import (
    staged_unidirectional_bandwidth,
    unidirectional_bandwidth,
)
from repro.mpi.osu import osu_latency
from repro.units import kib

H, G = BufferKind.HOST, BufferKind.GPU


def _unwaited_pops(monkeypatch, run) -> int:
    """Events popped with no callbacks while *run* executes."""
    count = 0
    real_pop = core.heappop

    def pop(heap):
        nonlocal count
        entry = real_pop(heap)
        # A queued Chain has no callbacks list: it waits on its own stage.
        if not isinstance(entry[2], core.Chain) and not entry[2].callbacks:
            count += 1
        return entry

    # run() binds the module's heappop when it starts.
    monkeypatch.setattr(core, "heappop", pop)
    run()
    return count


@pytest.mark.parametrize(
    "run, unwaited",
    [
        pytest.param(lambda: unidirectional_bandwidth(H, H, kib(8)), 0, id="H-H"),
        # 96 messages of two 4 KiB chunks: one descriptor write each.
        pytest.param(lambda: unidirectional_bandwidth(G, G, kib(8)), 192, id="G-G"),
        pytest.param(lambda: staged_unidirectional_bandwidth(kib(8)), 0, id="staged"),
        # Rendezvous: each of the 24 messages posts an RTS and a CTS
        # whose local completions nobody reads.
        pytest.param(
            lambda: osu_latency(kib(64), gpu_buffers=False), 0, id="mpi-64K-host"
        ),
        pytest.param(
            lambda: osu_latency(kib(64), gpu_buffers=True), 0, id="mpi-64K-gpu"
        ),
        pytest.param(lambda: osu_latency(kib(4), gpu_buffers=False), 0, id="mpi-eager"),
    ],
)
def test_only_mailbox_descriptor_writes_go_unwaited(monkeypatch, run, unwaited):
    assert _unwaited_pops(monkeypatch, run) == unwaited
