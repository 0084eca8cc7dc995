"""Tests for TX job fragmentation and the kernel-driver model."""

import numpy as np
import pytest

from repro.apenet import BufferKind, fragment_message
from repro.apenet.jobs import TxJob
from repro.bench.microbench import make_cluster
from repro.net.packet import MAX_PACKET_PAYLOAD, MessageInfo
from repro.pcie import MemoryBuffer
from repro.sim import Event
from repro.units import kib, us


def test_fragment_message_exact_multiple():
    frags = fragment_message(3 * MAX_PACKET_PAYLOAD)
    assert frags == [(0, 4096), (4096, 4096), (8192, 4096)]


def test_fragment_message_remainder():
    frags = fragment_message(5000)
    assert frags == [(0, 4096), (4096, 904)]
    assert sum(n for _, n in frags) == 5000


def test_fragment_message_small():
    assert fragment_message(1) == [(0, 1)]
    with pytest.raises(ValueError):
        fragment_message(0)


def make_job(sim, nbytes=8192, src_buf=None):
    msg = MessageInfo(1, nbytes, 0, 0x5000)
    if src_buf is None:
        src_buf = MemoryBuffer(0x1000, nbytes)
    return TxJob(
        message=msg,
        src_addr=src_buf.addr,
        src_kind=BufferKind.HOST,
        dst_coord=(1, 0, 0),
        src_coord=(0, 0, 0),
        local_done=Event(sim),
        src_buf=src_buf,
    )


def test_txjob_auto_fragments():
    sim, cluster = make_cluster(2, 1)
    job = make_job(sim, 10_000)
    assert len(job.packets) == 3
    assert job.descriptor_bytes == 3 * 64


def test_txjob_slice_data():
    """A fragment's bytes are the slice of the buffer the job names."""
    sim, cluster = make_cluster(2, 1)
    src = cluster.nodes[0].runtime.host_alloc(8192)
    job = make_job(sim, 8192, src_buf=src)
    offset, nbytes = job.packets[1]
    assert job.src_buf.read_bytes(job.src_addr + offset, nbytes) is None  # untracked
    src.data[:] = np.arange(8192, dtype=np.uint8)
    chunk = job.src_buf.read_bytes(job.src_addr + offset, nbytes)
    np.testing.assert_array_equal(chunk, src.data[4096:8192])


def test_driver_tx_queue_backpressure():
    """With a tiny descriptor ring, a burst of PUTs serializes."""
    sim, cluster = make_cluster(2, 1, tx_queue_slots=2)
    a, b = cluster.nodes
    src = a.runtime.host_alloc(kib(64))
    dst = b.runtime.host_alloc(kib(64))
    posted = []

    def receiver():
        yield from b.endpoint.register(dst.addr, kib(64))
        for _ in range(6):
            yield from b.endpoint.wait_event()

    def sender():
        yield sim.timeout(us(10))
        for i in range(6):
            yield from a.endpoint.put(
                1, src.addr, dst.addr, kib(16), src_kind=BufferKind.HOST
            )
            posted.append(sim.now)

    rx = sim.process(receiver())
    sim.process(sender())
    sim.run()
    assert rx.processed
    # The first two posts fly; later ones wait for ring slots.
    gaps = [b - a for a, b in zip(posted, posted[1:])]
    assert gaps[0] < us(3)
    assert max(gaps[2:]) > us(8)


def test_driver_counts_submissions():
    sim, cluster = make_cluster(2, 1)
    a, b = cluster.nodes
    src = a.runtime.host_alloc(256)
    dst = b.runtime.host_alloc(256)

    def proc():
        yield from b.endpoint.register(dst.addr, 256)
        for _ in range(3):
            done = yield from a.endpoint.put(
                1, src.addr, dst.addr, 256, src_kind=BufferKind.HOST
            )
            yield done
        records = []
        for _ in range(3):
            records.append((yield from b.endpoint.wait_event()))
        return records

    records = sim.run_process(proc())
    # Each of the three submissions arrived as its own message, and no more.
    assert [rec.nbytes for rec in records] == [256] * 3
    assert len({rec.msg_id for rec in records}) == 3
    assert len(b.endpoint.events) == 0
