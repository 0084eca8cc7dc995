"""Error-path tests for the RDMA API and card engines."""

import pytest

from repro.apenet import BufferKind
from repro.bench.microbench import make_cluster
from repro.units import kib, us


def test_put_to_invalid_rank_raises():
    sim, cluster = make_cluster(2, 1)
    a = cluster.nodes[0]
    src = a.runtime.host_alloc(64)

    def proc():
        yield from a.endpoint.put(7, src.addr, 0x1000, 64, src_kind=BufferKind.HOST)

    with pytest.raises(ValueError):
        sim.run_process(proc())


def test_double_registration_overlap_rejected():
    sim, cluster = make_cluster(2, 1)
    a = cluster.nodes[0]
    buf = a.runtime.host_alloc(kib(8))

    def proc():
        yield from a.endpoint.register(buf.addr, kib(8))
        with pytest.raises(ValueError, match="overlaps"):
            yield from a.endpoint.register(buf.addr + 100, 64)

    sim.run_process(proc())


@pytest.mark.parametrize("kind", [BufferKind.HOST, BufferKind.GPU])
def test_put_overrunning_its_source_buffer_raises(kind):
    sim, cluster = make_cluster(2, 1)
    a = cluster.nodes[0]
    src = a.gpu.alloc(kib(4)) if kind is BufferKind.GPU else a.runtime.host_alloc(kib(4))

    def proc():
        yield from a.endpoint.put(1, src.addr, 0x1000, kib(8), src_kind=kind)

    with pytest.raises(ValueError, match="overruns its source buffer"):
        sim.run_process(proc())


@pytest.mark.parametrize("kind", [BufferKind.HOST, BufferKind.GPU])
def test_put_whose_src_kind_contradicts_its_pointer_raises(kind):
    """The compile-time buffer-type flag must name the memory its pointer
    is in: a HOST flag on a GPU pointer, or a GPU flag on a host pointer,
    is refused at the call."""
    sim, cluster = make_cluster(2, 1)
    a = cluster.nodes[0]
    src = a.runtime.host_alloc(kib(4)) if kind is BufferKind.GPU else a.gpu.alloc(kib(4))

    def proc():
        yield from a.endpoint.put(1, src.addr, 0x1000, kib(4), src_kind=kind)

    with pytest.raises(ValueError, match=f"src_kind={kind.name} "):
        sim.run_process(proc())


def test_put_from_unknown_pointer_raises():
    sim, cluster = make_cluster(2, 1)
    a = cluster.nodes[0]

    def proc():
        yield from a.endpoint.put(1, 0xBAD_ADD7, 0x1000, 64, src_kind=None)

    with pytest.raises(KeyError):
        sim.run_process(proc())


def test_gpu_tx_response_size_mismatch_detected():
    sim, cluster = make_cluster(2, 1)
    card = cluster.nodes[0].card
    from repro.apenet.gpu_tx import _Chunk
    from repro.sim import Event

    card.gpu_tx.pending.append(
        _Chunk(job=None, offset=0, nbytes=4096, last=True, injected=Event(sim))
    )
    with pytest.raises(RuntimeError, match="response size"):
        card.gpu_tx.on_response(1024, None)


def test_unexpected_gpu_response_detected():
    sim, cluster = make_cluster(2, 1)
    card = cluster.nodes[0].card
    with pytest.raises(RuntimeError, match="unexpected GPU TX response"):
        card.gpu_tx.on_response(4096, None)


def test_card_regs_reject_garbage_payload():
    sim, cluster = make_cluster(2, 1)
    card = cluster.nodes[0].card
    with pytest.raises(TypeError, match="expects TxJob"):
        card._on_regs_write(card.regs_window.base, 64, "not-a-job")


def test_card_windows_are_write_only():
    sim, cluster = make_cluster(2, 1)
    card = cluster.nodes[0].card
    with pytest.raises(PermissionError):
        card.describe_read(card.regs_window.base)
    with pytest.raises(KeyError):
        card.describe_write(0xDEAD_0000_0000)


def test_registration_cost_scales_with_pages():
    sim, cluster = make_cluster(2, 1)
    a = cluster.nodes[0]
    small = a.gpu.alloc(kib(64))  # one 64 KiB page
    big = a.gpu.alloc(kib(1024))  # sixteen pages

    def cost_of(buf):
        def proc():
            t0 = sim.now
            yield from a.endpoint.register(buf.addr, buf.size)
            return sim.now - t0

        return sim.run_process(proc())

    t_small = cost_of(small)
    t_big = cost_of(big)
    # 15 extra pages at the per-page mapping cost.
    assert t_big - t_small == pytest.approx(15 * us(0.2), rel=0.01)
