"""Unit tests for the PCIe fabric: routing, writes, split reads."""

import math

import pytest

from repro.faults import FaultInjector, FaultPlan, LinkFailure
from repro.pcie import (
    DEFAULT_MRRS,
    BusAnalyzer,
    HostMemory,
    LinkParams,
    PCIeDevice,
    PCIeFabric,
    ReadBehavior,
    TlpKind,
    WriteBehavior,
)
from repro.sim import Channel, SimulationError, Simulator
from repro.units import GBps


class SinkDevice(PCIeDevice):
    """Minimal endpoint with a fixed window, fast sink, and slow reads."""

    def __init__(self, sim, name, base, size=1 << 20, read_latency=1000.0, read_rate=None):
        super().__init__(sim, name)
        self.add_window(base, size, "bar0")
        self.deliveries = []
        self._read = ReadBehavior(
            latency=read_latency,
            limiter=Channel(sim, read_rate) if read_rate else None,
        )
        self._write = WriteBehavior(on_write=self._on_write)

    def _on_write(self, addr, nbytes, payload):
        self.deliveries.append((addr, nbytes, payload))

    def describe_read(self, addr):
        return self._read

    def describe_write(self, addr):
        return self._write


def build_two_device_fabric(sim, **sink_kwargs):
    fab = PCIeFabric(sim)
    root = fab.add_root("rc")
    mem = HostMemory(sim, name="dram")
    fab.add_endpoint(mem, root, LinkParams(gen=2, lanes=16), latency=300.0)
    nic = SinkDevice(sim, "nic", base=0x100_0000_0000, **sink_kwargs)
    gpu = SinkDevice(sim, "gpu", base=0x200_0000_0000, **sink_kwargs)
    fab.add_endpoint(nic, root, LinkParams(gen=2, lanes=8), latency=150.0)
    fab.add_endpoint(gpu, root, LinkParams(gen=2, lanes=16), latency=150.0)
    return fab, mem, nic, gpu


def test_address_resolution():
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim)
    assert fab.resolve(0x1000) is mem
    assert fab.resolve(0x100_0000_0000) is nic
    assert fab.resolve(0x200_0000_0042) is gpu
    with pytest.raises(SimulationError):
        fab.resolve(0x999_0000_0000)


def test_window_clash_detected():
    sim = Simulator()
    fab = PCIeFabric(sim)
    root = fab.add_root("rc")
    d1 = SinkDevice(sim, "d1", base=0x1000, size=0x1000)
    fab.add_endpoint(d1, root)
    d2 = SinkDevice(sim, "d2", base=0x1800, size=0x1000)
    with pytest.raises(SimulationError, match="clash"):
        fab.add_endpoint(d2, root)


def test_path_between_siblings_goes_through_parent():
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim)
    hops = fab.path(nic.node, gpu.node)
    assert [(h[0].child.name, h[1]) for h in hops] == [("nic", "up"), ("gpu", "down")]


def test_path_to_self_is_empty():
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim)
    assert fab.path(nic.node, nic.node) == []


def test_write_delivers_payload_once():
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim)

    def proc():
        yield fab.write(nic, 0x200_0000_0000, 8192, payload="halo-data")

    sim.run_process(proc())
    # Delivery happens exactly once, with the whole write's base and size,
    # when the final quantum is absorbed.
    assert gpu.deliveries == [(0x200_0000_0000, 8192, "halo-data")]


def test_write_timing_includes_tlp_overhead():
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim)
    nbytes = 4096

    def proc():
        t0 = sim.now
        yield fab.write(nic, 0x200_0000_0000, nbytes)
        return sim.now - t0

    elapsed = sim.run_process(proc())
    # 16 TLPs of 256B payload + 24B overhead = 4480 wire bytes; two hops:
    # x8 up (3.8 B/ns) then x16 down (7.6 B/ns), latency 150 each.
    wire = nbytes + 16 * 24
    expected = wire / (4.0 * 0.95) + 150 + wire / (8.0 * 0.95) + 150
    assert elapsed == pytest.approx(expected, rel=0.01)


def test_single_read_round_trip_time():
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim, read_latency=1800.0)

    def proc():
        t0 = sim.now
        yield fab.read(nic, 0x200_0000_0000, 512)
        return sim.now - t0

    elapsed = sim.run_process(proc())
    # request: 24B over two hops + latencies; target latency 1800;
    # completions: 512 + 2*20 over two hops + latencies.
    req = 24 / 3.8 + 150 + 24 / 7.6 + 150
    cpl = 552 / 7.6 + 150 + 552 / 3.8 + 150
    assert elapsed == pytest.approx(req + 1800 + cpl, rel=0.01)


def test_read_larger_than_mrrs_rejected():
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim)
    with pytest.raises(SimulationError, match="MRRS"):
        fab.read(nic, 0x200_0000_0000, 4096)


def test_pipelined_read_beats_serial():
    sim = Simulator()

    def run(outstanding):
        sim = Simulator()
        fab, mem, nic, gpu = build_two_device_fabric(sim, read_latency=1000.0)

        def proc():
            t0 = sim.now
            yield fab.read_pipelined(nic, 0x200_0000_0000, 64 * 1024, outstanding=outstanding)
            return sim.now - t0

        return sim.run_process(proc())

    serial = run(1)
    pipelined = run(8)
    assert pipelined < serial / 3  # windowing must hide the round-trip


def test_reads_respect_target_rate_limiter():
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim, read_latency=100.0, read_rate=GBps(0.15))

    def proc():
        t0 = sim.now
        yield fab.read_pipelined(nic, 0x200_0000_0000, 64 * 1024, outstanding=16)
        return sim.now - t0

    elapsed = sim.run_process(proc())
    bw = 64 * 1024 / elapsed
    assert bw <= 0.15 * 1.001  # Fermi-BAR1-style limiter caps throughput


def test_concurrent_writes_share_link_bandwidth():
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim)
    done = {}

    def writer(tag):
        t0 = sim.now
        yield fab.write(nic, 0x200_0000_0000 + (0 if tag == "a" else 1 << 19), 256 * 1024)
        done[tag] = sim.now - t0

    sim.process(writer("a"))
    sim.process(writer("b"))
    sim.run()
    # Two 256KiB writes through the same x8 uplink: each takes about twice
    # as long as alone because quanta interleave.
    alone = (256 * 1024 * (280 / 256)) / 3.8
    assert done["a"] > alone * 1.5
    assert done["b"] > alone * 1.8


def test_bus_analyzer_sees_reads_and_completions():
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim, read_latency=1800.0)
    analyzer = BusAnalyzer(sim)
    analyzer.attach(fab.link_of("gpu"))

    def proc():
        yield fab.read_pipelined(nic, 0x200_0000_0000, 8192, outstanding=4)

    sim.run_process(proc())
    reads = [r for r in analyzer.records if r.kind == TlpKind.MEM_READ]
    cpls = [r for r in analyzer.records if r.kind == TlpKind.COMPLETION]
    assert len(reads) == 16
    assert {r.payload_bytes for r in reads} == {DEFAULT_MRRS}
    assert len(cpls) == 16
    data = [r for r in cpls if r.payload_bytes]
    assert data[0].time - reads[0].time >= 1800.0
    assert sum(r.payload_bytes for r in data) == 8192


def test_unattached_device_cannot_transact():
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim)
    loose = SinkDevice(sim, "loose", base=0x300_0000_0000)
    with pytest.raises(SimulationError, match="not attached"):
        fab.write(loose, 0x200_0000_0000, 64)


def test_path_memo_follows_attach_and_returns_fresh_lists():
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim)
    # Mutating a returned route must not leak into the next answer.
    fab.path(nic.node, gpu.node).clear()
    hops = fab.path(nic.node, gpu.node)
    assert [(h[0].child.name, h[1]) for h in hops] == [("nic", "up"), ("gpu", "down")]
    # A switch and an endpoint attached after a query route correctly.
    sw = fab.add_switch("sw", fab.root)
    late = SinkDevice(sim, "late", base=0x300_0000_0000)
    fab.add_endpoint(late, sw)
    hops = fab.path(nic.node, late.node)
    assert [(h[0].child.name, h[1]) for h in hops] == [
        ("nic", "up"),
        ("sw", "down"),
        ("late", "down"),
    ]
    assert [(h[0].child.name, h[1]) for h in fab.path(late.node, gpu.node)] == [
        ("late", "up"),
        ("sw", "up"),
        ("gpu", "down"),
    ]

    def proc():
        yield fab.write(nic, 0x300_0000_0000, 512, payload="late")

    sim.run_process(proc())
    assert late.deliveries == [(0x300_0000_0000, 512, "late")]


@pytest.mark.parametrize(
    "call",
    [
        lambda fab, nic: fab.read_pipelined(nic, 0x200_0000_0000, 0),
        lambda fab, nic: fab.read_pipelined(nic, 0x200_0000_0000, -512),
        # The gpu's 1 MiB window ends at 0x200_0010_0000.
        lambda fab, nic: fab.read(nic, 0x200_000F_FF00, 512),
        lambda fab, nic: fab.read_pipelined(nic, 0x200_000F_F000, 8192),
    ],
    ids=["pipelined-zero", "pipelined-negative", "read-leaves-window", "pipelined-leaves-window"],
)
def test_bad_arguments_rejected_at_the_call(call):
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim)
    with pytest.raises(SimulationError):
        call(fab, nic)
    assert sim.pending_entries() == []  # nothing was started


@pytest.mark.parametrize(
    "op, failures",
    [
        (lambda fab, a: fab.read(a, 1 << 40, 256), 1),
        (lambda fab, a: fab.write(a, 1 << 40, 8192), 1),
        (lambda fab, a: fab.read_pipelined(a, 1 << 40, 8192), 4),
    ],
    ids=["read", "write", "read_pipelined"],
)
def test_link_failure_surfaces_from_the_run_loop(op, failures):
    # At this BER every TLP is corrupted and no replay is allowed, so each
    # transaction's first hop raises LinkFailure.  It leaves run_process at
    # t=0, after every transaction started at that instant has drawn: each
    # of the windowed read's four reads records its own failure.
    sim = Simulator()
    fab = PCIeFabric(sim)
    root = fab.add_root("rc")
    a = HostMemory(sim, name="a")
    b = HostMemory(sim, base=1 << 40, name="b")
    fab.add_endpoint(a, root)
    fab.add_endpoint(b, root)
    fab.faults = FaultInjector(FaultPlan(seed=0, tlp_ber=0.5, max_retries=0))

    def proc():
        yield op(fab, a)

    with pytest.raises(LinkFailure):
        sim.run_process(proc())
    assert sim.now == 0.0
    assert len(fab.faults.stats.link_failures) == failures


@pytest.mark.parametrize(
    "op, events, done_at",
    [
        # start, 2 request hops, first access, limiter grant, 2 completion
        # hops, done
        (lambda fab, nic: fab.read(nic, 0x200_0000_0000, 512), 8, 2968.7017543859647),
        # producer start, first hop, quantum start, second hop, absorbed, done
        (lambda fab, nic: fab.write(nic, 0x200_0000_0000, 4096), 6, 2068.421052631579),
        # 16 reads of 8 events each, plus the window's start and done
        (
            lambda fab, nic: fab.read_pipelined(nic, 0x200_0000_0000, 8192),
            130,
            12898.807017543862,
        ),
    ],
    ids=["read 512", "write 4K", "read_pipelined 8K"],
)
def test_transaction_kernel_events_are_pinned(op, events, done_at):
    """Every wait of a transaction is one heap entry, so these counts move
    when a change adds or drops an event, whatever the sweep says."""
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim, read_latency=1800.0, read_rate=GBps(1.5))
    done = op(fab, nic)
    sim.run()
    assert done.processed
    assert (sim.events_processed, sim.now) == (events, done_at)


def test_infinite_first_access_latency_fails_the_run():
    # The request reaches the target, whose first access can never end: the
    # chain's crash boundary fails the run at that instant, and the
    # sanitizer records the delay as a causality violation.
    sim = Simulator(sanitize=True)
    fab, mem, nic, gpu = build_two_device_fabric(sim, read_latency=math.inf)
    fab.read(nic, 0x200_0000_0000, 512)
    with pytest.raises(SimulationError, match="timeout delay inf"):
        sim.run()
    assert sim.now == 24 / 3.8 + 150 + 24 / 7.6 + 150
    assert [v.kind for v in sim.sanitizer.violations] == ["causality"]
    assert sim.sanitizer.aborted


# (time, kind, addr, payload, wire, direction, requester) seen by
# test_shared_links_keep_same_time_order on the gpu and nic links.
GPU_LINK_RECORDS = [
    (0.0, "MRd", 0x100_0000_0000, 512, 24, "up", "gpu"),
    (889.4736842105264, "MWr", 0x200_0000_0000, 4096, 4480, "down", "dram"),
    (1335.2631578947369, "MRd", 0x200_0000_0000, 512, 24, "down", "nic"),
    (1341.578947368421, "MRd", 0x200_0000_0200, 512, 24, "down", "nic"),
    (1347.8947368421052, "MRd", 0x200_0000_0400, 512, 24, "down", "nic"),
    (1354.2105263157894, "MRd", 0x200_0000_0600, 512, 24, "down", "nic"),
    (1778.9473684210527, "MWr", 0x200_0000_1000, 4096, 4480, "down", "dram"),
    (2668.421052631579, "MWr", 0x200_0000_2000, 4096, 4480, "down", "dram"),
    (2746.0701754385964, "CplD", 0x100_0000_0000, 512, 552, "down", "gpu"),
    (3557.8947368421054, "MWr", 0x200_0000_3000, 4096, 4480, "down", "dram"),
    (3773.4385964912285, "CplD", 0x200_0000_0000, 512, 552, "up", "nic"),
    (4114.771929824562, "CplD", 0x200_0000_0200, 512, 552, "up", "nic"),
    (4447.368421052632, "MWr", 0x200_0000_4000, 4096, 4480, "down", "dram"),
    (4447.649122807018, "MRd", 0x200_0000_0800, 512, 24, "down", "nic"),
    (4456.105263157895, "CplD", 0x200_0000_0400, 512, 552, "up", "nic"),
    (4788.982456140351, "MRd", 0x200_0000_0a00, 512, 24, "down", "nic"),
    (4797.438596491228, "CplD", 0x200_0000_0600, 512, 552, "up", "nic"),
    (5130.315789473684, "MRd", 0x200_0000_0c00, 512, 24, "down", "nic"),
    (5336.842105263158, "MWr", 0x200_0000_5000, 4096, 4480, "down", "dram"),
    (5471.649122807017, "MRd", 0x200_0000_0e00, 512, 24, "down", "nic"),
    (6226.315789473685, "MWr", 0x200_0000_6000, 4096, 4480, "down", "dram"),
    (7115.789473684212, "MWr", 0x200_0000_7000, 4096, 4480, "down", "dram"),
    (7331.333333333334, "CplD", 0x200_0000_0800, 512, 552, "up", "nic"),
    (7672.666666666667, "CplD", 0x200_0000_0a00, 512, 552, "up", "nic"),
    (8005.2631578947385, "MWr", 0x200_0000_8000, 4096, 4480, "down", "dram"),
    (8005.543859649123, "MRd", 0x200_0000_1000, 512, 24, "down", "nic"),
    (8014.0, "CplD", 0x200_0000_0c00, 512, 552, "up", "nic"),
    (8346.877192982456, "MRd", 0x200_0000_1200, 512, 24, "down", "nic"),
    (8355.333333333334, "CplD", 0x200_0000_0e00, 512, 552, "up", "nic"),
    (8688.21052631579, "MRd", 0x200_0000_1400, 512, 24, "down", "nic"),
    (8894.736842105265, "MWr", 0x200_0000_9000, 4096, 4480, "down", "dram"),
    (9029.543859649124, "MRd", 0x200_0000_1600, 512, 24, "down", "nic"),
    (9784.210526315792, "MWr", 0x200_0000_a000, 4096, 4480, "down", "dram"),
    (10673.684210526319, "MWr", 0x200_0000_b000, 4096, 4480, "down", "dram"),
    (10889.22807017544, "CplD", 0x200_0000_1000, 512, 552, "up", "nic"),
    (11230.561403508775, "CplD", 0x200_0000_1200, 512, 552, "up", "nic"),
    (11563.157894736845, "MWr", 0x200_0000_c000, 4096, 4480, "down", "dram"),
    (11563.43859649123, "MRd", 0x200_0000_1800, 512, 24, "down", "nic"),
    (11571.894736842109, "CplD", 0x200_0000_1400, 512, 552, "up", "nic"),
    (11904.771929824565, "MRd", 0x200_0000_1a00, 512, 24, "down", "nic"),
    (11913.228070175443, "CplD", 0x200_0000_1600, 512, 552, "up", "nic"),
    (12246.105263157899, "MRd", 0x200_0000_1c00, 512, 24, "down", "nic"),
    (12452.631578947372, "MWr", 0x200_0000_d000, 4096, 4480, "down", "dram"),
    (12587.438596491233, "MRd", 0x200_0000_1e00, 512, 24, "down", "nic"),
    (13342.105263157899, "MWr", 0x200_0000_e000, 4096, 4480, "down", "dram"),
    (14231.578947368425, "MWr", 0x200_0000_f000, 4096, 4480, "down", "dram"),
    (14447.122807017548, "CplD", 0x200_0000_1800, 512, 552, "up", "nic"),
    (14788.456140350881, "CplD", 0x200_0000_1a00, 512, 552, "up", "nic"),
    (15129.789473684215, "CplD", 0x200_0000_1c00, 512, 552, "up", "nic"),
    (15471.12280701755, "CplD", 0x200_0000_1e00, 512, 552, "up", "nic"),
]
NIC_LINK_RECORDS = [
    (0.0, "MWr", 0x1000, 4096, 4480, "up", "nic"),
    (0.0, "MRd", 0x200_0000_0000, 512, 24, "up", "nic"),
    (0.0, "MRd", 0x200_0000_0200, 512, 24, "up", "nic"),
    (0.0, "MRd", 0x200_0000_0400, 512, 24, "up", "nic"),
    (0.0, "MRd", 0x200_0000_0600, 512, 24, "up", "nic"),
    (153.1578947368421, "MRd", 0x100_0000_0000, 512, 24, "down", "gpu"),
    (2450.8070175438597, "CplD", 0x100_0000_0000, 512, 552, "up", "gpu"),
    (3996.070175438597, "CplD", 0x200_0000_0000, 512, 552, "down", "nic"),
    (4291.333333333334, "MRd", 0x200_0000_0800, 512, 24, "up", "nic"),
    (4337.40350877193, "CplD", 0x200_0000_0200, 512, 552, "down", "nic"),
    (4632.666666666667, "MRd", 0x200_0000_0a00, 512, 24, "up", "nic"),
    (4678.736842105263, "CplD", 0x200_0000_0400, 512, 552, "down", "nic"),
    (4974.0, "MRd", 0x200_0000_0c00, 512, 24, "up", "nic"),
    (5020.070175438596, "CplD", 0x200_0000_0600, 512, 552, "down", "nic"),
    (5315.333333333333, "MRd", 0x200_0000_0e00, 512, 24, "up", "nic"),
    (7553.964912280702, "CplD", 0x200_0000_0800, 512, 552, "down", "nic"),
    (7849.228070175439, "MRd", 0x200_0000_1000, 512, 24, "up", "nic"),
    (7895.298245614035, "CplD", 0x200_0000_0a00, 512, 552, "down", "nic"),
    (8190.561403508772, "MRd", 0x200_0000_1200, 512, 24, "up", "nic"),
    (8236.631578947368, "CplD", 0x200_0000_0c00, 512, 552, "down", "nic"),
    (8531.894736842105, "MRd", 0x200_0000_1400, 512, 24, "up", "nic"),
    (8577.964912280702, "CplD", 0x200_0000_0e00, 512, 552, "down", "nic"),
    (8873.228070175439, "MRd", 0x200_0000_1600, 512, 24, "up", "nic"),
    (11111.859649122809, "CplD", 0x200_0000_1000, 512, 552, "down", "nic"),
    (11407.122807017546, "MRd", 0x200_0000_1800, 512, 24, "up", "nic"),
    (11453.192982456143, "CplD", 0x200_0000_1200, 512, 552, "down", "nic"),
    (11748.45614035088, "MRd", 0x200_0000_1a00, 512, 24, "up", "nic"),
    (11794.526315789477, "CplD", 0x200_0000_1400, 512, 552, "down", "nic"),
    (12089.789473684214, "MRd", 0x200_0000_1c00, 512, 24, "up", "nic"),
    (12135.85964912281, "CplD", 0x200_0000_1600, 512, 552, "down", "nic"),
    (12431.122807017548, "MRd", 0x200_0000_1e00, 512, 24, "up", "nic"),
    (14669.754385964916, "CplD", 0x200_0000_1800, 512, 552, "down", "nic"),
    (15011.08771929825, "CplD", 0x200_0000_1a00, 512, 552, "down", "nic"),
    (15352.421052631584, "CplD", 0x200_0000_1c00, 512, 552, "down", "nic"),
    (15693.754385964918, "CplD", 0x200_0000_1e00, 512, 552, "down", "nic"),
]


def test_shared_links_keep_same_time_order():
    """Four transactions started together contend for the gpu and nic links.

    Each one's first step runs from its own zero-delay start event, in
    call order, so every tapped TLP and done time below is exact.  Running
    a transaction's first step inline at the call instead lets it overtake
    work already scheduled for t=0, and these records move.
    """
    sim = Simulator()
    fab, mem, nic, gpu = build_two_device_fabric(sim, read_latency=1800.0, read_rate=GBps(1.5))
    on_gpu, on_nic = BusAnalyzer(sim), BusAnalyzer(sim)
    on_gpu.attach(fab.link_of("gpu"))
    on_nic.attach(fab.link_of("nic"))
    events = {
        "read_pipelined": fab.read_pipelined(nic, 0x200_0000_0000, 8192, outstanding=4),
        "write 64K": fab.write(mem, 0x200_0000_0000, 64 * 1024),
        "read 512": fab.read(gpu, 0x100_0000_0000, 512),
        "write 4K": fab.write(nic, 0x1000, 4096),
    }
    done_at = {}
    for name, ev in events.items():
        ev.callbacks.append(lambda _ev, name=name: done_at.setdefault(name, sim.now))
    sim.run()

    def rows(analyzer):
        return [
            (r.time, r.kind.value, r.addr, r.payload_bytes, r.wire_bytes, r.direction, r.requester)
            for r in analyzer.records
        ]

    assert rows(on_gpu) == GPU_LINK_RECORDS
    assert rows(on_nic) == NIC_LINK_RECORDS
    assert done_at == {
        "read_pipelined": 15989.017543859654,
        "write 64K": 14971.052631578952,
        "read 512": 3480.5263157894738,
        "write 4K": 2538.421052631579,
    }
