"""Unit tests for the batched flow engine (repro.scale.flow).

Fragment arithmetic, routing (including detours and partition verdicts),
calibration memoisation, and the scalar-vs-vectorised latency model.
Parity against the exact per-packet driver lives in test_parity_*.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.net.packet import MAX_PACKET_PAYLOAD, PACKET_HEADER_BYTES
from repro.net.topology import RouteTable, TorusShape
from repro.scale import (
    BulkTransfer,
    FlowNetwork,
    calibrate,
    fragment_count,
    last_fragment_bytes,
    run_exact,
    run_scale_bfs,
    wire_bytes,
)
from repro.units import us

pytestmark = pytest.mark.scale


# ---------------------------------------------------------------------------
# Fragment arithmetic (the lossless backbone)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "nbytes,n,last",
    [
        (1, 1, 1),
        (300, 1, 300),
        (MAX_PACKET_PAYLOAD, 1, MAX_PACKET_PAYLOAD),
        (MAX_PACKET_PAYLOAD + 1, 2, 1),
        (2 * MAX_PACKET_PAYLOAD, 2, MAX_PACKET_PAYLOAD),
        (65536, 16, MAX_PACKET_PAYLOAD),
        (65537, 17, 1),
    ],
)
def test_fragment_arithmetic(nbytes, n, last):
    assert fragment_count(nbytes) == n
    assert last_fragment_bytes(nbytes) == last
    assert wire_bytes(nbytes) == nbytes + n * PACKET_HEADER_BYTES
    # Fragment payloads must re-sum to the transfer size.
    assert (n - 1) * MAX_PACKET_PAYLOAD + last == nbytes


# ---------------------------------------------------------------------------
# Routing
# ---------------------------------------------------------------------------


def test_path_fault_free_is_dimension_ordered():
    shape = TorusShape(3, 3, 3)
    table = RouteTable(shape)
    for src, dst in [(0, 13), (5, 22), (26, 0), (7, 7)]:
        route = table.path(src, dst)
        assert route is not None
        assert len(route) == shape.distance(shape.coord(src), shape.coord(dst))
        # Walking the hop list must land on dst.
        cur = shape.coord(src)
        for rank, dim, direction in route:
            assert rank == shape.rank(cur)
            cur = shape.neighbor(cur, dim, direction)
        assert shape.rank(cur) == dst
        static = shape.route(shape.coord(src), shape.coord(dst))
        assert [(dim, direction) for _, dim, direction in route] == static


def test_path_detours_around_dead_link():
    shape = TorusShape(3, 3, 3)
    route = RouteTable(shape, [(0, 0, 1)]).path(0, 1)  # +X out of rank 0 dead
    assert route is not None
    assert (0, 0, 1) not in route  # the dead hop is never taken
    # The detour is longer than the direct hop but still reaches dst.
    assert len(route) > 1
    cur = shape.coord(0)
    for _rank, dim, direction in route:
        cur = shape.neighbor(cur, dim, direction)
    assert shape.rank(cur) == 1


def test_path_partition_verdict_is_none():
    # On a 2-node line both X channels out of rank 0 are the only exits.
    table = RouteTable(TorusShape(2, 1, 1), [(0, 0, 1), (0, 0, -1)])
    assert table.path(0, 1) is None
    # The reverse direction uses rank 1's (alive) channels.
    assert table.path(1, 0) is not None


@pytest.mark.parametrize(
    "spec,message",
    [
        pytest.param(((3, 0, 0), 0, 1), "outside the 3x3x1 torus", id="coord-outside"),
        pytest.param((9, 0, 1), "outside the 3x3x1 torus", id="rank-outside"),
        pytest.param((0, 2, 1), "no links along dimension 2", id="extent-1-dim"),
        pytest.param((0, 0, 2), "direction must be", id="direction"),
    ],
)
def test_malformed_dead_links_are_rejected_alike(spec, message):
    """FlowNetwork, run_exact and run_scale_bfs share one dead-link validator."""
    dims = (3, 3, 1)
    errors = set()
    for run in (
        lambda: FlowNetwork(dims, dead_links=[spec]),
        lambda: run_exact(dims, [], dead_links=[spec]),
        lambda: run_scale_bfs(dims, 6, dead_links=[spec]),
    ):
        with pytest.raises(ValueError, match=message) as err:
            run()
        errors.add(str(err.value))
    assert len(errors) == 1


def test_dead_link_rank_may_be_any_integer_type():
    expected = frozenset({((1, 0, 0), 0, 1)})
    for rank in (1, np.int64(1), np.int32(1), (1, 0, 0)):
        assert FlowNetwork((3, 3, 3), dead_links=[(rank, 0, 1)]).routes.dead == expected


def test_unreachable_flow_record_is_undelivered():
    net = FlowNetwork((2, 1, 1), dead_links=[(0, 0, 1), (0, 0, -1)])
    agg = net.run_transfers([BulkTransfer(0, 1, 4096)])
    assert agg.bytes_delivered == 0
    assert agg.completions == (None,)
    assert agg.makespan == 0.0
    assert not agg.link_bytes  # nothing ever hit a wire


# ---------------------------------------------------------------------------
# Calibration and the latency model
# ---------------------------------------------------------------------------


def test_calibrate_is_memoised():
    a = calibrate()
    b = calibrate()
    assert a is b  # module-wide memo: same object, no re-probing


def test_calibration_is_physically_sane():
    cal = calibrate()
    assert cal.per_fragment > 0
    assert cal.hop_base > 0
    # Latency knots are strictly increasing in fragment count.
    assert all(b > a for a, b in zip(cal.knot_times, cal.knot_times[1:]))
    # Occupancy (the LogP g) is bounded below by the RX service time.
    assert cal.occupancy(1, 512) >= cal.per_fragment
    assert cal.occupancy(9, MAX_PACKET_PAYLOAD) >= cal.per_fragment


def test_latency_monotone_in_size_and_hops():
    cal = calibrate()
    sizes = [64, 512, 4096, 8192, 65536, 131072]
    lat = [
        cal.completion_latency(fragment_count(s), last_fragment_bytes(s), 1)
        for s in sizes
    ]
    assert all(b > a for a, b in zip(lat, lat[1:]))
    hops = [cal.completion_latency(2, MAX_PACKET_PAYLOAD, h) for h in (1, 2, 3, 5)]
    assert all(b > a for a, b in zip(hops, hops[1:]))


def test_vectorised_latency_matches_scalar():
    cal = calibrate()
    nbytes = np.array([1, 300, 512, 4096, 4097, 5000, 8192, 40000, 600000])
    hops = np.array([1, 2, 3, 1, 4, 2, 1, 5, 3])
    vec = cal.completion_latency_array(nbytes, hops)
    for i, (nb, h) in enumerate(zip(nbytes, hops)):
        scalar = cal.completion_latency(
            fragment_count(int(nb)), last_fragment_bytes(int(nb)), int(h)
        )
        assert vec[i] == pytest.approx(scalar, rel=0, abs=1e-9)


def test_latency_is_exact_at_probed_knots():
    """The model must reproduce its own probe points bit-for-bit."""
    cal = calibrate()
    for i, n in enumerate(cal.knots):
        assert cal.completion_latency(n, MAX_PACKET_PAYLOAD, 1) == cal.knot_times[i]
    for i, b in enumerate(cal.single_byte_knots):
        assert cal.completion_latency(1, b, 1) == cal.single_byte_times[i]


# ---------------------------------------------------------------------------
# Flow scheduling invariants
# ---------------------------------------------------------------------------


def test_back_to_back_flows_are_spaced_by_occupancy():
    net = FlowNetwork((2, 1, 1))
    cal = net.calibration()
    n, last = 9, MAX_PACKET_PAYLOAD
    first, second = net.run_transfers(
        [BulkTransfer(0, 1, 9 * MAX_PACKET_PAYLOAD)] * 2
    ).completions
    # The steady-state same-path gap is the probed occupancy exactly.
    assert second - first == pytest.approx(cal.occupancy(n, last), rel=1e-12)


def test_a_batch_run_twice_on_one_network_gives_equal_aggregates():
    """The batch is the unit: no link load or resource time carries over."""
    net = FlowNetwork((3, 3, 3))
    batch = [BulkTransfer(0, 13, 8192, 0.0), BulkTransfer(1, 26, 5000, us(150.0))]
    first = net.run_transfers(batch)
    assert net.run_transfers(batch) == first
