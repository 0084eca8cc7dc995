"""Unit tests for the APEnet+ packet format."""

import pytest

from repro.net.packet import (
    MAX_PACKET_PAYLOAD,
    PACKET_HEADER_BYTES,
    ApePacket,
    MessageInfo,
    next_message_id,
)


def make(nbytes=4096):
    msg = MessageInfo(1, nbytes, 0, 0x1000, tag="t")
    return ApePacket((1, 0, 0), (0, 0, 0), 0x1000, nbytes, msg)


def test_wire_size_includes_envelope():
    pkt = make(4096)
    assert pkt.size == 4096 + PACKET_HEADER_BYTES


def test_payload_bounds_enforced():
    with pytest.raises(ValueError):
        make(0)
    with pytest.raises(ValueError):
        make(MAX_PACKET_PAYLOAD + 1)
    assert make(MAX_PACKET_PAYLOAD).nbytes == MAX_PACKET_PAYLOAD


def test_message_ids_monotonic():
    a, b = next_message_id(), next_message_id()
    assert b == a + 1


def test_message_info_carries_routing_metadata():
    msg = MessageInfo(7, 8192, src_rank=2, dst_addr=0xABC, tag=("x", 1))
    assert msg.total_bytes == 8192
    assert msg.src_rank == 2
    assert msg.tag == ("x", 1)
