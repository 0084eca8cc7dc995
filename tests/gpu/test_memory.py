"""GPU memory: the heap of 64 KB pages its buffers come from, and the
per-GPU page map the card installs them in."""

import numpy as np
import pytest

from repro.apenet import PageMap
from repro.gpu import GPU_PAGE_SIZE
from repro.pcie import BufferHeap, OutOfMemoryError


def make_heap(vram=16 * GPU_PAGE_SIZE, base=0x1000_0000):
    return BufferHeap(base, vram, GPU_PAGE_SIZE, "gpu0")


def test_alloc_is_page_aligned():
    a = make_heap()
    b1 = a.alloc(100)
    b2 = a.alloc(100)
    assert b1.addr % GPU_PAGE_SIZE == 0
    assert b2.addr % GPU_PAGE_SIZE == 0
    assert b2.addr == b1.addr + GPU_PAGE_SIZE


def test_alloc_exhaustion():
    a = make_heap(vram=2 * GPU_PAGE_SIZE)
    a.alloc(GPU_PAGE_SIZE)
    a.alloc(1)
    message = r"^gpu0: cannot allocate 1 bytes \(0 free of 131072\)$"
    with pytest.raises(OutOfMemoryError, match=message):
        a.alloc(1)


def test_buffer_at_resolves():
    a = make_heap()
    b = a.alloc(1000)
    c = a.alloc(10)
    assert a.buffer_at(b.addr) is b
    assert a.buffer_at(b.addr + 999) is b
    assert a.buffer_at(c.addr + 9) is c
    for outside in (b.addr - 1, b.addr + 1000, c.addr + 10):  # padding holds no buffer
        with pytest.raises(KeyError):
            a.buffer_at(outside)


def test_buffer_data_round_trip():
    a = make_heap()
    b = a.alloc(256)
    payload = np.arange(64, dtype=np.uint8)
    b.write_bytes(b.addr + 10, payload)
    out = b.read_bytes(b.addr + 10, 64)
    np.testing.assert_array_equal(out, payload)


def test_buffer_bounds_checked():
    a = make_heap()
    b = a.alloc(100)
    with pytest.raises(IndexError):
        b.write_bytes(b.addr + 90, np.zeros(20, dtype=np.uint8))
    with pytest.raises(IndexError):
        b.read_bytes(b.addr - 1, 10)


def test_buffer_tracks_bytes_once_written():
    b = make_heap().alloc(256)
    b.write_bytes(b.addr, None)  # what an untracked source hands over
    assert b.read_bytes(b.addr, 16) is None
    assert b._data is None
    with pytest.raises(IndexError):
        b.read_bytes(b.addr + 250, 10)  # bounds hold before any write
    b.write_bytes(b.addr + 8, np.full(8, 5, dtype=np.uint8))
    out = b.read_bytes(b.addr, 16)
    np.testing.assert_array_equal(out, [0] * 8 + [5] * 8)
    out[:] = 9  # a copy, not a view of the buffer
    b.write_bytes(b.addr + 8, None)
    np.testing.assert_array_equal(b.read_bytes(b.addr + 8, 8), [5] * 8)


def test_page_descriptors_cover_buffer():
    b = make_heap().alloc(3 * GPU_PAGE_SIZE + 5)
    pages = PageMap(GPU_PAGE_SIZE)
    assert pages.map_range(b.addr, b.size) == 4
    assert pages.is_mapped(b.addr) and pages.is_mapped(b.end - 1)
    assert not pages.is_mapped(b.addr + 4 * GPU_PAGE_SIZE)


def test_page_table_lookup():
    b = make_heap().alloc(2 * GPU_PAGE_SIZE)
    pages = PageMap(GPU_PAGE_SIZE)
    assert not pages.is_mapped(b.addr)
    assert pages.map_range(b.addr, b.size) == 2
    assert pages.is_mapped(b.addr + GPU_PAGE_SIZE + 123)


def test_page_table_unmapped_raises():
    pages = PageMap(GPU_PAGE_SIZE)
    assert not pages.is_mapped(0xDEAD0000)
    for nbytes in (0, -1):
        with pytest.raises(ValueError, match="positive size"):
            pages.map_range(0xDEAD0000, nbytes)
    assert not pages.is_mapped(0xDEAD0000)
    assert pages.map_range(0xDEAD0000, 1) == 1
    assert not pages.is_mapped(0xDEAD0000 + GPU_PAGE_SIZE)


def test_page_table_remap_idempotent():
    b = make_heap().alloc(GPU_PAGE_SIZE)
    pages = PageMap(GPU_PAGE_SIZE)
    assert pages.map_range(b.addr, b.size) == 1
    assert pages.map_range(b.addr, b.size) == 0
