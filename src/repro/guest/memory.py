"""Paged guest memory.

Both DARCO components keep a full guest memory image.  The x86 component's
memory is authoritative and allocates pages on demand; the co-designed
component's memory is *lazy*: touching a page that has not yet been received
from the x86 component raises :class:`PageFault`, which the TOL turns into a
data-request synchronization event (paper §V-A).
"""

from __future__ import annotations

import struct
from typing import Dict, Iterable

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1
ADDR_MASK = 0xFFFFFFFF

_F64 = struct.Struct("<d")
_VEC = struct.Struct("<4I")


class PageFault(Exception):
    """Access to a page not present in this component's memory image."""

    def __init__(self, addr: int):
        super().__init__(f"page fault at {addr:#010x}")
        self.addr = addr & ADDR_MASK

    @property
    def page(self) -> int:
        return self.addr >> PAGE_SHIFT


class PagedMemory:
    """A sparse 32-bit byte-addressable memory image.

    ``demand_zero=True`` (x86 component): missing pages materialize as zeros.
    ``demand_zero=False`` (co-designed component): missing pages raise
    :class:`PageFault`.
    """

    def __init__(self, demand_zero: bool = True):
        self.demand_zero = demand_zero
        self._pages: Dict[int, bytearray] = {}
        #: Pages written since the last :meth:`clear_dirty` (used by the
        #: controller to propagate syscall side effects between components).
        self.dirty: set = set()

    # -- page management ----------------------------------------------------

    def page_present(self, page: int) -> bool:
        return page in self._pages

    def present_pages(self) -> Iterable[int]:
        return self._pages.keys()

    def install_page(self, page: int, data: bytes) -> None:
        """Install a 4KB page image (used to serve data requests)."""
        if len(data) != PAGE_SIZE:
            raise ValueError(f"page image must be {PAGE_SIZE} bytes")
        self._pages[page] = bytearray(data)

    def export_page(self, page: int) -> bytes:
        """Return a copy of a page (zeros if absent and demand-zero)."""
        data = self._page_for(page << PAGE_SHIFT)
        return bytes(data)

    def _page_for(self, addr: int) -> bytearray:
        page = (addr & ADDR_MASK) >> PAGE_SHIFT
        data = self._pages.get(page)
        if data is None:
            if not self.demand_zero:
                raise PageFault(addr)
            data = bytearray(PAGE_SIZE)
            self._pages[page] = data
        return data

    # -- scalar accessors ---------------------------------------------------

    def read_u8(self, addr: int) -> int:
        addr &= ADDR_MASK
        return self._page_for(addr)[addr & PAGE_MASK]

    def clear_dirty(self) -> None:
        self.dirty.clear()

    def write_u8(self, addr: int, value: int) -> None:
        addr &= ADDR_MASK
        self._page_for(addr)[addr & PAGE_MASK] = value & 0xFF
        self.dirty.add(addr >> PAGE_SHIFT)

    # Bulk copies go a page chunk at a time, in address order, so pages
    # appear, and a lazy memory faults at the first missing byte, as
    # they would byte by byte; the address wraps at 2**32.

    def read_bytes(self, addr: int, size: int) -> bytes:
        out = bytearray()
        while len(out) < size:
            addr &= ADDR_MASK
            offset = addr & PAGE_MASK
            n = min(size - len(out), PAGE_SIZE - offset)
            out += self._page_for(addr)[offset:offset + n]
            addr += n
        return bytes(out)

    def write_bytes(self, addr: int, data: bytes) -> None:
        data = memoryview(data)
        done = 0
        while done < len(data):
            addr &= ADDR_MASK
            offset = addr & PAGE_MASK
            n = min(len(data) - done, PAGE_SIZE - offset)
            self._page_for(addr)[offset:offset + n] = data[done:done + n]
            self.dirty.add(addr >> PAGE_SHIFT)
            addr += n
            done += n

    def read_u32(self, addr: int) -> int:
        addr &= ADDR_MASK
        offset = addr & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            page = self._page_for(addr)
            return struct.unpack_from("<I", page, offset)[0]
        return struct.unpack("<I", self.read_bytes(addr, 4))[0]

    def write_u32(self, addr: int, value: int) -> None:
        addr &= ADDR_MASK
        offset = addr & PAGE_MASK
        if offset <= PAGE_SIZE - 4:
            page = self._page_for(addr)
            struct.pack_into("<I", page, offset, value & 0xFFFFFFFF)
            self.dirty.add(addr >> PAGE_SHIFT)
        else:
            self.write_bytes(addr, struct.pack("<I", value & 0xFFFFFFFF))

    # Wide accesses take one struct call inside a page; an access that
    # straddles two pages goes byte by byte, so a fault on the second page
    # comes after the first page's bytes were written.

    def read_f64(self, addr: int) -> float:
        addr &= ADDR_MASK
        offset = addr & PAGE_MASK
        if offset <= PAGE_SIZE - 8:
            return _F64.unpack_from(self._page_for(addr), offset)[0]
        return _F64.unpack(self.read_bytes(addr, 8))[0]

    def write_f64(self, addr: int, value: float) -> None:
        self._write_wide(addr, _F64.pack(float(value)))

    def read_vec(self, addr: int):
        """Read a 4-lane int32 vector (16 bytes)."""
        addr &= ADDR_MASK
        offset = addr & PAGE_MASK
        if offset <= PAGE_SIZE - 16:
            return list(_VEC.unpack_from(self._page_for(addr), offset))
        return list(_VEC.unpack(self.read_bytes(addr, 16)))

    def write_vec(self, addr: int, lanes) -> None:
        self._write_wide(
            addr, _VEC.pack(*[lane & 0xFFFFFFFF for lane in lanes]))

    def _write_wide(self, addr: int, data: bytes) -> None:
        addr &= ADDR_MASK
        offset = addr & PAGE_MASK
        if offset <= PAGE_SIZE - len(data):
            self._page_for(addr)[offset:offset + len(data)] = data
            self.dirty.add(addr >> PAGE_SHIFT)
        else:
            self.write_bytes(addr, data)

    # -- whole image helpers (validation / debug) ---------------------------

    def equal_on_pages(self, other: "PagedMemory", pages) -> bool:
        return all(self.export_page(p) == other.export_page(p) for p in pages)

    def first_difference(self, other: "PagedMemory", pages):
        """Return (page, offset) of the first differing byte, or None."""
        for page in sorted(pages):
            mine, theirs = self.export_page(page), other.export_page(page)
            if mine != theirs:
                for offset, (a, b) in enumerate(zip(mine, theirs)):
                    if a != b:
                        return page, offset
        return None
