"""PagedMemory's wide accesses (f64 and 4-lane vectors) against the byte path.

Inside a page a wide access is one struct call; across a page boundary it
goes through ``read_bytes``/``write_bytes``, a page chunk at a time.  Either
way it must read the same value, raise the same PageFault, and leave the
same page set, page contents and dirty set as doing the access one
``read_u8``/``write_u8`` at a time.  The bulk copies themselves are held to
the same rule.
"""

import struct

import pytest

from repro.guest.memory import PAGE_SIZE, PagedMemory, PageFault

PAGE = 0x40  # the access starts in this page and may straddle into the next
BASE = PAGE * PAGE_SIZE

#: kind -> (format, read method, write method, value written, offsets)
WIDE = {
    "f64": ("<d", "read_f64", "write_f64", -1.2345678e-3, (4088, 4092, 4095)),
    "vec": ("<4I", "read_vec", "write_vec",
            [1, 0xFFFFFFFF, 0x80000000, 0x1234], (4080, 4084, 4095)),
}
#: Which of the two pages hold data before the access.
PRESENT = {"both": (PAGE, PAGE + 1), "first": (PAGE,),
           "second": (PAGE + 1,), "none": ()}

CASES = [(kind, offset, demand_zero, present)
         for kind, spec in WIDE.items() for offset in spec[4]
         for demand_zero in (True, False) for present in PRESENT]


def _pair(demand_zero, present):
    """Two identical memories: one for the wide path, one for the bytes."""
    pair = []
    for _ in range(2):
        memory = PagedMemory(demand_zero=demand_zero)
        for page in PRESENT[present]:
            memory.install_page(
                page, bytes((page * 7 + i) & 0xFF for i in range(PAGE_SIZE)))
        pair.append(memory)
    return pair


def _image(memory):
    pages = list(memory.present_pages())
    return pages, [memory.export_page(p) for p in pages], sorted(memory.dirty)


def _outcome(access):
    try:
        return "ok", access()
    except PageFault as fault:
        return "fault", fault.addr


def _write_bytewise(memory, addr, data):
    for i, byte in enumerate(data):
        memory.write_u8(addr + i, byte)


def _pack(fmt, value):
    return struct.pack(fmt, *value) if isinstance(value, list) else \
        struct.pack(fmt, value)


@pytest.mark.parametrize("kind,offset,demand_zero,present", CASES)
def test_wide_read_matches_byte_path(kind, offset, demand_zero, present):
    fmt, read, _, _, _ = WIDE[kind]
    wide, narrow = _pair(demand_zero, present)
    addr = BASE + offset
    got = _outcome(lambda: _pack(fmt, getattr(wide, read)(addr)))
    want = _outcome(lambda: bytes(
        narrow.read_u8(addr + i) for i in range(struct.calcsize(fmt))))
    assert got == want  # bit-exact value, or the same fault address
    assert _image(wide) == _image(narrow)


@pytest.mark.parametrize("kind,offset,demand_zero,present", CASES)
def test_wide_write_matches_byte_path(kind, offset, demand_zero, present):
    fmt, _, write, value, _ = WIDE[kind]
    wide, narrow = _pair(demand_zero, present)
    addr = BASE + offset
    got = _outcome(lambda: getattr(wide, write)(addr, value))
    want = _outcome(lambda: _write_bytewise(narrow, addr, _pack(fmt, value)))
    assert got == want
    assert _image(wide) == _image(narrow)


@pytest.mark.parametrize("kind", WIDE)
def test_in_page_write_that_faults_writes_nothing(kind):
    _, _, write, value, offsets = WIDE[kind]
    memory = PagedMemory(demand_zero=False)
    with pytest.raises(PageFault) as fault:
        getattr(memory, write)(BASE + offsets[0], value)
    assert fault.value.addr == BASE + offsets[0]
    assert list(memory.present_pages()) == [] and memory.dirty == set()


@pytest.mark.parametrize("kind", WIDE)
def test_straddling_write_fills_first_page_then_faults(kind):
    fmt, _, write, value, offsets = WIDE[kind]
    memory, _ = _pair(False, "first")
    offset = offsets[1]
    with pytest.raises(PageFault) as fault:
        getattr(memory, write)(BASE + offset, value)
    assert fault.value.addr == BASE + PAGE_SIZE
    assert memory.export_page(PAGE)[offset:] == \
        _pack(fmt, value)[:PAGE_SIZE - offset]
    assert memory.dirty == {PAGE}


# -- bulk copies: a page chunk at a time --------------------------------------

#: name -> (start address, size): across one boundary, over three pages,
#: and wrapping from the top of memory to page 0.
BULK = {"boundary": (BASE + 4000, 300), "three_pages": (BASE + 100, 9000),
        "wrap": (0xFFFFFF00, 0x200)}
BULK_CASES = [(name, demand_zero, present) for name in BULK
              for demand_zero in (True, False) for present in PRESENT]


def _bulk_pair(name, demand_zero, present):
    """``_pair``, with the wrap case's pages at the top of memory and 0."""
    if name != "wrap":
        return _pair(demand_zero, present)
    pair = []
    pages = {"both": (0xFFFFF, 0), "first": (0xFFFFF,), "second": (0,),
             "none": ()}[present]
    for _ in range(2):
        memory = PagedMemory(demand_zero=demand_zero)
        for page in pages:
            memory.install_page(page, bytes((page + i) & 0xFF
                                            for i in range(PAGE_SIZE)))
        pair.append(memory)
    return pair


@pytest.mark.parametrize("name,demand_zero,present", BULK_CASES)
def test_read_bytes_matches_byte_path(name, demand_zero, present):
    addr, size = BULK[name]
    bulk, narrow = _bulk_pair(name, demand_zero, present)
    got = _outcome(lambda: bulk.read_bytes(addr, size))
    want = _outcome(lambda: bytes(
        narrow.read_u8(addr + i) for i in range(size)))
    assert got == want
    assert _image(bulk) == _image(narrow)


@pytest.mark.parametrize("name,demand_zero,present", BULK_CASES)
def test_write_bytes_matches_byte_path(name, demand_zero, present):
    addr, size = BULK[name]
    data = bytes((i * 13 + 5) & 0xFF for i in range(size))
    bulk, narrow = _bulk_pair(name, demand_zero, present)
    got = _outcome(lambda: bulk.write_bytes(addr, data))
    want = _outcome(lambda: _write_bytewise(narrow, addr, data))
    assert got == want
    assert _image(bulk) == _image(narrow)


def test_write_bytes_into_a_missing_page_writes_the_pages_before_it():
    memory, _ = _pair(False, "first")
    data = bytes(range(200))
    with pytest.raises(PageFault) as fault:
        memory.write_bytes(BASE + PAGE_SIZE - 100, data)
    assert fault.value.addr == BASE + PAGE_SIZE
    assert memory.export_page(PAGE)[-100:] == data[:100]
    assert memory.dirty == {PAGE}
