"""Encoder/decoder round-trip tests for the guest ISA."""

import pytest
from hypothesis import given, strategies as st

from repro.guest.encoding import (
    MAX_LENGTH, EncodingError, decode_bytes, decode_instr, encode_instr,
)
from repro.guest.isa import (
    FPR_NAMES, GPR_NAMES, INSN_SPECS, MNEMONICS, VR_NAMES,
    FReg, GuestInstr, Imm, Mem, Reg, VReg,
)
from repro.guest.memory import PAGE_SIZE, PagedMemory, PageFault


def roundtrip(instr: GuestInstr, addr: int = 0x1000) -> GuestInstr:
    blob = encode_instr(instr)
    decoded = decode_bytes(blob, 0, addr)
    assert decoded.length == len(blob)
    assert decoded.addr == addr
    return decoded


def test_simple_reg_reg():
    instr = GuestInstr("ADD", (Reg("EAX"), Reg("EBX")))
    decoded = roundtrip(instr)
    assert decoded.mnemonic == "ADD"
    assert decoded.operands == (Reg("EAX"), Reg("EBX"))


def test_imm_operand():
    decoded = roundtrip(GuestInstr("MOV", (Reg("ECX"), Imm(0xDEADBEEF))))
    assert decoded.operands[1].u32 == 0xDEADBEEF


def test_mem_operand_full():
    mem = Mem(base="EBP", index="ESI", scale=4, disp=0x40)
    decoded = roundtrip(GuestInstr("MOV", (Reg("EAX"), mem)))
    assert decoded.operands[1] == mem


def test_mem_operand_disp_only():
    mem = Mem(disp=0x2000)
    decoded = roundtrip(GuestInstr("MOV", (mem, Reg("EAX"))))
    assert decoded.operands[0] == mem


def test_zero_operand_instrs():
    for m in ("NOP", "RET", "SYSCALL", "REP_MOVSD"):
        decoded = roundtrip(GuestInstr(m, ()))
        assert decoded.mnemonic == m
        assert decoded.operands == ()


def test_variable_lengths_are_cisc_like():
    nop = encode_instr(GuestInstr("NOP", ()))
    movmi = encode_instr(GuestInstr(
        "MOV", (Mem(base="EBP", index="ESI", scale=2, disp=8), Imm(7))))
    assert len(nop) == 1
    assert len(movmi) >= 10  # opcode + mem + imm


def test_operand_kind_checked():
    with pytest.raises(EncodingError):
        encode_instr(GuestInstr("LEA", (Reg("EAX"), Reg("EBX"))))
    with pytest.raises(EncodingError):
        encode_instr(GuestInstr("ADD", (Reg("EAX"),)))


def test_bad_opcode_rejected():
    with pytest.raises(EncodingError):
        decode_bytes(b"\xff", 0, 0)


def test_fp_and_vector_operands():
    decoded = roundtrip(GuestInstr("FADD", (FReg("F0"), FReg("F3"))))
    assert decoded.operands == (FReg("F0"), FReg("F3"))
    decoded = roundtrip(GuestInstr("VSPLAT", (VReg("V2"), Reg("EDX"))))
    assert decoded.operands == (VReg("V2"), Reg("EDX"))


# -- property-based round trip over the whole instruction space -------------

_regs = st.sampled_from(GPR_NAMES).map(Reg)
_fregs = st.sampled_from(FPR_NAMES).map(FReg)
_vregs = st.sampled_from(VR_NAMES).map(VReg)
_imms = st.integers(min_value=0, max_value=0xFFFFFFFF).map(Imm)
_mems = st.builds(
    Mem,
    base=st.one_of(st.none(), st.sampled_from(GPR_NAMES)),
    index=st.one_of(st.none(), st.sampled_from(GPR_NAMES)),
    scale=st.sampled_from([1, 2, 4, 8]),
    disp=st.integers(min_value=0, max_value=0xFFFFFFFF),
)

_KIND_STRATEGIES = {
    "r": _regs,
    "f": _fregs,
    "v": _vregs,
    "i": _imms,
    "m": _mems,
    "rm": st.one_of(_regs, _mems),
    "ri": st.one_of(_regs, _imms),
    "rmi": st.one_of(_regs, _mems, _imms),
}


@st.composite
def _instrs(draw):
    mnemonic = draw(st.sampled_from(MNEMONICS))
    spec = INSN_SPECS[mnemonic]
    operands = tuple(draw(_KIND_STRATEGIES[k]) for k in spec.operands)
    return GuestInstr(mnemonic, operands)


@given(_instrs())
def test_roundtrip_property(instr):
    decoded = roundtrip(instr, addr=0x4321)
    assert decoded.mnemonic == instr.mnemonic
    assert decoded.operands == instr.operands


# -- the length bound and the page rules -------------------------------------

#: Each operand kind's longest operand.
_LONGEST = {"r": Reg("EDI"), "f": FReg("F7"), "v": VReg("V7"),
            "i": Imm(0xFFFFFFFF),
            "m": Mem(base="EBP", index="ESI", scale=8, disp=0xFFFFFFFF)}


def _longest(mnemonic):
    """``mnemonic`` with each operand the longest its kind allows."""
    return GuestInstr(mnemonic, tuple(
        _LONGEST["m" if "m" in kind else "i" if "i" in kind else kind]
        for kind in INSN_SPECS[mnemonic].operands))


def test_longest_encoding_is_the_decoders_bound():
    lengths = {m: len(encode_instr(_longest(m))) for m in MNEMONICS}
    assert max(lengths.values()) == MAX_LENGTH == 17
    assert lengths["MOV"] == 17  # MOV m, m


def test_instructions_run_1_to_17_bytes():
    assert len(encode_instr(GuestInstr("NOP", ()))) == 1
    assert len(encode_instr(GuestInstr(
        "MOV", (_LONGEST["m"], Imm(7))))) == 14


#: The longest form of each operand kind, a bad opcode and a bad tag.
PAGE_CASES = {
    "mov_m_m": encode_instr(GuestInstr("MOV", (
        _LONGEST["m"], Mem(base="EBX", index="EDI", scale=4, disp=8)))),
    "mov_m_i": encode_instr(GuestInstr("MOV", (_LONGEST["m"], Imm(-1)))),
    "mov_r_i": encode_instr(GuestInstr("MOV", (Reg("ECX"), Imm(0x1234)))),
    "xchg_r_r": encode_instr(GuestInstr("XCHG", (Reg("EAX"), Reg("EDI")))),
    "fadd_f_f": encode_instr(GuestInstr("FADD", (FReg("F1"), FReg("F6")))),
    "vadd_v_v": encode_instr(GuestInstr("VADD", (VReg("V2"), VReg("V5")))),
    "nop": encode_instr(GuestInstr("NOP", ())),
    "bad_opcode": b"\xff" * 4,
    "bad_tag": bytes([encode_instr(GuestInstr("NEG", (Reg("EAX"),)))[0],
                      0x07, 0, 0]),
}
PAGE = 0x50


def _memory(code, offset, demand_zero, next_present):
    """``code`` at ``offset`` of page ``PAGE``, its tail in the next page
    when that page is present."""
    image = bytearray(2 * PAGE_SIZE)
    image[offset:offset + len(code)] = code
    memory = PagedMemory(demand_zero=demand_zero)
    memory.install_page(PAGE, bytes(image[:PAGE_SIZE]))
    if next_present:
        memory.install_page(PAGE + 1, bytes(image[PAGE_SIZE:]))
    return memory


def _bytewise(memory, addr):
    """Decode at ``addr`` reading one byte at a time through ``read_u8``,
    as far as the instruction goes."""
    data = bytearray()
    while True:
        try:
            return decode_bytes(data, 0, addr)
        except IndexError:
            data.append(memory.read_u8(addr + len(data)))


def _outcome(decode):
    try:
        return "ok", decode()
    except PageFault as fault:
        return "fault", fault.addr
    except EncodingError as error:
        return "error", str(error)


@pytest.mark.parametrize("next_present", [True, False],
                         ids=["next_present", "next_absent"])
@pytest.mark.parametrize("demand_zero", [True, False],
                         ids=["demand_zero", "lazy"])
@pytest.mark.parametrize("case", PAGE_CASES)
def test_page_decode_matches_byte_at_a_time(case, demand_zero, next_present):
    code = PAGE_CASES[case]
    for offset in range(PAGE_SIZE - MAX_LENGTH, PAGE_SIZE):
        paged = _memory(code, offset, demand_zero, next_present)
        bytewise = _memory(code, offset, demand_zero, next_present)
        addr = PAGE * PAGE_SIZE + offset
        got = _outcome(lambda: decode_instr(paged, addr))
        want = _outcome(lambda: _bytewise(bytewise, addr))
        assert got == want, (case, offset)
        assert list(paged.present_pages()) == \
            list(bytewise.present_pages()), (case, offset)
        if got[0] == "ok" and (next_present or offset + len(code)
                               <= PAGE_SIZE) and "bad" not in case:
            assert got[1] == decode_bytes(code, 0, addr)
            assert got[1].length == len(code)


def test_page_decode_touches_nothing_past_a_missing_first_page():
    memory = PagedMemory(demand_zero=False)
    with pytest.raises(PageFault) as fault:
        decode_instr(memory, 0x7FFC)
    assert fault.value.addr == 0x7FFC
    assert list(memory.present_pages()) == []


def test_page_decode_wraps_at_the_top_of_memory():
    code = PAGE_CASES["mov_m_m"]
    addr = 0xFFFFFFFF - 5
    memory = PagedMemory()
    memory.write_bytes(addr, code)
    assert list(memory.present_pages()) == [0xFFFFF, 0]
    assert decode_instr(memory, addr) == decode_bytes(code, 0, addr)


def test_buffer_decode_raises_index_error_past_the_end():
    code = PAGE_CASES["mov_m_i"]
    for end in range(1, len(code)):
        with pytest.raises(IndexError):
            decode_bytes(code[:end], 0, 0x1000)
