"""Variable-length byte encoding for guest instructions.

The encoding is deliberately CISC-flavoured: one opcode byte, followed by a
tagged operand stream.  Instruction lengths range from 1 byte (``NOP``,
``RET``) to 17 bytes (``MOV m, m`` with two full memory operands; 14 for a
memory operand plus a 32-bit immediate), so static code size and fetch
behaviour resemble x86.  :data:`MAX_LENGTH` is that bound, derived from the
operand kinds of :data:`repro.guest.isa.INSN_SPECS`.

Layout::

    opcode:1  (operand)*
    operand := tag:1 payload
    tag 0 -> GPR      payload reg:1
    tag 1 -> FPR      payload reg:1
    tag 2 -> VR       payload reg:1
    tag 3 -> imm32    payload value:4 (little endian)
    tag 4 -> mem      payload mode:1 [base:1] [index:1] disp:4
                      mode bits: 0x01 has_base, 0x02 has_index,
                                 0x0C scale (log2, bits 2-3)
"""

from __future__ import annotations

import struct
from typing import Tuple

from repro.guest.isa import (
    FPR_NAMES, GPR_NAMES, INSN_SPECS, MNEMONICS, OPCODE_OF, VR_NAMES,
    FReg, GuestInstr, Imm, Mem, Reg, VReg,
)
from repro.guest.memory import PAGE_MASK

_TAG_REG = 0
_TAG_FREG = 1
_TAG_VREG = 2
_TAG_IMM = 3
_TAG_MEM = 4

_SCALE_TO_LOG = {1: 0, 2: 1, 4: 2, 8: 3}
_LOG_TO_SCALE = (1, 2, 4, 8)

#: The 24 register operands, by tag and register number.
_REGISTERS = (tuple(map(Reg, GPR_NAMES)), tuple(map(FReg, FPR_NAMES)),
              tuple(map(VReg, VR_NAMES)))
#: opcode -> (mnemonic, operand count)
_OPCODES = tuple((m, len(INSN_SPECS[m].operands)) for m in MNEMONICS)
_U32 = struct.Struct("<I").unpack_from


class EncodingError(Exception):
    """Raised on malformed instruction bytes or unencodable operands."""


def encode_instr(instr: GuestInstr) -> bytes:
    """Encode one guest instruction to bytes (``addr``/``length`` ignored)."""
    if instr.mnemonic not in INSN_SPECS:
        raise EncodingError(f"unknown mnemonic {instr.mnemonic!r}")
    spec = INSN_SPECS[instr.mnemonic]
    if len(instr.operands) != len(spec.operands):
        raise EncodingError(
            f"{instr.mnemonic} expects {len(spec.operands)} operands, "
            f"got {len(instr.operands)}")
    out = bytearray([OPCODE_OF[instr.mnemonic]])
    for operand, kind in zip(instr.operands, spec.operands):
        _check_kind(instr.mnemonic, operand, kind)
        out += _encode_operand(operand)
    return bytes(out)


def _check_kind(mnemonic, operand, kind):
    allowed = {
        "r": (Reg,),
        "f": (FReg,),
        "v": (VReg,),
        "i": (Imm,),
        "m": (Mem,),
        "rm": (Reg, Mem),
        "ri": (Reg, Imm),
        "rmi": (Reg, Mem, Imm),
    }[kind]
    if not isinstance(operand, allowed):
        raise EncodingError(
            f"{mnemonic}: operand {operand!r} not allowed for kind {kind!r}")


def _encode_operand(operand) -> bytes:
    if isinstance(operand, Reg):
        return bytes([_TAG_REG, operand.index])
    if isinstance(operand, FReg):
        return bytes([_TAG_FREG, operand.index])
    if isinstance(operand, VReg):
        return bytes([_TAG_VREG, operand.index])
    if isinstance(operand, Imm):
        return bytes([_TAG_IMM]) + struct.pack("<I", operand.u32)
    if isinstance(operand, Mem):
        mode = 0
        body = bytearray()
        if operand.base is not None:
            mode |= 0x01
            body.append(Reg(operand.base).index)
        if operand.index is not None:
            mode |= 0x02
            body.append(Reg(operand.index).index)
        mode |= _SCALE_TO_LOG[operand.scale] << 2
        body += struct.pack("<I", operand.disp & 0xFFFFFFFF)
        return bytes([_TAG_MEM, mode]) + bytes(body)
    raise EncodingError(f"unencodable operand {operand!r}")


#: Each operand kind's longest encoding: a memory operand has a base and
#: an index at most.
_LONGEST = {kind: len(_encode_operand(operand)) for kind, operand in (
    ("r", Reg("EAX")), ("f", FReg("F0")), ("v", VReg("V0")), ("i", Imm(0)),
    ("m", Mem("EAX", "EAX")))}
#: The longest encoding of any instruction.
MAX_LENGTH = max(
    1 + sum(max(_LONGEST[k] for k in kind) for kind in spec.operands)
    for spec in INSN_SPECS.values())


def decode_bytes(buf, offset: int, addr: int) -> GuestInstr:
    """Decode the instruction whose first byte is ``buf[offset]`` and whose
    guest address is ``addr``.

    Raises :class:`EncodingError` on a bad opcode or operand tag, and
    ``IndexError`` when the instruction runs past the end of ``buf``.
    """
    opcode = buf[offset]
    if opcode >= len(_OPCODES):
        raise EncodingError(f"bad opcode {opcode:#x} at {addr:#x}")
    mnemonic, count = _OPCODES[opcode]
    pos = offset + 1
    operands = []
    try:
        while count:
            count -= 1
            tag = buf[pos]
            if tag <= _TAG_VREG:
                operands.append(_REGISTERS[tag][buf[pos + 1] & 7])
                pos += 2
            elif tag == _TAG_IMM:
                operands.append(Imm(_U32(buf, pos + 1)[0]))
                pos += 5
            elif tag == _TAG_MEM:
                mode = buf[pos + 1]
                pos += 2
                base = index = None
                if mode & 0x01:
                    base = GPR_NAMES[buf[pos] & 7]
                    pos += 1
                if mode & 0x02:
                    index = GPR_NAMES[buf[pos] & 7]
                    pos += 1
                operands.append(Mem(base, index,
                                    _LOG_TO_SCALE[(mode >> 2) & 0x3],
                                    _U32(buf, pos)[0]))
                pos += 4
            else:
                raise EncodingError(f"bad operand tag {tag:#x}")
    except struct.error:
        raise IndexError("instruction runs past the buffer") from None
    return GuestInstr(mnemonic, tuple(operands), addr=addr,
                      length=pos - offset)


def decode_instr(memory, addr: int) -> GuestInstr:
    """Decode the instruction at ``addr`` from the pages of ``memory`` (a
    :class:`repro.guest.memory.PagedMemory`).

    It decodes in place from the page's bytes.  An instruction that runs
    past its page's last byte gets the next page and is decoded again from
    the two pages' bytes, so a decode touches the pages that hold its
    bytes, in address order, as reading it byte by byte would: a
    demand-zero memory makes them, and a lazy one raises
    :class:`repro.guest.memory.PageFault` at ``addr`` or at the next
    page's base.
    """
    page = memory._page_for(addr)
    offset = addr & PAGE_MASK
    try:
        return decode_bytes(page, offset, addr)
    except IndexError:
        following = memory._page_for((addr | PAGE_MASK) + 1)
    return decode_bytes(page[offset:] + following[:MAX_LENGTH], 0, addr)


def encode_program(instrs) -> Tuple[bytes, dict]:
    """Encode a sequence of instructions; return (code bytes, offset map)."""
    out = bytearray()
    offsets = {}
    for i, instr in enumerate(instrs):
        offsets[i] = len(out)
        out += encode_instr(instr)
    return bytes(out), offsets
