"""The one instruction decoder, shared by the interpreter and the listing.

decode() reads one instruction from a flat byte buffer.  A macro
activation is decoded from its body's bytes followed by the main-stream
bytes after the macro opcode, so a body that ends mid-instruction yields
the complete instruction the interpreter executes.  Bytes before
main_from come from a body and have no address; bytes from main_from on
are main-stream bytes, the first of them at address main_addr.

Running off the end of the buffer raises IndexError; the caller knows
whether that means the end of memory or the end of the image's code.
"""

from __future__ import annotations

from . import isa


class DecodeError(Exception):
    """The bytes do not form an instruction."""


def decode_literal(data, pos: int) -> tuple[int, int]:
    """Inverse of asm.encode_literal at data[pos:]; returns (value, width)."""
    b0 = data[pos]
    if b0 >= 0x80:
        return b0 - 0x80, 1
    return (b0 << 8) | data[pos + 1], 2


def decode_short_branch(byte: int, offset_addr: int) -> int:
    if byte < 0x80:
        raise ValueError("not a short branch byte")
    return (offset_addr + 0xC0 - byte) & 0xFFFF


# opcode -> (mnemonic, value operands, ends in a branch target)
_SHAPES = {
    code: (name, sum(role != "target" for role in isa.SIGNATURES[name]),
           isa.SIGNATURES[name][-1:] == ("target",))
    for name, code in isa.OPCODES.items()
}


# mode nibble -> extension form: none (register, indirect, pop and
# push modes), one address byte, a literal or offset (one byte if >= 0x80,
# else two), or a 2-byte address
_NONE, _BYTE, _LIT, _WORD = range(4)
_FORM = tuple(_NONE if mode < isa.MODE_MEM1 else _BYTE if mode == isa.MODE_MEM1
              else _WORD if mode == isa.MODE_MEM2 else _LIT
              for mode in range(16))
# form -> (largest value of its short form, why a long form would differ)
_LONG = {_LIT: (0x7F, "long-form literal under 0x80"),
         _WORD: (0xFF, "2-byte address under 0x100")}


def decode(buf, pos: int, main_from: int, main_addr: int) -> tuple:
    """Decode the instruction at buf[pos].

    Returns (name, mode1, ext1, mode2, ext2, target, short, noncanonical,
    end): the mode nibbles of the value operands (None when absent) with
    their extension values, the branch target address (None for
    non-branches) and whether it used the short form, the reason a
    re-encoding would differ, and the buffer position after the last byte.
    """
    op = buf[pos]
    shape = _SHAPES.get(op)
    if shape is None:
        if op >= isa.MACRO_OPCODE_BASE and pos < main_from:
            raise DecodeError(f"macro opcode {op:#04x} inside a macro body")
        raise DecodeError(f"undefined opcode {op:#04x}")
    name, count, branch = shape
    if not count and not branch:
        return name, None, None, None, None, None, False, None, pos + 1
    header = buf[pos + 1]
    pos += 2
    mode1 = ext1 = mode2 = ext2 = target = noncanonical = None
    if count:
        # extensions read inline, in operand order; the first reason wins
        mode1 = header & 0x0F
        form = _FORM[mode1]
        if form:
            b = buf[pos]
            if form == _BYTE or form == _LIT and b >= 0x80:
                ext1 = b - 0x80 if form == _LIT else b
                pos += 1
            else:
                ext1 = (b << 8) | buf[pos + 1]
                pos += 2
                if ext1 <= _LONG[form][0]:
                    noncanonical = _LONG[form][1]
        if count == 2:
            mode2 = header >> 4
            form = _FORM[mode2]
            if form:
                b = buf[pos]
                if form == _BYTE or form == _LIT and b >= 0x80:
                    ext2 = b - 0x80 if form == _LIT else b
                    pos += 1
                else:
                    ext2 = (b << 8) | buf[pos + 1]
                    pos += 2
                    if ext2 <= _LONG[form][0] and not noncanonical:
                        noncanonical = _LONG[form][1]
        elif header >> 4:
            noncanonical = noncanonical or "stray high header nibble"
    elif header != isa.MODE_MEM2:
        noncanonical = "unexpected BRN header"
    short = False
    if branch:
        b = buf[pos]
        if b >= 0x80:
            if pos < main_from:
                raise DecodeError("short branch form inside a macro body")
            target = decode_short_branch(b, main_addr + pos - main_from)
            short = True
            pos += 1
        else:
            target = (b << 8) | buf[pos + 1]
            pos += 2
    return (name, mode1, ext1, mode2, ext2, target, short, noncanonical,
            pos)
