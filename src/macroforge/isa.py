"""Instruction set tables: mnemonics, opcodes, operand modes.

An instruction is an opcode byte, usually a header byte whose low nibble
describes the first operand and high nibble the second, then extension
bytes in operand order, then (for branches) a self-describing code
address: one byte if >= 0x80 (short, PC-relative), else two bytes.
Opcodes 0x50..0xFF are macro opcodes, not instructions.
"""

from __future__ import annotations

OPCODES = {
    "HLT": 0x00,
    "NOP": 0x01,
    "BRN": 0x03,
    "BEQ": 0x08,
    "BNE": 0x09,
    "BLT": 0x0A,
    "BRI": 0x0B,
    "ADD": 0x10,
    "SUB": 0x11,
    "ICV": 0x1C,
    "DCV": 0x1D,
    "LCW": 0x2A,
    "MOV": 0x32,
    "OUT": 0x40,
    "ZER": 0x44,
}

REGISTERS = ("WA", "WB", "WC", "XL", "XR", "XS")
REG_WA, REG_WB, REG_WC, REG_XL, REG_XR, REG_XS = range(6)

# Operand mode nibbles.  0..5 name a register directly.
MODE_IND_XL = 0x6   # word at (XL)
MODE_IND_XR = 0x7   # word at (XR)
MODE_POP = 0x8      # word at (XS), then XS += 2
MODE_PUSH = 0x9     # XS -= 2, then word at (XS)
MODE_MEM1 = 0xA     # 1-byte direct address (work area 0x00..0xFF)
MODE_LIT = 0xB      # literal extension, short or long form
MODE_MEM2 = 0xC     # 2-byte direct address
MODE_OFF_XL = 0xD   # word at XL + offset
MODE_OFF_XR = 0xE   # word at XR + offset
MODE_OFF_XS = 0xF   # word at XS + offset

# Register holding the address (or the base the offset is added to).
BASE_REG = {MODE_IND_XL: REG_XL, MODE_IND_XR: REG_XR, MODE_OFF_XL: REG_XL,
            MODE_OFF_XR: REG_XR, MODE_OFF_XS: REG_XS}

# Operand roles: src is read, dst is written, mod is read then written,
# target is a code address (the only operand of BRN, the third of the
# conditional branches).
SIGNATURES: dict[str, tuple[str, ...]] = {
    "HLT": (),
    "NOP": (),
    "BRN": ("target",),
    "BEQ": ("src", "src", "target"),
    "BNE": ("src", "src", "target"),
    "BLT": ("src", "src", "target"),
    "BRI": ("src",),
    "ADD": ("src", "mod"),
    "SUB": ("src", "mod"),
    "ICV": ("mod",),
    "DCV": ("mod",),
    "LCW": ("dst",),
    "MOV": ("src", "dst"),
    "OUT": ("src",),
    "ZER": ("dst",),
}

MACRO_OPCODE_BASE = 0x50
MAX_MACROS = 0x100 - MACRO_OPCODE_BASE
MAX_BODY_BYTES = 0xFF   # an object file stores a body's length in one byte

# The longest instruction: opcode, header, two 2-byte extensions and a
# 2-byte branch target.  An instruction begun in a macro body reads
# fewer main-stream bytes than this after the macro opcode.
MAX_INSTRUCTION_BYTES = 8

WORK_AREA_END = 0x100        # memory below this is reserved scratch space
LABEL_LIMIT = 0x8000         # every label must resolve below this
DEFAULT_ORIGIN = 0x0100
DEFAULT_STACK_TOP = 0xFF00
DEFAULT_STACK_BOTTOM = 0x8000
