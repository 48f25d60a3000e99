"""The one instruction decoder, shared by the interpreter and the listing.

Both read one row table indexed by opcode and header byte.  A row holds
what the opcode and header byte settle: the mnemonic, both mode nibbles
and their extension forms, whether a branch target follows, the
header's own noncanonical reason, and the interpreter's execution form
(its number for the mnemonic and each value operand reduced to a kind
and two ints).  Rows are built on first use, so only the rows of the
headers in use take memory.

decode() reads one instruction for the listing.  A macro activation is
decoded from its body's bytes followed by the main-stream bytes after
the macro opcode, so a body that ends mid-instruction yields the
complete instruction the interpreter executes.  Bytes before main_from
come from a body and have no address; bytes from main_from on are
main-stream bytes, the first of them at address main_addr.

line() reads a straight line of instructions for the interpreter in one
call and returns them as execution entries.

Running off the end of the buffer raises IndexError; the caller knows
whether that means the end of memory or the end of the image's code.
"""

from __future__ import annotations

from . import isa


class DecodeError(Exception):
    """The bytes do not form an instruction."""


def decode_short_branch(byte: int, offset_addr: int) -> int:
    if byte < 0x80:
        raise ValueError("not a short branch byte")
    return (offset_addr + 0xC0 - byte) & 0xFFFF


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

# The interpreter's number for each mnemonic: ranges pick the shape (0-2
# take no value operand, 3-8 two, 9-14 one), see vm._execute.
_EXEC = ("HLT", "NOP", "BRN", "BEQ", "BNE", "BLT", "MOV", "ADD", "SUB",
         "OUT", "BRI", "ICV", "DCV", "ZER", "LCW")
# execution numbers after which the straight line ends: every branch,
# HLT and BRI
LINE_ENDS = frozenset(_EXEC.index(name) for name in
                      ("HLT", "BRN", "BEQ", "BNE", "BLT", "BRI"))
# A value operand executes as a kind and two ints: register (index, 0),
# literal (value, 0), memory (address, 0), based (register, offset; 0
# for the indirect modes), stack (0, +2 pop or -2 push).
K_REG, K_LIT, K_MEM, K_BASED, K_STACK = range(5)
# mode nibble (None when absent) -> (kind, a, b); a None is the extension
_OPERAND = {None: (K_REG, 0, 0), isa.MODE_POP: (K_STACK, 0, 2),
            isa.MODE_PUSH: (K_STACK, 0, -2), isa.MODE_LIT: (K_LIT, None, 0),
            isa.MODE_MEM1: (K_MEM, None, 0), isa.MODE_MEM2: (K_MEM, None, 0),
            **{r: (K_REG, r, 0) for r in range(isa.REG_XS + 1)},
            **{m: (K_BASED, r, 0 if m < isa.MODE_MEM1 else None)
               for m, r in isa.BASE_REG.items()}}

# opcode -> mnemonic, and whether a header byte follows (None for a byte
# that is no instruction)
_NAME = {code: name for name, code in isa.OPCODES.items()}
_HEADED = [None] * 256
for _code, _name in _NAME.items():
    _HEADED[_code] = bool(isa.SIGNATURES[_name])

# _ROWS[opcode][header] -> (fields, head, fixed, ends).  fields are the
# listing's: (name, mode1, form1, mode2, form2, branch, reason).  The
# rest is the execution form: head = (op, k1, a1, b1, k2, a2, b2,
# target) with None where an extension or the target goes, whether head
# is already complete (no extension, no target), and whether the
# instruction ends a straight line.  An opcode without a header has its
# row at header 0.  Rows are built on first use; a list per opcode
# spares building the int opcode << 8 | header on every decode.
_ROWS = [[None] * 256 if code in _NAME else None for code in range(256)]


def _row(op: int, header: int) -> tuple:
    """Build, keep and return the row of an instruction opcode."""
    name = _NAME[op]
    roles = isa.SIGNATURES[name]
    count = sum(role != "target" for role in roles)
    branch = roles[-1:] == ("target",)
    mode1 = header & 0x0F if count else None
    mode2 = header >> 4 if count == 2 else None
    form1 = _FORM[mode1] if count else _NONE
    form2 = _FORM[mode2] if count == 2 else _NONE
    reason = None
    if count == 1 and header >> 4:
        reason = "stray high header nibble"
    elif branch and not count and header != isa.MODE_MEM2:
        reason = "unexpected BRN header"
    head = (_EXEC.index(name), *_OPERAND[mode1], *_OPERAND[mode2], None)
    row = _ROWS[op][header] = (
        (name, mode1, form1, mode2, form2, branch, reason), head,
        not (form1 or form2 or branch), head[0] in LINE_ENDS)
    return row


def _not_instruction(op: int, in_body: bool) -> str:
    if op >= isa.MACRO_OPCODE_BASE and in_body:
        return f"macro opcode {op:#04x} inside a macro body"
    return f"undefined opcode {op:#04x}"


def decode(buf, pos: int, main_from: int, main_addr: int) -> tuple:
    """Decode the instruction at buf[pos].

    Returns (name, mode1, ext1, mode2, ext2, target, short, noncanonical,
    end): the mode nibbles of the value operands (None when absent) with
    their extension values, the branch target address (None for
    non-branches) and whether it used the short form, the reason a
    re-encoding would differ, and the buffer position after the last byte.
    """
    op = buf[pos]
    headed = _HEADED[op]
    if headed is None:
        raise DecodeError(_not_instruction(op, pos < main_from))
    if not headed:
        return _NAME[op], None, None, None, None, None, False, None, pos + 1
    header = buf[pos + 1]
    row = _ROWS[op][header] or _row(op, header)
    name, mode1, form1, mode2, form2, branch, reason = row[0]
    pos += 2
    ext1 = ext2 = target = long = None
    # extensions read inline, in operand order; the first reason wins
    if form1:
        b = buf[pos]
        if form1 == _BYTE or form1 == _LIT and b >= 0x80:
            ext1 = b - 0x80 if form1 == _LIT else b
            pos += 1
        else:
            ext1 = (b << 8) | buf[pos + 1]
            pos += 2
            if ext1 <= _LONG[form1][0]:
                long = _LONG[form1][1]
    if form2:
        b = buf[pos]
        if form2 == _BYTE or form2 == _LIT and b >= 0x80:
            ext2 = b - 0x80 if form2 == _LIT else b
            pos += 1
        else:
            ext2 = (b << 8) | buf[pos + 1]
            pos += 2
            if ext2 <= _LONG[form2][0] and not long:
                long = _LONG[form2][1]
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
    return (name, mode1, ext1, mode2, ext2, target, short, long or reason,
            pos)


def line(buf, pos: int, main_from: int, main_addr: int, stops=(),
         cap: int = 1) -> list:
    """Decode the straight line of instructions from buf[pos] into the
    interpreter's entries, (op, k1, a1, b1, k2, a2, b2, target, end):
    the row's execution form with the extension values in place, the
    branch target (None for non-branches) and the buffer position after
    the instruction.  Bytes before main_from come from a macro body, as
    in decode().

    The line ends after an instruction in LINE_ENDS or after cap
    entries, and before a position in stops or one that does not decode
    (a macro opcode among them).  Only the first instruction raises:
    DecodeError, or IndexError at the end of buf.
    """
    entries = []
    try:
        while True:
            op = buf[pos]
            headed = _HEADED[op]
            if headed:
                header = buf[pos + 1]
                pos += 2
            elif headed is None:
                if entries:
                    return entries
                raise DecodeError(_not_instruction(op, pos < main_from))
            else:
                header = 0
                pos += 1
            fields, head, fixed, ends = _ROWS[op][header] or _row(op, header)
            if fixed:
                entries.append(head + (pos,))
            else:
                _, _, form1, _, form2, branch, _ = fields
                ext1 = ext2 = target = None
                if form1:
                    b = buf[pos]
                    if form1 == _BYTE or form1 == _LIT and b >= 0x80:
                        ext1 = b - 0x80 if form1 == _LIT else b
                        pos += 1
                    else:
                        ext1 = (b << 8) | buf[pos + 1]
                        pos += 2
                if form2:
                    b = buf[pos]
                    if form2 == _BYTE or form2 == _LIT and b >= 0x80:
                        ext2 = b - 0x80 if form2 == _LIT else b
                        pos += 1
                    else:
                        ext2 = (b << 8) | buf[pos + 1]
                        pos += 2
                if branch:
                    b = buf[pos]
                    if b >= 0x80:
                        if pos < main_from:
                            raise DecodeError(
                                "short branch form inside a macro body")
                        target = decode_short_branch(
                            b, main_addr + pos - main_from)
                        pos += 1
                    else:
                        target = (b << 8) | buf[pos + 1]
                        pos += 2
                num, k1, a1, b1, k2, a2, b2, _ = head
                entries.append((num, k1, ext1 if a1 is None else a1,
                                ext1 if b1 is None else b1, k2,
                                ext2 if a2 is None else a2,
                                ext2 if b2 is None else b2, target, pos))
            cap -= 1
            if ends or not cap or pos in stops:
                return entries
    except (IndexError, DecodeError):
        if not entries:
            raise
        return entries
