"""Listing and source reconstruction from object images.

Decoding uses the interpreter's decoder (decode.decode) on the bytes
the interpreter fetches, macro cursor included, so a macro whose body
stops mid-instruction still renders as the complete instruction it
produces in context.  A listing line for a macro opcode is flagged ***
and shows everything the activation executes.

One private walk, _units, decodes the code region unit by unit and
yields each unit's offsets, instructions and macro code; decode_image
and render_listing both read it, and only decode_image builds a
DecodedUnit.  The walk keeps a memo from decode.decode's fields, less
the end position, to one shared, immutable DecodedInstr; the fields
hold the absolute branch target, so a short branch at another address
is another instruction.  It also keeps a memo from macro code to the
instructions of a body that ends on an instruction boundary: such a
body reads no main-stream byte, so it decodes alike at every site, and
each later activation is a unit of the macro opcode alone that yields
that same list.  A body that ends mid-instruction reads the bytes after
its opcode and is decoded at every site.  decode_image copies the list
of every macro unit, so each DecodedUnit owns its list while the
instructions in it stay shared.

render_listing renders straight from the walk.  An activation of a
boundary-ending body reads its whole line after the address from a
dict keyed by macro code, filled at the first activation, which also
gives the macro table that body's text; the table decodes only the
other bodies.  Every other unit looks up its line in a memo keyed by
its main bytes and its shared instructions (hex columns, continuation
lines, *** flag and text), so a repeated unit costs one lookup and the
address.  Nothing is kept from one call to the next.

render_source only accepts macro-free images with canonical encodings:
its output reassembles to the identical byte string, which is the
property the round-trip checks lean on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from . import asm, decode, isa


class DisasmError(Exception):
    pass


class DecodedInstr(NamedTuple):
    """One decoded instruction.  decode_image shares one among all units
    that decode alike, so it is frozen and compares by identity.  A named
    tuple sets its fields in one tuple build, where a frozen dataclass
    sets each through object.__setattr__.  It refuses an assignment to
    a field or a new attribute with AttributeError."""

    name: str
    operand_texts: tuple
    target_addr: int | None = None
    target_short: bool = False
    noncanonical: str | None = None   # reason, when re-encoding would differ

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def text(self, target_text: str | None = None) -> str:
        texts = self.operand_texts
        if self.target_addr is not None:
            texts += (target_text if target_text is not None
                      else f"{self.target_addr:04X}",)
        return f"{self.name} {', '.join(texts)}" if texts else self.name


@dataclass
class DecodedUnit:
    """One unit of decode_image's result: the bytes at addr in the main
    stream and the instructions they execute, through the body of
    macro_code when set.  The unit owns its instrs list; the DecodedInstr
    values in it are shared with every unit that decodes alike."""

    addr: int
    main_bytes: bytes
    instrs: list
    macro_code: int | None = None

    @property
    def is_macro(self) -> bool:
        return self.macro_code is not None


def _instr(key: tuple) -> DecodedInstr:
    name, mode1, ext1, mode2, ext2, target, short, noncanonical = key
    if mode1 is None:
        texts = ()
    elif mode2 is None:
        texts = (asm.operand_text(mode1, ext1),)
    else:
        texts = (asm.operand_text(mode1, ext1), asm.operand_text(mode2, ext2))
    return DecodedInstr(name, texts, target, short, noncanonical)


def _decode_run(buf, pos: int, main_from: int, main_addr: int,
                shared: dict) -> tuple:
    """Decode instructions from buf[pos] until one reaches main_from, the
    way the interpreter executes a macro activation; returns (instrs,
    end).  With pos >= main_from it decodes one instruction.  shared maps
    decode.decode's fields, less the end position, to their instruction."""
    instrs = []
    while True:
        fields = decode.decode(buf, pos, main_from, main_addr)
        key = fields[:-1]
        instr = shared.get(key)
        if instr is None:
            instr = shared[key] = _instr(key)
        instrs.append(instr)
        pos = fields[-1]
        if pos >= main_from:
            return instrs, pos


def _units(image):
    """Walk the code region unit by unit, yielding (pos, end, instrs,
    macro code or None) with pos and end offsets into image.code.  Units
    that decode to the same fields share one DecodedInstr, and every
    activation of a macro whose body ends on an instruction boundary
    yields the one list of that body's instructions, so a caller must
    not change the lists it is given."""
    if image.is_raw:
        raise DisasmError("raw container holds packed bytes, not a program")
    code, origin = image.code, image.origin
    bodies = [m.body for m in image.macros]
    shared: dict = {}
    # macro code -> instructions of its body, for a body that ends on an
    # instruction boundary and so reads no main-stream byte
    whole: dict = {}
    pos = 0
    try:
        while pos < len(code):
            byte = code[pos]
            if byte < isa.MACRO_OPCODE_BASE:
                instrs, end = _decode_run(code, pos, 0, origin, shared)
                yield pos, end, instrs, None
                pos = end
                continue
            instrs = whole.get(byte)
            if instrs is not None:
                yield pos, pos + 1, instrs, byte
                pos += 1
                continue
            idx = byte - isa.MACRO_OPCODE_BASE
            if idx >= len(bodies):
                raise DisasmError(f"unknown opcode {byte:#04x} at "
                                  f"{origin + pos:04X}")
            body = bodies[idx]
            tail = code[pos + 1:pos + 1 + isa.MAX_INSTRUCTION_BYTES]
            instrs, end = _decode_run(body + tail, 0, len(body),
                                      origin + pos + 1, shared)
            if end == len(body):
                whole[byte] = instrs
            end += pos + 1 - len(body)
            yield pos, end, instrs, byte
            pos = end
    except IndexError:
        raise DisasmError(f"truncated image: instruction at {origin + pos:04X}"
                          " runs past the end of code") from None
    except decode.DecodeError as err:
        raise DisasmError(f"{err} at {origin + pos:04X}") from None


def decode_image(image) -> list[DecodedUnit]:
    """Decode the whole code region into instruction units.  Units that
    decode alike share one DecodedInstr, and each unit owns its list:
    a macro unit gets a copy of the list the walk yields."""
    code, origin = image.code, image.origin
    return [DecodedUnit(origin + pos, code[pos:end],
                        instrs if macro is None else instrs[:], macro)
            for pos, end, instrs, macro in _units(image)]


# ---------------------------------------------------------------------------
# Listing

_BYTES_PER_LINE = 4
_WIDTH = _BYTES_PER_LINE * 3 - 1


def _text(instrs: list) -> str:
    return " / ".join([i.text() for i in instrs])


def _tail(data: bytes, is_macro: bool, text: str) -> str:
    """A unit's listing lines after its address, from its main bytes."""
    flag = "***" if is_macro else "   "
    head = data[:_BYTES_PER_LINE].hex(" ").upper()
    tail = f"  {head:<{_WIDTH}}  {flag}  {text}"
    for i in range(_BYTES_PER_LINE, len(data), _BYTES_PER_LINE):
        chunk = data[i:i + _BYTES_PER_LINE].hex(" ").upper()
        tail += f"\n      {chunk:<{_WIDTH}}"
    return tail


def render_listing(image) -> str:
    code, origin = image.code, image.origin
    lines = [f"origin {origin:04X}  entry {image.entry:04X}", ""]
    tails: dict = {}   # (main bytes, *shared instructions) -> line tail
    # macro code -> line tail, and -> text, of a body that ends on an
    # instruction boundary, from its first activation: every activation
    # is the macro opcode alone and lists alike
    whole_tails: dict = {}
    body_texts: dict = {}
    for pos, end, instrs, macro in _units(image):
        if macro is not None and end == pos + 1:
            tail = whole_tails.get(macro)
            if tail is None:
                text = body_texts[macro] = _text(instrs)
                tail = whole_tails[macro] = _tail(code[pos:end], True, text)
        else:
            data = code[pos:end]
            key = (data, *instrs)
            tail = tails.get(key)
            if tail is None:
                tail = tails[key] = _tail(data, macro is not None,
                                          _text(instrs))
        lines.append(f"{origin + pos:04X}{tail}")
    if not code:   # after the walk, which refuses a raw container first
        return ""
    if image.macros:
        lines.append("")
        lines.append("macro table:")
        shared: dict = {}
        for opcode, m in enumerate(image.macros, isa.MACRO_OPCODE_BASE):
            text = body_texts.get(opcode)
            if text is None:
                text = _body_text(m.body, shared)
            lines.append(f"  {m.code:02X}  len {len(m.body):<3d} "
                         f"{m.body.hex(' ').upper():<{_WIDTH}}  {text}")
    return "\n".join(lines) + "\n"


def _body_text(body: bytes, shared: dict) -> str:
    """Best-effort rendering of a body on its own; prefix bodies that stop
    mid-instruction fall back to a plain marker."""
    try:
        instrs, _ = _decode_run(body, 0, len(body), 0, shared)
    except (IndexError, decode.DecodeError):
        return "(instruction prefix)"
    return _text(instrs)


# ---------------------------------------------------------------------------
# Source reconstruction

def render_source(image) -> str:
    """Reassemblable text for a macro-free, canonically encoded image."""
    if image.macros:
        raise DisasmError("image has a macro table; expand it before "
                          "rendering source")
    units = decode_image(image)
    starts = {u.addr for u in units}
    targets = set()
    for unit in units:
        instr = unit.instrs[0]
        if instr.noncanonical:
            raise DisasmError(f"at {unit.addr:04X}: {instr.noncanonical}; "
                              "source round trip would not be byte-exact")
        if instr.target_addr is not None:
            if instr.target_addr not in starts:
                raise DisasmError(f"branch at {unit.addr:04X} lands inside "
                                  f"an instruction ({instr.target_addr:04X})")
            targets.add(instr.target_addr)
    lines = []
    for unit in units:
        instr = unit.instrs[0]
        label = f"L{unit.addr:04X}" if unit.addr in targets else ""
        target_text = None
        if instr.target_addr is not None:
            target_text = (("+" if instr.target_short else "")
                           + f"L{instr.target_addr:04X}")
        lines.append(f"{label:<7}{instr.text(target_text)}".rstrip())
    return "\n".join(lines) + "\n"
