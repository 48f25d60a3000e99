"""Listing and source reconstruction from object images.

Decoding uses the interpreter's decoder (decode.decode) on the bytes
the interpreter fetches, macro cursor included, so a macro whose body
stops mid-instruction still renders as the complete instruction it
produces in context.  A listing line for a macro opcode is flagged ***
and shows everything the activation executes.

Both steps work once per distinct instruction within a call.
decode_image keeps a memo from decode.decode's fields, less the end
position, to one shared, immutable DecodedInstr; the fields hold the
absolute branch target, so a short branch at another address is
another instruction.  It also keeps a memo from macro code to the
instructions of a body that ends on an instruction boundary: such a
body reads no main-stream byte, so it decodes alike at every site,
and each later activation is a unit of the macro opcode alone with a
fresh copy of that list.  A body that ends mid-instruction reads the
bytes after its opcode and is decoded at every site.  render_listing
keeps a memo from a unit's main bytes and its shared instructions to
the rendered line after the address (hex columns, continuation lines,
*** flag and text), so a repeated unit costs one lookup and the
address; the macro table takes a boundary-ending body's text from its
activation and decodes only the other bodies.  Nothing is kept from
one call to the next.

render_source only accepts macro-free images with canonical encodings:
its output reassembles to the identical byte string, which is the
property the round-trip checks lean on.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from typing import NamedTuple

from . import asm, decode, isa


class DisasmError(Exception):
    pass


class DecodedInstr(NamedTuple):
    """One decoded instruction.  decode_image shares one among all units
    that decode alike, so it is frozen and compares by identity.  A named
    tuple sets its fields in one tuple build, where a frozen dataclass
    sets each through object.__setattr__."""

    name: str
    operand_texts: tuple
    target_addr: int | None = None
    target_short: bool = False
    noncanonical: str | None = None   # reason, when re-encoding would differ

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def text(self, target_text: str | None = None) -> str:
        texts = self.operand_texts
        if self.target_addr is not None:
            texts += (target_text if target_text is not None
                      else f"{self.target_addr:04X}",)
        return f"{self.name} {', '.join(texts)}" if texts else self.name


@dataclass
class DecodedUnit:
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


def decode_image(image) -> list[DecodedUnit]:
    """Decode the whole code region into instruction units; units that
    decode to the same fields share one DecodedInstr, and activations of
    a macro whose body ends on an instruction boundary share its decode."""
    if image.is_raw:
        raise DisasmError("raw container holds packed bytes, not a program")
    code, origin = image.code, image.origin
    bodies = [m.body for m in image.macros]
    shared: dict = {}
    # macro code -> instructions of its body, for a body that ends on an
    # instruction boundary and so reads no main-stream byte
    whole: dict = {}
    units: list[DecodedUnit] = []
    pos = 0
    try:
        while pos < len(code):
            byte = code[pos]
            if byte < isa.MACRO_OPCODE_BASE:
                instrs, end = _decode_run(code, pos, 0, origin, shared)
                units.append(DecodedUnit(origin + pos, code[pos:end], instrs))
                pos = end
                continue
            instrs = whole.get(byte)
            if instrs is not None:
                units.append(DecodedUnit(origin + pos, code[pos:pos + 1],
                                         instrs[:], macro_code=byte))
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
            units.append(DecodedUnit(origin + pos, code[pos:end], instrs,
                                     macro_code=byte))
            pos = end
    except IndexError:
        raise DisasmError(f"truncated image: instruction at {origin + pos:04X}"
                          " runs past the end of code") from None
    except decode.DecodeError as err:
        raise DisasmError(f"{err} at {origin + pos:04X}") from None
    return units


# ---------------------------------------------------------------------------
# Listing

_BYTES_PER_LINE = 4
_WIDTH = _BYTES_PER_LINE * 3 - 1


def _text(instrs: list) -> str:
    return " / ".join([i.text() for i in instrs])


def _tail(unit: DecodedUnit, text: str) -> str:
    """A unit's listing lines after its address."""
    data = unit.main_bytes
    flag = "***" if unit.is_macro else "   "
    head = data[:_BYTES_PER_LINE].hex(" ").upper()
    tail = f"  {head:<{_WIDTH}}  {flag}  {text}"
    for i in range(_BYTES_PER_LINE, len(data), _BYTES_PER_LINE):
        chunk = data[i:i + _BYTES_PER_LINE].hex(" ").upper()
        tail += f"\n      {chunk:<{_WIDTH}}"
    return tail


def render_listing(image) -> str:
    units = decode_image(image)
    if not units:
        return ""
    lines = [f"origin {image.origin:04X}  entry {image.entry:04X}", ""]
    tails: dict = {}   # (main bytes, *shared instructions) -> line tail
    # macro code -> text of a body that ends on an instruction boundary,
    # taken from an activation: its unit holds the macro opcode alone
    body_texts: dict = {}
    for unit in units:
        key = (unit.main_bytes, *unit.instrs)
        tail = tails.get(key)
        if tail is None:
            text = _text(unit.instrs)
            tail = tails[key] = _tail(unit, text)
            if unit.is_macro and len(unit.main_bytes) == 1:
                body_texts[unit.macro_code] = text
        lines.append(f"{unit.addr:04X}{tail}")
    if image.macros:
        lines.append("")
        lines.append("macro table:")
        shared: dict = {}
        for code, m in enumerate(image.macros, isa.MACRO_OPCODE_BASE):
            text = body_texts.get(code)
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
