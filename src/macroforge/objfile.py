"""Binary container for assembled programs and their macro tables.

Layout, all multi-byte fields big-endian:

    offset  size  field
    0       4     magic "MCRL"
    4       1     format version (0x01)
    5       1     flags (bit 0: raw payload, not executable code)
    6       2     entry address
    8       2     origin address
    10      2     code length, or 0xFFFF escape followed by a 4-byte
                  length (raw payloads can exceed 64K)
    ..      n     code bytes
    ..      1     macro count
    per macro:
    ..      1     macro opcode
    ..      1     body length
    ..      m     body bytes
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import isa

MAGIC = b"MCRL"
VERSION = 0x01

FLAG_RAW = 0x01

_LEN_ESCAPE = 0xFFFF


class ObjectError(Exception):
    pass


@dataclass(slots=True)
class MacroEntry:
    code: int
    body: bytes


@dataclass
class ObjectImage:
    code: bytes
    origin: int = isa.DEFAULT_ORIGIN
    entry: int = isa.DEFAULT_ORIGIN
    macros: list = field(default_factory=list)
    flags: int = 0

    @property
    def is_raw(self) -> bool:
        return bool(self.flags & FLAG_RAW)

    def table_bytes(self) -> int:
        return sum(len(m.body) for m in self.macros)

    def validate(self) -> None:
        if not 0 <= self.origin <= 0xFFFF:
            raise ObjectError(f"origin {self.origin:#x} out of range")
        if not 0 <= self.entry <= 0xFFFF:
            raise ObjectError(f"entry {self.entry:#x} out of range")
        if len(self.macros) > isa.MAX_MACROS:
            raise ObjectError(f"{len(self.macros)} macros exceeds the "
                              f"{isa.MAX_MACROS} opcode slots")
        # a raw table has no dense-code shortcut, so it is always walked
        if self.macros and (self.is_raw or not self._table_is_sound()):
            self._check_entries()
        if not self.is_raw and len(self.code) + self.origin > 0x10000:
            raise ObjectError("code does not fit below 0x10000")

    def _table_is_sound(self) -> bool:
        """The checks of _check_entries on an executable image's table,
        over the whole table at once."""
        base = isa.MACRO_OPCODE_BASE
        codes = [m.code for m in self.macros]
        sizes = [len(m.body) for m in self.macros]
        return (codes == list(range(base, base + len(codes)))
                and min(sizes) >= 2 and max(sizes) <= isa.MAX_BODY_BYTES
                and max([m.body[0] for m in self.macros]) < base)

    def _check_entries(self) -> None:
        """Raise for the first bad table entry, naming it."""
        seen = set()
        for i, m in enumerate(self.macros):
            if not isa.MACRO_OPCODE_BASE <= m.code <= 0xFF:
                raise ObjectError(f"macro opcode {m.code:#04x} outside "
                                  f"{isa.MACRO_OPCODE_BASE:#04x}..0xff")
            if m.code in seen:
                raise ObjectError(f"duplicate macro opcode {m.code:#04x}")
            seen.add(m.code)
            if not m.body:
                raise ObjectError(f"macro {m.code:#04x} has an empty body")
            if len(m.body) > isa.MAX_BODY_BYTES:
                raise ObjectError(f"macro {m.code:#04x} body over "
                                  f"{isa.MAX_BODY_BYTES} bytes")
            if not self.is_raw:
                # Executable images keep the table dense and well formed:
                # codes count up from the base, a body opens with a real
                # opcode, and one-byte bodies would never pay their way.
                if m.code != isa.MACRO_OPCODE_BASE + i:
                    raise ObjectError(f"macro opcodes not dense: slot {i} "
                                      f"holds {m.code:#04x}")
                if m.body[0] >= isa.MACRO_OPCODE_BASE:
                    raise ObjectError(f"macro {m.code:#04x} body starts with "
                                      "another macro opcode")
                if len(m.body) < 2:
                    raise ObjectError(f"macro {m.code:#04x} body under "
                                      "2 bytes")

    def serialize(self) -> bytes:
        self.validate()
        out = bytearray(MAGIC)
        out.append(VERSION)
        out.append(self.flags & 0xFF)
        out += self.entry.to_bytes(2, "big")
        out += self.origin.to_bytes(2, "big")
        if len(self.code) >= _LEN_ESCAPE:
            out += _LEN_ESCAPE.to_bytes(2, "big")
            out += len(self.code).to_bytes(4, "big")
        else:
            out += len(self.code).to_bytes(2, "big")
        out += self.code
        out.append(len(self.macros))
        for m in self.macros:
            out.append(m.code)
            out.append(len(m.body))
            out += m.body
        return bytes(out)


def parse(blob: bytes) -> ObjectImage:
    r = _Reader(blob)
    if r.take(4) != MAGIC:
        raise ObjectError("bad magic; not an MCRL container")
    version = r.u8()
    if version != VERSION:
        raise ObjectError(f"unsupported container version {version}")
    flags = r.u8()
    entry = r.u16()
    origin = r.u16()
    code_len = r.u16()
    if code_len == _LEN_ESCAPE:
        code_len = r.u32()
    code = r.take(code_len)
    macros = []
    for _ in range(r.u8()):
        code_byte = r.u8()
        body = r.take(r.u8())
        macros.append(MacroEntry(code_byte, body))
    if r.pos != len(blob):
        raise ObjectError(f"{len(blob) - r.pos} trailing byte(s) after "
                          "container payload")
    img = ObjectImage(code=code, origin=origin, entry=entry,
                      macros=macros, flags=flags)
    img.validate()
    return img


class _Reader:
    def __init__(self, blob: bytes) -> None:
        self.blob = blob
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.blob):
            raise ObjectError("truncated container")
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self) -> int:
        return self.take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self.take(2), "big")

    def u32(self) -> int:
        return int.from_bytes(self.take(4), "big")
