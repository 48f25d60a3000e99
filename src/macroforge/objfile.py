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

serialize packs the fixed header and parse unpacks it through one
struct; parse reads the macro table in one loop of slices, then
validates the image, as serialize does before writing.  validate walks
every table once, entry by entry, and names the first bad entry.  Every
table needs opcodes in 0x50..0xff, no duplicate and bodies of 1..255
bytes.  An executable table must also count up densely from 0x50, with
bodies of at least 2 bytes that open with a real opcode.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from . import isa

MAGIC = b"MCRL"
VERSION = 0x01

FLAG_RAW = 0x01

# magic, version, flags, entry, origin, code length
_HEAD = struct.Struct(">4sBBHHH")
_LEN_ESCAPE = 0xFFFF
_TRUNCATED = "truncated container"


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
        raw = self.is_raw
        self._check_entries(raw)
        if not raw and len(self.code) + self.origin > 0x10000:
            raise ObjectError("code does not fit below 0x10000")

    def _check_entries(self, raw: bool) -> None:
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
            if not raw:
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
        size = len(self.code)
        out = bytearray(_HEAD.pack(MAGIC, VERSION, self.flags & 0xFF,
                                   self.entry, self.origin,
                                   min(size, _LEN_ESCAPE)))
        if size >= _LEN_ESCAPE:
            out += size.to_bytes(4, "big")
        out += self.code
        out.append(len(self.macros))
        for m in self.macros:
            out.extend((m.code, len(m.body)))
            out += m.body
        return bytes(out)


def parse(blob: bytes) -> ObjectImage:
    if len(blob) >= 4 and blob[:4] != MAGIC:
        raise ObjectError("bad magic; not an MCRL container")
    if len(blob) > 4 and blob[4] != VERSION:
        raise ObjectError(f"unsupported container version {blob[4]}")
    if len(blob) < _HEAD.size:
        raise ObjectError(_TRUNCATED)
    _, _, flags, entry, origin, code_len = _HEAD.unpack_from(blob)
    pos = _HEAD.size
    if code_len == _LEN_ESCAPE:
        # a blob that ends inside the long length fails the check below
        pos += 4
        code_len = int.from_bytes(blob[pos - 4:pos], "big")
    end = pos + code_len
    if end >= len(blob):     # the code, then the macro count
        raise ObjectError(_TRUNCATED)
    code = blob[pos:end]
    macros = []
    pos = end + 1
    try:
        for _ in range(blob[end]):
            body_end = pos + 2 + blob[pos + 1]
            macros.append(MacroEntry(blob[pos], blob[pos + 2:body_end]))
            pos = body_end
    except IndexError:      # an entry's opcode or length byte is missing
        raise ObjectError(_TRUNCATED) from None
    if pos != len(blob):
        if pos > len(blob):  # a body runs past the end
            raise ObjectError(_TRUNCATED)
        raise ObjectError(f"{len(blob) - pos} trailing byte(s) after "
                          "container payload")
    img = ObjectImage(code=code, origin=origin, entry=entry,
                      macros=macros, flags=flags)
    img.validate()
    return img

