"""Two-pass assembler for MCRL assembly source.

Source is line oriented:

    [LABEL] MNEMONIC [operand, operand, ...]   [comment]

A label starts in column 1 (any line beginning with whitespace is
unlabeled), is at most five characters, and must not look like a hex
item.  Lines starting with '*' or ';' are comments.

Operands come in two interchangeable spellings that may not be mixed on
one line:

  symbolic: WA WB WC XL XR XS | (XL) (XR) | (XS)+ | -(XS) | =1F =LABEL |
            @25 @1000 | 2(XR) | LABEL +LABEL -LABEL (branch targets)
  raw:      2- or 4-digit hex items assembled verbatim, plus LABEL /
            +LABEL / -LABEL address items

+LABEL and -LABEL mark a branch target eligible for the one-byte
PC-relative short form; the assembler relaxes it when the distance fits
and quietly keeps the absolute form when it does not.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import isa
from .objfile import ObjectImage


class AsmError(Exception):
    pass


class LayoutError(AsmError):
    pass


# ---------------------------------------------------------------------------
# Stream items

@dataclass
class LiteralByte:
    value: int
    op_start: bool = False


@dataclass
class LabelRef:
    symbol: str
    relaxable: bool = False
    relaxed: bool = False
    op_start: bool = False


@dataclass
class LabelDef:
    symbol: str
    op_start: bool = False  # always False; zero width


@dataclass
class MacroByte:
    code: int
    op_start: bool = True


Item = LiteralByte | LabelRef | LabelDef | MacroByte


def item_width(item: Item) -> int:
    if isinstance(item, LabelDef):
        return 0
    if isinstance(item, LabelRef):
        return 1 if item.relaxed else 2
    return 1


@dataclass
class Stream:
    items: list

    def byte_size(self) -> int:
        return sum(item_width(it) for it in self.items)


# ---------------------------------------------------------------------------
# Parsed form

@dataclass
class Operand:
    kind: str                      # reg ind pop push mem lit idx ref raw
    value: int | None = None       # reg index / address / literal / raw value
    symbol: str | None = None      # lit-with-label, ref
    relaxable: bool = False        # ref only
    width: int = 0                 # raw only: 1 or 2
    index_reg: int | None = None   # idx only: XL/XR/XS register index


@dataclass
class Instruction:
    label: str | None
    mnemonic: str
    operands: list
    line_no: int = field(default=0, compare=False)


_HEX_ITEM = re.compile(r"^[0-9A-F]{2}([0-9A-F]{2})?$")
_HEXISH = re.compile(r"^[0-9A-F]{1,4}$")
_LABEL = re.compile(r"^[A-Z][A-Z0-9$]{0,4}$")
_NUMBER = re.compile(r"^(0X)?([0-9A-F]{1,4})$")
_LONG_NAME = re.compile(r"^[A-Z][A-Z0-9$]{5,}$")
_HEX_DIGITS = re.compile(r"^[0-9A-F]+$")


def _is_label(tok: str) -> bool:
    # Anything readable as a 1-4 digit hex number is a number, never a
    # label; otherwise "=F97" would silently become an address reference.
    return bool(_LABEL.match(tok)) and not _HEXISH.match(tok) \
        and tok not in isa.REGISTERS and tok not in isa.OPCODES


def _bad_label(tok: str, line_no: int) -> AsmError:
    return AsmError(f"line {line_no}: bad label {tok!r} "
                    "(1-5 chars, must not read as a hex number)")


def _check_name_length(tok: str, line_no: int) -> None:
    # a name too long to be a label is a bad label, not a bad number
    if _LONG_NAME.match(tok) and not _HEX_DIGITS.match(tok):
        raise _bad_label(tok, line_no)


def _number(tok: str, limit: int, what: str, line_no: int) -> int:
    m = _NUMBER.match(tok)
    if not m:
        raise AsmError(f"line {line_no}: bad {what} {tok!r}")
    value = int(m.group(2), 16)
    if value > limit:
        raise AsmError(f"line {line_no}: {what} {tok!r} exceeds {limit:#x}")
    return value


def _parse_operand(tok: str, line_no: int) -> Operand:
    if tok in isa.REGISTERS:
        return Operand("reg", value=isa.REGISTERS.index(tok))
    if tok == "(XL)":
        return Operand("ind", value=isa.MODE_IND_XL)
    if tok == "(XR)":
        return Operand("ind", value=isa.MODE_IND_XR)
    if tok == "(XS)+":
        return Operand("pop")
    if tok == "-(XS)":
        return Operand("push")
    if tok.startswith("="):
        body = tok[1:]
        if _is_label(body):
            return Operand("lit", symbol=body)
        _check_name_length(body, line_no)
        return Operand("lit", value=_number(body, 0x7FFF, "literal", line_no))
    if tok.startswith("@"):
        return Operand("mem", value=_number(tok[1:], 0x7FFF, "address", line_no))
    m = re.match(r"^(.+)\((XL|XR|XS)\)$", tok)
    if m:
        off = _number(m.group(1), 0x7FFF, "offset", line_no)
        return Operand("idx", value=off,
                       index_reg=isa.REGISTERS.index(m.group(2)))
    if tok.startswith(("+", "-")):
        if _is_label(tok[1:]):
            return Operand("ref", symbol=tok[1:], relaxable=True)
        _check_name_length(tok[1:], line_no)
    if _HEX_ITEM.match(tok):
        return Operand("raw", value=int(tok, 16), width=len(tok) // 2)
    if _is_label(tok):
        return Operand("ref", symbol=tok)
    _check_name_length(tok, line_no)
    raise AsmError(f"line {line_no}: unrecognized operand {tok!r}")


def parse_source(text: str) -> list[Instruction]:
    """Parse assembly text into instructions (symbols unresolved)."""
    out: list[Instruction] = []
    seen_labels: dict[str, int] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.rstrip()
        if not line.strip() or line.lstrip().startswith(("*", ";")):
            continue
        label = None
        if not line[0].isspace():
            head, *rest = line.split(None, 1)
            label = head.upper()
            line = rest[0] if rest else ""
            if not _is_label(label):
                raise _bad_label(label, line_no)
            if label in seen_labels:
                raise AsmError(f"line {line_no}: duplicate label {label!r} "
                               f"(first defined on line {seen_labels[label]})")
            seen_labels[label] = line_no
        words = line.split()
        if not words:
            raise AsmError(f"line {line_no}: label without instruction")
        mnemonic = words[0].upper()
        if mnemonic not in isa.OPCODES:
            raise AsmError(f"line {line_no}: unknown mnemonic {mnemonic!r}")
        # Operand words continue while each ends with a comma; whatever
        # follows the last one is a comment.  Mnemonics that take nothing
        # have no operand field at all, only comment.
        tokens: list[str] = []
        i = 1 if isa.SIGNATURES[mnemonic] else len(words)
        while i < len(words):
            w = words[i].upper()
            i += 1
            more = w.endswith(",")
            tokens.append(w.rstrip(","))
            if not more:
                break
        operands = []
        for tok in ",".join(tokens).split(","):
            if tok:
                operands.append(_parse_operand(tok, line_no))
        _check_style_mix(operands, line_no)
        out.append(Instruction(label, mnemonic, operands, line_no))
    return out


def _check_style_mix(operands: list, line_no: int) -> None:
    has_raw = any(o.kind == "raw" for o in operands)
    has_sym = any(o.kind not in ("raw", "ref") for o in operands)
    if has_raw and has_sym:
        raise AsmError(f"line {line_no}: raw hex items and symbolic operands "
                       "cannot be mixed on one line")


def print_program(instructions: list) -> str:
    """Canonical text for parsed instructions; parse(print(p)) == p."""
    lines = []
    for inst in instructions:
        ops = ", ".join(_print_operand(o) for o in inst.operands)
        head = f"{inst.label:<7}" if inst.label else "       "
        lines.append(f"{head}{inst.mnemonic} {ops}".rstrip())
    return "\n".join(lines) + "\n"


def _print_operand(o: Operand) -> str:
    if o.kind == "reg":
        return isa.REGISTERS[o.value]
    if o.kind == "ind":
        return "(XL)" if o.value == isa.MODE_IND_XL else "(XR)"
    if o.kind == "pop":
        return "(XS)+"
    if o.kind == "push":
        return "-(XS)"
    if o.kind == "lit":
        return f"={o.symbol}" if o.symbol else f"={o.value:X}"
    if o.kind == "mem":
        return f"@{o.value:02X}"
    if o.kind == "idx":
        return f"{o.value:X}({isa.REGISTERS[o.index_reg]})"
    if o.kind == "ref":
        return ("+" if o.relaxable else "") + o.symbol
    if o.kind == "raw":
        return f"{o.value:0{o.width * 2}X}"
    raise ValueError(f"unprintable operand kind {o.kind!r}")


# ---------------------------------------------------------------------------
# Encoding

def encode_literal(value: int) -> bytes:
    """Short form 0x80+v for v <= 0x7F, else two bytes high-first.

    The first byte of the long form stays below 0x80, which is what lets
    a decoder tell the two forms apart without lookahead.
    """
    if not 0 <= value <= 0x7FFF:
        raise ValueError(f"literal {value:#x} outside 0..0x7FFF")
    if value <= 0x7F:
        return bytes([0x80 + value])
    return bytes([value >> 8, value & 0xFF])


def encode_short_branch(target: int, offset_addr: int) -> int | None:
    """One-byte PC-relative branch: 0xC0 - (target - L) where L is the
    address of the offset byte itself.  None when out of range."""
    delta = target - offset_addr
    if -0x3F <= delta <= 0x40:
        return 0xC0 - delta
    return None


_SRC_KINDS = {"reg", "ind", "pop", "mem", "lit", "idx"}
_DST_KINDS = {"reg", "ind", "push", "mem", "idx"}
_MOD_KINDS = {"reg", "ind", "mem", "idx"}


def translate_mnemonic(inst: Instruction) -> list:
    """Encode one instruction into stream items.

    Emits the opcode byte (marked as an instruction start), the header
    byte when the instruction takes operands, extension items in operand
    order, and finally the branch-target item if any.  Raw hex lines skip
    the header computation: their items are emitted verbatim.
    """
    items: list = [LiteralByte(isa.OPCODES[inst.mnemonic], op_start=True)]
    if any(o.kind == "raw" for o in inst.operands):
        for o in inst.operands:
            items.extend(_raw_items(o))
        return items
    sig = isa.SIGNATURES[inst.mnemonic]
    if len(inst.operands) != len(sig):
        raise AsmError(f"line {inst.line_no}: {inst.mnemonic} takes "
                       f"{len(sig)} operand(s), got {len(inst.operands)}")
    if not sig:
        return items
    value_ops = [(o, role) for o, role in zip(inst.operands, sig)
                 if role != "target"]
    targets = [o for o, role in zip(inst.operands, sig) if role == "target"]
    for o, role in value_ops:
        allowed = {"src": _SRC_KINDS, "dst": _DST_KINDS, "mod": _MOD_KINDS}[role]
        if o.kind not in allowed:
            raise AsmError(f"line {inst.line_no}: operand {_print_operand(o)!r} "
                           f"cannot be used as {role} of {inst.mnemonic}")
    if targets and any(t.kind != "ref" for t in targets):
        raise AsmError(f"line {inst.line_no}: branch target must be a label")
    if inst.mnemonic == "BRN":
        header = isa.MODE_MEM2  # low nibble C: code address follows
    else:
        header = 0
        for pos, (o, _) in enumerate(value_ops):
            if pos > 1:
                raise AsmError(f"line {inst.line_no}: too many value operands")
            header |= _mode_nibble(o) << (4 * pos)
    items.append(LiteralByte(header))
    for o, _ in value_ops:
        items.extend(_extension_items(o))
    for t in targets:
        items.append(LabelRef(t.symbol, relaxable=t.relaxable))
    return items


def _mode_nibble(o: Operand) -> int:
    if o.kind == "reg":
        return o.value
    if o.kind == "ind":
        return o.value
    if o.kind == "pop":
        return isa.MODE_POP
    if o.kind == "push":
        return isa.MODE_PUSH
    if o.kind == "mem":
        return isa.MODE_MEM1 if o.value <= 0xFF else isa.MODE_MEM2
    if o.kind == "lit":
        return isa.MODE_LIT
    if o.kind == "idx":
        return {isa.REG_XL: isa.MODE_OFF_XL,
                isa.REG_XR: isa.MODE_OFF_XR,
                isa.REG_XS: isa.MODE_OFF_XS}[o.index_reg]
    raise AsmError(f"operand kind {o.kind!r} has no addressing mode")


def _extension_items(o: Operand) -> list:
    if o.kind == "mem":
        if o.value <= 0xFF:
            return [LiteralByte(o.value)]
        return [LiteralByte(o.value >> 8), LiteralByte(o.value & 0xFF)]
    if o.kind == "lit":
        if o.symbol is not None:
            return [LabelRef(o.symbol)]  # address literal, absolute 2 bytes
        return [LiteralByte(b) for b in encode_literal(o.value)]
    if o.kind == "idx":
        return [LiteralByte(b) for b in encode_literal(o.value)]
    return []


def _raw_items(o: Operand) -> list:
    if o.kind == "raw":
        if o.width == 1:
            return [LiteralByte(o.value)]
        return [LiteralByte(o.value >> 8), LiteralByte(o.value & 0xFF)]
    if o.kind == "ref":
        return [LabelRef(o.symbol, relaxable=o.relaxable)]
    raise AsmError(f"operand kind {o.kind!r} not allowed in a raw hex line")


def translate_program(instructions: list) -> Stream:
    items: list = []
    for inst in instructions:
        if inst.label:
            items.append(LabelDef(inst.label))
        items.extend(translate_mnemonic(inst))
    return Stream(items)


# ---------------------------------------------------------------------------
# Layout: addresses, symbols, branch relaxation

@dataclass
class Layout:
    origin: int
    addresses: list[int]
    symbols: dict[str, int]
    size: int


def layout_and_resolve(stream: Stream, origin: int = isa.DEFAULT_ORIGIN,
                       relax: bool = True) -> Layout:
    """Assign addresses, resolve symbols, relax eligible branch refs.

    Relaxation iterates to a fixpoint: each pass measures every relaxable
    ref against the current addresses and shrinks the in-range ones, which
    only moves code down, so passes strictly shrink and terminate.  Items
    already relaxed are never widened back.
    """
    items = stream.items
    guard = len(items) + 2
    for _ in range(guard):
        addresses, symbols = _measure(items, origin)
        if not relax:
            break
        changed = False
        for i, it in enumerate(items):
            if isinstance(it, LabelRef):
                if it.symbol not in symbols:
                    raise LayoutError(f"undefined label {it.symbol!r}")
                if it.relaxable and not it.relaxed:
                    short = encode_short_branch(symbols[it.symbol], addresses[i])
                    if short is not None:
                        it.relaxed = True
                        changed = True
        if not changed:
            break
    else:
        raise LayoutError("branch relaxation failed to converge")
    for it, addr in zip(items, addresses):
        if isinstance(it, LabelRef) and it.symbol not in symbols:
            raise LayoutError(f"undefined label {it.symbol!r}")
        if isinstance(it, LabelDef) and symbols[it.symbol] >= isa.LABEL_LIMIT:
            raise LayoutError(f"label {it.symbol!r} resolves to "
                              f"{symbols[it.symbol]:#06x}, beyond "
                              f"{isa.LABEL_LIMIT:#06x}")
    size = (addresses[-1] + item_width(items[-1]) - origin) if items else 0
    if origin + size > 0x10000:
        raise LayoutError("program runs past the end of memory")
    return Layout(origin=origin, addresses=addresses, symbols=symbols, size=size)


def _measure(items: list, origin: int) -> tuple[list[int], dict[str, int]]:
    addresses = []
    symbols: dict[str, int] = {}
    addr = origin
    for it in items:
        addresses.append(addr)
        if isinstance(it, LabelDef):
            if it.symbol in symbols:
                raise LayoutError(f"duplicate label {it.symbol!r}")
            symbols[it.symbol] = addr
        addr += item_width(it)
    return addresses, symbols


def resolve_stream(stream: Stream, layout: Layout) -> bytes:
    """Final byte image of the main stream."""
    out = bytearray()
    for it, addr in zip(stream.items, layout.addresses):
        if isinstance(it, LabelDef):
            continue
        if isinstance(it, LiteralByte):
            out.append(it.value)
        elif isinstance(it, MacroByte):
            out.append(it.code)
        else:
            target = layout.symbols[it.symbol]
            if it.relaxed:
                short = encode_short_branch(target, addr)
                if short is None:
                    raise LayoutError(f"relaxed branch to {it.symbol!r} fell "
                                      "out of short range")
                out.append(short)
            else:
                out.append(target >> 8)
                out.append(target & 0xFF)
    return bytes(out)


def bake_body(body_items: list, layout: Layout) -> bytes:
    """Macro table bytes for a body extracted from the stream.

    Bodies hold no relaxed refs, no macro bytes, and no label defs; refs
    resolve to absolute addresses (a table entry has no address of its
    own, so the short form is meaningless there).
    """
    out = bytearray()
    for it in body_items:
        if isinstance(it, LiteralByte):
            out.append(it.value)
        elif isinstance(it, LabelRef) and not it.relaxed:
            target = layout.symbols[it.symbol]
            out.append(target >> 8)
            out.append(target & 0xFF)
        else:
            raise LayoutError(f"item {it!r} cannot appear in a macro body")
    return bytes(out)


# ---------------------------------------------------------------------------
# Front door

def assemble_stream(text: str, origin: int = isa.DEFAULT_ORIGIN
                    ) -> tuple[Stream, Layout]:
    stream = translate_program(parse_source(text))
    layout = layout_and_resolve(stream, origin)
    return stream, layout


def resolve_entry(layout: Layout, entry: int | str | None) -> int:
    if entry is None:
        return layout.origin
    if isinstance(entry, str):
        name = entry.upper()
        if name not in layout.symbols:
            raise LayoutError(f"entry label {entry!r} is not defined")
        return layout.symbols[name]
    if not layout.origin <= entry < layout.origin + layout.size:
        raise LayoutError(f"entry {entry:#06x} outside the {layout.size}-byte "
                          f"code at {layout.origin:#06x}")
    return entry


def assemble(text: str, origin: int = isa.DEFAULT_ORIGIN,
             entry: int | str | None = None):
    """Assemble source text into an object image (no macros)."""
    stream, layout = assemble_stream(text, origin)
    img = ObjectImage(code=resolve_stream(stream, layout), origin=origin,
                      entry=resolve_entry(layout, entry))
    img.validate()
    return img
