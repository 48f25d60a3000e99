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

A symbolic operand is parsed straight into the decoder's vocabulary:
its isa mode nibble, settled where the token is read (@v is MODE_MEM1
or MODE_MEM2 by value, 2(XR) is MODE_OFF_XR), and its extension value.
The encoder writes the nibble into the header as it stands, and disasm
prints a decoded (mode, extension) pair with this module's printer.

Interpretive code repeats the same instruction text many times, so
parse_source compiles each distinct text once per call, in one pass
over its operand words, into its mnemonic, operands and stream items;
every line that repeats the text shares them, and translate_program
only joins them, with a label def per label.  Distinct texts repeat
their operands, so each distinct operand token is compiled once per
call too, into its Operand and the items it adds after the header.
The encoder is table driven (Ramsey & Fernandez, "Specifying
representations of machine instructions", TOPLAS 1997): one row per
mnemonic and tuple of operand modes holds the opcode and header items
and the verdict of the count, role and target checks.  A refused
encoding is kept as its error text and raised by translate_program at
the first line that carries it, after every parse error.  A row is
keyed by ISA vocabulary alone and holds no label, value or source
text, so rows are kept across calls, as decode's are; the memos keyed
by text or token last one call.

Relaxation runs over an array of item widths (Szymanski, "Assembling
code for machines with span-dependent instructions", CACM 1978):
addresses are its running sums, each pass visits only the refs still
pending, and a ref that relaxes drops to width 1 and leaves the pending
set for good.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate

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
    op_start = False


@dataclass
class LabelDef:
    symbol: str
    op_start = False    # zero width


@dataclass
class MacroByte:
    code: int
    op_start = True


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
    """A value operand is its isa mode nibble and extension value, the
    pair decode.decode returns; a branch ref or raw item has no mode."""

    mode: int | None            # isa.MODE_* or register; None: ref or raw
    value: int | None = None    # extension (address, literal, offset) or raw
    symbol: str | None = None   # =LABEL literal, or ref
    relaxable: bool = False     # ref only: +LABEL / -LABEL
    width: int = 0              # raw only: 1 or 2


@dataclass
class Instruction:
    label: str | None
    mnemonic: str
    operands: list
    line_no: int = field(compare=False)
    # the stream items compiled from the text after the label, shared by
    # every line that repeats that text, or the text of the error that
    # refuses its encoding, which translate_program raises
    items: list | str | None = field(default=None, compare=False, repr=False)


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


# The modes without an extension (0x0..0x9), by operand text and back.
_MODE_OF_TOKEN = {**{reg: mode for mode, reg in enumerate(isa.REGISTERS)},
                  "(XL)": isa.MODE_IND_XL, "(XR)": isa.MODE_IND_XR,
                  "(XS)+": isa.MODE_POP, "-(XS)": isa.MODE_PUSH}
_TOKEN_OF_MODE = {mode: tok for tok, mode in _MODE_OF_TOKEN.items()}
_OFFSET_MODES = {"XL": isa.MODE_OFF_XL, "XR": isa.MODE_OFF_XR,
                 "XS": isa.MODE_OFF_XS}


def _parse_operand(tok: str, line_no: int) -> Operand:
    mode = _MODE_OF_TOKEN.get(tok)
    if mode is not None:
        return Operand(mode)
    if tok.startswith("="):
        body = tok[1:]
        if _is_label(body):
            return Operand(isa.MODE_LIT, symbol=body)
        _check_name_length(body, line_no)
        return Operand(isa.MODE_LIT, _number(body, 0x7FFF, "literal", line_no))
    if tok.startswith("@"):
        addr = _number(tok[1:], 0x7FFF, "address", line_no)
        return Operand(isa.MODE_MEM1 if addr <= 0xFF else isa.MODE_MEM2, addr)
    m = re.match(r"^(.+)\((XL|XR|XS)\)$", tok)
    if m:
        return Operand(_OFFSET_MODES[m.group(2)],
                       _number(m.group(1), 0x7FFF, "offset", line_no))
    if tok.startswith(("+", "-")):
        if _is_label(tok[1:]):
            return Operand(None, symbol=tok[1:], relaxable=True)
        _check_name_length(tok[1:], line_no)
    if _HEX_ITEM.match(tok):
        return Operand(None, int(tok, 16), width=len(tok) // 2)
    if _is_label(tok):
        return Operand(None, symbol=tok)
    _check_name_length(tok, line_no)
    raise AsmError(f"line {line_no}: unrecognized operand {tok!r}")


def parse_source(text: str) -> list[Instruction]:
    """Parse assembly text into instructions (symbols unresolved).

    Each distinct instruction text (the line after its label) is compiled
    once per call into its mnemonic, operands and stream items; every
    line that repeats it shares them.  Labels and line numbers stay per
    line.
    """
    out: list[Instruction] = []
    seen_labels: dict[str, int] = {}
    compiled: dict[str, tuple] = {}
    operands: dict[str, tuple] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line[0] in "*;":
            continue
        label = None
        if not raw_line[0].isspace():
            head, *rest = line.split(None, 1)
            label = head.upper()
            line = rest[0] if rest else ""
            if not _is_label(label):
                raise _bad_label(label, line_no)
            if label in seen_labels:
                raise AsmError(f"line {line_no}: duplicate label {label!r} "
                               f"(first defined on line {seen_labels[label]})")
            seen_labels[label] = line_no
        hit = compiled.get(line)
        if hit is None:
            hit = compiled[line] = _compile(line, line_no, operands)
        out.append(Instruction(label, hit[0], hit[1], line_no, hit[2]))
    return out


def _compile(line: str, line_no: int, memo: dict) -> tuple:
    """(mnemonic, operands, items) of one instruction text, label removed;
    items is the error text instead when the encoding is refused.  memo
    maps each operand token compiled so far to its Operand, its mode, the
    items it adds after the header and its style: 1 raw, 2 symbolic."""
    words = line.upper().split()
    if not words:
        raise AsmError(f"line {line_no}: label without instruction")
    mnemonic = words[0]
    if mnemonic not in isa.OPCODES:
        raise AsmError(f"line {line_no}: unknown mnemonic {mnemonic!r}")
    operands: list[Operand] = []
    modes: list = []
    items: list = []
    style = 0
    # Operand words continue while each ends with a comma; whatever
    # follows the last one is a comment.  Mnemonics that take nothing
    # have no operand field at all, only comment.
    for word in words[1:] if isa.SIGNATURES[mnemonic] else ():
        for tok in word.split(","):
            if tok:
                # a token is compiled once per call; a token that fails
                # is never kept, so each error names its own line
                hit = memo.get(tok)
                if hit is None:
                    o = _parse_operand(tok, line_no)
                    bit = 1 if o.width else 2 if o.mode is not None else 0
                    hit = memo[tok] = o, o.mode, _operand_items(o), bit
                operands.append(hit[0])
                modes.append(hit[1])
                items += hit[2]
                style |= hit[3]
        if word[-1] != ",":
            break
    if style == 3:
        raise AsmError(f"line {line_no}: raw hex items and symbolic operands "
                       "cannot be mixed on one line")
    if style == 1:  # raw hex items are assembled verbatim
        items.insert(0, LiteralByte(isa.OPCODES[mnemonic], op_start=True))
        return mnemonic, operands, items
    key = mnemonic, tuple(modes)
    head, refusal, at = _ROWS.get(key) or _row(*key)
    if refusal is None:
        return mnemonic, operands, head + items
    if at is None:
        return mnemonic, operands, refusal
    return mnemonic, operands, (f"operand {_print_operand(operands[at])!r} "
                                f"{refusal}")


def _print_operand(o: Operand) -> str:
    if o.mode is None:
        if o.width:
            return f"{o.value:0{o.width * 2}X}"
        return ("+" if o.relaxable else "") + o.symbol
    return operand_text(o.mode, o.value, o.symbol)


def operand_text(mode: int, value: int | None, symbol: str | None = None
                 ) -> str:
    """The one spelling of a value operand: its mode nibble and extension
    value, or the label of an =LABEL literal."""
    token = _TOKEN_OF_MODE.get(mode)
    if token is not None:
        return token
    if mode == isa.MODE_LIT:
        return f"={symbol}" if symbol else f"={value:X}"
    if mode == isa.MODE_MEM1 or mode == isa.MODE_MEM2:
        return f"@{value:02X}"
    return f"{value:X}({isa.REGISTERS[isa.BASE_REG[mode]]})"


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


# The modes each role refuses.  None, a branch ref, is no value, and a
# branch target must be one.
_REJECTED = {"src": {None, isa.MODE_PUSH},
             "dst": {None, isa.MODE_POP, isa.MODE_LIT},
             "mod": {None, isa.MODE_POP, isa.MODE_PUSH, isa.MODE_LIT},
             "target": set(range(16))}

# _ROWS[(mnemonic, operand modes)] -> (head, refusal, at).  head is the
# opcode item and, when the instruction takes operands, its header item;
# each operand's items follow it in operand order.  refusal is None, or
# the text of the count, role or target check that fails, and at is the
# position of the operand that text names, or None.  Rows are built on
# first use and kept across calls, as decode's are: a key is ISA
# vocabulary only, and no row holds a label, an operand value or source
# text.
_ROWS: dict[tuple, tuple] = {}


def _row(mnemonic: str, modes: tuple) -> tuple:
    """Build, keep and return the encode row of mnemonic on modes."""
    sig = isa.SIGNATURES[mnemonic]
    head = [LiteralByte(isa.OPCODES[mnemonic], op_start=True)]
    row = head, None, None
    if len(modes) != len(sig):
        row = head, (f"{mnemonic} takes {len(sig)} operand(s), "
                     f"got {len(modes)}"), None
    elif refused := [i for i, role in enumerate(sig)
                     if modes[i] in _REJECTED[role]]:
        at = refused[0]
        row = ((head, "branch target must be a label", None)
               if sig[at] == "target" else
               (head, f"cannot be used as {sig[at]} of {mnemonic}", at))
    elif sig:  # value modes packed low nibble first; BRN's C: an address
        head.append(LiteralByte(isa.MODE_MEM2 if mnemonic == "BRN" else
                                sum(m << 4 * i for i, m in enumerate(modes)
                                    if m is not None)))
    _ROWS[mnemonic, modes] = row
    return row


def _operand_items(o: Operand) -> list:
    """The items an operand adds after the header: a raw item, a label
    ref (a branch target or an =LABEL literal, absolute 2 bytes), an
    extension, or none."""
    if o.width:
        return [LiteralByte(b) for b in o.value.to_bytes(o.width, "big")]
    if o.symbol is not None:
        return [LabelRef(o.symbol, relaxable=o.relaxable)]
    if o.mode < isa.MODE_MEM1:
        return []
    if o.mode == isa.MODE_MEM1:
        return [LiteralByte(o.value)]
    if o.mode == isa.MODE_MEM2:
        return [LiteralByte(o.value >> 8), LiteralByte(o.value & 0xFF)]
    return [LiteralByte(b) for b in encode_literal(o.value)]  # literal, offset


def translate_program(instructions: list) -> Stream:
    """Stream items for parsed instructions, labels as LabelDefs.

    Each line adds the items parse_source compiled for its text, shared
    by every site, since nothing mutates them.  A refused encoding is
    raised here, at the first line that carries one, so that every
    parse error is reported before it.
    """
    items: list = []
    append, extend = items.append, items.extend
    for inst in instructions:
        if inst.label:
            append(LabelDef(inst.label))
        if type(inst.items) is str:
            raise AsmError(f"line {inst.line_no}: {inst.items}")
        extend(inst.items)
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

    Item widths are taken once into an array.  Each relaxation pass
    takes addresses as running sums of the widths, measures every
    pending relaxable ref against them, and gives the in-range ones
    width 1.  Shrinking only moves code down, so a ref that fits stays
    in range; pending refs only leave the set, and the passes stop at
    the first that relaxes none.  Refs already relaxed are never widened
    back.  A ref relaxes by a new item in its place, so items shared
    between sites are never changed.
    """
    items = stream.items
    widths: list[int] = []
    defs: dict[str, int] = {}  # symbol -> index of its LabelDef
    refs: list[int] = []
    for i, it in enumerate(items):
        kind = type(it)
        if kind is LabelRef:
            widths.append(1 if it.relaxed else 2)
            refs.append(i)
        elif kind is LabelDef:
            widths.append(0)
            if it.symbol in defs:
                raise LayoutError(f"duplicate label {it.symbol!r}")
            defs[it.symbol] = i
        else:
            widths.append(1)
    for i in refs:
        if items[i].symbol not in defs:
            raise LayoutError(f"undefined label {items[i].symbol!r}")
    pending = [i for i in refs
               if items[i].relaxable and not items[i].relaxed] if relax else []
    while True:
        addresses = list(accumulate(widths, initial=origin))
        still = []
        for i in pending:
            it = items[i]
            if encode_short_branch(addresses[defs[it.symbol]],
                                   addresses[i]) is None:
                still.append(i)
            else:
                items[i] = LabelRef(it.symbol, True, relaxed=True)
                widths[i] = 1
        if len(still) == len(pending):
            break
        pending = still
    end = addresses.pop()
    symbols = {sym: addresses[i] for sym, i in defs.items()}
    for sym, addr in symbols.items():
        if addr >= isa.LABEL_LIMIT:
            raise LayoutError(f"label {sym!r} resolves to {addr:#06x}, "
                              f"beyond {isa.LABEL_LIMIT:#06x}")
    if end > 0x10000:
        raise LayoutError("program runs past the end of memory")
    return Layout(origin=origin, addresses=addresses, symbols=symbols,
                  size=end - origin)


def resolve_stream(stream: Stream, layout: Layout) -> bytes:
    """Final byte image of the main stream."""
    out = bytearray()
    append = out.append
    symbols = layout.symbols
    for it, addr in zip(stream.items, layout.addresses):
        kind = type(it)
        if kind is LiteralByte:
            append(it.value)
        elif kind is LabelDef:
            continue
        elif kind is MacroByte:
            append(it.code)
        else:
            target = symbols[it.symbol]
            if it.relaxed:
                short = encode_short_branch(target, addr)
                if short is None:
                    raise LayoutError(f"relaxed branch to {it.symbol!r} fell "
                                      "out of short range")
                append(short)
            else:
                append(target >> 8)
                append(target & 0xFF)
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


def instruction_at(stream: Stream, layout: Layout, address: int) -> int:
    """Index of the stream item that starts the instruction at address."""
    if not layout.origin <= address < layout.origin + layout.size:
        raise LayoutError(f"entry {address:#06x} outside the {layout.size}-"
                          f"byte code at {layout.origin:#06x}")
    addresses = layout.addresses
    for i in range(bisect_left(addresses, address), len(addresses)):
        if addresses[i] != address:
            break
        if stream.items[i].op_start:
            return i
    raise LayoutError(f"entry {address:#06x} is not the start of an "
                      "instruction")


def resolve_entry(stream: Stream, layout: Layout,
                  entry: int | str | None) -> int:
    """Entry address: the origin by default, else a label's address or a
    hex address, which must start an instruction."""
    if entry is None:
        return layout.origin
    if isinstance(entry, str):
        name = entry.upper()
        if name not in layout.symbols:
            raise LayoutError(f"entry label {entry!r} is not defined")
        return layout.symbols[name]
    instruction_at(stream, layout, entry)
    return entry


def assemble(text: str, origin: int = isa.DEFAULT_ORIGIN,
             entry: int | str | None = None):
    """Assemble source text into an object image (no macros)."""
    stream, layout = assemble_stream(text, origin)
    img = ObjectImage(code=resolve_stream(stream, layout), origin=origin,
                      entry=resolve_entry(stream, layout, entry))
    img.validate()
    return img
