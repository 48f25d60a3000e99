"""Macro compaction over raw byte strings.

A macro assigns one opcode byte in 0x50..0xFF to a body of two or more
bytes; every non-overlapping occurrence of the body is replaced by the
opcode.  The figure of merit throughout is

    objective = len(residual) + sum(len(body) for each macro)

i.e. the compacted string plus the table needed to expand it again.
Occurrences are always counted and replaced leftmost-greedy.

Selection runs on the stream selectors of macros.  greedy_select reads
and writes only the signature string of the bytes, one latin-1
character per byte, every byte marked as the start of an instruction,
so a run may start and end at any byte; exact_select searches the
stream of those literals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Sequence

from . import isa
from .asm import LiteralByte, MacroByte, Stream
from .macros import _START, Lowered, PayingKeys, check_limits, select_exact

MODES = ("greedy", "exact")  # greedy_select and exact_select


@dataclass
class Macro:
    body: bytes
    code: int | None = None


@dataclass
class CompactionResult:
    macros: list[Macro]
    residual: bytes
    objective: int

    def table_size(self) -> int:
        return sum(len(m.body) for m in self.macros)


# one shared literal per byte value; nothing mutates stream items
_BYTE_ITEMS = [LiteralByte(v, op_start=True) for v in range(0x100)]


def _byte_stream(data: Sequence[int]) -> Stream:
    return Stream([_BYTE_ITEMS[b] for b in data])


def _stream_bytes(items: list, code_of=lambda code: code) -> bytes:
    """Bytes of a byte stream's items; code_of renumbers its macro bytes."""
    return bytes(code_of(it.code) if isinstance(it, MacroByte) else it.value
                 for it in items)


def pick_free_code(data: Sequence[int], assigned: Iterable[int]) -> int | None:
    """Smallest opcode in 0x50..0xFF neither assigned nor occurring in data.

    Raw byte strings may already use any value, and expansion works by byte
    value, so an opcode that collides with live data would corrupt the
    round trip.  Returns None when the whole range is in use.
    """
    taken = set(assigned)
    present = set(data)
    for code in range(isa.MACRO_OPCODE_BASE, 0x100):
        if code not in taken and code not in present:
            return code
    return None


def greedy_select(data: Sequence[int], max_macros: int, max_len: int,
                  allow_embed: bool = False) -> CompactionResult:
    """Iterated best-single-macro adoption.

    Each round adopts the key with the largest net saving on the current
    residual, which minimizes the single-macro objective, and stops when
    no opcode is free, when no key saves a byte, or when max_macros is
    reached.  With allow_embed=False the opcode goes in as a macro byte,
    which ends every later run, so bodies never nest; with
    allow_embed=True it goes in as a literal that later bodies may cover.
    Candidates are counted once, and with embedding the runs through
    each opcode as it goes in; after that macros.PayingKeys recounts only
    the key at the top of its heap, whose stored count is an upper bound
    (see macros._exact_top).

    The bytes become PayingKeys' signature string as they are, and only
    that string is read and written: a free opcode is one its literal
    characters do not hold (a macro byte's character is past 0xFF, so
    the latin-1 encoding drops it), and the residual is the string with
    each macro byte's character translated to its opcode.
    """
    check_limits(max_macros, max_len)
    sig = bytes(data).decode("latin-1")
    keys = PayingKeys(Lowered(_byte_stream(data).items, sig, _START * len(sig)),
                      max_len, "free")
    macros: list[Macro] = []
    assigned: set[int] = set()
    while len(macros) < max_macros:
        code = pick_free_code(keys.sig.encode("latin-1", "ignore"), assigned)
        if code is None:
            break
        best = keys.best()
        if best is None:
            break
        keys.substitute(
            best, _BYTE_ITEMS[code] if allow_embed else MacroByte(code))
        body = best.encode("latin-1")  # a byte stream's key is its bytes
        macros.append(Macro(body=body, code=code))
        assigned.add(code)
    residual = keys.sig.translate(
        {ord(c): item.code for c, (item, _) in keys.put_in.items()
         if isinstance(item, MacroByte)}).encode("latin-1")
    objective = len(residual) + sum(len(m.body) for m in macros)
    return CompactionResult(macros=macros, residual=residual, objective=objective)


def exact_select(data: Sequence[int], max_macros: int, max_len: int
                 ) -> CompactionResult:
    """Globally optimal macro set of size <= max_macros.

    macros.select_exact searches the lowered string and numbers its
    macros densely in the order of the chosen body combination; each
    then gets, in that order, the smallest opcode free of the input.
    Guarded by optimal.estimate_cost; raises BudgetError when refused.
    """
    out, chosen = select_exact(_byte_stream(data), max_macros, max_len)
    code_of: dict[int, int] = {}
    for m in chosen:
        code = pick_free_code(data, code_of.values())
        if code is None:
            raise ValueError("no opcode in 0x50..0xFF is free of the input")
        code_of[m.code] = code
    residual = _stream_bytes(out.items, code_of.__getitem__)
    macros = [Macro(body=bytes(it.value for it in m.items),
                    code=code_of[m.code]) for m in chosen]
    objective = len(residual) + sum(len(m.body) for m in macros)
    return CompactionResult(macros=macros, residual=residual, objective=objective)


MAX_OUTPUT = 1 << 24   # bytes expand_macros builds at most by default

_ONE_BYTE = [bytes((v,)) for v in range(0x100)]


def expand_macros(residual: Sequence[int], macros: Sequence[Macro],
                  limit: int = MAX_OUTPUT) -> bytes:
    """Inverse of substitution.

    A body byte equal to an EARLIER macro's opcode is a nested reference
    (embedding), while one equal to a later opcode is plain data, because
    opcodes are only ever chosen from values absent from the residual
    they were introduced into.  So replacing each opcode by its body, the
    last adopted macro first, expands every reference and nothing else;
    no body is empty, so no intermediate string outgrows the output.
    Only each macro's code and body are read, so a raw container's
    MacroEntry table expands as it is.

    Nested bodies multiply lengths, so the output length is bounded
    before any expansion: len(residual) times the longest expanded body,
    or, when that exceeds limit, the exact length from one count per
    opcode.  An output over limit bytes is refused with ValueError.
    """
    size: dict[int, int] = {}
    for m in macros:
        if m.code is None:
            raise ValueError("macro has no assigned opcode")
        if not m.body:
            raise ValueError(f"macro {m.code:#04x} has an empty body")
        if not 0 <= m.code <= 0xFF:
            raise ValueError(f"macro opcode {m.code} is not a byte value")
        size[m.code] = sum(map(size.get, m.body, repeat(1)))
    out = bytes(residual)
    if len(out) * max(size.values(), default=1) > limit:
        total = len(out) + sum(out.count(code) * (n - 1)
                               for code, n in size.items())
        if total > limit:
            raise ValueError(f"expanded output of {total} bytes exceeds "
                             f"the limit of {limit}")
    for m in reversed(macros):
        out = out.replace(_ONE_BYTE[m.code], m.body)
    return out
