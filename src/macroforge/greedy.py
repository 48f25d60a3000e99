"""Macro compaction over raw byte strings.

A macro assigns one opcode byte in 0x50..0xFF to a body of two or more
bytes; every non-overlapping occurrence of the body is replaced by the
opcode.  The figure of merit throughout is

    objective = len(residual) + sum(len(body) for each macro)

i.e. the compacted string plus the table needed to expand it again.
Occurrences are always counted and replaced leftmost-greedy.

Selection runs on the stream selectors of macros: the string is lowered
once to a stream of literals that each start an instruction, so a run
may start and end at any byte.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

from . import isa
from .asm import LiteralByte, MacroByte, Stream
from .macros import (check_limits, profitable_keys, rank_keys, select_exact,
                     substitute_stream)


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

    def savings(self, original_len: int) -> int:
        return original_len - self.objective


# one shared literal per byte value; nothing mutates stream items
_BYTE_ITEMS = [LiteralByte(v, op_start=True) for v in range(0x100)]


def _byte_stream(data: Sequence[int]) -> Stream:
    return Stream([_BYTE_ITEMS[b] for b in data])


def _stream_bytes(stream: Stream, code_of=lambda code: code) -> bytes:
    """Bytes of a lowered stream; code_of renumbers its macro bytes."""
    return bytes(code_of(it.code) if isinstance(it, MacroByte) else it.value
                 for it in stream.items)


def count_occurrences(haystack: Sequence[int], needle: Sequence[int]) -> int:
    """Count non-overlapping occurrences of needle, leftmost-greedy."""
    if len(needle) == 0:
        raise ValueError("empty pattern")
    return bytes(haystack).count(bytes(needle))


def single_macro_objective(data: Sequence[int], body: Sequence[int]) -> int:
    """Objective after adopting body as the sole macro.

    f occurrences each shrink to one byte and the table grows by len(body),
    so the result is len(data) - (len(body)-1)*(f-1) + 1; with no
    occurrence the string is unchanged and no table entry is paid for.
    """
    if len(body) < 2:
        raise ValueError("macro body must be at least 2 bytes")
    f = count_occurrences(data, body)
    if f == 0:
        return len(data)
    return len(data) - (len(body) - 1) * (f - 1) + 1


def substitute(data: Sequence[int], body: Sequence[int], code: int) -> bytes:
    """Replace every occurrence of body (leftmost-greedy) with the single
    byte `code`."""
    if len(body) < 2:
        raise ValueError("macro body must be at least 2 bytes")
    if not isa.MACRO_OPCODE_BASE <= code <= 0xFF:
        raise ValueError(f"macro opcode {code:#04x} outside 0x50..0xFF")
    return bytes(data).replace(bytes(body), bytes([code]))


def length_function(data: Sequence[int], bodies: Iterable[Sequence[int]]) -> int:
    """Objective for a whole macro set: bodies are substituted in the given
    order (leftmost-greedy each), then residual length plus table size.

    Bodies need no assigned opcodes: each replacement is a macro byte,
    which no later body can match.
    """
    cur = _byte_stream(data)
    table = 0
    for body in bodies:
        if len(body) < 2:
            raise ValueError("macro body must be at least 2 bytes")
        cur, _, _ = substitute_stream(cur, tuple((0, b) for b in body),
                                      isa.MACRO_OPCODE_BASE)
        table += len(body)
    return len(cur.items) + table


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
    """
    check_limits(max_macros, max_len)
    cur = _byte_stream(data)
    left = Counter(data)  # how often each input byte is still in cur
    macros: list[Macro] = []
    assigned: set[int] = set()
    while len(macros) < max_macros:
        code = pick_free_code(+left, assigned)
        if code is None:
            break
        best = rank_keys(profitable_keys(cur, max_len, "free"), 1)
        if not best:
            break
        cur, _, count = substitute_stream(cur, best[0], code)
        if allow_embed:
            cur = Stream([_BYTE_ITEMS[it.code] if isinstance(it, MacroByte)
                          else it for it in cur.items])
        body = bytes(v for _, v in best[0])
        left.subtract(body * count)
        macros.append(Macro(body=body, code=code))
        assigned.add(code)
    residual = _stream_bytes(cur)
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
    residual = _stream_bytes(out, code_of.__getitem__)
    macros = [Macro(body=bytes(v for _, v in m.key), code=code_of[m.code])
              for m in chosen]
    objective = len(residual) + sum(len(m.body) for m in macros)
    return CompactionResult(macros=macros, residual=residual, objective=objective)


MAX_OUTPUT = 1 << 24   # bytes expand_macros builds at most by default


def expand_macros(residual: Sequence[int], macros: Sequence[Macro],
                  limit: int = MAX_OUTPUT) -> bytes:
    """Inverse of substitution.

    A body byte equal to an EARLIER macro's opcode is a nested reference
    (embedding), while one equal to a later opcode is plain data, because
    opcodes are only ever chosen from values absent from the residual
    they were introduced into.  So replacing each opcode by its body, the
    last adopted macro first, expands every reference and nothing else;
    no body is empty, so no intermediate string outgrows the output.

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
        size[m.code] = sum(size.get(b, 1) for b in m.body)
    out = bytes(residual)
    if len(out) * max(size.values(), default=1) > limit:
        total = len(out) + sum(out.count(code) * (n - 1)
                               for code, n in size.items())
        if total > limit:
            raise ValueError(f"expanded output of {total} bytes exceeds "
                             f"the limit of {limit}")
    for m in reversed(macros):
        out = out.replace(bytes([m.code]), m.body)
    return out
