"""Greedy macro compaction over raw byte strings.

A macro assigns one opcode byte in 0x50..0xFF to a body of two or more
bytes; every non-overlapping occurrence of the body is replaced by the
opcode.  The figure of merit throughout is

    objective = len(residual) + sum(len(body) for each macro)

i.e. the compacted string plus the table needed to expand it again.
Occurrences are always counted and replaced leftmost-greedy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import isa


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


def count_occurrences(haystack: Sequence[int], needle: Sequence[int]) -> int:
    """Count non-overlapping occurrences of needle, leftmost-greedy.

    Knuth-Morris-Pratt scan; after a match the automaton restarts so the
    next occurrence cannot reuse any matched byte.
    """
    k = len(needle)
    if k == 0:
        raise ValueError("empty pattern")
    if k > len(haystack):
        return 0
    fail = [0] * k
    j = 0
    for i in range(1, k):
        while j and needle[i] != needle[j]:
            j = fail[j - 1]
        if needle[i] == needle[j]:
            j += 1
        fail[i] = j
    count = 0
    j = 0
    for b in haystack:
        while j and b != needle[j]:
            j = fail[j - 1]
        if b == needle[j]:
            j += 1
            if j == k:
                count += 1
                j = 0
    return count


def build_freq_table(data: Sequence[int], max_len: int) -> dict:
    """Map every distinct subsequence of length 2..max_len to its
    non-overlapping occurrence count.

    One left-to-right pass per length: an occurrence at i is taken exactly
    when it starts at or after the end of the previous taken occurrence of
    the same content, which reproduces the leftmost-greedy schedule for
    every content simultaneously.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    counts: dict = {}
    n = len(data)
    for k in range(2, max_len + 1):
        if k > n:
            break
        next_free: dict = {}
        for i in range(n - k + 1):
            s = data[i:i + k]
            if next_free.get(s, 0) <= i:
                counts[s] = counts.get(s, 0) + 1
                next_free[s] = i + k
    return counts


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


def best_single_macro(data: Sequence[int], max_len: int,
                      exclude: Iterable[int] = ()) -> tuple[bytes, int] | None:
    """Best (body, objective) over all candidates, or None when nothing
    beats leaving the string alone.

    Ties prefer the longest body, then the lexicographically smallest.
    Candidates containing a byte from `exclude` are skipped (used to keep
    assigned macro opcodes out of later bodies).
    """
    banned = set(exclude)
    best_key = None
    for body, f in build_freq_table(data, max_len).items():
        if banned and any(b in banned for b in body):
            continue
        obj = len(data) - (len(body) - 1) * (f - 1) + 1
        key = (obj, -len(body), bytes(body))
        if best_key is None or key < best_key:
            best_key = key
    if best_key is None or best_key[0] >= len(data):
        return None
    return best_key[2], best_key[0]


def substitute(data: Sequence[int], body: Sequence[int], code: int) -> bytes:
    """Replace every occurrence of body (leftmost-greedy) with the single
    byte `code`."""
    if len(body) < 2:
        raise ValueError("macro body must be at least 2 bytes")
    if not isa.MACRO_OPCODE_BASE <= code <= 0xFF:
        raise ValueError(f"macro opcode {code:#04x} outside 0x50..0xFF")
    data = bytes(data)
    body = bytes(body)
    out = bytearray()
    pos = 0
    while True:
        hit = data.find(body, pos)
        if hit < 0:
            out += data[pos:]
            return bytes(out)
        out += data[pos:hit]
        out.append(code)
        pos = hit + len(body)


def length_function(data: Sequence[int], bodies: Iterable[Sequence[int]]) -> int:
    """Objective for a whole macro set: bodies are substituted in the given
    order (leftmost-greedy each), then residual length plus table size.

    Bodies need no assigned opcodes; replacements are tracked with markers
    outside the byte range so they can never collide with data or with
    each other.
    """
    seq: tuple = tuple(data)
    table = 0
    for i, body in enumerate(bodies):
        if len(body) < 2:
            raise ValueError("macro body must be at least 2 bytes")
        seq = _replace_generic(seq, tuple(body), 0x100 + i)
        table += len(body)
    return len(seq) + table


def _replace_generic(seq: tuple, pat: tuple, marker: int) -> tuple:
    out = []
    i, n, k = 0, len(seq), len(pat)
    while i < n:
        if seq[i:i + k] == pat:
            out.append(marker)
            i += k
        else:
            out.append(seq[i])
            i += 1
    return tuple(out)


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

    Each round adopts the candidate minimizing the single-macro objective
    on the current residual, stopping when no candidate improves on doing
    nothing or when max_macros is reached.  With allow_embed=False a
    candidate may not contain a previously assigned opcode, so bodies never
    nest; with allow_embed=True later bodies may cover earlier macro bytes.
    """
    if not 1 <= max_macros <= isa.MAX_MACROS:
        raise ValueError(f"macro count must be 1..{isa.MAX_MACROS}")
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    residual = bytes(data)
    macros: list[Macro] = []
    assigned: set[int] = set()
    while len(macros) < max_macros:
        exclude = () if allow_embed else assigned
        pick = best_single_macro(residual, max_len, exclude=exclude)
        if pick is None:
            break
        code = pick_free_code(residual, assigned)
        if code is None:
            break
        body, _ = pick
        residual = substitute(residual, body, code)
        macros.append(Macro(body=body, code=code))
        assigned.add(code)
    objective = len(residual) + sum(len(m.body) for m in macros)
    return CompactionResult(macros=macros, residual=residual, objective=objective)


def expand_macros(residual: Sequence[int], macros: Sequence[Macro]) -> bytes:
    """Inverse of substitution.

    Bodies are expanded in adoption order: a body byte equal to an EARLIER
    macro's opcode is a nested reference (embedding), while one equal to a
    later opcode is plain data, because opcodes are only ever chosen from
    values absent from the residual they were introduced into.
    """
    full: dict[int, bytes] = {}
    for m in macros:
        if m.code is None:
            raise ValueError("macro has no assigned opcode")
        out = bytearray()
        for b in m.body:
            out += full.get(b, bytes([b]))
        full[m.code] = bytes(out)
    out = bytearray()
    for b in residual:
        out += full.get(b, bytes([b]))
    return bytes(out)
