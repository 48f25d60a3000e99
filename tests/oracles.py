"""Reference implementations used to pin expected values.

The naive_* helpers, brute_force_select and the reference interpreter
are deliberately dumb and quadratic-or-worse.  count_occurrences,
single_macro_objective, substitute and length_function define the
objective that byte-level selection minimizes; only tests call them.
Nothing here shares code with the package under test, apart from the
instruction tables: reference_decode is the instruction decoder as it
was before decode.decode read extensions inline, and the reference
interpreter and the reference listing read instructions with it.
decode_literal is the inverse of asm.encode_literal; only the tests
use it.
reference_walk lists every candidate run, where the package's walk
drops a start as soon as its key cannot repeat; extract_candidates
groups its runs by match key.  Match keys
here are tuples built from the items, (0, byte) for a literal and
(1, symbol) for a label reference.  select_greedy and greedy_select
are the round-by-round greedy selectors that recount every candidate
after each adoption; they share the lowering, the full count and the
ranking of the package, substitute by a scan of their own, and
select_greedy defers prefixes by a sorted-neighbour filter of its own.
Differential tests hold the lazily recounting selectors to their
output.  select_freq ranks the keys as the package does but adopts
them one at a time, each by a sweep of Lowered.runs over the whole
stream and a splice of its own, where the package assigns instruction
occurrences to keys from its table of distinct instructions and
splices once.  generate_corpus drives the package's program generator
but assembles the whole program after every chunk, where
corpus.generate_corpus sums the sizes of the chunks.
reference_assemble_stream parses, encodes and lays out every line on
its own, where the package compiles each distinct instruction text and
operand token once per call in one pass, encodes through rows keyed by
mnemonic and operand modes, and relaxes over a width array; it shares
the operand parser and printer with the package.
reference_parse_source checks the mix of raw and symbolic operands
with a check of its own, after the whole line is parsed, and
reference_translate_mnemonic checks and encodes each instruction
operand by operand with a role table of its own.  reference_resolve_stream
emits the bytes by isinstance tests.  reference_decode_image and
reference_render_listing decode and format every unit of a listing on
its own, where the package shares one decoded instruction per distinct
decode, one instruction list per macro whose body ends on an
instruction boundary and one rendered line per distinct unit; they
share only the per-instruction text with the package.
reference_parse reads a container one header field and one table byte
at a time through a reader object, and reference_expand sizes each
body with a generator; both share only ObjectImage and its validate
with the package.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Sequence

import corpus
from macroforge import asm, disasm, isa, macros, objfile
from macroforge.asm import (AsmError, Instruction, LabelDef, LabelRef, Layout,
                            LayoutError, LiteralByte, MacroByte, Stream,
                            _bad_label, _is_label, _parse_operand,
                            _print_operand, encode_literal,
                            encode_short_branch, item_width)
from macroforge.decode import DecodeError
from macroforge.disasm import DecodedUnit, DisasmError
from macroforge.greedy import (_BYTE_ITEMS, MAX_OUTPUT, CompactionResult,
                               Macro, _byte_stream, _stream_bytes,
                               pick_free_code)
from macroforge.macros import (Lowered, StreamMacro, check_limits, lower,
                               profitable_keys, rank_keys)
from macroforge.objfile import MacroEntry, ObjectError, ObjectImage


def naive_count(haystack: bytes, needle: bytes) -> int:
    """Leftmost-greedy non-overlapping occurrence count by direct scan."""
    assert len(needle) >= 1
    count = 0
    i = 0
    while i + len(needle) <= len(haystack):
        if haystack[i:i + len(needle)] == needle:
            count += 1
            i += len(needle)
        else:
            i += 1
    return count


def naive_freq(data: bytes, max_len: int) -> dict[bytes, int]:
    distinct = {data[i:i + k]
                for k in range(2, max_len + 1)
                for i in range(len(data) - k + 1)}
    return {s: naive_count(data, s) for s in distinct}


def naive_objective(data: bytes, body: bytes) -> int:
    """len(residual) + len(body) computed by literally substituting."""
    f = naive_count(data, body)
    if f == 0:
        return len(data)
    out = []
    i = 0
    while i < len(data):
        if data[i:i + len(body)] == body:
            out.append(None)  # marker
            i += len(body)
        else:
            out.append(data[i])
            i += 1
    return len(out) + len(body)


def exhaustive_mwis_weight(intervals: list[tuple[int, int, int]]) -> int:
    """Max total weight over every independent subset of closed intervals
    (start, end, weight), by take/skip recursion with explicit pairwise
    overlap checks against everything taken so far."""
    def overlaps(a, b):
        return a[0] <= b[1] and b[0] <= a[1]

    def rec(i, taken):
        if i == len(intervals):
            return 0
        best = rec(i + 1, taken)
        cand = intervals[i]
        if all(not overlaps(cand, t) for t in taken):
            taken.append(cand)
            best = max(best, cand[2] + rec(i + 1, taken))
            taken.pop()
        return best

    return rec(0, [])


def naive_greedy(data: bytes, max_macros: int, max_len: int,
                 allow_embed: bool = False) -> tuple[list, bytes]:
    """Iterated best-single-macro adoption by direct enumeration.

    Each round scores every substring of 2..max_len bytes of the residual
    by its net saving f*(len-1) - len, f from naive_count, and adopts the
    best positive one: larger saving, then the longer body, then the
    smaller body.  Without allow_embed, substrings holding an assigned
    opcode are skipped.  The opcode is the smallest of 0x50..0xFF neither
    assigned nor in the residual.  Returns ([(body, code)], residual).
    """
    residual = bytes(data)
    table: list[tuple[bytes, int]] = []
    while len(table) < max_macros:
        assigned = {code for _, code in table}
        best = None
        for k in range(2, max_len + 1):
            for i in range(len(residual) - k + 1):
                body = residual[i:i + k]
                if not allow_embed and any(b in assigned for b in body):
                    continue
                net = naive_count(residual, body) * (k - 1) - k
                rank = (-net, -k, body)
                if net > 0 and (best is None or rank < best):
                    best = rank
        if best is None:
            break
        free = [c for c in range(0x50, 0x100)
                if c not in assigned and c not in residual]
        if not free:
            break
        body, code = best[2], free[0]
        out = bytearray()
        i = 0
        while i < len(residual):
            if residual[i:i + len(body)] == body:
                out.append(code)
                i += len(body)
            else:
                out.append(residual[i])
                i += 1
        residual = bytes(out)
        table.append((body, code))
    return table, residual


# ---------------------------------------------------------------------------
# Byte-string objective and candidate runs

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

    Bodies need no assigned opcodes: each replacement is a marker outside
    the byte range, which no later body can match.
    """
    cur = bytes(data).decode("latin-1")
    table = 0
    for body in bodies:
        if len(body) < 2:
            raise ValueError("macro body must be at least 2 bytes")
        cur = cur.replace(bytes(body).decode("latin-1"), "\u0100")
        table += len(body)
    return len(cur) + table


def brute_force_select(data: Sequence[int], max_macros: int,
                       max_len: int) -> tuple[list[bytes], int]:
    """Reference implementation by sheer enumeration.

    Every macro set of size <= max_macros over the distinct substrings of
    length 2..max_len, and for each set every non-overlapping occurrence
    selection via take/skip recursion (no interval DP, nothing shared with
    mwis).  Returns (sorted bodies, objective).  Hard-capped to tiny inputs
    because the recursion really does visit every selection.
    """
    data = bytes(data)
    n = len(data)
    if n > 32:
        raise ValueError("brute force capped at 32 bytes")
    if max_len > 5:
        raise ValueError("brute force capped at max_len 5")
    if max_macros > 2:
        raise ValueError("brute force capped at 2 macros")
    if max_len < 2 or max_macros < 1:
        raise ValueError("need max_len >= 2 and max_macros >= 1")
    contents = sorted({data[i:i + k]
                       for k in range(2, max_len + 1)
                       for i in range(n - k + 1)})
    best: tuple | None = (n, 0, ())
    for r in range(1, max_macros + 1):
        for combo in itertools.combinations(contents, r):
            occs = []
            for c in combo:
                for i in range(n - len(c) + 1):
                    if data[i:i + len(c)] == c:
                        occs.append((i, i + len(c) - 1, len(c) - 1))
            occs.sort()
            weight = _best_selection(occs, 0, 0)
            obj = n - weight + sum(len(c) for c in combo)
            key = (obj, r, combo)
            if key < best:
                best = key
    obj, _, combo = best
    return list(combo), obj


def _best_selection(occs: list[tuple[int, int, int]], i: int, free_from: int) -> int:
    # occs sorted by start; free_from = 1 + end of the last taken interval,
    # which dominates every earlier taken end.
    if i == len(occs):
        return 0
    start, end, weight = occs[i]
    value = _best_selection(occs, i + 1, free_from)
    if start >= free_from:
        value = max(value, weight + _best_selection(occs, i + 1, end + 1))
    return value


@dataclass(frozen=True)
class StreamOccurrence:
    item_start: int
    item_end: int    # exclusive
    byte_start: int  # offset from the stream's first byte, widths frozen
    byte_len: int


def match_key(items: list) -> tuple:
    """The match key of a run of items: (0, byte) for each literal and
    (1, symbol) for each label reference."""
    return tuple((0, it.value) if isinstance(it, LiteralByte)
                 else (1, it.symbol) for it in items)


def reference_walk(low: Lowered, max_len: int, granularity: str):
    """Every candidate run of 2..max_len bytes, one item count at a time,
    as macros._walk finds them but without dropping a start whose key
    cannot repeat.  Yields (t, starts): the first item of every run of t
    items that may end there, in stream order."""
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    if granularity not in ("free", "instruction", "aligned"):
        raise ValueError(f"unknown granularity {granularity!r}")
    sig, marks = low.sig, low.marks
    inside = granularity == "instruction"
    joins = [c != macros._STOP and not (inside and m == macros._START)
             for c, m in zip(sig, marks)] + [False]
    offset = [0, *accumulate(1 if c < macros._STOP else 2 for c in sig)]
    ends = ([m != macros._OTHER for m in marks] + [True]
            if granularity == "aligned" else None)
    live = [i for i, m in enumerate(marks) if m == macros._START]
    t = 1
    while live:
        live = [i for i in live if joins[i + t]
                and offset[i + t + 1] - offset[i] <= max_len]
        t += 1
        starts = live if ends is None else [i for i in live if ends[i + t]]
        if starts:
            yield t, starts


def extract_candidates(stream: Stream, max_len: int,
                       granularity: str = "free"
                       ) -> dict[tuple, list[StreamOccurrence]]:
    """Every candidate run of 2..max_len bytes, grouped by match key.

    Runs are those of reference_walk at the given granularity.
    Occurrence lists come back in stream order.
    """
    items = stream.items
    offsets = [0, *accumulate(map(asm.item_width, items))]
    found: dict[tuple, list[StreamOccurrence]] = {}
    for t, starts in reference_walk(macros.lower(items), max_len, granularity):
        for i in starts:
            found.setdefault(match_key(items[i:i + t]), []).append(
                StreamOccurrence(i, i + t, offsets[i],
                                 offsets[i + t] - offsets[i]))
    return found


def substitute_stream(low: Lowered, pattern: str, item
                      ) -> tuple[Lowered, list | None, int]:
    """Replace the matches of a signature string by item, scanning left
    to right and resuming after each match; a match starts where an
    instruction is fetched.  Returns the new state, the items of the
    first match (None if nothing matched) and the match count."""
    cuts = []
    i = 0
    while i < len(low.sig):
        if low.marks[i] == macros._START and low.sig.startswith(pattern, i):
            cuts.append((i, i + len(pattern), item))
            i += len(pattern)
        else:
            i += 1
    body = low.items[cuts[0][0]:cuts[0][1]] if cuts else None
    return low.splice(cuts), body, len(cuts)


def generate_corpus(seed: int, min_bytes: int = 8000) -> str:
    """corpus.generate_corpus as a whole-program loop: after every 60
    generated steps the whole program is assembled again and measured."""
    gen = corpus._Gen(random.Random(seed))
    while True:
        for _ in range(60):
            gen.step()
        text = gen.text()
        if len(asm.assemble(text).code) >= min_bytes:
            return text


# ---------------------------------------------------------------------------
# Greedy selection that recounts every candidate each round

def instruction_nets(low: Lowered, max_len: int
                     ) -> dict[str, tuple[int, int]]:
    """The package's full count of the keys inside one instruction, from
    its table of distinct instructions, as key -> (net, b)."""
    return macros._prefix_keys(macros._instructions(low, max_len))[0]


def select_greedy(stream: Stream, max_macros: int, max_len: int
                  ) -> tuple[Stream, list[StreamMacro]]:
    """Iterative best-first adoption over whole-instruction runs.

    Each round recounts candidates on the current stream, scores every
    key by its net saving f*(b-1) - b with f counted over
    non-overlapping occurrences, adopts the best positive one, and
    substitutes at once so the next round works on the shrunken stream.
    Ties fall to the longer body, then the smaller key.

    Selection runs coarse to fine.  The first stage admits only
    instruction-aligned runs: a mid-instruction prefix pools the counts
    of every instruction sharing it, so it outscores each full
    instruction, yet adopting it strands the extension bytes behind the
    macro byte where no later candidate can reach them.  Once no aligned
    run pays, a second stage admits prefixes to mop up instructions
    whose full forms were too rare to adopt.

    Stage two defers any profitable key that strictly prefixes another
    profitable key: the extension's leftovers are still there for the
    short key next round, while the short key would strand the
    extension's tail bytes for good.  Stage one must not do this; there
    the prefix relation pits a high-count instruction against every
    barely-profitable longer run it starts, and deferring to those
    fragments the stream and squanders the opcode space on long bodies.
    """
    check_limits(max_macros, max_len)
    cur = lower(stream.items)
    adopted: list[StreamMacro] = []
    for granularity, defer_prefixes in (("aligned", False),
                                        ("instruction", True)):
        while len(adopted) < max_macros:
            nets = (instruction_nets(cur, max_len) if defer_prefixes
                    else profitable_keys(cur, max_len, granularity))
            if defer_prefixes:
                # in sorted order every extension of a key follows it,
                # and anything between them extends it too, so checking
                # the next key suffices; the last key is never deferred
                ordered = sorted(nets)
                nets = {k: nets[k] for k, nxt in zip(ordered,
                                                     ordered[1:] + [""])
                        if nxt[:len(k)] != k}
            best = rank_keys(nets, 1)
            if not best:
                break
            code = isa.MACRO_OPCODE_BASE + len(adopted)
            cur, body, _ = substitute_stream(cur, best[0], MacroByte(code))
            adopted.append(StreamMacro(code=code, items=body,
                                       byte_len=nets[best[0]][1]))
    return Stream(cur.items), adopted


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
    cur = lower(_byte_stream(data).items)
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
        cur, _, count = substitute_stream(
            cur, best[0], _BYTE_ITEMS[code] if allow_embed else MacroByte(code))
        body = best[0].encode("latin-1")
        left.subtract(body * count)
        macros.append(Macro(body=body, code=code))
        assigned.add(code)
    residual = _stream_bytes(cur.items)
    objective = len(residual) + sum(len(m.body) for m in macros)
    return CompactionResult(macros=macros, residual=residual, objective=objective)


# ---------------------------------------------------------------------------
# Frequency selection that sweeps and splices the stream once per key

def _adopt_in_order(cur: Lowered, keys: list[str]
                    ) -> tuple[Stream, list[StreamMacro]]:
    """Adopt keys in the order given, opcodes assigned densely.

    An earlier key may consume a later one's matches; a key whose
    remaining matches no longer pay for its table entry is passed over
    entirely rather than kept as dead weight, so every entry in the
    result saves bytes.  Skipping leaves the stream untouched, which is
    what keeps a single pass exact.
    """
    adopted: list[StreamMacro] = []
    for s in keys:
        starts, t, b = cur.runs(s, "free"), len(s), macros._width(s)
        if len(starts) * (b - 1) - b <= 0:
            continue  # adopting it now would grow the image
        code = isa.MACRO_OPCODE_BASE + len(adopted)
        adopted.append(StreamMacro(code=code, byte_len=b,
                                   items=cur.items[starts[0]:starts[0] + t]))
        cur = cur.splice([(a, a + t, MacroByte(code)) for a in starts])
    return Stream(cur.items), adopted


def select_freq(stream: Stream, max_macros: int, max_len: int
                ) -> tuple[Stream, list[StreamMacro]]:
    """Rank the instruction-granular keys by net saving, then adopt the
    top max_macros longest first, each by a whole-stream match sweep and
    a splice of its own."""
    check_limits(max_macros, max_len)
    low = lower(stream.items)
    picked = rank_keys(instruction_nets(low, max_len), max_macros)
    picked.sort(key=lambda s: (-macros._width(s), s))
    return _adopt_in_order(low, picked)


# ---------------------------------------------------------------------------
# Assembler passes that redo every line and re-measure every item

def reference_parse_source(text: str) -> list[Instruction]:
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
        if any(o.width for o in operands) and any(o.mode is not None
                                                  for o in operands):
            raise AsmError(f"line {line_no}: raw hex items and symbolic "
                           "operands cannot be mixed on one line")
        out.append(Instruction(label, mnemonic, operands, line_no))
    return out


def reference_translate_program(instructions: list) -> Stream:
    items: list = []
    for inst in instructions:
        if inst.label:
            items.append(LabelDef(inst.label))
        items.extend(reference_translate_mnemonic(inst))
    return Stream(items)


# The modes each value role refuses.  None, a branch ref, is no value.
_REJECTED = {"src": {None, isa.MODE_PUSH},
             "dst": {None, isa.MODE_POP, isa.MODE_LIT},
             "mod": {None, isa.MODE_POP, isa.MODE_PUSH, isa.MODE_LIT}}


def reference_translate_mnemonic(inst: Instruction) -> list:
    """Encode one instruction into fresh stream items, checking its count,
    roles and targets operand by operand."""
    items: list = [LiteralByte(isa.OPCODES[inst.mnemonic], op_start=True)]
    if any(o.width for o in inst.operands):
        for o in inst.operands:
            items.extend(_reference_raw_items(o))
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
        if o.mode in _REJECTED[role]:
            raise AsmError(f"line {inst.line_no}: operand {_print_operand(o)!r} "
                           f"cannot be used as {role} of {inst.mnemonic}")
    if any(t.mode is not None for t in targets):
        raise AsmError(f"line {inst.line_no}: branch target must be a label")
    if inst.mnemonic == "BRN":
        header = isa.MODE_MEM2  # low nibble C: code address follows
    else:
        header = 0
        for pos, (o, _) in enumerate(value_ops):
            header |= o.mode << (4 * pos)
    items.append(LiteralByte(header))
    for o, _ in value_ops:
        items.extend(_reference_extension_items(o))
    for t in targets:
        items.append(LabelRef(t.symbol, relaxable=t.relaxable))
    return items


def _reference_extension_items(o) -> list:
    if o.mode < isa.MODE_MEM1:
        return []
    if o.mode == isa.MODE_MEM1:
        return [LiteralByte(o.value)]
    if o.mode == isa.MODE_MEM2:
        return [LiteralByte(o.value >> 8), LiteralByte(o.value & 0xFF)]
    if o.symbol is not None:
        return [LabelRef(o.symbol)]  # address literal, absolute 2 bytes
    return [LiteralByte(b) for b in encode_literal(o.value)]  # literal, offset


def _reference_raw_items(o) -> list:
    if not o.width:
        return [LabelRef(o.symbol, relaxable=o.relaxable)]
    return [LiteralByte(b) for b in o.value.to_bytes(o.width, "big")]


def reference_layout_and_resolve(stream: Stream,
                                 origin: int = isa.DEFAULT_ORIGIN,
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
        addresses, symbols = _reference_measure(items, origin)
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


def _reference_measure(items: list, origin: int
                       ) -> tuple[list[int], dict[str, int]]:
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


def reference_resolve_stream(stream: Stream, layout: Layout) -> bytes:
    """Final byte image of the main stream, by isinstance tests."""
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


def reference_assemble_stream(text: str, origin: int = isa.DEFAULT_ORIGIN
                              ) -> tuple[Stream, Layout]:
    """asm.assemble_stream with nothing shared between lines: every
    line is parsed and encoded on its own, and every relaxation pass
    measures every item again."""
    stream = reference_translate_program(reference_parse_source(text))
    return stream, reference_layout_and_resolve(stream, origin)


# ---------------------------------------------------------------------------
# Instruction decoder that reads each extension through a helper call

# opcode -> (mnemonic, value operands, ends in a branch target)
_REF_SHAPES = {
    code: (name, sum(role != "target" for role in isa.SIGNATURES[name]),
           isa.SIGNATURES[name][-1:] == ("target",))
    for name, code in isa.OPCODES.items()
}


def decode_literal(data, pos: int) -> tuple[int, int]:
    """Inverse of asm.encode_literal at data[pos:]; returns (value, width)."""
    b0 = data[pos]
    if b0 >= 0x80:
        return b0 - 0x80, 1
    return (b0 << 8) | data[pos + 1], 2


def _reference_extension(buf, pos: int, mode: int) -> tuple:
    """Extension value of one operand, the position after it, and the
    reason a re-encoding would differ (None when canonical)."""
    if mode < isa.MODE_MEM1:  # register, indirect, pop and push modes
        return None, pos, None
    if mode == isa.MODE_MEM1:
        return buf[pos], pos + 1, None
    if mode == isa.MODE_MEM2:
        value = (buf[pos] << 8) | buf[pos + 1]
        return value, pos + 2, ("2-byte address under 0x100"
                                if value <= 0xFF else None)
    # literal, or the offset of an indexed operand
    b0 = buf[pos]
    if b0 >= 0x80:
        return b0 - 0x80, pos + 1, None
    value = (b0 << 8) | buf[pos + 1]
    return value, pos + 2, ("long-form literal under 0x80"
                            if value <= 0x7F else None)


def reference_decode(buf, pos: int, main_from: int, main_addr: int) -> tuple:
    """decode.decode with one _reference_extension call per operand."""
    op = buf[pos]
    shape = _REF_SHAPES.get(op)
    if shape is None:
        if op >= isa.MACRO_OPCODE_BASE and pos < main_from:
            raise DecodeError(f"macro opcode {op:#04x} inside a macro body")
        raise DecodeError(f"undefined opcode {op:#04x}")
    name, count, branch = shape
    if not count and not branch:
        return name, None, None, None, None, None, False, None, pos + 1
    header = buf[pos + 1]
    pos += 2
    mode1 = ext1 = mode2 = ext2 = target = noncanonical = None
    if count:
        mode1 = header & 0x0F
        ext1, pos, noncanonical = _reference_extension(buf, pos, mode1)
        if count == 2:
            mode2 = header >> 4
            ext2, pos, reason = _reference_extension(buf, pos, mode2)
            noncanonical = noncanonical or reason
        elif header >> 4:
            noncanonical = noncanonical or "stray high header nibble"
    elif header != isa.MODE_MEM2:
        noncanonical = "unexpected BRN header"
    short = False
    if branch:
        b = buf[pos]
        if b >= 0x80:
            if pos < main_from:
                raise DecodeError("short branch form inside a macro body")
            target = (main_addr + pos - main_from + 0xC0 - b) & 0xFFFF
            short = True
            pos += 1
        else:
            target = (b << 8) | buf[pos + 1]
            pos += 2
    return (name, mode1, ext1, mode2, ext2, target, short, noncanonical,
            pos)


# ---------------------------------------------------------------------------
# Listing that decodes and renders every unit on its own

def _reference_decode_run(buf, pos: int, main_from: int, main_addr: int
                          ) -> tuple:
    instrs = []
    while True:
        fields = reference_decode(buf, pos, main_from, main_addr)
        instrs.append(disasm._instr(fields[:-1]))
        pos = fields[-1]
        if pos >= main_from:
            return instrs, pos


def reference_decode_image(image) -> list[DecodedUnit]:
    """disasm.decode_image with a fresh DecodedInstr for every
    instruction of every unit."""
    if image.is_raw:
        raise DisasmError("raw container holds packed bytes, not a program")
    code, origin = image.code, image.origin
    bodies = [m.body for m in image.macros]
    units: list[DecodedUnit] = []
    pos = 0
    try:
        while pos < len(code):
            byte = code[pos]
            if byte < isa.MACRO_OPCODE_BASE:
                instrs, end = _reference_decode_run(code, pos, 0, origin)
                units.append(DecodedUnit(origin + pos, code[pos:end], instrs))
                pos = end
                continue
            idx = byte - isa.MACRO_OPCODE_BASE
            if idx >= len(bodies):
                raise DisasmError(f"unknown opcode {byte:#04x} at "
                                  f"{origin + pos:04X}")
            body = bodies[idx]
            instrs, end = _reference_decode_run(body + code[pos + 1:pos + 9],
                                                0, len(body), origin + pos + 1)
            end += pos + 1 - len(body)
            units.append(DecodedUnit(origin + pos, code[pos:end], instrs,
                                     macro_code=byte))
            pos = end
    except IndexError:
        raise DisasmError(f"truncated image: instruction at {origin + pos:04X}"
                          " runs past the end of code") from None
    except DecodeError as err:
        raise DisasmError(f"{err} at {origin + pos:04X}") from None
    return units


def _reference_hex(data: bytes) -> str:
    return " ".join(f"{b:02X}" for b in data)


def reference_render_listing(image, units: list | None = None) -> str:
    """disasm.render_listing with every line formatted on its own; units,
    when given, are reference_decode_image(image)."""
    if not image.code:
        return ""
    if units is None:
        units = reference_decode_image(image)
    width = 4 * 3 - 1
    lines = [f"origin {image.origin:04X}  entry {image.entry:04X}", ""]
    for unit in units:
        chunks = [_reference_hex(unit.main_bytes[i:i + 4])
                  for i in range(0, len(unit.main_bytes), 4)]
        flag = "***" if unit.is_macro else "   "
        text = " / ".join(i.text() for i in unit.instrs)
        lines.append(f"{unit.addr:04X}  {chunks[0]:<{width}}  {flag}  {text}")
        for chunk in chunks[1:]:
            lines.append(f"      {chunk:<{width}}")
    if image.macros:
        lines.append("")
        lines.append("macro table:")
        for m in image.macros:
            try:
                instrs, _ = _reference_decode_run(m.body, 0, len(m.body), 0)
                body_text = " / ".join(i.text() for i in instrs)
            except (IndexError, DecodeError):
                body_text = "(instruction prefix)"
            lines.append(f"  {m.code:02X}  len {len(m.body):<3d} "
                         f"{_reference_hex(m.body):<{width}}  {body_text}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Container reader and expansion, one field and one byte at a time

def reference_parse(blob: bytes) -> ObjectImage:
    """objfile.parse as it was before it read the header by offset: every
    header field and table entry through a reader call."""
    r = _Reader(blob)
    if r.take(4) != objfile.MAGIC:
        raise ObjectError("bad magic; not an MCRL container")
    version = r.u8()
    if version != objfile.VERSION:
        raise ObjectError(f"unsupported container version {version}")
    flags = r.u8()
    entry = r.u16()
    origin = r.u16()
    code_len = r.u16()
    if code_len == 0xFFFF:
        code_len = r.u32()
    code = r.take(code_len)
    table = []
    for _ in range(r.u8()):
        code_byte = r.u8()
        body = r.take(r.u8())
        table.append(MacroEntry(code_byte, body))
    if r.pos != len(blob):
        raise ObjectError(f"{len(blob) - r.pos} trailing byte(s) after "
                          "container payload")
    img = ObjectImage(code=code, origin=origin, entry=entry,
                      macros=table, flags=flags)
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


def reference_expand(residual: Sequence[int], table: Sequence[Macro],
                     limit: int = MAX_OUTPUT) -> bytes:
    """greedy.expand_macros as it was before it sized bodies with map:
    a generator per body and a fresh one-byte string per opcode."""
    size: dict[int, int] = {}
    for m in table:
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
    for m in reversed(table):
        out = out.replace(bytes([m.code]), m.body)
    return out


# ---------------------------------------------------------------------------
# Step-at-a-time reference interpreter

class _Fault(Exception):
    pass


def _ref_fetch(state) -> tuple:
    """Decode the next instruction and move pc and cursor past it."""
    memory = state.memory
    try:
        if state.cursor is None:
            pc = state.pc
            op = memory[pc]
            if op < isa.MACRO_OPCODE_BASE:
                instr = reference_decode(memory, pc, 0, 0)
                state.pc = instr[-1]
                return instr
            idx = op - isa.MACRO_OPCODE_BASE
            if idx >= len(state.macros):
                raise _Fault(f"undefined opcode {op:#04x}")
            off, resume = 0, pc + 1
            body = state.macros[idx]
            if body[0] >= isa.MACRO_OPCODE_BASE:
                raise _Fault(f"macro body begins with opcode {body[0]:#04x}")
        else:
            idx, off, resume = state.cursor
            body = state.macros[idx]
        left = len(body) - off
        instr = reference_decode(body[off:] + memory[resume:resume + 8], 0,
                                 left, resume)
    except IndexError:
        raise _Fault("fetch past the end of memory") from None
    except DecodeError as err:
        raise _Fault(str(err)) from None
    end = instr[-1]
    if end < left:
        state.cursor = (idx, off + end, resume)
        state.pc = resume
    else:
        state.cursor = None
        state.pc = resume + end - left
    return instr


def _ref_resolve(state, mode, ext) -> tuple:
    """(kind, where) of one operand, applying stack side effects now."""
    if mode <= isa.REG_XS:
        return "reg", mode
    if mode == isa.MODE_POP:
        addr = state.regs[isa.REG_XS]
        if addr + 2 > isa.DEFAULT_STACK_TOP:
            raise _Fault("stack underflow")
        state.regs[isa.REG_XS] = addr + 2
        return "mem", addr
    if mode == isa.MODE_PUSH:
        moved = state.regs[isa.REG_XS] - 2
        if moved < isa.DEFAULT_STACK_BOTTOM:
            raise _Fault("stack overflow")
        state.regs[isa.REG_XS] = moved
        return "mem", moved
    if mode == isa.MODE_LIT:
        return "lit", ext
    if mode in (isa.MODE_MEM1, isa.MODE_MEM2):
        return "mem", ext
    base = state.regs[isa.BASE_REG[mode]]
    return "mem", base if ext is None else base + ext


def _ref_read(state, loc) -> int:
    kind, where = loc
    if kind == "reg":
        return state.regs[where]
    if kind == "mem":
        where &= 0xFFFF
        return (state.memory[where] << 8) | state.memory[(where + 1) & 0xFFFF]
    return where


def _ref_write(state, loc, value) -> None:
    kind, where = loc
    value &= 0xFFFF
    if kind == "reg":
        state.regs[where] = value
    elif kind == "mem":
        where &= 0xFFFF
        state.memory[where] = value >> 8
        state.memory[(where + 1) & 0xFFFF] = value & 0xFF
    else:
        raise _Fault("write to a literal operand")


def _ref_step(state) -> bool:
    """Execute one instruction; True when it was HLT."""
    name, mode1, ext1, mode2, ext2, target, _, _, _ = _ref_fetch(state)
    if name in ("HLT", "NOP"):
        return name == "HLT"
    if name == "BRN":
        state.cursor, state.pc = None, target
        return False
    first = _ref_resolve(state, mode1, ext1)
    if name in ("BEQ", "BNE", "BLT"):
        a = _ref_read(state, first)
        b = _ref_read(state, _ref_resolve(state, mode2, ext2))
        if a == b if name == "BEQ" else a != b if name == "BNE" else a < b:
            state.cursor, state.pc = None, target
    elif name == "MOV":
        value = _ref_read(state, first)
        _ref_write(state, _ref_resolve(state, mode2, ext2), value)
    elif name in ("ADD", "SUB"):
        value = _ref_read(state, first)
        loc = _ref_resolve(state, mode2, ext2)
        old = _ref_read(state, loc)
        _ref_write(state, loc, old + value if name == "ADD" else old - value)
    elif name in ("ICV", "DCV"):
        old = _ref_read(state, first)
        _ref_write(state, first, old + 1 if name == "ICV" else old - 1)
    elif name == "ZER":
        _ref_write(state, first, 0)
    elif name == "LCW":
        xl = state.regs[isa.REG_XL]
        value = (state.memory[xl] << 8) | state.memory[(xl + 1) & 0xFFFF]
        state.regs[isa.REG_XL] = (xl + 2) & 0xFFFF
        _ref_write(state, first, value)
    elif name == "BRI":
        state.cursor, state.pc = None, _ref_read(state, first) & 0xFFFF
    elif name == "OUT":
        state.out_trace.append(_ref_read(state, first))
    else:
        raise AssertionError(f"unhandled mnemonic {name}")
    return False


def reference_run(state, fuel: int) -> tuple:
    """Run a freshly loaded machine state one re-decoded instruction at a
    time, as the interpreter did before it cached decoded entries.
    Returns (status, steps, trace, fault reason)."""
    for steps in range(1, fuel + 1):
        try:
            if _ref_step(state):
                return "halted", steps, list(state.out_trace), None
        except _Fault as fault:
            return "fault", steps, list(state.out_trace), str(fault)
    return "out-of-fuel", fuel, list(state.out_trace), None
