"""Macro selection on the assembler's item stream.

Treating executable code as an opaque string is unsafe: a replacement
landing between an opcode and its extension bytes would shift what the
processor decodes.  Stream selection works on the translated item list
instead.  Candidate runs start at instruction fetch positions and carry
label references by symbol, so every adopted macro expands to the right
bytes wherever the final layout lands.  Raw byte strings (greedy) use
the same selectors on a stream in which every byte starts an
instruction.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from itertools import accumulate

from . import asm, isa
from .asm import LabelRef, LiteralByte, MacroByte, Stream
from .objfile import MacroEntry, ObjectImage
from .optimal import BudgetError, Occurrence, estimate_cost, exact_over_occurrences

MODES = ("greedy", "exact", "freq")


def key_width(key: tuple) -> int:
    """Assembled byte length of a run with this match key."""
    return sum(1 if k[0] == 0 else 2 for k in key)


@dataclass(frozen=True)
class StreamOccurrence:
    item_start: int
    item_end: int    # exclusive
    byte_start: int  # offset from the stream's first byte, widths frozen
    byte_len: int


_STOP = "\u0100"  # signature character of every item that ends a run
_START, _BOUNDARY, _OTHER = "s", "b", "-"  # item marks, see Lowered


def _lower_item(it, char_of: dict[str, str]) -> tuple[str, str]:
    """The signature character and the mark of one item."""
    if isinstance(it, LiteralByte):
        return chr(it.value), _START if it.op_start else _OTHER
    if isinstance(it, LabelRef):
        return _STOP if it.relaxed else char_of[it.symbol], _OTHER
    return _STOP, _BOUNDARY  # a macro byte or a label def


@dataclass
class Lowered:
    """A stream lowered once for selection, kept in step by splice.

    sig has one character per item, equal exactly where match keys are
    equal.  Literals match by value and unrelaxed refs by symbol: two
    occurrences sit at different addresses, but the same symbol resolves
    to the same two bytes in both.  Relaxed refs encode an
    address-relative offset, label defs pin an address, and macro bytes
    must never nest, so all three have no key and map to _STOP, which
    ends every run.  A literal's character is its byte value and symbol
    i of the sorted symbols has chr(0x101 + i), so strings of characters
    sort, and prefix one another, exactly as the key tuples they stand
    for.  Runs are compared, hashed and ranked as string slices.

    marks has one mark per item: _START for a literal where an
    instruction is fetched, _BOUNDARY for a macro byte or a label def,
    _OTHER for the rest.  Runs start only at _START; whole-instruction
    runs end before a _START or a _BOUNDARY.  Counting and matching read
    only sig and marks, never the item types.
    """
    items: list
    sig: str
    marks: str
    symbols: list[str]

    def key(self, s: str) -> tuple:
        """The match key tuple a signature string stands for."""
        return tuple((0, ord(c)) if c < _STOP
                     else (1, self.symbols[ord(c) - 0x101]) for c in s)

    def splice(self, cuts: list[tuple]) -> Lowered:
        """Replace each span (start, end, item) of items by that item;
        spans come in stream order and do not overlap."""
        items, sig, marks = [], [], []
        pos = 0
        for start, end, item in cuts:
            c, m = _lower_item(item, {})
            items += self.items[pos:start]
            items.append(item)
            sig += (self.sig[pos:start], c)
            marks += (self.marks[pos:start], m)
            pos = end
        items += self.items[pos:]
        return Lowered(items, "".join(sig) + self.sig[pos:],
                       "".join(marks) + self.marks[pos:], self.symbols)


def lower(items: list) -> Lowered:
    """Lower stream items for selection; symbols are numbered in name
    order."""
    symbols = sorted({it.symbol for it in items
                      if isinstance(it, LabelRef) and not it.relaxed})
    char_of = {sym: chr(0x101 + i) for i, sym in enumerate(symbols)}
    lowered = [_lower_item(it, char_of) for it in items]
    return Lowered(items, "".join(c for c, _ in lowered),
                   "".join(m for _, m in lowered), symbols)


def _walk(low: Lowered, max_len: int, granularity: str):
    """The candidate runs of 2..max_len bytes, one item count at a time.

    A run starts where an opcode is fetched (the body is spliced into the
    fetch stream, so a macro byte anywhere else would be read as operand
    data) and may stop mid-instruction; the processor then finishes the
    instruction from the bytes after the macro byte.  It takes in only
    items with a match key.  A label definition at the start of a run
    needs no special case: it stays in the stream, where it ends up
    addressing the macro byte.

    granularity narrows where runs may end.  "free" allows any item
    boundary; "instruction" keeps runs inside a single instruction
    (whole instructions and their prefixes); "aligned" requires runs to
    cover whole instructions.

    Yields (t, starts) for t = 2, 3, ...: the first item of every run of
    t items that may end there, in stream order.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    if granularity not in ("free", "instruction", "aligned"):
        raise ValueError(f"unknown granularity {granularity!r}")
    sig, marks = low.sig, low.marks
    inside = granularity == "instruction"
    # joins[j]: a run begun before item j may take it in
    joins = [c != _STOP and not (inside and m == _START)
             for c, m in zip(sig, marks)] + [False]
    # run widths are differences of these offsets; _STOP items count 2
    # here, which is harmless because no run holds one
    offset = [0, *accumulate(1 if c < _STOP else 2 for c in sig)]
    ends = ([m != _OTHER for m in marks] + [True]
            if granularity == "aligned" else None)
    live = [i for i, m in enumerate(marks) if m == _START]
    t = 1
    while live:
        live = [i for i in live if joins[i + t]
                and offset[i + t + 1] - offset[i] <= max_len]
        t += 1
        starts = live if ends is None else [i for i in live if ends[i + t]]
        if starts:
            yield t, starts


def _occurrences(low: Lowered, max_len: int, granularity: str
                 ) -> dict[str, list[StreamOccurrence]]:
    offsets = [0, *accumulate(map(asm.item_width, low.items))]
    found: dict[str, list[StreamOccurrence]] = {}
    for t, starts in _walk(low, max_len, granularity):
        for i in starts:
            found.setdefault(low.sig[i:i + t], []).append(StreamOccurrence(
                i, i + t, offsets[i], offsets[i + t] - offsets[i]))
    return found


def profitable_keys(low: Lowered, max_len: int, granularity: str
                    ) -> dict[str, tuple[int, int]]:
    """Every key whose net saving f*(b-1) - b is positive, b being its
    width in bytes, as signature string -> (net, b).

    f counts non-overlapping occurrences leftmost-greedy, as
    substitute_stream replaces them: the walk yields one item count's
    runs in stream order, so a run counts when it starts at or after the
    end of the last counted run of the same key.  Each item count's
    tallies are dropped once that count is done.
    """
    sig = low.sig
    nets: dict[str, tuple[int, int]] = {}
    for t, starts in _walk(low, max_len, granularity):
        free: dict[str, int] = {}
        count: dict[str, int] = {}
        for i in starts:
            s = sig[i:i + t]
            if free.get(s, 0) <= i:
                count[s] = count.get(s, 0) + 1
                free[s] = i + t
        for s, f in count.items():
            if f > 1:
                b = t + sum(c > _STOP for c in s)  # refs are two bytes wide
                if f * (b - 1) > b:
                    nets[s] = (f * (b - 1) - b, b)
    return nets


def rank_keys(nets: dict[str, tuple[int, int]], limit: int,
              defer_prefixes: bool = False) -> list[str]:
    """Up to limit keys counted by profitable_keys, best first: the larger
    net saving, then the longer body, then the smaller key.

    With defer_prefixes a key that strictly prefixes another profitable
    key is passed over: the extension's leftovers are still there for
    the short key next round, while the short key would strand the
    extension's tail bytes for good.
    """
    keys = list(nets)
    if defer_prefixes:
        # in sorted order every extension of a key follows it, and
        # anything between them extends it too, so checking the next
        # key suffices; the last key is never deferred
        ordered = sorted(nets)
        keys = [k for k, nxt in zip(ordered, ordered[1:] + [""])
                if nxt[:len(k)] != k]
    return heapq.nsmallest(limit, keys,
                           key=lambda k: (-nets[k][0], -nets[k][1], k))


def substitute_stream(low: Lowered, pattern: str, item
                      ) -> tuple[Lowered, list | None, int]:
    """Replace matches of a signature string by item, left to right,
    resuming after each one.

    A match starts at an instruction fetch position.  Returns the new
    state, the items removed by the first match (None if nothing
    matched), and the match count.
    """
    cuts = []
    pos = 0
    hit = low.sig.find(pattern)
    while hit >= 0:
        if low.marks[hit] == _START:
            pos = hit + len(pattern)
            cuts.append((hit, pos, item))
        hit = low.sig.find(pattern, max(pos, hit + 1))
    body = low.items[cuts[0][0]:cuts[0][1]] if cuts else None
    return low.splice(cuts), body, len(cuts)


@dataclass
class StreamMacro:
    code: int
    key: tuple
    items: list     # body items, exactly as removed from the stream
    byte_len: int


def check_limits(max_macros: int, max_len: int) -> None:
    """The limits every selector checks before it does any work."""
    if not 1 <= max_macros <= isa.MAX_MACROS:
        raise ValueError(f"macro count must be 1..{isa.MAX_MACROS}")
    if not 2 <= max_len <= isa.MAX_BODY_BYTES:
        raise ValueError(f"max_len must be 2..{isa.MAX_BODY_BYTES}")


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
    profitable key (see rank_keys).  Stage one must not do this; there
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
            nets = profitable_keys(cur, max_len, granularity)
            best = rank_keys(nets, 1, defer_prefixes)
            if not best:
                break
            code = isa.MACRO_OPCODE_BASE + len(adopted)
            cur, body, _ = substitute_stream(cur, best[0], MacroByte(code))
            adopted.append(StreamMacro(code=code, key=cur.key(best[0]),
                                       items=body, byte_len=nets[best[0]][1]))
    return Stream(cur.items), adopted


def select_by_instruction_frequency(stream: Stream, max_macros: int,
                                    max_len: int) -> list[tuple]:
    """Rank single-instruction runs and their prefixes by saving.

    Runs confined to a single instruction cannot overlap, so each key's
    count is exactly what a sweep would replace if the key ran alone.
    Returns up to max_macros keys with positive saving, best first.
    """
    check_limits(max_macros, max_len)
    low = lower(stream.items)
    return [low.key(s) for s in rank_keys(
        profitable_keys(low, max_len, "instruction"), max_macros)]


def apply_macro_set(stream: Stream, bodies: list[tuple]
                    ) -> tuple[Stream, list[StreamMacro]]:
    """Adopt candidate keys in the order given, opcodes assigned densely.

    Keys are match keys of runs on this stream, as the selectors return
    them, so none can name a macro byte.  An earlier key may consume a
    later one's matches; a key whose remaining matches no longer pay for
    its table entry is passed over entirely rather than kept as dead
    weight, so every entry in the result saves bytes.  Skipping leaves
    the stream untouched, which is what keeps a single pass exact.
    """
    if len(bodies) > isa.MAX_MACROS:
        raise ValueError(f"macro set needs {len(bodies)} opcodes, "
                         f"only {isa.MAX_MACROS} exist")
    for key in bodies:
        if not key or any(k[0] not in (0, 1) for k in key):
            raise ValueError(f"malformed candidate key {key!r}")
    cur = lower(stream.items)
    char_of = {(0, v): chr(v) for v in range(0x100)}
    char_of.update(((1, sym), chr(0x101 + i))
                   for i, sym in enumerate(cur.symbols))
    adopted: list[StreamMacro] = []
    for key in bodies:
        if not all(k in char_of for k in key):
            continue  # nothing in this stream matches it
        code = isa.MACRO_OPCODE_BASE + len(adopted)
        nxt, body, count = substitute_stream(
            cur, "".join(char_of[k] for k in key), MacroByte(code))
        b = key_width(key)
        if count * (b - 1) - b <= 0:
            continue  # adopting it now would grow the image
        cur = nxt
        adopted.append(StreamMacro(code=code, key=key, items=body, byte_len=b))
    return Stream(cur.items), adopted


def select_exact(stream: Stream, max_macros: int, max_len: int
                 ) -> tuple[Stream, list[StreamMacro]]:
    """Optimal macro set over the stream's paying keys.

    The interval engine does the search.  Its universe is the keys that
    profitable_keys finds paying on their own, since no optimum holds
    any other (see optimal.exact_over_occurrences); every occurrence of
    one becomes a vertex of weight b-1 spanning its items.  Guarded by
    the same step estimate as byte-level exact selection; raises
    BudgetError when refused.

    Unlike the sweeping selectors this picks an explicit occurrence
    subset, so an adopted key may leave some of its matches in place.
    """
    check_limits(max_macros, max_len)
    est = estimate_cost(stream.byte_size(), max_len, max_macros)
    if not est.approved:
        raise BudgetError(est)
    low = lower(stream.items)
    nets = profitable_keys(low, max_len, "free")
    by_key = {s: [Occurrence(content=s, start=o.item_start,
                             end=o.item_end - 1, weight=o.byte_len - 1)
                  for o in occs]
              for s, occs in _occurrences(low, max_len, "free").items()
              if s in nets}
    combo, chosen, obj = exact_over_occurrences(stream.byte_size(), by_key,
                                                max_macros)
    code_of = {s: isa.MACRO_OPCODE_BASE + i for i, s in enumerate(combo)}
    # chosen occurrences are non-overlapping and in stream order
    out = Stream(low.splice([(o.start, o.end + 1, MacroByte(code_of[o.content]))
                             for o in chosen]).items)
    macros = [StreamMacro(code=code_of[s], key=low.key(s), byte_len=nets[s][1],
                          items=next(low.items[o.start:o.end + 1]
                                     for o in chosen if o.content == s))
              for s in combo]
    assert out.byte_size() + sum(m.byte_len for m in macros) == obj
    return out, macros


def compact_stream(stream: Stream, mode: str, max_macros: int, max_len: int
                   ) -> tuple[Stream, list[StreamMacro]]:
    if mode == "greedy":
        return select_greedy(stream, max_macros, max_len)
    if mode == "freq":
        picked = select_by_instruction_frequency(stream, max_macros, max_len)
        # longest first, else a short key strands its extensions' tails
        picked.sort(key=lambda k: (-key_width(k), k))
        return apply_macro_set(stream, picked)
    if mode == "exact":
        return select_exact(stream, max_macros, max_len)
    raise ValueError(f"unknown mode {mode!r}")


# Marks a hex entry in the stream; not a valid label, so it clashes with none.
_ENTRY_PIN = asm.LabelDef("(entry)")


def _pin_entry(stream: Stream, layout: asm.Layout, entry: int) -> None:
    """Put the entry marker before the instruction that starts at the
    plain-code address entry.  A label ends every macro run, so that
    instruction stays a start through selection, wherever it moves."""
    asm.resolve_entry(layout, entry)
    for i, (item, addr) in enumerate(zip(stream.items, layout.addresses)):
        if addr == entry and item.op_start:
            stream.items.insert(i, _ENTRY_PIN)
            return
    raise asm.LayoutError(f"entry {entry:#06x} is not the start of an "
                          "instruction")


def compact_source(text: str, mode: str = "greedy",
                   max_macros: int = isa.MAX_MACROS, max_len: int = 20,
                   origin: int = isa.DEFAULT_ORIGIN,
                   entry: int | str | None = None) -> tuple[ObjectImage, dict]:
    """Assemble source, select macros, emit an executable object.

    Returns (image, info); info carries the sizes and per-phase timings
    the reporting layer wants.  Branch relaxation runs once, before
    selection, and widths are frozen from then on so the accounting that
    justified each adoption holds exactly in the emitted image.  With
    max_macros == 0 the image is the plain assembly.  A hex entry is an
    instruction address of the plain assembly; the image enters at that
    instruction wherever selection moves it.
    """
    if max_macros:
        check_limits(max_macros, max_len)
    t0 = time.perf_counter()
    stream, layout = asm.assemble_stream(text, origin=origin)
    input_bytes = layout.size
    pinned = isinstance(entry, int)
    if pinned:
        _pin_entry(stream, layout, entry)
    t1 = time.perf_counter()
    if max_macros == 0:
        out, macros = stream, []
    else:
        out, macros = compact_stream(stream, mode, max_macros, max_len)
    t2 = time.perf_counter()
    if pinned:  # no label may name the entry: it can lie past LABEL_LIMIT
        at = out.items.index(_ENTRY_PIN)
        del out.items[at]
    final = asm.layout_and_resolve(out, origin=origin, relax=False)
    if pinned:
        entry = final.addresses[at]
    code = asm.resolve_stream(out, final)
    entries = [MacroEntry(code=m.code, body=asm.bake_body(m.items, final))
               for m in macros]
    image = ObjectImage(code=code, origin=origin,
                        entry=asm.resolve_entry(final, entry), macros=entries)
    image.validate()
    t3 = time.perf_counter()
    table_bytes = sum(len(e.body) for e in entries)
    # adopted macros must pay for themselves; equality only without any
    if entries:
        assert len(code) + table_bytes < input_bytes
    else:
        assert len(code) == input_bytes
    info = {
        "input_bytes": input_bytes,
        "residual_bytes": len(code),
        "table_bytes": table_bytes,
        "macro_count": len(entries),
        "objective": len(code) + table_bytes,
        "elapsed": {"assemble": t1 - t0, "select": t2 - t1, "emit": t3 - t2},
    }
    return image, info
