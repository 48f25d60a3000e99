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

from . import asm, isa
from .asm import LabelRef, LiteralByte, MacroByte, Stream
from .objfile import MacroEntry, ObjectImage
from .optimal import BudgetError, Occurrence, estimate_cost, exact_over_occurrences

MODES = ("greedy", "exact", "freq")


def _starts_instruction(item) -> bool:
    return isinstance(item, LiteralByte) and item.op_start


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
_LITERAL_KEYS = {chr(v): (0, v) for v in range(0x100)}


def _signature(items: list) -> tuple[str, dict[str, tuple]]:
    """One character per item, equal exactly where match keys are equal.

    Literals match by value and unrelaxed refs by symbol: two occurrences
    sit at different addresses, but the same symbol resolves to the same
    two bytes in both.  Relaxed refs encode an address-relative offset,
    label defs pin an address, and macro bytes must never nest, so all
    three have no key and map to _STOP, which ends every run.

    A literal's character is its byte value and the symbols' follow
    _STOP in name order, so strings of characters sort, and prefix one
    another, exactly as the key tuples they stand for.  Runs are
    compared, hashed and ranked as string slices, far cheaper than
    tuples of keys.  Also returns the key of each character.
    """
    symbols = sorted({it.symbol for it in items
                      if isinstance(it, LabelRef) and not it.relaxed})
    char_of = {sym: chr(0x101 + i) for i, sym in enumerate(symbols)}
    chars = []
    for it in items:
        if isinstance(it, LiteralByte):
            chars.append(chr(it.value))
        elif isinstance(it, LabelRef) and not it.relaxed:
            chars.append(char_of[it.symbol])
        else:
            chars.append(_STOP)
    return "".join(chars), {**_LITERAL_KEYS,
                            **{c: (1, sym) for sym, c in char_of.items()}}


def _walk(items: list, sig: str, max_len: int, granularity: str):
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
    n = len(items)
    inside = granularity == "instruction"
    # joins[j]: a run begun before item j may take it in
    joins = [c != _STOP and not (inside and _starts_instruction(it))
             for c, it in zip(sig, items)] + [False]
    # run widths are differences of these offsets; _STOP items count 2
    # here, which is harmless because no run holds one
    offset = [0]
    for c in sig:
        offset.append(offset[-1] + (1 if c < _STOP else 2))
    ends = None
    if granularity == "aligned":
        ends = [j == n or items[j].op_start
                or isinstance(items[j], asm.LabelDef) for j in range(n + 1)]
    live = [i for i, it in enumerate(items) if _starts_instruction(it)]
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

    Runs are those of _walk at the given granularity.  Occurrence lists
    come back in stream order.
    """
    items = stream.items
    sig, key_of = _signature(items)
    offsets = [0]
    for it in items:
        offsets.append(offsets[-1] + asm.item_width(it))
    found: dict[str, list[StreamOccurrence]] = {}
    for t, starts in _walk(items, sig, max_len, granularity):
        for i in starts:
            found.setdefault(sig[i:i + t], []).append(StreamOccurrence(
                i, i + t, offsets[i], offsets[i + t] - offsets[i]))
    return {tuple(key_of[c] for c in s): occs for s, occs in found.items()}


def profitable_keys(stream: Stream, max_len: int, granularity: str
                    ) -> tuple[dict[str, tuple[int, int]], dict[str, tuple]]:
    """Every key whose net saving f*(b-1) - b is positive, b being its
    width in bytes, as signature string -> (net, b), and the key of each
    signature character (see _signature).

    f counts non-overlapping occurrences leftmost-greedy, as
    substitute_stream replaces them: the walk yields one item count's
    runs in stream order, so a run counts when it starts at or after the
    end of the last counted run of the same key.  Each item count's
    tallies are dropped once that count is done.
    """
    items = stream.items
    sig, key_of = _signature(items)
    nets: dict[str, tuple[int, int]] = {}
    for t, starts in _walk(items, sig, max_len, granularity):
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
    return nets, key_of


def rank_keys(counted: tuple[dict[str, tuple[int, int]], dict[str, tuple]],
              limit: int, defer_prefixes: bool = False) -> list[tuple]:
    """Up to limit keys counted by profitable_keys, best first: the larger
    net saving, then the longer body, then the smaller key.

    With defer_prefixes a key that strictly prefixes another profitable
    key is passed over: the extension's leftovers are still there for
    the short key next round, while the short key would strand the
    extension's tail bytes for good.
    """
    nets, key_of = counted
    keys = list(nets)
    if defer_prefixes:
        # in sorted order every extension of a key follows it, and
        # anything between them extends it too, so checking the next
        # key suffices; the last key is never deferred
        ordered = sorted(nets)
        keys = [k for k, nxt in zip(ordered, ordered[1:] + [""])
                if nxt[:len(k)] != k]
    best = heapq.nsmallest(limit, keys,
                           key=lambda k: (-nets[k][0], -nets[k][1], k))
    return [tuple(key_of[c] for c in s) for s in best]


def substitute_stream(stream: Stream, key: tuple, code: int
                      ) -> tuple[Stream, list | None, int]:
    """Replace matches of key left to right, resuming after each one.

    A match starts at an instruction fetch position.  Returns the new
    stream, the items removed by the first match (None if nothing
    matched), and the match count.
    """
    items = stream.items
    sig, key_of = _signature(items)
    char_of = {k: c for c, k in key_of.items()}
    out: list = []
    hits: list[int] = []
    pos = 0
    pattern = None
    if all(k in char_of for k in key):
        pattern = "".join(char_of[k] for k in key)
    hit = sig.find(pattern) if pattern else -1
    while hit >= 0:
        if _starts_instruction(items[hit]):
            out += items[pos:hit]
            out.append(MacroByte(code))
            hits.append(hit)
            pos = hit + len(key)
        hit = sig.find(pattern, max(pos, hit + 1))
    out += items[pos:]
    body = items[hits[0]:hits[0] + len(key)] if hits else None
    return Stream(out), body, len(hits)


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
    cur = stream
    adopted: list[StreamMacro] = []
    for granularity, defer_prefixes in (("aligned", False),
                                        ("instruction", True)):
        while len(adopted) < max_macros:
            best = rank_keys(profitable_keys(cur, max_len, granularity), 1,
                             defer_prefixes)
            if not best:
                break
            key = best[0]
            code = isa.MACRO_OPCODE_BASE + len(adopted)
            cur, body, _ = substitute_stream(cur, key, code)
            adopted.append(StreamMacro(code=code, key=key, items=body,
                                       byte_len=key_width(key)))
    return cur, adopted


def select_by_instruction_frequency(stream: Stream, max_macros: int,
                                    max_len: int) -> list[tuple]:
    """Rank single-instruction runs and their prefixes by saving.

    Runs confined to a single instruction cannot overlap, so each key's
    count is exactly what a sweep would replace if the key ran alone.
    Returns up to max_macros keys with positive saving, best first.
    """
    check_limits(max_macros, max_len)
    return rank_keys(profitable_keys(stream, max_len, "instruction"),
                     max_macros)


def apply_macro_set(stream: Stream, bodies: list[tuple]
                    ) -> tuple[Stream, list[StreamMacro]]:
    """Adopt candidate keys in the order given, opcodes assigned densely.

    Keys come from extract_candidates on this stream, so none can name a
    macro byte.  An earlier key may consume a later one's matches; a key
    whose remaining matches no longer pay for its table entry is passed
    over entirely rather than kept as dead weight, so every entry in the
    result saves bytes.  Skipping leaves the stream untouched, which is
    what keeps a single pass exact.
    """
    if len(bodies) > isa.MAX_MACROS:
        raise ValueError(f"macro set needs {len(bodies)} opcodes, "
                         f"only {isa.MAX_MACROS} exist")
    for key in bodies:
        if not key or any(k[0] not in (0, 1) for k in key):
            raise ValueError(f"malformed candidate key {key!r}")
    cur = stream
    adopted: list[StreamMacro] = []
    for key in bodies:
        code = isa.MACRO_OPCODE_BASE + len(adopted)
        nxt, body, count = substitute_stream(cur, key, code)
        b = key_width(key)
        if count * (b - 1) - b <= 0:
            continue  # adopting it now would grow the image
        cur = nxt
        adopted.append(StreamMacro(code=code, key=key, items=body, byte_len=b))
    return cur, adopted


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
    nets, key_of = profitable_keys(stream, max_len, "free")
    paying = {tuple(key_of[c] for c in s) for s in nets}
    by_key = {key: [Occurrence(content=key, start=o.item_start,
                               end=o.item_end - 1, weight=o.byte_len - 1)
                    for o in occs]
              for key, occs in extract_candidates(stream, max_len).items()
              if key in paying}
    combo, chosen, obj = exact_over_occurrences(stream.byte_size(), by_key,
                                                max_macros)
    code_of = {key: isa.MACRO_OPCODE_BASE + i for i, key in enumerate(combo)}
    items = stream.items
    out: list = []
    bodies: dict[tuple, list] = {}
    pos = 0
    for o in chosen:  # non-overlapping, in stream order
        out += items[pos:o.start]
        out.append(MacroByte(code_of[o.content]))
        bodies.setdefault(o.content, items[o.start:o.end + 1])
        pos = o.end + 1
    out += items[pos:]
    macros = [StreamMacro(code=code_of[k], key=k, items=bodies[k],
                          byte_len=key_width(k))
              for k in combo]
    out = Stream(out)
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
