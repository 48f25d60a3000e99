"""Macro selection on the assembler's item stream.

The byte-level selectors (greedy, optimal) treat their input as an opaque
string, which is fine for raw payloads but unsafe for executable code: a
replacement landing between an opcode and its extension bytes would shift
what the processor decodes.  Stream selection works on the translated
item list instead.  Candidate runs start at instruction fetch positions
and carry label references by symbol, so every adopted macro expands to
the right bytes wherever the final layout lands.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import asm, isa
from .asm import LabelRef, LiteralByte, MacroByte, Stream
from .objfile import MacroEntry, ObjectImage
from .optimal import BudgetError, Occurrence, estimate_cost, exact_over_occurrences

MODES = ("greedy", "exact", "freq")


def _item_key(item):
    """Match key for one item, or None where no run may pass.

    Literals match by value and unrelaxed refs by symbol: two occurrences
    sit at different addresses, but the same symbol resolves to the same
    two bytes in both.  Relaxed refs encode an address-relative offset,
    label defs pin an address, and macro bytes must never nest, so all
    three end a run.
    """
    if isinstance(item, LiteralByte):
        return (0, item.value)
    if isinstance(item, LabelRef) and not item.relaxed:
        return (1, item.symbol)
    return None


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


def _at_boundary(items: list, j: int) -> bool:
    """True when position j (exclusive end) sits between instructions."""
    if j >= len(items):
        return True
    nxt = items[j]
    return getattr(nxt, "op_start", False) or isinstance(nxt, asm.LabelDef)


def extract_candidates(stream: Stream, max_len: int,
                       granularity: str = "free"
                       ) -> dict[tuple, list[StreamOccurrence]]:
    """Every candidate run of 2..max_len bytes, grouped by match key.

    A run starts where an opcode is fetched (the body is spliced into the
    fetch stream, so a macro byte anywhere else would be read as operand
    data) and may stop mid-instruction; the processor then finishes the
    instruction from the bytes after the macro byte.  A label definition
    at the start of a run needs no special case: it stays in the stream,
    where it ends up addressing the macro byte.

    granularity narrows where runs may end.  "free" allows any item
    boundary; "instruction" keeps runs inside a single instruction
    (whole instructions and their prefixes); "aligned" requires runs to
    cover whole instructions.  Occurrence lists come back in stream order.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    if granularity not in ("free", "instruction", "aligned"):
        raise ValueError(f"unknown granularity {granularity!r}")
    items = stream.items
    offsets = []
    pos = 0
    for it in items:
        offsets.append(pos)
        pos += asm.item_width(it)
    found: dict[tuple, list[StreamOccurrence]] = {}
    for i, it in enumerate(items):
        if not _starts_instruction(it):
            continue
        keys: list[tuple] = []
        width = 0
        for j in range(i, len(items)):
            nxt = items[j]
            if granularity == "instruction" and j > i and _starts_instruction(nxt):
                break
            k = _item_key(nxt)
            if k is None:
                break
            w = asm.item_width(nxt)
            if width + w > max_len:
                break
            width += w
            keys.append(k)
            if width >= 2 and (granularity != "aligned"
                               or _at_boundary(items, j + 1)):
                found.setdefault(tuple(keys), []).append(
                    StreamOccurrence(i, j + 1, offsets[i], width))
    return found


def _matches_at(items: list, i: int, key: tuple) -> bool:
    if i + len(key) > len(items) or not _starts_instruction(items[i]):
        return False
    return all(_item_key(items[i + t]) == key[t] for t in range(len(key)))


def substitute_stream(stream: Stream, key: tuple, code: int
                      ) -> tuple[Stream, list | None, int]:
    """Replace matches of key left to right, resuming after each one.

    Returns the new stream, the items removed by the first match (None if
    nothing matched), and the match count.
    """
    items = stream.items
    out: list = []
    body: list | None = None
    count = 0
    i = 0
    n = len(key)
    while i < len(items):
        if _matches_at(items, i, key):
            if body is None:
                body = list(items[i:i + n])
            out.append(MacroByte(code))
            count += 1
            i += n
        else:
            out.append(items[i])
            i += 1
    return Stream(out), body, count


def _packed_count(occs: list[StreamOccurrence]) -> int:
    # stream order plus equal lengths make left-to-right packing maximal
    count = 0
    free = 0
    for o in occs:
        if o.item_start >= free:
            count += 1
            free = o.item_end
    return count


@dataclass
class StreamMacro:
    code: int
    key: tuple
    items: list     # body items, exactly as removed from the stream
    byte_len: int


def _check_limits(max_macros: int, max_len: int) -> None:
    if not 1 <= max_macros <= isa.MAX_MACROS:
        raise ValueError(f"macro count must be 1..{isa.MAX_MACROS}")
    if max_len < 2:
        raise ValueError("max_len must be at least 2")


def select_greedy(stream: Stream, max_macros: int, max_len: int
                  ) -> tuple[Stream, list[StreamMacro]]:
    """Iterative best-first adoption over whole-instruction runs.

    Each round re-extracts candidates from the current stream, scores
    every key by its net saving f*(b-1) - b with f counted over
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
    _check_limits(max_macros, max_len)
    cur = stream
    adopted: list[StreamMacro] = []
    for granularity, defer_prefixes in (("aligned", False),
                                        ("instruction", True)):
        while len(adopted) < max_macros:
            nets: dict[tuple, tuple[int, int]] = {}
            for key, occs in extract_candidates(cur, max_len,
                                                granularity=granularity).items():
                b = occs[0].byte_len
                net = _packed_count(occs) * (b - 1) - b
                if net > 0:
                    nets[key] = (net, b)
            if not nets:
                break
            # in sorted order every extension of a key follows it, and
            # anything between them extends it too, so checking the next
            # key suffices; the last key is never deferred
            ordered = sorted(nets)
            best = None
            for idx, key in enumerate(ordered):
                if (defer_prefixes and idx + 1 < len(ordered)
                        and ordered[idx + 1][:len(key)] == key):
                    continue
                net, b = nets[key]
                rank = (-net, -b, key)
                if best is None or rank < best:
                    best = rank
            key = best[2]
            code = isa.MACRO_OPCODE_BASE + len(adopted)
            cur, body, _ = substitute_stream(cur, key, code)
            adopted.append(StreamMacro(code=code, key=key, items=body,
                                       byte_len=key_width(key)))
    return cur, adopted


def select_by_instruction_frequency(stream: Stream, max_macros: int,
                                    max_len: int) -> list[tuple]:
    """Rank single-instruction runs and their prefixes by saving.

    Keys are scored (b-1)*(f-1) - 1 from the flat occurrence count; runs
    confined to a single instruction cannot overlap, so that count is
    exactly what a sweep would replace if the key ran alone.  Returns up
    to max_macros keys with positive score, best first, longer bodies
    breaking ties.
    """
    _check_limits(max_macros, max_len)
    scored = []
    for key, occs in extract_candidates(stream, max_len,
                                        granularity="instruction").items():
        b = occs[0].byte_len
        score = (b - 1) * (len(occs) - 1) - 1
        if score > 0:
            scored.append((-score, -b, key))
    scored.sort()
    return [key for _, _, key in scored[:max_macros]]


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


def _apply_occurrences(stream: Stream,
                       picks: list[tuple[StreamOccurrence, int]]
                       ) -> tuple[Stream, dict[int, list]]:
    """Splice macro bytes over an explicit non-overlapping occurrence set."""
    items = stream.items
    out: list = []
    bodies: dict[int, list] = {}
    pos = 0
    for occ, code in sorted(picks, key=lambda p: p[0].item_start):
        assert occ.item_start >= pos
        out.extend(items[pos:occ.item_start])
        out.append(MacroByte(code))
        bodies.setdefault(code, list(items[occ.item_start:occ.item_end]))
        pos = occ.item_end
    out.extend(items[pos:])
    return Stream(out), bodies


def select_exact(stream: Stream, max_macros: int, max_len: int,
                 budget: int | None = None) -> tuple[Stream, list[StreamMacro]]:
    """Optimal macro set over the stream's candidate universe.

    The interval engine does the search: every stream occurrence becomes
    a vertex (weight b-1) whose content is its match key, with table cost
    taken from key_width.  Guarded by the same step estimate as byte-level
    exact selection; raises BudgetError when refused.

    Unlike the sweeping selectors this picks an explicit occurrence
    subset, so an adopted key may leave some of its matches in place.
    """
    _check_limits(max_macros, max_len)
    est = estimate_cost(stream.byte_size(), max_len, max_macros, budget=budget)
    if not est.approved:
        raise BudgetError(est)
    handle: dict[tuple[tuple, int], StreamOccurrence] = {}
    verts = []
    for key, occs in extract_candidates(stream, max_len).items():
        for o in occs:
            verts.append(Occurrence(content=key, start=o.byte_start,
                                    end=o.byte_start + o.byte_len - 1,
                                    weight=o.byte_len - 1))
            handle[(key, o.byte_start)] = o
    combo, chosen, obj = exact_over_occurrences(
        stream.byte_size(), verts, max_macros, body_cost=key_width)
    code_of = {key: isa.MACRO_OPCODE_BASE + i for i, key in enumerate(combo)}
    picks = [(handle[(o.content, o.start)], code_of[o.content]) for o in chosen]
    out, bodies = _apply_occurrences(stream, picks)
    macros = [StreamMacro(code=code_of[k], key=k, items=bodies[code_of[k]],
                          byte_len=key_width(k))
              for k in combo]
    assert out.byte_size() + sum(m.byte_len for m in macros) == obj
    return out, macros


def compact_stream(stream: Stream, mode: str, max_macros: int, max_len: int,
                   budget: int | None = None
                   ) -> tuple[Stream, list[StreamMacro]]:
    if mode == "greedy":
        return select_greedy(stream, max_macros, max_len)
    if mode == "freq":
        picked = select_by_instruction_frequency(stream, max_macros, max_len)
        # longest first, else a short key strands its extensions' tails
        picked.sort(key=lambda k: (-key_width(k), k))
        return apply_macro_set(stream, picked)
    if mode == "exact":
        return select_exact(stream, max_macros, max_len, budget=budget)
    raise ValueError(f"unknown mode {mode!r}")


def compact_source(text: str, mode: str = "greedy",
                   max_macros: int = isa.MAX_MACROS, max_len: int = 20,
                   origin: int = isa.DEFAULT_ORIGIN,
                   entry: int | str | None = None,
                   budget: int | None = None) -> tuple[ObjectImage, dict]:
    """Assemble source, select macros, emit an executable object.

    Returns (image, info); info carries the sizes and per-phase timings
    the reporting layer wants.  Branch relaxation runs once, before
    selection, and widths are frozen from then on so the accounting that
    justified each adoption holds exactly in the emitted image.  With
    max_macros == 0 the image is the plain assembly.
    """
    t0 = time.perf_counter()
    stream, layout = asm.assemble_stream(text, origin=origin)
    input_bytes = layout.size
    t1 = time.perf_counter()
    if max_macros == 0:
        out, macros = stream, []
    else:
        out, macros = compact_stream(stream, mode, max_macros, max_len,
                                     budget=budget)
    t2 = time.perf_counter()
    final = asm.layout_and_resolve(out, origin=origin, relax=False)
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
