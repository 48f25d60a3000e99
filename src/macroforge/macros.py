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
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat

from . import asm, isa
from .asm import LabelRef, LiteralByte, MacroByte, Stream
from .objfile import MacroEntry, ObjectImage
from .optimal import BudgetError, Occurrence, estimate_cost, exact_over_occurrences

MODES = ("greedy", "exact", "freq")


_STOP = "\u0100"  # signature character of every item that ends a run
_START, _BOUNDARY, _OTHER = "s", "b", "-"  # item marks, see Lowered


def _lower_item(it, char_of: dict[str, str]) -> tuple[str, str]:
    """The signature character and the mark of one item.  On a stream of
    pieces, the piece put in for a macro byte is [MacroByte], and it
    lowers as the macro byte does."""
    if isinstance(it, LiteralByte):
        return chr(it.value), _START if it.op_start else _OTHER
    if isinstance(it, LabelRef):
        return _STOP if it.relaxed else char_of[it.symbol], _OTHER
    return _STOP, _BOUNDARY  # a macro byte or a label def


@dataclass
class Lowered:
    """A stream lowered once for selection, kept in step by splice.

    sig has one character per item, and two runs match exactly where
    their signature strings are equal; the string is a run's match key.
    Literals match by value and unrelaxed refs by symbol: two
    occurrences sit at different addresses, but the same symbol resolves
    to the same two bytes in both.  Relaxed refs encode an
    address-relative offset, label defs pin an address, and macro bytes
    must never nest, so all three have no key and map to _STOP, which
    ends every run.  A literal's character is its byte value and symbol
    i of the sorted symbols has chr(0x101 + i), so keys sort literals
    first, by value, then refs by symbol name.  Runs are compared,
    hashed and ranked as string slices.

    marks has one mark per item: _START for a literal where an
    instruction is fetched, _BOUNDARY for a macro byte or a label def,
    _OTHER for the rest.  Runs start only at _START; whole-instruction
    runs end before a _START or a _BOUNDARY.  Counting and matching read
    only sig and marks, never the item types.

    All of this holds as well of a stream of pieces (see pieces), whose
    items are lists of items, most of them whole instructions; there
    widths gives each character's width in bytes.  It is None on a
    stream of items, where a character is one byte wide, or two for a
    ref (see _width).
    """
    items: list
    sig: str
    marks: str
    widths: dict[str, int] | None = None

    def splice(self, cuts: list[tuple]) -> Lowered:
        """Replace each span (start, end, item) of items by that item;
        spans come in stream order and do not overlap."""
        old_items, old_sig, old_marks = self.items, self.sig, self.marks
        items, sig, marks = [], [], []
        pos, last = 0, None  # runs of cuts often share their item
        for start, end, item in cuts:
            if item is not last:
                last, (c, m) = item, _lower_item(item, {})
            items += old_items[pos:start]
            items.append(item)
            sig += (old_sig[pos:start], c)
            marks += (old_marks[pos:start], m)
            pos = end
        items += old_items[pos:]
        return Lowered(items, "".join(sig) + old_sig[pos:],
                       "".join(marks) + old_marks[pos:], self.widths)

    @cached_property
    def pieces(self) -> Lowered | None:
        """The stream with one item per instruction, or None when the
        texts of its instructions are not prefix-free.

        The stream splits before every _START and every _BOUNDARY into
        pieces: an instruction, from a _START, or a macro byte or label
        def with what follows it.  Each piece becomes one item, the list
        of its items, and keeps the mark of its first item.  An
        instruction's text is its slice of sig; the texts are numbered in
        sorted order from chr(0x101), and widths holds their widths.  A
        text that holds _STOP, like every piece that is no instruction,
        maps to _STOP, so no run starts at or takes in such a piece.  A
        stream that starts mid-instruction has None.

        Prefix-free means that no text is a proper prefix of another,
        counting texts that hold _STOP.  Then a match of a run of whole
        instructions that starts at a _START ends where an instruction
        ends, so the runs of a key of pieces are the "aligned" runs of
        its key of items, whatever the granularity: the same walk finds
        them and the same Lowered.runs matches them, one instruction per
        character.  As the numbering keeps the order of the texts, keys
        of pieces sort as their keys of items do.  Raw-hex lines can
        break it: ZER 00, 01 begins with the text of ZER WA.
        """
        sig, marks, items = self.sig, self.marks, self.items
        if marks[:1] == _OTHER:  # a stream that starts mid-instruction
            return None
        at = [i for i, m in enumerate(marks) if m != _OTHER]
        at.append(len(sig))
        texts = [sig[a:b] for a, b in zip(at, at[1:])]
        # instruction texts start with a literal, other pieces with _STOP
        ordered = sorted(filter(_STOP.__gt__, set(texts)))
        if any(map(str.startswith, ordered[1:], ordered)):
            return None
        char_of = {x: _STOP if _STOP in x else chr(0x101 + i)
                   for i, x in enumerate(ordered)}
        pieces = "".join(map(char_of.get, texts, repeat(_STOP)))
        return Lowered([items[a:b] for a, b in zip(at, at[1:])],
                       pieces, marks.replace(_OTHER, ""),
                       {c: _width(x) for x, c in char_of.items()}
                       | {_STOP: 2})

    def runs(self, pattern: str, granularity: str) -> list[int]:
        """The first item of each run of key pattern at granularity,
        taken left to right: a match counts when it is a run and starts
        at or after the end of the last counted one.

        This is the one statement of the walk's run rule; pattern holds
        no _STOP, and width is the caller's concern.  A run starts at a
        _START.  At "free" it may end anywhere; at "aligned" it covers
        whole instructions, so it ends before a _START, a _BOUNDARY or
        the end of the stream.  Runs inside one instruction are read off
        the table of distinct instructions instead (see _instructions).
        """
        sig, marks, t, starts = self.sig, self.marks, len(pattern), []
        i = sig.find(pattern)
        while i >= 0:
            if marks[i] == _START and (granularity == "free"
                                       or marks[i + t:i + t + 1] != _OTHER):
                starts.append(i)
                i = sig.find(pattern, i + t)
            else:
                i = sig.find(pattern, i + 1)
        return starts


def lower(items: list) -> Lowered:
    """Lower stream items for selection; symbols are numbered in name
    order."""
    symbols = sorted({it.symbol for it in items
                      if type(it) is LabelRef and not it.relaxed})
    char_of = {sym: chr(0x101 + i) for i, sym in enumerate(symbols)}
    sig, marks = [], []
    # literals, nearly every item, and macro bytes, which stage one's
    # flattened pieces hold many of, inline
    for it in items:
        if type(it) is LiteralByte:
            sig.append(chr(it.value))
            marks.append(_START if it.op_start else _OTHER)
        elif type(it) is MacroByte:
            sig.append(_STOP)
            marks.append(_BOUNDARY)
        else:
            c, m = _lower_item(it, char_of)
            sig.append(c)
            marks.append(m)
    return Lowered(items, "".join(sig), "".join(marks))


def _walk(low: Lowered, max_len: int, granularity: str):
    """The candidate runs of 2..max_len bytes that may repeat, one item
    count at a time, on a stream of items or of pieces.

    A run starts where an opcode is fetched (the body is spliced into the
    fetch stream, so a macro byte anywhere else would be read as operand
    data) and may stop mid-instruction; the processor then finishes the
    instruction from the bytes after the macro byte.  It takes in only
    items with a match key.  A label definition at the start of a run
    needs no special case: it stays in the stream, where it ends up
    addressing the macro byte.

    granularity narrows where runs may end.  "free" allows any item
    boundary; "aligned" requires runs to cover whole instructions.  Runs
    kept inside one instruction are counted from the table of distinct
    instructions instead (see _instructions).  On pieces every item is a
    whole instruction (see Lowered.pieces), so both granularities give
    the "aligned" runs of the items, and a run of one piece may be a
    candidate too.

    Yields dicts that map the key of every run of t items, t = 2, 3, ...
    (from t = 1 on pieces), that may end there and whose key another run
    of t items shares to the first item of each such run, in stream
    order.  A start whose run of t items has a key of its own is dropped:
    every longer run from it has a key of its own too, so none can
    repeat.
    """
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    if granularity not in ("free", "aligned"):
        raise ValueError(f"unknown granularity {granularity!r}")
    sig, marks = low.sig, low.marks
    # run widths are differences of these offsets; _STOP counts 2 here,
    # which is harmless because no run holds one
    if low.widths is None:
        t, widths = 2, (1 if c < _STOP else 2 for c in sig)
    else:
        t, widths = 1, map(low.widths.__getitem__, sig)
    offset = [0, *accumulate(widths)]
    # joins[j]: a run begun before item j may take it in
    joins = [c != _STOP for c in sig] + [False]
    ends = ([m != _OTHER for m in marks] + [True]
            if granularity == "aligned" else None)
    live = [i for i, m in enumerate(marks) if m == _START
            and joins[i + t - 1] and offset[i + t] - offset[i] <= max_len]
    while live:
        keys = [sig[i:i + t] for i in live]
        seen = Counter(keys)
        runs: dict[str, list[int]] = defaultdict(list)
        longer = []  # the starts of runs of t + 1 items that may repeat
        for i, s in zip(live, keys):
            if seen[s] > 1:
                if ends is None or ends[i + t]:
                    runs[s].append(i)
                if joins[i + t] and offset[i + t + 1] - offset[i] <= max_len:
                    longer.append(i)
        del keys, seen  # not held across the yield
        if runs:
            yield runs
        live = longer
        t += 1


def _width(s: str, widths: dict[str, int] | None = None) -> int:
    """Byte width of the run a signature string stands for: the sum of
    widths over its characters on pieces; on items refs are two bytes
    wide, and they are the characters that latin-1 drops."""
    if widths:
        return sum(map(widths.__getitem__, s))
    return 2 * len(s) - len(s.encode("latin-1", "ignore"))


def _leftmost(starts: list[int], t: int) -> int:
    """How many of the t-item runs at starts (in stream order) a
    leftmost-greedy sweep takes: a run counts when it starts at or after
    the end of the last counted one."""
    f = free = 0
    for i in starts:
        if i >= free:
            f += 1
            free = i + t
    return f


def _instructions(low: Lowered, max_len: int) -> dict[str, list[int]]:
    """The table of distinct instructions: each instruction-granular
    slice of sig, mapped to the items where it starts, in stream order.

    A slice runs from a _START up to the next _START or _STOP, capped at
    max_len bytes.  The runs that stay inside one instruction are exactly
    the prefixes of 2 or more items of these slices, and two such runs
    never overlap, so a key's count is the sum of the occurrence counts
    of the slices it prefixes.  Slices of one item are kept too: a
    whole-stream match of a key may start there (see _adopt).
    """
    sig, marks = low.sig, low.marks
    at = [i for i, m in enumerate(marks) if m == _START]
    # no slice holds more than max_len items, so cut the raw text there
    raw: dict[str, list[int]] = defaultdict(list)
    for a, b in zip(at, [*at[1:], len(sig)]):
        raw[sig[a:b if b - a < max_len else a + max_len]].append(a)
    table: dict[str, list[int]] = {}
    for r, starts in raw.items():
        s = r.split(_STOP, 1)[0]
        while _width(s) > max_len:  # refs are two bytes wide
            s = s[:-1]
        table[s] = sorted(table[s] + starts) if s in table else starts
    return table


def _prefix_keys(table: dict[str, list[int]]
                 ) -> tuple[dict[str, tuple[int, int]], dict[str, list[int]]]:
    """The instruction-granular keys, from the table: each prefix of 2
    or more items of a slice runs wherever the slice starts.  Returns
    every key that pays as key -> (net, b), as profitable_keys gives the
    walk's keys, and every key's runs, not in stream order."""
    runs: dict[str, list[int]] = defaultdict(list)
    for s, starts in table.items():
        for t in range(2, len(s) + 1):
            runs[s[:t]] += starts
    return {k: (f * (b - 1) - b, b) for k, r in runs.items()
            if (f := len(r)) > 1 and f * ((b := _width(k)) - 1) > b}, runs


def _paying_runs(low: Lowered, max_len: int, granularity: str):
    """The walk's paying keys, at "free" or "aligned" granularity.

    Yields (key, f, b, runs) for every key whose net saving
    f*(b-1) - b is positive, b being its width in bytes, runs the first
    item of each run of _walk in stream order, and f their
    leftmost-greedy count, as Lowered.runs takes them.
    """
    for runs in _walk(low, max_len, granularity):
        for s, starts in runs.items():
            f, b = _leftmost(starts, len(s)), _width(s, low.widths)
            if f * (b - 1) > b:
                yield s, f, b, starts


def profitable_keys(low: Lowered, max_len: int, granularity: str
                    ) -> dict[str, tuple[int, int]]:
    """Every key whose net saving f*(b-1) - b is positive, as signature
    string -> (net, b), f being its leftmost-greedy run count on low at
    granularity, "free" or "aligned", and b its width in bytes.

    This is the walk's one net count (see _paying_runs); keys inside one
    instruction are counted from the table of distinct instructions (see
    _prefix_keys).
    """
    return {s: (f * (b - 1) - b, b)
            for s, f, b, _ in _paying_runs(low, max_len, granularity)}


def rank_keys(nets: dict[str, tuple[int, int]], limit: int) -> list[str]:
    """Up to limit keys of nets, key -> (net, b) as profitable_keys
    counts it, best first: the larger net saving, then the longer body,
    then the smaller key."""
    return heapq.nsmallest(limit, nets,
                           key=lambda k: (-nets[k][0], -nets[k][1], k))


def _exact_top(heap: list, done: int, recount) -> str | None:
    """The key on top of heap once its net is exact, left there, or
    None once no key pays.

    This is the one lazy-greedy rule (Minoux's accelerated greedy) of
    both stages of select_greedy and of greedy.greedy_select.  heap holds
    one entry (-net, -b, key, counted) per key that may pay, b being the
    key's width in bytes, net its saving f*(b-1) - b and counted the
    number of adoptions made when f was counted; done is that number
    now.  An adoption only removes runs (PayingKeys gives the runs an
    embedded literal makes new entries), and a leftmost-greedy count of
    equal-length runs never rises when runs go, so a stale net is an
    upper bound, and a key that stops paying never pays again.  A stale
    top is recounted, recount(key) giving its f now, and goes back with
    its new net while it pays, or is dropped.  Every other key's true
    entry then ranks at or below its stored one, so the first current
    top is the best key: the larger net saving, then the longer body,
    then the smaller key, as rank_keys ranks them.
    """
    while heap:
        _, b, s, counted = heap[0]
        if counted == done:
            return s
        net = recount(s) * (-b - 1) + b
        if net > 0:
            heapq.heapreplace(heap, (-net, b, s, done))
        else:
            heapq.heappop(heap)
    return None


class PayingKeys:
    """The keys that pay on a stream while it is substituted, one heap
    entry each, from which _exact_top picks the best.

    The stream is one of items or, for greedy's stage one, of pieces
    (see Lowered.pieces); counts, recounts and substitutions are the
    same on both.  One full count (the walk's, as profitable_keys counts
    it) fills the heap on the first call of best, and a recount is one
    Lowered.runs.  Put in as a macro byte, the replacement ends every
    run, so it only removes runs, and every entry stays an upper bound.
    A replacement put in as a literal (byte-level embedding) must be a
    character the stream does not hold, so the runs through it are new
    keys.  They are counted at insertion by the same count as the full
    count, run over the windows around the new literals only (see
    _count_new), and their entries are current until the next
    substitution.

    granularity is the walk's, "free" or "aligned".
    """

    def __init__(self, low: Lowered, max_len: int, granularity: str):
        self.low = low
        self.max_len = max_len
        self.granularity = granularity
        self.substitutions = 0
        self.heap: list | None = None
        self.held: set[str] = set()  # every character a heap key may hold

    def best(self) -> str | None:
        """The key rank_keys would rank first on a full count of the
        stream now, if any."""
        if self.heap is None:
            self.heap = [(f * (1 - b) + b, -b, s, 0) for s, f, b, _
                         in _paying_runs(self.low, self.max_len,
                                         self.granularity)]
            heapq.heapify(self.heap)
            self.held = set(self.low.sig)  # after the walk, off its peak
        return _exact_top(self.heap, self.substitutions, self._recount)

    def substitute(self, pattern: str, item) -> tuple[list | None, int]:
        """Replace by item every match of pattern at a fetch position,
        taken left to right, which makes every count stale.  Returns the
        items removed by the first match (None if nothing matched) and
        the match count.

        Every such match is replaced, whatever the granularity, so on
        raw-hex lines an "aligned" stage can replace more matches than
        it counted.
        """
        old, t = self.low, len(pattern)
        starts = old.runs(pattern, "free")
        self.low = old.splice([(a, a + t, item) for a in starts])
        self.substitutions += 1
        if isinstance(item, LiteralByte):
            # each replaced run before a start moved it t - 1 items down
            self._count_new([a - k * (t - 1) for k, a in enumerate(starts)],
                            chr(item.value))
        return (old.items[starts[0]:starts[0] + t] if starts else None,
                len(starts))

    def _recount(self, s: str) -> int:
        """Leftmost-greedy count of the runs of key s on the stream."""
        return len(self.low.runs(s, self.granularity))

    def _count_new(self, points: list[int], char: str) -> None:
        """Count the paying keys that hold char, the signature character
        of the items just put in at points (in stream order).

        The stream held no char just before, so every run of such a key
        lies in a window [p - max_len + 1, p + max_len + 1) around a
        point; the last item of a window is there only for the aligned
        end test.  Windows that touch are merged, and the rest are joined
        into one stream by a _STOP, which no run crosses.
        profitable_keys over that stream, the full count's own count,
        sees every run of these keys in stream order, and two of them
        overlap there exactly when they overlap in the stream, so the
        nets it gives the keys that hold char are exact.  A char the
        stream held earlier, and then lost to substitutions, may have
        left entries of such keys behind; they go first, so that each
        key keeps one entry.
        """
        low, reach, cuts = self.low, self.max_len, []
        for p in points:
            a, e = max(p - reach + 1, 0), min(p + reach + 1, len(low.sig))
            if cuts and a <= cuts[-1][1]:
                cuts[-1][1] = e
            else:
                cuts.append([a, e])
        windows = Lowered([], _STOP.join(low.sig[a:e] for a, e in cuts),
                          _BOUNDARY.join(low.marks[a:e] for a, e in cuts))
        nets = profitable_keys(windows, reach, self.granularity)
        if char in self.held:
            self.heap = [e for e in self.heap if char not in e[2]]
            heapq.heapify(self.heap)
        self.held.add(char)
        for s, (net, b) in nets.items():
            if char in s:
                heapq.heappush(self.heap, (-net, -b, s, self.substitutions))


@dataclass
class StreamMacro:
    code: int
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

    Each round scores every key on the current stream by its net saving
    f*(b-1) - b with f counted over non-overlapping occurrences, adopts
    the best positive one, and replaces its matches before the next
    round counts.  Ties fall to the longer body, then the smaller key.

    Selection runs coarse to fine.  The first stage admits only
    instruction-aligned runs: a mid-instruction prefix pools the counts
    of every instruction sharing it, so it outscores each full
    instruction, yet adopting it strands the extension bytes behind the
    macro byte where no later candidate can reach them.  Stage one
    counts the walk once and then recounts a key only when it reaches
    the top of the heap of PayingKeys (see _exact_top).  It works on the
    stream's pieces, one per instruction (see Lowered.pieces), or, where
    raw-hex lines make an instruction's text a proper prefix of
    another's, on pieces of one item each.  Either way the same walk,
    recount and splice do the work, each adoption puts in a piece that
    holds the macro byte, and the pieces are flattened back into items
    at the end.  Once no aligned run pays, a second stage
    admits prefixes to mop up instructions whose full forms were too
    rare to adopt (see _stage_two).

    Stage two defers any profitable key that strictly prefixes another
    profitable key: the extension's leftovers are still there for the
    short key next round, while the short key would strand the
    extension's tail bytes for good.  Stage one must not; there the
    prefix relation pits a high-count instruction against every
    barely-profitable longer run it starts, and deferring to those
    fragments the stream and squanders the opcode space on long bodies.
    """
    check_limits(max_macros, max_len)
    low = lower(stream.items)
    keys = PayingKeys(low.pieces or Lowered([[it] for it in low.items],
                                            low.sig, low.marks),
                      max_len, "aligned")
    adopted: list[StreamMacro] = []
    while len(adopted) < max_macros and (best := keys.best()) is not None:
        code = isa.MACRO_OPCODE_BASE + len(adopted)
        body, _ = keys.substitute(best, [MacroByte(code)])  # a piece too
        adopted.append(StreamMacro(code=code,
                                   byte_len=_width(best, keys.low.widths),
                                   items=list(chain.from_iterable(body))))
    items = list(chain.from_iterable(keys.low.items))
    if len(adopted) == max_macros:  # no stage two, so no table to build
        return Stream(items), adopted
    return _stage_two(lower(items), max_macros, max_len, adopted), adopted


def _stage_two(low: Lowered, max_macros: int, max_len: int,
               adopted: list[StreamMacro]) -> Stream:
    """select_greedy's stage two on stage one's stream: adopt the best
    instruction-granular key that no paying key strictly extends, until
    max_macros are adopted or no key pays, then splice once.

    The table of distinct instructions gives each key's net and runs,
    which never overlap (see _instructions).  _exact_top picks the best
    key, recounting a stale one from its runs whose start no cut has
    covered.  That key is set aside for this pick while a paying key
    strictly extends it, and is otherwise adopted, taking its matches as
    select_freq's keys do (see _adopt); the keys set aside then go back
    on the heap.
    """
    table = _instructions(low, max_len)
    nets, runs_of = _prefix_keys(table)
    heap = [(-net, -b, s, len(adopted)) for s, (net, b) in nets.items()]
    heapq.heapify(heap)
    gone, cuts, aside = set(), [], []

    def count(s: str) -> int:
        """How many runs of key s no cut has covered."""
        return sum(a not in gone for a in runs_of[s])

    while len(adopted) < max_macros and (
            s := _exact_top(heap, len(adopted), count)) is not None:
        top = heapq.heappop(heap)
        if any(e != s and e.startswith(s) and count(e) * (b - 1) > b
               for e, (_, b) in nets.items()):
            aside.append(top)
        else:
            cuts += _adopt([s], low, table, nets, runs_of, gone, adopted)
            while aside:
                heapq.heappush(heap, aside.pop())
    cuts.sort()
    return Stream(low.splice(cuts).items)


def _adopt(keys: list[str], low: Lowered, table: dict, nets: dict,
           runs_of: dict, gone: set[int], adopted: list) -> list[tuple]:
    """Adopt each of keys in turn as the next macro, over the matches
    that a left-to-right sweep of the stream would replace, unless they
    no longer pay for its table entry.  Returns the cuts (start, end,
    macro byte) that replace them, in no set order.

    This is the one adoption step of both selectors that read the table
    of distinct instructions.  low is the stream before any cut, table
    that table, nets and runs_of the keys as _prefix_keys gives them,
    and gone holds every instruction start that an earlier cut covers.
    Whole instructions and their prefixes cannot overlap, so the sweep
    takes every run whose start is not gone and, on raw-hex lines, the
    matches that run past an instruction end (the crossing rule).  Such
    a match starts only at an instruction whose whole slice is a proper
    prefix of the key, so those starts are confirmed one by one, by the
    text and by gone, and swept leftmost with the rest.  A cut then adds
    its start to gone, or every item it covers if it crosses an
    instruction end, so that gone meets exactly the matches that
    overlap a cut.
    """
    sig, cuts = low.sig, []
    for k in keys:
        t, b = len(k), nets[k][1]
        runs = [a for a in runs_of[k] if a not in gone]
        cross = [a for j in range(1, t) for a in table.get(k[:j], ())
                 if sig.startswith(k, a) and gone.isdisjoint(range(a, a + t))]
        if cross:  # leftmost among all matches, as a sweep takes them
            found, runs, free = sorted(runs + cross), [], 0
            for a in found:
                if a >= free:
                    runs.append(a)
                    free = a + t
        if len(runs) * (b - 1) - b <= 0:
            continue  # adopting it now would grow the image
        gone.update([i for a in runs for i in range(a, a + t)]
                    if cross else runs)
        first = min(runs)  # the body is copied from the first match
        item = MacroByte(isa.MACRO_OPCODE_BASE + len(adopted))
        adopted.append(StreamMacro(code=item.code, byte_len=b,
                                   items=low.items[first:first + t]))
        cuts += [(a, a + t, item) for a in runs]
    return cuts


def select_freq(stream: Stream, max_macros: int, max_len: int
                ) -> tuple[Stream, list[StreamMacro]]:
    """Rank the instruction-granular keys once, by net saving, and adopt
    the top max_macros longest first, all in one splice.

    Whole instructions and their prefixes cannot overlap, so a key's
    count from the table of distinct instructions is what it would
    replace if it ran alone.  Longest first, else a short key strands
    its extensions' tails.  Each key then takes what a left-to-right
    sweep of the stream left by the keys before it would (see _adopt),
    or nothing if that no longer pays, so every entry in the result
    saves bytes.
    """
    check_limits(max_macros, max_len)
    low = lower(stream.items)
    table = _instructions(low, max_len)
    nets, runs_of = _prefix_keys(table)
    picked = rank_keys(nets, max_macros)
    picked.sort(key=lambda s: (-_width(s), s))
    adopted: list[StreamMacro] = []
    cuts = _adopt(picked, low, table, nets, runs_of, set(), adopted)
    cuts.sort()
    return Stream(low.splice(cuts).items), adopted


def select_exact(stream: Stream, max_macros: int, max_len: int
                 ) -> tuple[Stream, list[StreamMacro]]:
    """Optimal macro set over the stream's paying keys.

    The interval engine does the search.  Its universe is the keys that
    pay on their own, since no optimum holds any other (see
    optimal.exact_over_occurrences); every run of one, taken from the
    one walk that counts them, becomes a vertex of weight b-1 spanning
    its items.  Guarded by the same step estimate as byte-level exact
    selection; raises BudgetError when refused.

    Unlike the sweeping selectors this picks an explicit occurrence
    subset, so an adopted key may leave some of its matches in place.
    """
    check_limits(max_macros, max_len)
    est = estimate_cost(stream.byte_size(), max_len, max_macros)
    if not est.approved:
        raise BudgetError(est)
    low = lower(stream.items)
    by_key = {s: [Occurrence(content=s, start=i, end=i + len(s) - 1,
                             weight=b - 1) for i in runs]
              for s, _, b, runs in _paying_runs(low, max_len, "free")}
    combo, chosen, obj = exact_over_occurrences(stream.byte_size(), by_key,
                                                max_macros)
    code_of = {s: isa.MACRO_OPCODE_BASE + i for i, s in enumerate(combo)}
    # chosen occurrences are non-overlapping and in stream order
    out = Stream(low.splice([(o.start, o.end + 1, MacroByte(code_of[o.content]))
                             for o in chosen]).items)
    macros = [StreamMacro(code=code_of[s], byte_len=_width(s),
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
        return select_freq(stream, max_macros, max_len)
    if mode == "exact":
        return select_exact(stream, max_macros, max_len)
    raise ValueError(f"unknown mode {mode!r}")


# Marks a hex entry in the stream; not a valid label, so it clashes with none.
_ENTRY_PIN = asm.LabelDef("(entry)")


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
    if not 0 <= max_macros <= isa.MAX_MACROS:
        raise ValueError(f"macro count must be 0..{isa.MAX_MACROS}")
    if max_macros:
        check_limits(max_macros, max_len)
    t0 = time.perf_counter()
    stream, layout = asm.assemble_stream(text, origin=origin)
    input_bytes = layout.size
    pinned = isinstance(entry, int)
    if pinned:
        # A label ends every macro run, so the instruction after the
        # marker stays a start through selection, wherever it moves.
        stream.items.insert(asm.instruction_at(stream, layout, entry),
                            _ENTRY_PIN)
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
                        entry=asm.resolve_entry(out, final, entry),
                        macros=entries)
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
