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
import re
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat
from operator import itemgetter

from . import asm, isa
from .asm import LabelRef, LiteralByte, MacroByte, Stream
from .objfile import MacroEntry, ObjectImage
from .optimal import BudgetError, Occurrence, estimate_cost, exact_over_occurrences

MODES = ("greedy", "exact", "freq")


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
        """Replace each span (start, end, item) of items by that item,
        in sig and marks too; spans come in stream order and do not
        overlap.  The result is a stream of items, whose widths are None.

        Only a stream that is counted again is spliced: greedy's hand-over
        from stage one to stage two, and each adoption of its stage one
        on a stream that is not whole (see PayingKeys), where a recount
        reads the stream's marks.  A stage whose stream nothing counts
        again cuts only its items (see _cut).
        """
        old_sig, old_marks = self.sig, self.marks
        sig, marks, pos = [], [], 0
        for start, end, item in cuts:
            c, m = ((_STOP, _BOUNDARY) if type(item) is MacroByte
                    else _lower_item(item, {}))
            sig.append(old_sig[pos:start])
            sig.append(c)
            marks.append(old_marks[pos:start])
            marks.append(m)
            pos = end
        return Lowered(_cut(self.items, cuts), "".join(sig) + old_sig[pos:],
                       "".join(marks) + old_marks[pos:])

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
        its key of items, one instruction per character.  The pieces are
        whole (see PayingKeys): every match of a key of pieces is a run.
        As the numbering keeps the order of the texts, keys of pieces
        sort as their keys of items do.  Raw-hex lines can break it:
        ZER 00, 01 begins with the text of ZER WA.
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


def _cut(items: list, cuts: list[tuple]) -> list:
    """A new list of items in which each span (start, end, item) is
    replaced by its item; spans come in stream order and do not overlap,
    and items is left as it was.  Lowered.splice takes its items from
    here, and a selector whose result nothing counts again calls it
    alone."""
    out, pos = [], 0
    for start, end, item in cuts:
        out += items[pos:start]
        out.append(item)
        pos = end
    out += items[pos:]
    return out


def lower(items: list) -> Lowered:
    """Lower stream items for selection; symbols are numbered in name
    order."""
    symbols = sorted({it.symbol for it in items
                      if type(it) is LabelRef and not it.relaxed})
    char_of = {sym: chr(0x101 + i) for i, sym in enumerate(symbols)}
    sig, marks = [], []
    for it in items:
        if type(it) is LiteralByte:  # nearly every item, inline
            sig.append(chr(it.value))
            marks.append(_START if it.op_start else _OTHER)
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
    items with a match key, its first one included.  A label definition
    at the start of a run needs no special case: it stays in the stream,
    where it ends up addressing the macro byte.

    granularity narrows where runs may end.  "free" allows any item
    boundary; "aligned" requires runs to cover whole instructions.  Runs
    kept inside one instruction are counted from the table of distinct
    instructions instead (see _instructions).  On a whole stream (see
    PayingKeys) every item boundary ends an instruction, so both
    granularities give the same runs; on pieces those are the "aligned"
    runs of the items, and a run of one piece may be a candidate too.

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
            if granularity == "aligned" and _OTHER in marks else None)
    live = [i for i, m in enumerate(marks) if m == _START and joins[i]
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


def _net(f: int, b: int) -> int:
    """The net saving of a key of width b bytes adopted at f runs: each
    run leaves one macro byte of its b, and the table entry costs b.
    The key pays when this is positive.  This is every selector's one
    price of a table entry; optimal.exact_over_occurrences charges the
    same b per body."""
    return f * (b - 1) - b


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
    return {k: (net, b) for k, r in runs.items()
            if len(r) > 1 and (net := _net(len(r), b := _width(k))) > 0}, runs


def _paying_runs(low: Lowered, max_len: int, granularity: str):
    """The walk's paying keys, at "free" or "aligned" granularity.

    Yields (key, f, b, runs) for every key whose net saving _net(f, b)
    is positive, b being its width in bytes, runs the first item of each
    run of _walk in stream order, and f their leftmost-greedy count, as
    Lowered.runs takes them.
    """
    for runs in _walk(low, max_len, granularity):
        for s, starts in runs.items():
            f, b = _leftmost(starts, len(s)), _width(s, low.widths)
            if _net(f, b) > 0:
                yield s, f, b, starts


def profitable_keys(low: Lowered, max_len: int, granularity: str
                    ) -> dict[str, tuple[int, int]]:
    """Every key whose net saving _net(f, b) is positive, as signature
    string -> (net, b), f being its leftmost-greedy run count on low at
    granularity, "free" or "aligned", and b its width in bytes.

    This is the walk's one net count (see _paying_runs); keys inside one
    instruction are counted from the table of distinct instructions (see
    _prefix_keys).
    """
    return {s: (_net(f, b), b)
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
    key's width in bytes, net its saving _net(f, b) and counted the
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
        net = _net(recount(s), -b)
        if net > 0:
            heapq.heapreplace(heap, (-net, b, s, done))
        else:
            heapq.heappop(heap)
    return None


class PayingKeys:
    """The keys that pay on a stream while it is substituted, one heap
    entry each, from which _exact_top picks the best.

    One full count, the walk's at "aligned" as profitable_keys counts
    it, fills the heap on the first call of best.  Put in as a macro
    byte, the replacement ends every run, so it only removes runs, and
    every entry stays an upper bound.

    A stream is whole when its marks hold no _OTHER, as pieces (see
    Lowered.pieces) and byte streams do.  There every match of a key,
    which holds no _STOP, starts at a _START and ends where an
    instruction does, so it is a run, and the runs are the matches that
    str.count and str.replace take.  So on a whole stream only sig is
    kept in step: a recount is sig.count(key), and a substitution is
    one sig.replace(key, c), c being a character of the macro byte's
    own that ends every run, as _STOP does.  low stays the stream
    PayingKeys began with, and sites gives the cuts from it to now.

    Only a whole stream takes a literal as the replacement (byte-level
    embedding).  c is then its value, which the stream must not hold,
    so the runs through it are new keys.  They are counted at insertion
    by the full count's own count, run over the windows around the new
    literals only (see _count_new), and their entries are current until
    the next substitution.

    On any other stream, such as raw-hex lines whose texts are not
    prefix-free, a match can cross an instruction end, so a recount is
    one Lowered.runs and a substitution one Lowered.splice of low,
    which keeps it in step.  sig is then read only by best, before the
    first substitution, and is not kept in step.
    """

    def __init__(self, low: Lowered, max_len: int):
        self.low, self.sig, self.max_len = low, low.sig, max_len
        self.whole = _OTHER not in low.marks
        self.substitutions = 0
        self.heap: list | None = None
        self.held: set[str] = set()  # every character a heap key may hold
        self.put_in: dict[str, tuple] = {}  # c -> (macro byte, len(key))
        # CPython's find and count skip by a 64-bit bloom mask of the
        # pattern's characters, indexed by code point mod 64, so the
        # characters of macro bytes are multiples of 64, as _STOP is:
        # numbered densely they would share the bits of the key's own.
        self._first = (ord(max(low.sig + _STOP)) // 64 + 1) * 64

    def sites(self, offsets) -> list[tuple]:
        """On a whole stream, the cuts that turn low into the stream now:
        one per macro byte's character in sig, in stream order, as
        (offsets[start], offsets[end], macro byte), start and end
        spanning the items of low that the character stands for."""
        cuts, pos = [], 0
        if self.put_in:  # parts: the text before each site, then the site
            parts = re.split(f"([{''.join(map(re.escape, self.put_in))}])",
                             self.sig)
            for text, c in zip(parts[::2], parts[1::2]):
                pos += len(text)
                item, n = self.put_in[c]
                cuts.append((offsets[pos], offsets[pos + n], item))
                pos += n
        return cuts

    def best(self) -> str | None:
        """The key rank_keys would rank first on a full count of the
        stream now, if any."""
        if self.heap is None:
            self.heap = [(-_net(f, b), -b, s, 0) for s, f, b, _
                         in _paying_runs(self.low, self.max_len, "aligned")]
            heapq.heapify(self.heap)
            self.held = set(self.sig)  # after the walk, off its peak
        return _exact_top(self.heap, self.substitutions, self._recount)

    def substitute(self, pattern: str, item) -> list | None:
        """Replace by item every match of pattern at a fetch position,
        taken left to right, which makes every count stale.  Returns the
        items removed by the first match on a stream that is not whole;
        a whole stream keeps no positions, so there it returns None, and
        the first site of item (see sites) is where they were.

        pattern comes from best, so it pays: on a stream that is not
        whole it has at least two aligned runs, each of them a match.
        On raw-hex lines a match may cross an instruction end, so this
        can replace more matches than the "aligned" recount counted.
        """
        self.substitutions += 1
        if not self.whole:
            old, t = self.low, len(pattern)
            starts = old.runs(pattern, "free")
            self.low = old.splice([(a, a + t, item) for a in starts])
            return old.items[starts[0]:starts[0] + t]
        if isinstance(item, LiteralByte):
            c = chr(item.value)
        else:
            c = chr(self._first + 64 * len(self.put_in))
            self.put_in[c] = (item, len(pattern))
        self.sig = self.sig.replace(pattern, c)
        if c not in self.put_in:  # a literal: the runs through it are new
            self._count_new(c)
        return None

    def _recount(self, s: str) -> int:
        """Leftmost-greedy count of the runs of key s on the stream."""
        if self.whole:
            return self.sig.count(s)
        return len(self.low.runs(s, "aligned"))

    def _count_new(self, char: str) -> None:
        """Count the paying keys that hold char, the value of the literals
        just put in on a whole stream.

        The stream held no char just before, so every run of such a key
        lies in a window [p - max_len + 1, p + max_len) around a point p
        where sig holds char.  Windows that touch are merged, and the
        rest are joined into one stream by a _STOP, which no run crosses.
        A mark there says nothing that the characters do not, since no
        run starts at or takes in a character that ends runs (see _walk),
        so every mark is _START, and the characters of macro bytes become
        _STOP.  profitable_keys over that stream, the full count's own
        count, sees every run of these keys in stream order, and two of
        them overlap there exactly when they overlap in the stream, so
        the nets it gives the keys that hold char are exact.  A char the
        stream held earlier, and then lost to substitutions, may have
        left entries of such keys behind; they go first, so that each
        key keeps one entry.
        """
        sig, reach, cuts = self.sig, self.max_len, []
        for p in (m.start() for m in re.finditer(re.escape(char), sig)):
            a, e = max(p - reach + 1, 0), min(p + reach, len(sig))
            if cuts and a <= cuts[-1][1]:
                cuts[-1][1] = e
            else:
                cuts.append([a, e])
        text = _STOP.join(sig[a:e] for a, e in cuts).translate(
            dict.fromkeys(map(ord, self.put_in), _STOP))
        nets = profitable_keys(Lowered([], text, _START * len(text)), reach,
                               "aligned")
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
    _net(f, b) with f counted over non-overlapping occurrences, adopts
    the best positive one, and replaces its matches before the next
    round counts.  Ties fall to the longer body, then the smaller key.

    Selection runs coarse to fine.  The first stage admits only
    instruction-aligned runs: a mid-instruction prefix pools the counts
    of every instruction sharing it, so it outscores each full
    instruction, yet adopting it strands the extension bytes behind the
    macro byte where no later candidate can reach them.  Stage one
    counts the walk once and then recounts a key only when it reaches
    the top of the heap of PayingKeys (see _exact_top).  It works on the
    stream's pieces, one per instruction (see Lowered.pieces), which are
    whole: a recount is one str.count and an adoption one str.replace
    of their signature string, and at the end each site of a macro
    byte, mapped through the pieces' item offsets, is one cut of the
    item stream, whose first site gives the macro's body.  If stage one
    fills the budget, the cuts only make the item list (see _cut);
    otherwise they splice the lowered stream, which stage two counts.
    With no cut, the stream goes on as it is.
    Where raw-hex lines make an instruction's text a proper prefix of
    another's, it works on the items instead, with one Lowered.runs per
    recount and one splice per adoption.  Once no aligned run pays, a
    second stage admits prefixes to mop up instructions whose full forms
    were too rare to adopt (see _stage_two).

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
    pieces = low.pieces
    keys = PayingKeys(pieces or low, max_len)
    adopted: list[StreamMacro] = []
    while len(adopted) < max_macros and (best := keys.best()) is not None:
        item = MacroByte(isa.MACRO_OPCODE_BASE + len(adopted))
        adopted.append(StreamMacro(code=item.code,
                                   byte_len=_width(best, keys.low.widths),
                                   items=keys.substitute(best, item)))
    if pieces is None:  # raw-hex lines, spliced at every adoption
        low, cuts = keys.low, []
    else:  # pieces are whole: each site, mapped to its items, is a cut
        cuts = keys.sites([0, *accumulate(map(len, pieces.items))])
        first = {item.code: (a, e) for a, e, item in reversed(cuts)}
        for m in adopted:  # the body is copied from the first match
            a, e = first[m.code]
            m.items = low.items[a:e]
    if len(adopted) == max_macros:  # no stage two: no table, no splice
        return Stream(_cut(low.items, cuts) if cuts else low.items), adopted
    if cuts:  # stage two counts the spliced stream
        low = low.splice(cuts)
    return _stage_two(low, max_macros, max_len, adopted), adopted


def _stage_two(low: Lowered, max_macros: int, max_len: int,
               adopted: list[StreamMacro]) -> Stream:
    """select_greedy's stage two on stage one's stream: adopt the best
    instruction-granular key that no paying key strictly extends, until
    max_macros are adopted or no key pays, then cut the items once;
    nothing counts the result, so no signature is spliced.

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
        if any(e != s and e.startswith(s) and _net(count(e), b) > 0
               for e, (_, b) in nets.items()):
            aside.append(top)
        else:
            cuts += _adopt([s], low, table, nets, runs_of, gone, adopted)
            while aside:
                heapq.heappush(heap, aside.pop())
    cuts.sort(key=itemgetter(0))  # starts are unique
    return Stream(_cut(low.items, cuts))


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
        if _net(len(runs), b) <= 0:
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
    the top max_macros longest first, all in one cut of the items,
    which splices no signature.

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
    cuts.sort(key=itemgetter(0))  # starts are unique
    return Stream(_cut(low.items, cuts)), adopted


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
    The chosen occurrences go in by one cut of the items, which splices
    no signature.
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
    out = Stream(_cut(low.items, [(o.start, o.end + 1,
                                   MacroByte(code_of[o.content]))
                                  for o in chosen]))
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
