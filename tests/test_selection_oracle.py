"""Lazy greedy selection against the round-by-round oracle.

macros.select_greedy and greedy.greedy_select count candidates once per
stage and then recount only the key at the top of the heap, whose
stored net is an upper bound once the stream has been substituted.  The
oracles in tests/oracles.py recount everything after every adoption;
both must produce the same bytes.  The candidate walk drops a start as
soon as its key cannot repeat; oracles.reference_walk lists every run.
Lowered.runs, the one match scan behind PayingKeys' recounts and
substitutions on a stream that is not whole, is held to a scan of every
position that reads the run rules off the items.  Greedy's stage two and frequency
selection count, recount and substitute on the table of distinct
instructions and cut the item list once; they are held to
oracles.select_greedy and oracles.select_freq, which sweep and splice
once per key, also on raw-hex lines whose matches run past an
instruction end.
"""

import hashlib
import heapq
import random
from collections import Counter, defaultdict
from itertools import accumulate

import pytest

import corpus
import oracles
from macroforge import asm, greedy, macros
from macroforge.macros import compact_source
from macroforge.objfile import FLAG_RAW, MacroEntry, ObjectImage


@pytest.fixture(scope="module")
def criterion_corpus():
    return corpus.generate_corpus(2024)


def image_bytes(monkeypatch, text, selector, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(macros, "select_greedy", selector)
        image, _ = compact_source(text, mode="greedy", **kwargs)
    return image.serialize()


def test_compact_matches_oracle_on_programs(monkeypatch):
    # the programs and budgets of test_05_semantic_preservation
    for seed in range(50):
        text = corpus.generate_program(seed)
        for budget in (8, 64, 176):
            got = image_bytes(monkeypatch, text, macros.select_greedy,
                              max_macros=budget)
            want = image_bytes(monkeypatch, text, oracles.select_greedy,
                               max_macros=budget)
            assert got == want, (seed, budget)


def test_compact_matches_oracle_on_corpus(monkeypatch, criterion_corpus):
    assert (image_bytes(monkeypatch, criterion_corpus, macros.select_greedy)
            == image_bytes(monkeypatch, criterion_corpus,
                           oracles.select_greedy))


def test_stream_selection_matches_oracle_at_short_bodies():
    # short max_len keeps many keys tied and self-overlapping
    for seed in range(10):
        stream, _ = asm.assemble_stream(corpus.generate_program(seed))
        for max_len in (2, 3, 5):
            got = macros.select_greedy(stream, 176, max_len)
            want = oracles.select_greedy(stream, 176, max_len)
            assert got == want, (seed, max_len)


def pack_case(rng: random.Random) -> bytes:
    n = rng.randint(0, 300)
    kind = rng.randrange(6)
    if kind == 0:                       # one repeated byte
        return bytes([rng.randrange(256)]) * n
    if kind == 1:                       # a short period, sometimes broken
        unit = bytes(rng.randrange(256) for _ in range(rng.randint(1, 4)))
        data = bytearray((unit * (n // len(unit) + 1))[:n])
        for _ in range(rng.randint(0, 3)):
            if data:
                data[rng.randrange(len(data))] = rng.randrange(256)
        return bytes(data)
    if kind == 2:                       # a small alphabet
        alphabet = rng.sample(range(256), rng.randint(2, 6))
        return bytes(rng.choice(alphabet) for _ in range(n))
    if kind == 3:                       # every macro opcode but a few in use
        free = set(rng.sample(range(0x50, 0x100), rng.randint(0, 3)))
        used = [v for v in range(0x50, 0x100) if v not in free]
        rng.shuffle(used)
        body = bytes(rng.choice(b"abcab") for _ in range(n))
        return bytes(used) + body
    if kind == 4:                       # repeated phrases with noise
        phrases = [bytes(rng.randrange(256) for _ in range(rng.randint(2, 8)))
                   for _ in range(rng.randint(1, 5))]
        out = bytearray()
        while len(out) < n:
            if rng.random() < 0.2:
                out.append(rng.randrange(256))
            else:
                out += rng.choice(phrases)
        return bytes(out[:n])
    return bytes(rng.randrange(256) for _ in range(n))


def test_pack_matches_oracle():
    rng = random.Random(8)
    for case in range(600):
        data = pack_case(rng)
        max_macros = rng.choice([1, 2, 5, 40, 176])
        max_len = rng.choice([2, 3, 4, 8, 20])
        for embed in (False, True):
            got = greedy.greedy_select(data, max_macros, max_len, embed)
            want = oracles.greedy_select(data, max_macros, max_len, embed)
            assert got == want, (case, data, max_macros, max_len, embed)


def test_pack_matches_oracle_on_image_slices(criterion_corpus):
    code = asm.assemble(criterion_corpus).code
    for offset in (1000, 5000):  # the pins hold 0, 2048, 4096 and 6144
        for embed in (False, True):
            data = code[offset:offset + 700]
            assert (greedy.greedy_select(data, 176, 20, embed)
                    == oracles.greedy_select(data, 176, 20, embed))


def test_pack_takes_opcodes_freed_while_packing():
    # 0xFF is the one opcode free at the start.  The first body takes
    # in 0x50 0x51 0x52, and its matches remove all of 0x50 and 0x51
    # from the residual, so the next macro gets 0x50; flat, only the
    # wxyz tail leaves a key that pays after that.  The oracle tracks
    # each byte's count instead of reading the residual.
    held = b"\x50\x51\x52" * 100 + bytes(range(0x53, 0xFF))
    for data in (held, held + b"wxyz" * 30):
        for max_len in (2, 3, 4, 20):
            for embed in (False, True):
                got = greedy.greedy_select(data, 176, max_len, embed)
                want = oracles.greedy_select(data, 176, max_len, embed)
                assert got == want, (len(data), max_len, embed)
                codes = [m.code for m in got.macros]
                assert codes[:2] == ([0xFF, 0x50] if embed or data != held
                                     else [0xFF])
    # a stream that holds every byte value frees none: no macro at all
    every = bytes(range(256)) * 3
    for max_len in (2, 20):
        for embed in (False, True):
            got = greedy.greedy_select(every, 176, max_len, embed)
            assert got == oracles.greedy_select(every, 176, max_len, embed)
            assert (got.macros, got.residual) == ([], every)


def count_walks(monkeypatch):
    real, walks = macros._walk, []

    def counting(*args):
        walks.append(args[2])
        return real(*args)

    monkeypatch.setattr(macros, "_walk", counting)
    return walks


def test_each_stage_walks_the_stream_once(monkeypatch, criterion_corpus):
    # a walk inside a substitution counts the keys born through the
    # embedded literals, over the windows around them only
    walk, substitute = macros._walk, macros.PayingKeys.substitute
    walks, windows = [], []

    def spy_walk(low, max_len, granularity):
        walks.append((granularity, len(low.sig)))
        return walk(low, max_len, granularity)

    def spy_substitute(self, pattern, item):
        # every substitution here is on a whole stream, whose matches are
        # the ones str.count takes
        before, count = len(walks), self.sig.count(pattern)
        removed = substitute(self, pattern, item)
        for _, n in walks[before:]:
            assert n <= 2 * self.max_len * count, (n, count)
        windows.extend(walks[before:])
        del walks[before:]
        return removed

    monkeypatch.setattr(macros, "_walk", spy_walk)
    monkeypatch.setattr(macros.PayingKeys, "substitute", spy_substitute)
    _, info = compact_source(criterion_corpus, mode="greedy")
    assert info["macro_count"] == 120  # one round each
    # stage one walks the pieces, one per instruction
    stream, _ = asm.assemble_stream(criterion_corpus)
    pieces = macros.lower(stream.items).pieces
    assert walks[0] == ("aligned", len(pieces.sig))
    assert [g for g, _ in walks] == ["aligned"]
    assert windows == []

    walks.clear()
    code = asm.assemble(criterion_corpus).code[:1024]
    for embed in (False, True):
        result = greedy.greedy_select(code, 176, 20, allow_embed=embed)
        assert len(result.macros) > 10
    assert walks == [("aligned", 1024), ("aligned", 1024)]
    assert len(windows) > 10 and {g for g, _ in windows} == {"aligned"}


def test_exact_and_freq_walk_the_stream_once(monkeypatch):
    walks = count_walks(monkeypatch)
    text = corpus.generate_program(0, min_instructions=6)
    monkeypatch.setenv("MACROFORGE_BUDGET", str(10 ** 18))
    _, info = compact_source(text, mode="exact", max_macros=2, max_len=4)
    assert info["macro_count"] == 2
    assert walks == ["free"]

    walks.clear()
    _, info = compact_source(text, mode="freq")
    assert info["macro_count"] > 2
    assert walks == []


def test_no_free_opcode_needs_no_walk(monkeypatch):
    walks = count_walks(monkeypatch)
    data = bytes(range(0x50, 0x100)) * 2
    result = greedy.greedy_select(data, 176, 20)
    assert result.macros == [] and result.residual == data
    assert walks == []


# Runs of three or more identical instructions give aligned keys whose runs
# overlap (two instructions of three), so the aligned stage recounts them.
# The last one's extension bytes spell ICV WC twice, so a recount also
# meets matches that start mid-instruction.
REPEATED = ("ICV WC", "ZER WA", "MOV =2A, -(XS)", "ADD WC, @40", "OUT WC",
            "MOV WA, WB", "SUB =3, WB", "NOP", "MOV @1C02, @1C02")


def repeated_runs_program(rng: random.Random) -> str:
    lines = []
    while len(lines) < rng.randint(10, 60):
        lines += ["       " + rng.choice(REPEATED)] * rng.randint(1, 5)
    return "\n".join(lines + ["       HLT"]) + "\n"


def test_aligned_recount_matches_oracle(monkeypatch):
    real, recounts = macros.PayingKeys._recount, []

    def spy(self, s):
        recounts.append(s)
        return real(self, s)

    monkeypatch.setattr(macros.PayingKeys, "_recount", spy)
    rng = random.Random(3)
    for case in range(60):
        stream, _ = asm.assemble_stream(repeated_runs_program(rng))
        for max_macros, max_len in ((176, 20), (3, 6), (8, 4)):
            got = macros.select_greedy(stream, max_macros, max_len)
            want = oracles.select_greedy(stream, max_macros, max_len)
            assert got == want, (case, max_macros, max_len)
    assert len(recounts) > 100


# One whole instruction, ZER WA, also begins five raw-hex instructions
# (44 00 xx).  Only its four whole occurrences are aligned runs, and the
# first adoption, ZER WA; OUT WC, takes two of them, so the recount that
# follows meets seven matches of which two are runs: ZER WA stops paying
# in the aligned stage.  In stage two OUT 00, the prefix of eight raw-hex
# lines, outranks it.  Counting the raw-hex prefixes in the aligned
# recount would adopt ZER WA before OUT 00.
SHARED_PREFIX = ("""L1     ZER WA
       OUT WC
L2     ZER WA
       OUT WC
L3     ZER WA
L4     ZER WA
""" + "".join(f"       ZER 00, 0{k}\n" for k in range(1, 6))
                 + "".join(f"       OUT 00, 0{k}\n" for k in range(1, 9))
                 + "       HLT\n")


def spy_recounts(monkeypatch):
    """The (key, count) of every recount, in order; fails if a key is
    recounted twice between two substitutions."""
    recount = macros.PayingKeys._recount
    substitute = macros.PayingKeys.substitute
    recounts, since = [], set()

    def spy_recount(self, s):
        assert s not in since, s
        since.add(s)
        f = recount(self, s)
        recounts.append((s, f))
        return f

    def spy_substitute(self, *args):
        since.clear()
        return substitute(self, *args)

    monkeypatch.setattr(macros.PayingKeys, "_recount", spy_recount)
    monkeypatch.setattr(macros.PayingKeys, "substitute", spy_substitute)
    return recounts


def test_aligned_end_decides_a_recount(monkeypatch):
    recounts = spy_recounts(monkeypatch)
    stream, _ = asm.assemble_stream(SHARED_PREFIX)
    got = macros.select_greedy(stream, 176, 20)
    assert got == oracles.select_greedy(stream, 176, 20)
    assert [bytes(it.value for it in m.items) for m in got[1]] == [
        b"\x44\x00\x40\x02", b"\x40\x00", b"\x44\x00"]
    assert ("\x44\x00", 2) in recounts


# Raw-hex lines whose bytes no symbolic line shares, so stage one adopts
# nothing; in stage two MOV 00 00 pays most, then OUT 00, then ZER 00 01.
# ZER 00 01 also spells ZER WA; NOP, which is no run at "instruction"
# granularity since it crosses an opcode.  Counting that match too would
# rank ZER 00 01 above OUT 00 in the recount after the first adoption.
CROSSING = ("       ZER WA\n       NOP\n"
            + "".join(f"       ZER 00, 01, 0{k}\n" for k in (1, 2))
            + "".join(f"       OUT 00, 0{k}\n" for k in range(1, 5))
            + "".join(f"       MOV 00, 00, 0{k}\n" for k in range(1, 9))
            + "       HLT\n")


def test_instruction_end_decides_a_recount():
    stream, _ = asm.assemble_stream(CROSSING)
    got = macros.select_greedy(stream, 176, 20)
    assert got == oracles.select_greedy(stream, 176, 20)
    assert [bytes(it.value for it in m.items) for m in got[1]] == [
        b"\x32\x00\x00", b"\x40\x00", b"\x44\x00\x01"]


# Raw-hex lines whose operand bytes spell the lines around them: ZER 00,
# 01 is ZER WA then NOP, and MOV 00, 32, 10 is MOV 00 then MOV WA, WB.
# A whole-stream match of such a line's prefix runs past the end of an
# instruction whose whole slice prefixes it, and may cover the start of
# an instruction that a longer key took.
CROSSING_LINES = ("ZER WA", "NOP", "OUT WA", "MOV WA, WB", "HLT", "MOV 00")


def crossing_program(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randint(4, 40)):
        if rng.random() < 0.4:
            lines.append(rng.choice(CROSSING_LINES))
        else:
            ops = ["00", *rng.choices(("00", "01", "10", "32", "40", "44"),
                                      k=rng.randint(0, 3))]
            lines.append(f"{rng.choice(('ZER', 'OUT', 'MOV'))} "
                         + ", ".join(ops))
    return "".join(f"       {line}\n" for line in lines) + "       HLT\n"


# SHA-256 over outputs that tests/test_output_pins.py does not pin, in
# unpinned_outputs() order: compact_source images of CROSSING,
# SHARED_PREFIX, DEFERRED and 60 seed-5 crossing programs, greedy and freq
# at budgets 1, 8 and 176 and max_len 3 and 20; exact images at 2 macros
# and max_len 4 of short programs; and the raw containers of flat and
# embedded greedy_select at 176 macros and max_len 20.
UNPINNED_OUTPUTS = "78d9a2f2b28318f0dbc1eb0f99e3676bc935f8ac513da80da4b3d9cbae02ff9b"


def unpinned_outputs():
    rng = random.Random(5)
    texts = [CROSSING, SHARED_PREFIX, DEFERRED,
             *(crossing_program(rng) for _ in range(60))]
    for text in texts:
        for mode in ("greedy", "freq"):
            for budget in (1, 8, 176):
                for max_len in (3, 20):
                    yield compact_source(text, mode, budget, max_len)[0]
    for seed in range(3):
        text = corpus.generate_program(seed, min_instructions=6)
        yield compact_source(text, "exact", 2, 4)[0]
    acgt = bytes(random.Random(3).choices(b"ACGT", k=2048))
    for data in (b"ab" * 40, acgt, bytes(range(256)) * 3):
        for embed in (False, True):
            result = greedy.greedy_select(data, 176, 20, allow_embed=embed)
            table = [MacroEntry(code=m.code, body=m.body)
                     for m in result.macros]
            yield ObjectImage(code=result.residual, macros=table,
                              flags=FLAG_RAW)


def test_unpinned_outputs_are_pinned(monkeypatch):
    monkeypatch.setenv("MACROFORGE_BUDGET", str(10 ** 18))
    digest = hashlib.sha256()
    for image in unpinned_outputs():
        digest.update(image.serialize())
    assert digest.hexdigest() == UNPINNED_OUTPUTS

def test_freq_matches_oracle():
    # greedy's stage two takes its matches by the same crossing rule
    rng = random.Random(11)
    texts = [CROSSING, *map(corpus.generate_program, range(6)),
             *(crossing_program(rng) for _ in range(60))]
    for case, text in enumerate(texts):
        stream, _ = asm.assemble_stream(text)
        for max_len in (2, 3, 5, 20):
            for budget in (1, 2, 8, 176):
                got = macros.compact_stream(stream, "freq", budget, max_len)
                want = oracles.select_freq(stream, budget, max_len)
                assert got == want, (case, max_len, budget)
                got = macros.compact_stream(stream, "greedy", budget, max_len)
                want = oracles.select_greedy(stream, budget, max_len)
                assert got == want, ("greedy", case, max_len, budget)


def reference_paying_runs(low, max_len, granularity):
    """_paying_runs over every run of the unpruned walk: keys seen more
    than once, counted leftmost-greedy by a sweep of its own."""
    out = {}
    for t, starts in oracles.reference_walk(low, max_len, granularity):
        runs = defaultdict(list)
        for i in starts:
            runs[low.sig[i:i + t]].append(i)
        for s, found in runs.items():
            if len(found) > 1:
                f, free = 0, 0
                for i in found:
                    if i >= free:
                        f, free = f + 1, i + t
                b = macros._width(s)
                if f * (b - 1) > b:
                    out[s] = (f, b, found)
    return out


# Whole instructions that hold a two-byte ref and repeat, so that keys
# of several widths hold refs.
REPEATED_REFS = ("       MOV =L1, WA\n       OUT WA\n       MOV =L2, WB\n" * 5
                 + "L1     HLT\nL2     HLT\n")


def walk_cases():
    for seed in range(12):
        stream, _ = asm.assemble_stream(corpus.generate_program(seed))
        yield f"program {seed}", stream.items
    yield "repeated refs", asm.assemble_stream(REPEATED_REFS)[0].items
    for name, data in (("all-equal", bytes(90)), ("period 2", b"ab" * 45),
                       ("period 3", b"aab" * 30),
                       ("all values", bytes(range(256)) * 2)):
        yield name, greedy._byte_stream(data).items


def test_pruned_walk_matches_reference():
    # "instruction" nets come from the table of distinct instructions,
    # not the walk; test_freq_matches_oracle covers the starts at that
    # granularity.
    for name, items in walk_cases():
        low = macros.lower(items)
        for granularity in ("free", "instruction", "aligned"):
            for max_len in (2, 5, 20):
                want = reference_paying_runs(low, max_len, granularity)
                if granularity == "instruction":
                    got = oracles.instruction_nets(low, max_len)
                    want = {s: (f * (b - 1) - b, b)
                            for s, (f, b, _) in want.items()}
                else:
                    got = {s: (f, b, runs) for s, f, b, runs
                           in macros._paying_runs(low, max_len, granularity)}
                assert got == want, (name, granularity, max_len)
                if granularity == "aligned" and low.pieces is not None:
                    got = pieces_paying_runs(low, max_len)
                    assert got == want, (name, "pieces", max_len)


def pieces_paying_runs(low, max_len):
    """_paying_runs on low's pieces, mapped back to keys and starts of
    items; the keys of pieces must sort as those keys of items do."""
    pieces = low.pieces
    at = [0, *accumulate(map(len, pieces.items))]
    got = {}
    for s, f, b, runs in macros._paying_runs(pieces, max_len, "aligned"):
        j = runs[0]
        got[s] = (low.sig[at[j]:at[j + len(s)]], f, b, [at[i] for i in runs])
    assert ([got[s][0] for s in sorted(got)]
            == sorted(key for key, *_ in got.values()))
    return {key: (f, b, runs) for key, f, b, runs in got.values()}


def test_lazy_bounds_on_self_overlapping_inputs(monkeypatch):
    recounts = spy_recounts(monkeypatch)
    for n in (1, 2, 7, 40, 150):
        for data in (bytes(n), b"ab" * n, b"aab" * n):
            for max_len in (2, 3, 8, 20):
                for embed in (False, True):
                    got = greedy.greedy_select(data, 176, max_len, embed)
                    want = oracles.greedy_select(data, 176, max_len, embed)
                    assert got == want, (data, max_len, embed)
    # bytes that leave the stream and come back as macro codes; a key
    # holding one must keep one heap entry, or it is recounted twice
    data = corpus.generate_program(0).encode()[:160]
    got = greedy.greedy_select(data, 176, 3, allow_embed=True)
    assert got == oracles.greedy_select(data, 176, 3, True)
    assert len(recounts) > 100


def test_exact_top_recounts_only_stale_tops():
    recounts = []

    def recount(s):
        recounts.append(s)
        return {"ab": 3, "cd": 1}[s]

    # "ab" (b 2) counted at adoption 0, "cd" (b 2) and "xyz" (b 3) at 1
    heap = [(-5, -2, "ab", 0), (-4, -3, "xyz", 1), (-2, -2, "cd", 1)]
    heapq.heapify(heap)
    # a current top is returned, and left on the heap
    assert macros._exact_top(heap, 0, recount) == "ab"
    assert recounts == [] and heap[0] == (-5, -2, "ab", 0)
    # a stale top is recounted once and ranks by its new net, 3*1 - 2
    assert macros._exact_top(heap, 1, recount) == "xyz"
    assert recounts == ["ab"]
    assert sorted(heap) == [(-4, -3, "xyz", 1), (-2, -2, "cd", 1),
                            (-1, -2, "ab", 1)]
    # a top that stops paying is dropped: "cd" runs once now
    heapq.heappop(heap)
    assert macros._exact_top(heap, 2, recount) == "ab"
    assert recounts == ["ab", "cd", "ab"] and heap == [(-1, -2, "ab", 2)]
    assert macros._exact_top([], 0, recount) is None


def test_full_count_leaves_one_heap_entry_per_paying_key():
    texts = [CROSSING, SHARED_PREFIX, corpus.generate_program(0)]
    lows = [macros.lower(asm.assemble_stream(text)[0].items)
            for text in texts]
    lows += [macros.lower(greedy._byte_stream(data).items)
             for data in (b"ab" * 40, corpus.generate_program(1).encode())]
    for low in lows:
        keys = macros.PayingKeys(low, 20)
        keys.best()
        want = macros.profitable_keys(low, 20, "aligned")
        assert len(keys.heap) == len(want)
        assert {s: (-net, -b) for net, b, s, _ in keys.heap} == want
        assert {counted for *_, counted in keys.heap} <= {0}


def spy_stages(monkeypatch):
    """Counts of stage one's substitutions, of the tables of distinct
    instructions built, of the cuts of an item list and of the splices,
    which cut one too, by name."""
    calls = Counter()

    def spy(name, real):
        def counting(*args):
            calls[name] += 1
            return real(*args)
        return counting

    monkeypatch.setattr(macros.PayingKeys, "substitute",
                        spy("substitute", macros.PayingKeys.substitute))
    monkeypatch.setattr(macros, "_instructions",
                        spy("table", macros._instructions))
    monkeypatch.setattr(macros, "_cut", spy("cut", macros._cut))
    monkeypatch.setattr(macros.Lowered, "splice",
                        spy("splice", macros.Lowered.splice))
    return calls


def test_stage_two_builds_its_table_only_when_it_runs(monkeypatch):
    calls = spy_stages(monkeypatch)
    stream, _ = asm.assemble_stream(SHARED_PREFIX)
    _, adopted = macros.select_greedy(stream, 1, 20)
    assert [bytes(it.value for it in m.items) for m in adopted] == [
        b"\x44\x00\x40\x02"]
    # raw-hex lines: the adoption splices the stream, which it recounts
    assert calls == {"substitute": 1, "cut": 1, "splice": 1}

    # stage one adopts nothing, and stage two cuts its items once and
    # splices no signature
    calls.clear()
    stream, _ = asm.assemble_stream(CROSSING)
    _, adopted = macros.select_greedy(stream, 176, 20)
    assert len(adopted) == 3
    assert calls == {"table": 1, "cut": 1}

    calls.clear()
    stream, _ = asm.assemble_stream(corpus.generate_program(0))
    _, adopted = macros.select_greedy(stream, 176, 20)
    assert 0 < calls["substitute"] < len(adopted)
    assert calls["table"] == 1
    # the pieces are whole, so stage one splices once, at its end, for
    # stage two to count, and stage two cuts its items once
    assert calls["cut"] == 2
    assert calls["splice"] == 1

    # stage one fills the budget, so its one cut splices no signature
    calls.clear()
    _, adopted = macros.select_greedy(stream, 8, 20)
    assert len(adopted) == 8
    assert calls["table"] == 0
    assert calls["cut"] == 1
    assert calls["splice"] == 0


# Every line starts with MOV 00 (32 00), the stage-two key that pays
# most, but MOV 00, 00 and MOV 00, 00, 00 extend it, so it is set aside
# and MOV 00, 00, 00 goes first.  That leaves the extension MOV 00, 00
# stale with a bound below MOV 00's fresh net: MOV 00 is adopted next
# only once the stale extension has been recounted and found not to pay.
DEFERRED = ("".join(f"       MOV 00, 00, 00, 0{k}\n" for k in (1, 2, 3))
            + "".join(f"       MOV 00, 0{j}\n" for j in range(1, 9))
            + "       HLT\n")


def test_stage_two_sets_a_deferred_top_aside():
    stream, _ = asm.assemble_stream(DEFERRED)
    low = macros.lower(stream.items)
    assert macros.profitable_keys(low, 20, "aligned") == {}
    nets = oracles.instruction_nets(low, 20)
    assert macros.rank_keys(nets, 3) == ["\x32\x00", "\x32\x00\x00\x00",
                                         "\x32\x00\x00"]
    got = macros.select_greedy(stream, 176, 20)
    assert got == oracles.select_greedy(stream, 176, 20)
    assert [bytes(it.value for it in m.items) for m in got[1]] == [
        b"\x32\x00\x00\x00", b"\x32\x00"]


def brute_runs(items, sig, pattern, granularity):
    """The leftmost-greedy runs of pattern, by a scan of every position
    that reads the run rules off the items."""
    starts, i, t = [], 0, len(pattern)
    while i + t <= len(items):
        after = items[i + t] if i + t < len(items) else None
        run = (sig.startswith(pattern, i) and items[i].op_start
               and (granularity != "aligned" or after is None
                    or after.op_start or isinstance(after, asm.LabelDef)))
        if run:
            starts.append(i)
        i += t if run else 1
    return starts


def test_runs_match_brute_force():
    rng = random.Random(20)
    cases = [greedy._byte_stream(data).items for data in (
        bytes(60), b"ab" * 30, b"aab" * 20,
        bytes(rng.choice(b"ACGT") for _ in range(120)))]
    for text in (CROSSING, *map(corpus.generate_program, (0, 1))):
        stream, _ = asm.assemble_stream(text)
        cases += [stream.items, macros.select_greedy(stream, 8, 6)[0].items]
    for items in cases:
        low = macros.lower(items)
        patterns = {low.sig[i:i + t] for i in range(len(items))
                    for t in (2, 3, 5)}
        for pattern in sorted(p for p in patterns if macros._STOP not in p):
            for granularity in ("free", "aligned"):
                assert (low.runs(pattern, granularity)
                        == brute_runs(items, low.sig, pattern, granularity)
                        ), (pattern, granularity)


def born_keys(nets, char):
    return {s: v for s, v in nets.items() if char in s}


def check_born_keys(monkeypatch):
    """After every substitution by a literal, the keys whose heap
    entries are current that hold its character are those a fresh full
    count of the signature string finds, with the characters of macro
    bytes as _STOP, and with the same nets.  Returns the match count of
    each substitution checked, in order."""
    substitute, checked = macros.PayingKeys.substitute, []

    def spy(self, pattern, item):
        count = self.sig.count(pattern)  # byte streams are whole
        out = substitute(self, pattern, item)
        char = chr(item.value)
        exact = {s: (-net, -b) for net, b, s, counted in self.heap
                 if counted == self.substitutions}
        sig = self.sig.translate(dict.fromkeys(map(ord, self.put_in),
                                               macros._STOP))
        fresh = macros.profitable_keys(
            macros.Lowered([], sig, macros._START * len(sig)), self.max_len,
            "aligned")
        assert born_keys(exact, char) == born_keys(fresh, char), (
            self.max_len, pattern, char)
        checked.append(count)
        return out

    monkeypatch.setattr(macros.PayingKeys, "substitute", spy)
    return checked


def test_keys_born_through_an_embedded_literal_are_exact(monkeypatch):
    checked = check_born_keys(monkeypatch)
    rng = random.Random(19)
    text = "".join(corpus.generate_program(seed) for seed in range(2))
    inputs = [bytes(300), b"ab" * 150, b"aab" * 100,
              bytes(rng.choice(b"ACGT") for _ in range(400)),
              bytes(rng.randrange(256) for _ in range(400)),
              text.encode()[:600]]
    for data in inputs:
        for max_len in (2, 3, 20):
            greedy.greedy_select(data, 176, max_len, allow_embed=True)
    assert len(checked) > 150
