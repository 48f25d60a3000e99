import random
from collections import Counter

import pytest

import corpus
from macroforge import asm, macros, vm
from macroforge.asm import (
    LabelDef,
    LiteralByte,
    MacroByte,
    Stream,
    assemble_stream,
)
from macroforge.macros import (
    compact_source,
    compact_stream,
    lower,
    select_exact,
    select_greedy,
)
from macroforge.greedy import greedy_select
from macroforge.optimal import BudgetError

from oracles import extract_candidates, match_key
from test_selection_oracle import CROSSING, SHARED_PREFIX


def stream_for(text, origin=0x100):
    stream, _ = assemble_stream(text, origin)
    return stream


def lit(v):
    return (0, v)


def ref(sym):
    return (1, sym)


PUSH_TWICE = """\
NULLS  NOP
       MOV =NULLS, -(XS)
       MOV =NULLS, -(XS)
"""
PUSH_KEY = (lit(0x32), lit(0x9B), ref("NULLS"))


# --- candidate extraction ---------------------------------------------------

def test_push_label_candidate_found_twice():
    cands = extract_candidates(stream_for(PUSH_TWICE), 4)
    occs = cands[PUSH_KEY]
    assert [o.byte_start for o in occs] == [1, 5]
    assert all(o.byte_len == 4 for o in occs)


def test_interior_label_blocks_run():
    plain = "       MOV XR, -(XS)\n       MOV XR, -(XS)\n"
    split = "       MOV XR, -(XS)\nMID    MOV XR, -(XS)\n"
    pair = (lit(0x32), lit(0x94), lit(0x32), lit(0x94))
    assert pair in extract_candidates(stream_for(plain), 8)
    assert pair not in extract_candidates(stream_for(split), 8)
    # the single instruction still matches across the label
    single = (lit(0x32), lit(0x94))
    assert len(extract_candidates(stream_for(split), 8)[single]) == 2


def test_relaxed_branch_byte_blocks_run():
    text = ("TOP    NOP\n"
            "       BRN -TOP\n"
            "       NOP\n"
            "       BRN -TOP\n")
    cands = extract_candidates(stream_for(text), 8)
    assert set(cands) == {
        (lit(0x01), lit(0x03)),
        (lit(0x01), lit(0x03), lit(0x0C)),
        (lit(0x03), lit(0x0C)),
    }
    assert all(len(occs) == 2 for occs in cands.values())


def test_macro_byte_blocks_run():
    low = lower(stream_for("       NOP\n" * 6).items)
    starts = low.runs("\x01\x01", "free")
    out = low.splice([(a, a + 2, MacroByte(0x50)) for a in starts])
    assert starts == [0, 2, 4]
    assert out.items == [MacroByte(0x50)] * 3
    assert extract_candidates(Stream(out.items), 8) == {}


def test_granularities_nest():
    stream = stream_for(corpus.generate_program(seed=3))
    free = extract_candidates(stream, 8, granularity="free")
    within = extract_candidates(stream, 8, granularity="instruction")
    aligned = extract_candidates(stream, 8, granularity="aligned")
    assert set(within) <= set(free)
    assert set(aligned) <= set(free)
    items = stream.items
    for occs in aligned.values():
        for o in occs:
            assert (o.item_end == len(items)
                    or getattr(items[o.item_end], "op_start", False)
                    or isinstance(items[o.item_end], LabelDef))
    for occs in within.values():
        for o in occs:
            assert not any(getattr(items[j], "op_start", False)
                           for j in range(o.item_start + 1, o.item_end))


def test_extract_rejects_bad_arguments():
    stream = stream_for("       NOP\n")
    low = macros.lower(stream.items)
    for max_len, granularity in ((1, "free"), (8, "word")):
        with pytest.raises(ValueError):
            extract_candidates(stream, max_len, granularity=granularity)
        with pytest.raises(ValueError):
            macros.profitable_keys(low, max_len, granularity)


# --- frequency selection ----------------------------------------------------

def objective(out, adopted):
    return out.byte_size() + sum(m.byte_len for m in adopted)


def test_apply_replaces_both_push_sites():
    stream = stream_for(PUSH_TWICE)
    out, adopted = compact_stream(stream, "freq", 176, 20)
    marks = [it for it in out.items if isinstance(it, MacroByte)]
    assert [m.code for m in marks] == [0x50, 0x50]
    assert len(adopted) == 1
    assert adopted[0].code == 0x50
    assert match_key(adopted[0].items) == PUSH_KEY
    assert adopted[0].byte_len == 4


def test_apply_empty_set_is_identity():
    # at max_len 3 the push no longer fits and its prefix saves nothing
    stream = stream_for(PUSH_TWICE)
    out, adopted = compact_stream(stream, "freq", 176, 3)
    assert out.items == stream.items
    assert adopted == []


def test_apply_skips_key_that_stopped_paying():
    # the two best keys are the =4F instruction and the prefix it shares
    # with =63; the two =63 sites left for the prefix no longer cover its
    # entry
    text = ("       MOV =4F, WA\n"
            "       MOV =63, WA\n"
            "       MOV =4F, WA\n"
            "       MOV =63, WA\n")
    stream = stream_for(text)
    full = (lit(0x32), lit(0x0B), lit(0xCF))
    out, adopted = compact_stream(stream, "freq", 2, 20)
    assert [match_key(m.items) for m in adopted] == [full]
    assert objective(out, adopted) == 11


def test_apply_skips_single_occurrence():
    stream = stream_for("       MOV XR, -(XS)\n       HLT\n")
    out, adopted = compact_stream(stream, "freq", 176, 20)
    assert adopted == []
    assert out.items == stream.items


def test_frequency_scores_repeated_instruction():
    text = "       MOV XR, -(XS)\n" * 10 + "       HLT\n"
    out, adopted = compact_stream(stream_for(text), "freq", 176, 20)
    assert [match_key(m.items) for m in adopted] == [(lit(0x32), lit(0x94))]
    # saving (2-1)*(10-1) - 1 = 8 off the 21-byte input
    assert objective(out, adopted) == 13


def test_frequency_excludes_single_occurrence():
    text = "       MOV XR, -(XS)\n       OUT WA\n       HLT\n"
    out, adopted = compact_stream(stream_for(text), "freq", 176, 20)
    assert adopted == []
    assert out.byte_size() == 5


def test_frequency_caps_at_opcode_space():
    lines = []
    for v in range(100):
        lines += [f"       MOV ={v:X}, WA"] * 3
        lines += [f"       MOV ={v:X}, WB"] * 3
    stream = stream_for("\n".join(lines) + "\n")
    out, adopted = compact_stream(stream, "freq", 176, 20)
    # 202 keys pay and 176 are ranked: the pooled two-byte prefixes
    # outscore every full instruction, then ties fall to the smaller key,
    # so all 100 WA instructions and 74 WB ones.  Longest first, the
    # WA prefix is left with nothing; the WB prefix takes the 26 WB
    # instructions that missed the cut.
    keys = [match_key(m.items) for m in adopted]
    assert len(keys) == 175
    assert [m.code for m in adopted] == list(range(0x50, 0x50 + 175))
    assert sum(m.byte_len == 3 for m in adopted) == 174
    assert sum(k[:2] == (lit(0x32), lit(0x1B)) for k in keys) == 75
    assert keys[-1] == (lit(0x32), lit(0x1B))
    # 600 three-byte sites: 522 shrink by 2, the WB prefix's 78 by 1
    assert objective(out, adopted) == 600 * 3 - 522 * 2 - 78 + 174 * 3 + 2


def test_frequency_ties_fall_to_the_smaller_symbol():
    # ZZ is referenced first, yet the keys rank by symbol name
    text = ("ZZ     NOP\nGG     NOP\n"
            + "       MOV =ZZ, -(XS)\n" * 2 + "       MOV =GG, -(XS)\n" * 2)
    stream = stream_for(text)
    gg = (lit(0x32), lit(0x9B), ref("GG"))
    zz = (lit(0x32), lit(0x9B), ref("ZZ"))
    _, adopted = compact_stream(stream, "freq", 1, 20)
    assert [match_key(m.items) for m in adopted] == [gg]
    _, adopted = compact_stream(stream, "freq", 176, 20)
    assert [match_key(m.items) for m in adopted] == [gg, zz]


def test_frequency_ignores_multi_instruction_runs():
    stream = stream_for("       NOP\n" * 6)
    out, adopted = compact_stream(stream, "freq", 176, 20)
    assert adopted == []
    assert out.byte_size() == 6


def test_freq_compaction_lowers_once(monkeypatch):
    stream = stream_for(corpus.generate_program(3))
    real, calls = macros.lower, []
    splice, runs, splices = macros.Lowered.splice, macros.Lowered.runs, []
    with monkeypatch.context() as m:
        m.setattr(macros, "lower",
                  lambda items: calls.append(len(items)) or real(items))
        m.setattr(macros.Lowered, "splice",
                  lambda self, cuts: splices.append(len(cuts))
                  or splice(self, cuts))
        m.setattr(macros.Lowered, "runs",
                  lambda *args: pytest.fail("freq swept the stream"))
        got = compact_stream(stream, "freq", 176, 20)
    assert calls == [len(stream.items)]
    # every key's cuts go in by one splice, and no key sweeps the stream
    assert len(splices) == 1
    assert splices[0] == sum(isinstance(it, MacroByte) for it in got[0].items)
    # ranked keys are applied longest first, each to what is left
    widths = [m.byte_len for m in got[1]]
    assert widths == sorted(widths, reverse=True)
    assert len(got[1]) > 5


# --- greedy selection -------------------------------------------------------

def test_greedy_adopts_aligned_nop_run():
    stream = stream_for("       NOP\n" * 6)
    out, adopted = select_greedy(stream, 176, 20)
    assert len(adopted) == 1
    assert adopted[0].byte_len == 3
    assert out.byte_size() == 2


def packed_count(occs):
    """Leftmost-greedy count of one key's occurrences, in stream order."""
    count = 0
    free = 0
    for o in occs:
        if o.item_start >= free:
            count += 1
            free = o.item_end
    return count


def test_greedy_exhausts_instruction_candidates():
    stream = stream_for(corpus.generate_program(seed=0))
    out, adopted = select_greedy(stream, 176, 20)
    assert len(adopted) < 176
    for granularity in ("aligned", "instruction"):
        for key, occs in extract_candidates(out, 20,
                                            granularity=granularity).items():
            b = occs[0].byte_len
            assert packed_count(occs) * (b - 1) - b <= 0


def test_selector_limits():
    stream = stream_for("       NOP\n")
    for bad in (0, 177):
        with pytest.raises(ValueError):
            select_greedy(stream, bad, 20)
        with pytest.raises(ValueError):
            compact_stream(stream, "freq", bad, 20)
    with pytest.raises(ValueError):
        compact_stream(stream, "middle-out", 8, 20)


# --- exact selection --------------------------------------------------------

def brute_best_objective(stream, max_macros, max_len):
    """Reference search: try every non-overlapping occurrence subset using
    at most max_macros distinct keys, scored by realized bytes."""
    total = stream.byte_size()
    occs = []
    for key, group in extract_candidates(stream, max_len).items():
        for o in group:
            occs.append((o.byte_start, o.byte_start + o.byte_len - 1,
                         o.byte_len, key))
    occs.sort()
    width = {key: blen for _, _, blen, key in occs}
    best = total

    def walk(idx, free_from, keys, saved):
        nonlocal best
        table = sum(width[k] for k in keys)
        if total - saved + table < best:
            best = total - saved + table
        if idx == len(occs):
            return
        start, end, blen, key = occs[idx]
        walk(idx + 1, free_from, keys, saved)
        if start >= free_from and (key in keys or len(keys) < max_macros):
            walk(idx + 1, end + 1, keys | {key}, saved + blen - 1)

    walk(0, 0, frozenset(), 0)
    return best


EXACT_TOYS = [
    ("       MOV =4F, WA\n       OUT WA\n" * 2 + "       MOV =4F, WA\n"
     "       HLT\n"),
    ("NULLS  NOP\n" + "       MOV =NULLS, -(XS)\n" * 3 + "       HLT\n"),
    ("TOP    NOP\n       BRN -TOP\n       NOP\n       BRN -TOP\n"),
]


@pytest.mark.parametrize("text", EXACT_TOYS)
def test_exact_matches_reference_search(text):
    stream = stream_for(text)
    out, adopted = select_exact(stream, 2, 5)
    got = out.byte_size() + sum(m.byte_len for m in adopted)
    assert got == brute_best_objective(stream, 2, 5)


def test_exact_adopts_only_macros_that_pay(monkeypatch):
    # the step estimate is far above the real work on these programs
    monkeypatch.setenv("MACROFORGE_BUDGET", str(10 ** 18))
    adopted = 0
    for seed in range(12):
        stream = stream_for(corpus.generate_program(seed, min_instructions=6))
        out, macros = select_exact(stream, 2, 4)
        for m in macros:
            f = sum(isinstance(it, MacroByte) and it.code == m.code
                    for it in out.items)
            assert f * (m.byte_len - 1) - m.byte_len > 0, (seed, m.items)
        adopted += len(macros)
    assert adopted == 24


def test_every_adopted_macro_pays_what_net_charges(monkeypatch):
    # every paying test goes through macros._net: charged 2 more bytes
    # per table entry, each macro that greedy (both stages), freq and
    # flat pack adopt saves more than 2 bytes at the sites it takes
    net = macros._net
    monkeypatch.setattr(macros, "_net", lambda f, b: net(f, b) - 2)
    adopted = 0
    for text in (CROSSING, SHARED_PREFIX,
                 *map(corpus.generate_program, range(4))):
        stream = stream_for(text)
        for mode in ("greedy", "freq"):
            for budget in (8, 176):
                out, chosen = compact_stream(stream, mode, budget, 20)
                sites = Counter(it.code for it in out.items
                                if isinstance(it, MacroByte))
                for m in chosen:
                    f, b = sites[m.code], m.byte_len
                    assert f * (b - 1) - b > 2, (mode, budget, m.items)
                adopted += len(chosen)
    rng = random.Random(5)
    for data in (b"ab" * 100, bytes(rng.choice(b"ACGT") for _ in range(600)),
                 corpus.generate_program(0).encode()[:800],
                 asm.assemble(corpus.generate_program(1)).code):
        result = greedy_select(data, 176, 20)
        for m in result.macros:
            f, b = result.residual.count(m.code), len(m.body)
            assert f * (b - 1) - b > 2, (data[:8], m.body)
        adopted += len(result.macros)
    assert adopted > 100


def test_exact_refuses_large_search():
    stream = stream_for(corpus.generate_program(seed=1))
    with pytest.raises(BudgetError):
        select_exact(stream, 176, 20)


def test_exact_never_loses_to_sweeps():
    stream = stream_for(EXACT_TOYS[0])
    results = {}
    for mode in ("greedy", "freq", "exact"):
        out, adopted = compact_stream(stream, mode, 2, 5)
        results[mode] = out.byte_size() + sum(m.byte_len for m in adopted)
    assert results["exact"] <= results["greedy"]
    assert results["exact"] <= results["freq"]


# --- full pipeline ----------------------------------------------------------

def test_compact_source_push_example():
    image, info = compact_source(PUSH_TWICE, mode="freq")
    assert image.code == bytes([0x01, 0x50, 0x50])
    assert [m.code for m in image.macros] == [0x50]
    assert image.macros[0].body == bytes([0x32, 0x9B, 0x01, 0x00])
    assert info["input_bytes"] == 9
    assert info["residual_bytes"] == 3
    assert info["table_bytes"] == 4
    assert info["objective"] == 7
    assert info["macro_count"] == 1


def test_compact_source_entry_label():
    image, _ = compact_source(PUSH_TWICE, mode="freq", entry="NULLS")
    assert image.entry == 0x100


def test_hex_entry_is_a_plain_address_kept_through_selection():
    # Every third instruction start of the plain code, as an entry: the
    # compacted image must start at the same instruction.
    text = corpus.generate_program(seed=3)
    stream, layout = assemble_stream(text)
    starts = [a for it, a in zip(stream.items, layout.addresses)
              if it.op_start]
    for mode in ("greedy", "freq"):
        for entry in starts[::3]:
            plain = vm.run(vm.load(asm.assemble(text, entry=entry)), 100_000)
            image, _ = compact_source(text, mode=mode, max_macros=64,
                                      entry=entry)
            got = vm.run(vm.load(image), 100_000)
            assert (got.status, got.trace) == (plain.status, plain.trace)


def test_hex_entry_inside_an_instruction_is_rejected():
    # 0102 is the header byte of the MOV at 0101
    with pytest.raises(asm.LayoutError, match="start of an instruction"):
        compact_source(PUSH_TWICE, entry=0x102)


def test_entry_marker_leaves_label_and_default_output_alone():
    text = corpus.generate_program(seed=3)
    label = next(line.split()[0] for line in text.splitlines()
                 if line[:1].strip())
    address = asm.assemble(text, entry=label).entry
    default, _ = compact_source(text)
    by_label, _ = compact_source(text, entry=label)
    by_address, _ = compact_source(text, entry=address)
    assert by_label.code == by_address.code == default.code
    assert by_label.macros == by_address.macros == default.macros
    assert by_label.entry == by_address.entry


def test_macro_codes_are_dense():
    text = corpus.generate_program(seed=5)
    for mode in ("greedy", "freq"):
        image, _ = compact_source(text, mode=mode)
        codes = [m.code for m in image.macros]
        assert codes == list(range(0x50, 0x50 + len(codes)))


@pytest.mark.parametrize("seed", range(5))
def test_size_accounting(seed):
    text = corpus.generate_program(seed=seed)
    for mode in ("greedy", "freq"):
        image, info = compact_source(text, mode=mode)
        assert info["objective"] == info["residual_bytes"] + info["table_bytes"]
        assert info["residual_bytes"] == len(image.code)
        if info["macro_count"]:
            assert info["objective"] < info["input_bytes"]
        else:
            assert info["objective"] == info["input_bytes"]


@pytest.mark.parametrize("seed", range(5))
def test_compaction_preserves_behavior(seed):
    text = corpus.generate_program(seed=seed)
    base = vm.run(vm.load(asm.assemble(text)), fuel=200_000)
    assert base.status == "halted"
    for mode in ("greedy", "freq"):
        image, _ = compact_source(text, mode=mode)
        got = vm.run(vm.load(image), fuel=200_000)
        assert got.status == "halted"
        assert got.trace == base.trace


@pytest.mark.parametrize("text", EXACT_TOYS[:2])
def test_exact_compaction_preserves_behavior(text):
    base = vm.run(vm.load(asm.assemble(text)), fuel=1_000)
    image, _ = compact_source(text, mode="exact", max_macros=2, max_len=5)
    got = vm.run(vm.load(image), fuel=1_000)
    assert (got.trace, got.status) == (base.trace, base.status)
