"""Greedy's stage one on either kind of stream.

When no instruction's text is a proper prefix of another's, stage one
walks, recounts and substitutes on the stream's pieces, one item per
instruction (macros.Lowered.pieces).  Raw-hex lines can break that, and
then it works item by item, with the same walk, recount and splice.
Both are held to oracles.select_greedy, which recounts every key on the
items after every adoption, and each recount on pieces to the
item-level one.  A max_len of 2 or 4 leaves instructions too wide to
join any run.
"""

from itertools import accumulate, chain

import corpus
import oracles
import threaded
from macroforge import asm, macros
from macroforge.asm import MacroByte
from test_selection_oracle import CROSSING, SHARED_PREFIX

PREFIX_FREE = [*map(corpus.generate_program, range(40)), threaded.PROGRAM,
               corpus.generate_corpus(2024), corpus.generate_corpus(7)]

# Raw-hex lines whose texts stay prefix-free: no line begins with the
# bytes of another, so they go by pieces too.
RAW_HEX = ("       NOP\n"
           + ("".join(f"       OUT 00, 0{k}\n" for k in range(1, 5))
              + "".join(f"       MOV 00, 00, 0{k}\n" for k in range(1, 9))) * 2
           + "       HLT\n")


def lowered(text):
    return macros.lower(asm.assemble_stream(text)[0].items)


def test_which_programs_are_prefix_free():
    for text in [*PREFIX_FREE, RAW_HEX]:
        low = lowered(text)
        pieces = low.pieces
        assert isinstance(pieces, macros.Lowered)
        assert len(pieces.items) == len(pieces.sig) == len(pieces.marks)
        assert list(chain.from_iterable(pieces.items)) == low.items
    for text in (CROSSING, SHARED_PREFIX):
        assert lowered(text).pieces is None


def test_both_paths_match_the_oracle():
    cases = [(threaded.PROGRAM, True),
             *((corpus.generate_program(seed), True) for seed in (6, 7, 8)),
             (RAW_HEX, True), (CROSSING, False), (SHARED_PREFIX, False)]
    for case, (text, on_pieces) in enumerate(cases):
        stream, _ = asm.assemble_stream(text)
        assert (macros.lower(stream.items).pieces is not None) == on_pieces
        for max_len in (2, 4, 20):
            for budget in (1, 2, 8, 64, 176):
                got = macros.select_greedy(stream, budget, max_len)
                want = oracles.select_greedy(stream, budget, max_len)
                assert got == want, (case, max_len, budget)


def test_string_recounts_equal_the_item_recounts():
    # every heap key, recounted on the pieces after each of stage one's
    # adoptions, against its key of items on the item stream, which is
    # spliced in step and must equal the flattened pieces
    for text in (threaded.PROGRAM, corpus.generate_corpus(2024), RAW_HEX):
        items = lowered(text)
        keys = macros.PayingKeys(items.pieces, 20, "aligned")
        at = [0, *accumulate(map(len, keys.low.items))]
        text_of = dict(zip(keys.low.sig, map(items.sig.__getitem__,
                                             map(slice, at, at[1:]))))
        code = 0x50
        while (best := keys.best()) is not None:
            for s in {e[2] for e in keys.heap}:
                key = "".join(map(text_of.__getitem__, s))
                assert keys._recount(s) == len(items.runs(key, "aligned"))
            key = "".join(map(text_of.__getitem__, best))
            keys.substitute(best, [MacroByte(code)])
            items = items.splice([(a, a + len(key), MacroByte(code))
                                  for a in items.runs(key, "free")])
            assert list(chain.from_iterable(keys.low.items)) == items.items
            code += 1
        assert code > 0x50
