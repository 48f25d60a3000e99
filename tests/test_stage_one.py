"""Greedy's stage one on either of its two paths.

When no instruction's text is a proper prefix of another's, stage one
counts, recounts and substitutes on the instruction string, one
character per instruction (macros.Lowered.fingerprint).  Raw-hex lines
can break that, and then it works item by item.  Both paths are held to
oracles.select_greedy, which recounts every key on the items after
every adoption, and each recount on the string to the item-level one.
A max_len of 2 or 4 leaves instructions too wide to join any run.
"""

import corpus
import oracles
import threaded
from macroforge import asm, macros
from macroforge.asm import MacroByte
from test_selection_oracle import CROSSING, SHARED_PREFIX

PREFIX_FREE = [*map(corpus.generate_program, range(40)), threaded.PROGRAM,
               corpus.generate_corpus(2024), corpus.generate_corpus(7)]


def instruction_string(text):
    return macros.lower(asm.assemble_stream(text)[0].items).fingerprint


def test_which_programs_are_prefix_free():
    for text in PREFIX_FREE:
        fp, at, offset = instruction_string(text)
        assert len(fp) == len(at) - 1 == len(offset) - 1
    for text in (CROSSING, SHARED_PREFIX):
        assert instruction_string(text) is None


def test_both_paths_match_the_oracle():
    cases = [(threaded.PROGRAM, True),
             *((corpus.generate_program(seed), True) for seed in (6, 7, 8)),
             (CROSSING, False), (SHARED_PREFIX, False)]
    for case, (text, on_string) in enumerate(cases):
        stream, _ = asm.assemble_stream(text)
        for max_len in (2, 4, 20):
            keys = macros.PayingKeys(macros.lower(stream.items), max_len,
                                     "aligned")
            keys.best()
            assert (keys.fp is not None) == on_string, (case, max_len)
            for budget in (1, 2, 8, 64, 176):
                got = macros.select_greedy(stream, budget, max_len)
                want = oracles.select_greedy(stream, budget, max_len)
                assert got == want, (case, max_len, budget)


def test_string_recounts_equal_the_item_recounts():
    # every key counted at the start, after each of stage one's adoptions
    for text in (threaded.PROGRAM, corpus.generate_corpus(2024)):
        stream, _ = asm.assemble_stream(text)
        keys = macros.PayingKeys(macros.lower(stream.items), 20, "aligned")
        code = 0x50
        while (best := keys.best()) is not None:
            assert keys.fp is not None
            for s in keys.fp_keys:
                assert keys._recount(s) == len(keys.low.runs(s, "aligned"))
            keys.substitute(best, MacroByte(code))
            code += 1
