"""The assembler against its line-by-line oracle.

asm compiles each distinct instruction text once per program, in one pass,
and relaxes branches over a width array.  oracles.reference_assemble_stream
does every line on its own and re-measures every item in each pass.
Both must give the same items, field for field, the same layout and the
same object bytes, and refuse a bad source with the same error.
"""

import random

import pytest

import corpus
import oracles
from macroforge import asm, isa, macros
from macroforge.objfile import ObjectImage
from test_source_fuzz import mutate


def fields(items):
    return [(type(it), vars(it)) for it in items]


def reference_object(text, origin=isa.DEFAULT_ORIGIN):
    stream, layout = oracles.reference_assemble_stream(text, origin)
    image = ObjectImage(code=oracles.reference_resolve_stream(stream, layout),
                        origin=origin, entry=origin)
    image.validate()
    return image.serialize()


def assert_same_assembly(text, origin=isa.DEFAULT_ORIGIN):
    stream, layout = asm.assemble_stream(text, origin)
    ref_stream, ref_layout = oracles.reference_assemble_stream(text, origin)
    assert fields(stream.items) == fields(ref_stream.items)
    assert layout.addresses == ref_layout.addresses
    assert layout.symbols == ref_layout.symbols
    assert layout.size == ref_layout.size
    assert (asm.assemble(text, origin).serialize()
            == reference_object(text, origin))
    # the layout compaction runs on its output: widths frozen, no relaxing
    rigid = asm.translate_program(asm.parse_source(text))
    ref_rigid = oracles.reference_translate_program(
        oracles.reference_parse_source(text))
    assert (asm.layout_and_resolve(rigid, origin, relax=False)
            == oracles.reference_layout_and_resolve(ref_rigid, origin,
                                                    relax=False))
    assert fields(rigid.items) == fields(ref_rigid.items)


def test_programs_match_oracle():
    for seed in range(50):
        assert_same_assembly(corpus.generate_program(seed))


@pytest.mark.parametrize("seed, min_bytes", [(2024, 8000), (7, 27000)])
def test_corpora_match_oracle(seed, min_bytes):
    assert_same_assembly(corpus.generate_corpus(seed, min_bytes))


def test_compacted_stream_layout_matches_oracle():
    # final layout of compaction: macro bytes in the stream, refs frozen
    stream, _ = asm.assemble_stream(corpus.generate_corpus(2024))
    out, _ = macros.compact_stream(stream, "greedy", isa.MAX_MACROS, 20)
    assert (asm.layout_and_resolve(out, relax=False)
            == oracles.reference_layout_and_resolve(out, relax=False))
    final = asm.layout_and_resolve(out, relax=False)
    assert (asm.resolve_stream(out, final)
            == oracles.reference_resolve_stream(out, final))


def outcome(assemble, text):
    try:
        return "ok", assemble(text)
    except asm.AsmError as exc:  # LayoutError included
        return type(exc), str(exc)


def test_mutants_fail_alike():
    # the mutants of test_source_fuzz: same result, or same error
    rng = random.Random(707)
    sources = [corpus.generate_program(seed, min_instructions=6,
                                       max_instructions=40)
               for seed in range(10)]
    refused = 0
    for _ in range(600):
        text = mutate(rng, rng.choice(sources))
        got = outcome(lambda t: asm.assemble(t).serialize(), text)
        want = outcome(reference_object, text)
        assert got == want, text
        if got[0] == "ok":
            assert_same_assembly(text)
        else:
            refused += 1
    assert 100 < refused < 500, refused
