"""The listing against its unit-by-unit oracle.

disasm.decode_image shares one decoded instruction per distinct decode,
and render_listing renders each distinct unit once per call.
oracles.reference_decode_image and reference_render_listing decode and
format every unit on its own.  Both must give the same units, the same
listing and the same source text, and refuse a bad image with the same
error.
"""

import random

import pytest

import corpus
import oracles
from macroforge import asm, disasm, macros, objfile
from macroforge.disasm import DisasmError
from macroforge.objfile import ObjectError


def units_view(units):
    # every field that text() and render_source read
    return [(u.addr, u.main_bytes, u.macro_code,
             [(i.name, i.operand_texts, i.target_addr, i.target_short,
               i.noncanonical) for i in u.instrs])
            for u in units]


def reference_source(image, monkeypatch):
    # render_source over units decoded one by one
    with monkeypatch.context() as patch:
        patch.setattr(disasm, "decode_image", oracles.reference_decode_image)
        return disasm.render_source(image)


def outcome(render, image):
    try:
        return "ok", render(image)
    except DisasmError as exc:
        return "error", str(exc)


def assert_same_listing(image, monkeypatch):
    units = oracles.reference_decode_image(image)
    assert units_view(disasm.decode_image(image)) == units_view(units)
    assert (disasm.render_listing(image)
            == oracles.reference_render_listing(image, units))
    if not image.macros:
        assert (outcome(disasm.render_source, image)
                == outcome(lambda im: reference_source(im, monkeypatch), image))


def images_of(text, budgets=(8, 64, 176)):
    yield asm.assemble(text)
    for mode in ("greedy", "freq"):
        for budget in budgets:
            yield macros.compact_source(text, mode=mode, max_macros=budget)[0]


def test_programs_match_oracle(monkeypatch):
    for seed in range(50):
        for image in images_of(corpus.generate_program(seed)):
            assert_same_listing(image, monkeypatch)


@pytest.mark.parametrize("seed, min_bytes", [(2024, 8000), (7, 27000)])
def test_corpora_match_oracle(seed, min_bytes, monkeypatch):
    for image in images_of(corpus.generate_corpus(seed, min_bytes), (176,)):
        assert_same_listing(image, monkeypatch)


def test_mutants_fail_alike(monkeypatch):
    blobs = [image.serialize() for seed in range(8)
             for image in images_of(corpus.generate_program(seed, 10, 40),
                                    (8, 176))]
    rng = random.Random(11)
    listed = failed = 0
    for _ in range(2000):
        blob = bytearray(rng.choice(blobs))
        for _ in range(rng.randint(1, 3)):
            blob[rng.randrange(12, len(blob))] = rng.randrange(256)
        try:
            image = objfile.parse(bytes(blob))
        except ObjectError:
            continue
        got = outcome(disasm.render_listing, image)
        assert got == outcome(oracles.reference_render_listing, image)
        if not image.macros:
            assert (outcome(disasm.render_source, image)
                    == outcome(lambda im: reference_source(im, monkeypatch),
                               image))
        listed += 1
        failed += got[0] == "error"
    assert listed > 1000 and failed > 200
