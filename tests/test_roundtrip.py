import pytest

from macroforge import asm, corpus, disasm, macros
from macroforge.disasm import DisasmError, decode_image, render_listing, render_source
from macroforge.objfile import FLAG_RAW, MacroEntry, ObjectImage


PUSH_TWICE = """\
NULLS  NOP
       MOV =NULLS, -(XS)
       MOV =NULLS, -(XS)
"""


# --- listings ---------------------------------------------------------------

def test_listing_reconstructs_mnemonic():
    image = asm.assemble("       MOV XR, -(XS)\n       HLT\n")
    lines = render_listing(image).splitlines()
    assert lines[0] == "origin 0100  entry 0100"
    assert lines[2].startswith("0100  32 94")
    assert lines[2].endswith("MOV XR, -(XS)")
    assert lines[3].endswith("HLT")


def test_listing_flags_macro_lines():
    image, _ = macros.compact_source(PUSH_TWICE, mode="freq")
    text = render_listing(image)
    flagged = [ln for ln in text.splitlines() if "***" in ln]
    assert len(flagged) == 2
    assert all("MOV =100, -(XS)" in ln for ln in flagged)
    assert "macro table:" in text
    assert "50  len 4" in text


def test_listing_empty_code():
    assert render_listing(ObjectImage(code=b"")) == ""


def test_disassemble_is_the_listing():
    image = asm.assemble("       ZER WC\n       HLT\n")
    assert disasm.disassemble(image) == render_listing(image)


def test_listing_of_compacted_program_smokes():
    image, _ = macros.compact_source(corpus.generate_program(seed=11))
    text = render_listing(image)
    assert "macro table:" in text
    assert "***" in text


# --- decode errors ----------------------------------------------------------

def test_raw_container_cannot_be_decoded():
    raw = ObjectImage(code=b"\x00\x01\x02", flags=FLAG_RAW)
    with pytest.raises(DisasmError):
        decode_image(raw)


def test_unknown_opcode_rejected():
    with pytest.raises(DisasmError):
        decode_image(ObjectImage(code=bytes([0x4F])))


def test_unassigned_macro_opcode_rejected():
    with pytest.raises(DisasmError):
        decode_image(ObjectImage(code=bytes([0x50])))


def test_truncated_instruction_rejected():
    with pytest.raises(DisasmError):
        decode_image(ObjectImage(code=bytes([0x32])))


@pytest.mark.parametrize("code, bodies, reason", [
    ([0x01, 0x4F], [], "undefined opcode 0x4f at 0101"),
    ([0x01, 0x32], [], "truncated image: instruction at 0101"),
    ([0x01, 0x51], [], "unknown opcode 0x51 at 0101"),
    ([0x01, 0x50], [[0x01, 0x50]], "inside a macro body at 0101"),
])
def test_decode_errors_name_the_address(code, bodies, reason):
    image = ObjectImage(code=bytes(code), macros=[
        MacroEntry(0x50 + i, bytes(b)) for i, b in enumerate(bodies)])
    with pytest.raises(DisasmError, match=reason):
        decode_image(image)


def test_source_render_refuses_macro_image():
    image, _ = macros.compact_source(PUSH_TWICE, mode="freq")
    with pytest.raises(DisasmError):
        render_source(image)


# --- source round trip ------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_source_round_trip_is_byte_exact(seed):
    image = asm.assemble(corpus.generate_program(seed=seed))
    again = asm.assemble(render_source(image))
    assert again.code == image.code
    assert again.entry == image.entry


def test_source_round_trip_on_large_corpus():
    image = asm.assemble(corpus.generate_corpus(seed=2024))
    assert len(image.code) >= 8000
    again = asm.assemble(render_source(image))
    assert again.code == image.code
