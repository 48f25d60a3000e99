
import pytest

import corpus
import oracles
from macroforge import asm, disasm, macros
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


def test_empty_raw_container_cannot_be_listed():
    with pytest.raises(DisasmError, match="raw container holds packed bytes"):
        render_listing(ObjectImage(code=b"", flags=FLAG_RAW))


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


# --- shared instructions ----------------------------------------------------
# decode_image shares one DecodedInstr among the units that decode alike,
# and render_listing one rendered line among units with the same bytes and
# instructions; equal bytes or equal text must not make units alike.

@pytest.mark.parametrize("code, lines", [
    # BRN +self twice: the same three bytes, two targets
    ([0x03, 0x0C, 0xC2] * 2, ["0100  03 0C C2          BRN 0100",
                              "0103  03 0C C2          BRN 0103"]),
    ([0x08, 0xB0, 0x85, 0xC3] * 2, ["0100  08 B0 85 C3       BEQ WA, =5, 0100",
                                    "0104  08 B0 85 C3       BEQ WA, =5, 0104"]),
    # two BRN 0100: the same instruction, two offset bytes
    ([0x03, 0x0C, 0xC2, 0x03, 0x0C, 0xC5], ["0100  03 0C C2          BRN 0100",
                                            "0103  03 0C C5          BRN 0100"]),
])
def test_short_branch_lists_its_own_bytes_and_target(code, lines):
    listing = render_listing(ObjectImage(code=bytes(code))).splitlines()
    assert listing[2:] == lines


def test_repeated_text_keeps_its_encoding():
    # MOV =5, XR short and then in the 2-byte literal form
    image = ObjectImage(code=bytes([0x32, 0x4B, 0x85, 0x32, 0x4B, 0x00, 0x05]))
    listing = render_listing(image).splitlines()
    assert listing[2:] == ["0100  32 4B 85          MOV =5, XR",
                           "0103  32 4B 00 05       MOV =5, XR"]
    with pytest.raises(DisasmError, match="^at 0103: long-form literal under "
                       "0x80; source round trip would not be byte-exact$"):
        render_source(image)


def test_repeated_branch_bytes_land_apart():
    # HLT; BRN to 0100; ZER WC; the same BRN bytes now target 0105
    image = ObjectImage(code=bytes([0x00, 0x03, 0x0C, 0xC3, 0x44, 0x02,
                                    0x03, 0x0C, 0xC3, 0x00]))
    with pytest.raises(DisasmError, match=r"^branch at 0106 lands inside an "
                       r"instruction \(0105\)$"):
        render_source(image)


def test_decoded_instructions_are_shared_and_frozen():
    image = ObjectImage(code=bytes([0x44, 0x02] * 2 + [0x00]))
    first, second, _ = decode_image(image)
    assert first.instrs[0] is second.instrs[0]
    assert first.instrs[0].operand_texts == ("WC",)
    with pytest.raises(AttributeError):
        first.instrs[0].name = "HLT"
    with pytest.raises(AttributeError):
        first.instrs[0].target_addr = 0x100
    with pytest.raises(AttributeError):
        first.instrs[0].comment = "new"


# --- shared macro activations -----------------------------------------------
# The walk decodes a body that ends on an instruction boundary once per
# call; decode_image copies its instructions into every activation, and
# render_listing renders its line once and builds no unit.  A body that
# ends mid-instruction reads main-stream bytes and is decoded at every site.

def macro_image(code, *bodies):
    return ObjectImage(code=bytes(code), macros=[
        MacroEntry(0x50 + i, bytes(b)) for i, b in enumerate(bodies)])


def test_whole_body_sites_keep_their_own_address_and_byte():
    # ZER WC at 0100 and 0102, then NOP and HLT; 51 (OUT WC) is never used
    image = macro_image([0x50, 0x01, 0x50, 0x00], [0x44, 0x02], [0x40, 0x02])
    units = decode_image(image)
    assert [(u.addr, u.main_bytes, u.macro_code) for u in units] == [
        (0x100, b"\x50", 0x50), (0x101, b"\x01", None),
        (0x102, b"\x50", 0x50), (0x103, b"\x00", None)]
    assert render_listing(image).splitlines()[2:] == [
        "0100  50           ***  ZER WC",
        "0101  01                NOP",
        "0102  50           ***  ZER WC",
        "0103  00                HLT",
        "",
        "macro table:",
        "  50  len 2   44 02        ZER WC",
        "  51  len 2   40 02        OUT WC"]


def test_prefix_body_sites_list_their_own_instruction():
    # the body is MOV's opcode and header; each site supplies the literal
    image = macro_image([0x50, 0x85, 0x50, 0x00, 0x87, 0x00], [0x32, 0x4B])
    assert render_listing(image).splitlines()[2:] == [
        "0100  50 85        ***  MOV =5, XR",
        "0102  50 00 87     ***  MOV =87, XR",
        "0105  00                HLT",
        "",
        "macro table:",
        "  50  len 2   32 4B        (instruction prefix)"]


def test_images_with_the_same_code_share_nothing():
    zer = macro_image([0x50, 0x50, 0x00], [0x44, 0x02])
    out = macro_image([0x50, 0x50, 0x00], [0x40, 0x02, 0x01])
    assert render_listing(zer).splitlines()[2:4] == [
        "0100  50           ***  ZER WC",
        "0101  50           ***  ZER WC"]
    assert render_listing(out).splitlines()[2:4] == [
        "0100  50           ***  OUT WC / NOP",
        "0101  50           ***  OUT WC / NOP"]
    assert render_listing(out).splitlines()[-1].endswith("OUT WC / NOP")
    assert [i.name for u in decode_image(zer) for i in u.instrs] == [
        "ZER", "ZER", "HLT"]


@pytest.mark.parametrize("body, reason", [
    ([0x01, 0x51], "macro opcode 0x51 inside a macro body"),
    ([0x01, 0x4F], "undefined opcode 0x4f"),
    ([0x03, 0x0C, 0xC0], "short branch form inside a macro body"),
])
def test_bad_body_fails_at_its_first_activation(body, reason):
    image = macro_image([0x01, 0x50, 0x01, 0x50, 0x00], body)
    with pytest.raises(DisasmError, match=f"^{reason} at 0101$"):
        decode_image(image)


def test_listing_builds_no_units(monkeypatch):
    text = corpus.generate_program(0)
    images = [macros.compact_source(text, mode=mode)[0]
              for mode in ("greedy", "freq")]
    expected = [oracles.reference_render_listing(image) for image in images]

    def no_unit(*args, **kwargs):
        raise AssertionError("render_listing built a DecodedUnit")
    monkeypatch.setattr(disasm, "DecodedUnit", no_unit)
    assert [render_listing(image) for image in images] == expected


def test_whole_body_line_is_rendered_once_per_call(monkeypatch):
    # ZER WC at eight sites; MOV's opcode and header at two, each with
    # its own literal (=5 short, =87 long); then HLT
    image = macro_image([0x50] * 4 + [0x51, 0x85] + [0x50] * 4
                        + [0x51, 0x00, 0x87, 0x00], [0x44, 0x02], [0x32, 0x4B])
    rendered = []
    tail = disasm._tail

    def spy(data, is_macro, text):
        rendered.append(data)
        return tail(data, is_macro, text)
    monkeypatch.setattr(disasm, "_tail", spy)
    for _ in range(2):
        rendered.clear()
        assert render_listing(image) == oracles.reference_render_listing(image)
        assert sorted(rendered) == [b"\x00", b"\x50", b"\x51\x00\x87",
                                    b"\x51\x85"]


def test_units_own_their_instruction_lists():
    image = macro_image([0x50, 0x50, 0x50, 0x00], [0x44, 0x02, 0x01])
    units = decode_image(image)
    units[0].instrs.clear()
    units[1].instrs.append(units[3].instrs[0])
    assert [[i.text() for i in u.instrs] for u in units] == [
        [], ["ZER WC", "NOP", "HLT"], ["ZER WC", "NOP"], ["HLT"]]


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
