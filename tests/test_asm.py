import random

import pytest

import corpus
from macroforge import asm, decode, isa, objfile
from macroforge.asm import (
    AsmError,
    LayoutError,
    assemble,
    assemble_stream,
    encode_literal,
    encode_short_branch,
    parse_source,
)
from macroforge.decode import decode_short_branch
from macroforge.objfile import FLAG_RAW, MacroEntry, ObjectError, ObjectImage
from oracles import (decode_literal, reference_assemble_stream,
                     reference_parse, reference_parse_source,
                     reference_translate_program)
from test_asm_oracle import fields


def print_program(instructions: list) -> str:
    """Canonical text for parsed instructions; parse(print(p)) == p."""
    lines = []
    for inst in instructions:
        ops = ", ".join(asm._print_operand(o) for o in inst.operands)
        head = f"{inst.label:<7}" if inst.label else "       "
        lines.append(f"{head}{inst.mnemonic} {ops}".rstrip())
    return "\n".join(lines) + "\n"


def code_for(text, origin=0x100):
    stream, layout = assemble_stream(text, origin)
    return asm.resolve_stream(stream, layout)


# --- frozen instruction encodings -----------------------------------------

def test_mov_register_to_push():
    assert code_for("      MOV XR, -(XS)") == bytes([0x32, 0x94])


def test_compare_literal_branch():
    text = "EXSI1 NOP\n      BNE WA, =0x7FFF, EXSI1\n"
    assert code_for(text) == bytes([0x01, 0x09, 0xB0, 0x7F, 0xFF, 0x01, 0x00])


def test_push_label_address():
    text = "NULLS NOP\n      MOV =NULLS, -(XS)\n"
    assert code_for(text) == bytes([0x01, 0x32, 0x9B, 0x01, 0x00])


def test_raw_hex_lines():
    text = "EXITS LCW 04\n      BRI 03\n      MOV A0, 25\n"
    assert code_for(text) == bytes([0x2A, 0x04, 0x0B, 0x03, 0x32, 0xA0, 0x25])


def test_raw_branch_matches_symbolic():
    raw = "EXSI1 NOP\n      BNE B0, 7FFF, EXSI1\n"
    sym = "EXSI1 NOP\n      BNE WA, =0x7FFF, EXSI1\n"
    assert code_for(raw) == code_for(sym)


def test_memory_modes():
    assert code_for("      MOV @25, WB") == bytes([0x32, 0x1A, 0x25])
    assert code_for("      MOV @1000, WB") == bytes([0x32, 0x1C, 0x10, 0x00])


def test_indexed_offset_uses_literal_form():
    assert code_for("      MOV WA, 2(XR)") == bytes([0x32, 0xE0, 0x82])


def test_add_literal():
    assert code_for("      ADD =5, WA") == bytes([0x10, 0x0B, 0x85])


def test_no_header_instructions():
    assert code_for("      HLT") == bytes([0x00])
    assert code_for("      NOP") == bytes([0x01])


def test_single_operand_headers():
    assert code_for("      ICV WC") == bytes([0x1C, 0x02])
    assert code_for("      ZER WC") == bytes([0x44, 0x02])
    assert code_for("      OUT WA") == bytes([0x40, 0x00])
    assert code_for("      LCW XR") == bytes([0x2A, 0x04])


def test_stack_and_indirect_modes():
    assert code_for("      MOV (XS)+, WA") == bytes([0x32, 0x08])
    assert code_for("      MOV (XL), (XR)") == bytes([0x32, 0x76])


def test_longest_instruction_is_max_instruction_bytes():
    # opcode, header, 2-byte address, long literal, absolute target
    code = code_for("L      BEQ @1234, =7FFF, L")
    assert code == bytes([0x08, 0xBC, 0x12, 0x34, 0x7F, 0xFF, 0x01, 0x00])
    assert len(code) == isa.MAX_INSTRUCTION_BYTES


# --- literal encoding ------------------------------------------------------

def test_encode_literal_forms():
    assert encode_literal(0x00) == bytes([0x80])
    assert encode_literal(0x02) == bytes([0x82])
    assert encode_literal(0x7F) == bytes([0xFF])
    assert encode_literal(0x80) == bytes([0x00, 0x80])
    assert encode_literal(0x7FFF) == bytes([0x7F, 0xFF])


def test_encode_literal_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_literal(-1)
    with pytest.raises(ValueError):
        encode_literal(0x8000)


def test_literal_round_trip_and_self_description():
    values = list(range(0, 0x8000, 61)) + [0x7F, 0x80, 0x7FFF]
    for v in values:
        data = encode_literal(v)
        if v <= 0x7F:
            assert len(data) == 1 and data[0] >= 0x80
        else:
            assert len(data) == 2 and data[0] < 0x80
        assert decode_literal(data, 0) == (v, len(data))


# --- short branch ----------------------------------------------------------

def test_short_branch_frozen_points():
    base = 0x0102
    assert encode_short_branch(base, base) == 0xC0
    assert encode_short_branch(base + 0x3F, base) == 0x81
    assert encode_short_branch(base - 0x3F, base) == 0xFF
    assert encode_short_branch(base + 0x40, base) == 0x80
    assert encode_short_branch(base + 0x41, base) is None
    assert encode_short_branch(base - 0x40, base) is None


def test_short_branch_round_trip():
    offset = 0x0141
    for delta in range(-0x3F, 0x41):
        b = encode_short_branch(offset + delta, offset)
        assert 0x80 <= b <= 0xFF
        assert decode_short_branch(b, offset) == offset + delta


# --- relaxation ------------------------------------------------------------

def test_relaxation_cascade():
    # The outer branch starts one byte out of short range and comes into
    # range only after the inner branch relaxes, so the fixpoint needs a
    # second pass.  Final geometry puts FIN exactly 0x3F past the outer
    # offset byte, which must encode as 0x81.
    lines = ["START BRN +FIN", "      BRN +MID", "MID   NOP"]
    lines += ["      NOP"] * 58
    lines += ["FIN   HLT"]
    text = "\n".join(lines) + "\n"
    stream, layout = assemble_stream(text)
    assert layout.size == 66
    assert layout.symbols == {"START": 0x100, "MID": 0x106, "FIN": 0x141}
    code = asm.resolve_stream(stream, layout)
    assert len(code) == 66
    assert code[2] == 0x81
    assert code[5] == 0xBF
    assert code[-1] == 0x00

    rigid_stream = asm.translate_program(parse_source(text))
    rigid = asm.layout_and_resolve(rigid_stream, relax=False)
    assert rigid.size == 68


def test_far_branch_stays_absolute():
    lines = ["      BRN +FIN"] + ["      NOP"] * 0x90 + ["FIN   HLT"]
    code = code_for("\n".join(lines))
    fin = 0x100 + 4 + 0x90
    assert code[:4] == bytes([0x03, 0x0C, fin >> 8, fin & 0xFF])
    assert len(code) == 4 + 0x90 + 1


def test_backward_short_branch():
    text = "LOOP  ICV WC\n      BLT WC, =5, -LOOP\n"
    assert code_for(text) == bytes([0x1C, 0x02, 0x0A, 0xB2, 0x85, 0xC5])


def test_plain_label_ref_is_never_relaxed():
    text = "LOOP  ICV WC\n      BLT WC, =5, LOOP\n"
    assert code_for(text) == bytes([0x1C, 0x02, 0x0A, 0xB2, 0x85, 0x01, 0x00])


def test_repeated_branch_text_relaxes_per_site():
    # one text, parsed and encoded once, at a near and a far site
    lines = ["      BRN +L1", "L1    NOP"] + ["      NOP"] * 0x40
    lines += ["      BRN +L1", "      HLT"]
    stream, layout = assemble_stream("\n".join(lines))
    refs = [it for it in stream.items if isinstance(it, asm.LabelRef)]
    assert [r.relaxed for r in refs] == [True, False]
    assert refs[0] is not refs[1]
    code = asm.resolve_stream(stream, layout)
    assert code[:4] == bytes([0x03, 0x0C, 0xBF, 0x01])
    assert code[-5:] == bytes([0x03, 0x0C, 0x01, 0x03, 0x00])


# --- parsing ---------------------------------------------------------------

def test_parse_print_round_trip():
    text = (
        "START MOV XR, -(XS)\n"
        "      MOV =NULLS, -(XS)\n"
        "      BNE WA, =0x7FFF, +START\n"
        "NULLS LCW 04\n"
        "      MOV WA, 2(XR)\n"
        "      MOV @25, WB\n"
        "      ADD =5, WA\n"
        "      BRN START\n"
        "      HLT\n"
    )
    prog = parse_source(text)
    assert parse_source(print_program(prog)) == prog


# Boundary extension values the assembler accepts, for each mode nibble.
BOUNDARY_EXTENSIONS = {
    **{mode: (None,) for mode in range(isa.MODE_MEM1)},
    isa.MODE_MEM1: (0, 0xFF),
    isa.MODE_MEM2: (0x100, 0x7FFF),
    **{mode: (0, 0x7F, 0x80, 0x7FFF)
       for mode in (isa.MODE_LIT, isa.MODE_OFF_XL, isa.MODE_OFF_XR,
                    isa.MODE_OFF_XS)},
}

# An instruction per value role, and the decoded fields its operand fills.
ROLE_SITES = {"src": ("OUT {}", slice(1, 3)),
              "dst": ("MOV WA, {}", slice(3, 5)),
              "mod": ("ADD WA, {}", slice(3, 5))}


def test_operand_modes_agree_with_the_decoder():
    assert sorted(BOUNDARY_EXTENSIONS) == list(range(16))
    for mode, exts in BOUNDARY_EXTENSIONS.items():
        roles = [r for r in ROLE_SITES if mode not in asm._REJECTED[r]]
        assert roles, hex(mode)
        for ext in exts:
            operand = asm.Operand(mode, ext)
            text = asm._print_operand(operand)
            assert asm._parse_operand(text, 1) == operand, text
            for role in roles:
                line, fields = ROLE_SITES[role]
                decoded = decode.decode(code_for("       " + line.format(text)),
                                        0, 0, 0x100)
                assert decoded[fields] == (mode, ext), (role, text)
                assert decoded[7] is None, (role, text)


def test_comments_and_blank_lines():
    text = "* full line comment\n; another\n\n      NOP  trailing words ignored\n"
    prog = parse_source(text)
    assert [i.mnemonic for i in prog] == ["NOP"]
    assert prog[0].operands == []


MOV_2A_WA = "       MOV =2A, WA\n"


def items_or_error(parse, translate, text):
    try:
        return fields(translate(parse(text)).items)
    except AsmError as err:
        return str(err)


@pytest.mark.parametrize("text, same_as", [
    ("       MOV =2A,WA\n", MOV_2A_WA),
    ("       MOV =2A, WA  copy it\n", MOV_2A_WA),
    # the lone comma comes after the operand field has ended at =2A
    ("       MOV =2A , WA\n", "line 1: MOV takes 2 operand(s), got 1"),
    ("       OUT WA,\n", "       OUT WA\n"),
    # the word after a trailing comma is an operand, not a comment
    ("       OUT WA, copy\n", "line 1: OUT takes 1 operand(s), got 2"),
    ("       mov =2a, wa\n", MOV_2A_WA),
    ("\tMOV\t=2A,\tWA\n", MOV_2A_WA),
    ("       HLT stop, here\n", "       HLT\n"),
    ("       BNE B0, 7FFF, EXSI1\nEXSI1  HLT\n",
     "       BNE WA, =7FFF, EXSI1\nEXSI1  HLT\n"),
])
def test_operand_field_spellings(text, same_as):
    # each word of the operand field is split at its commas; the result
    # is the line-by-line oracle's, in items and in error text
    got = items_or_error(parse_source, asm.translate_program, text)
    assert got == items_or_error(reference_parse_source,
                                 reference_translate_program, text)
    if same_as.startswith("line "):
        assert got == same_as
    else:
        assert got == items_or_error(parse_source, asm.translate_program,
                                     same_as)


def test_label_rules():
    with pytest.raises(AsmError):
        parse_source("FEED  HLT")       # reads as a 4-digit hex item
    with pytest.raises(AsmError):
        parse_source("TOOLONG HLT")
    with pytest.raises(AsmError):
        parse_source("1ST   HLT")
    assert parse_source("FEEDS HLT")[0].label == "FEEDS"
    assert parse_source("L1$   HLT")[0].label == "L1$"


def test_long_label_in_operand_is_a_label_error():
    bad_label = "bad label 'SECOND' \\(1-5 chars, must not read as a hex"
    for line in ("SECOND HLT", "      MOV =SECOND, WA", "      BRN SECOND",
                 "      BRN +SECOND", "      BRN -SECOND"):
        with pytest.raises(AsmError, match=bad_label):
            parse_source(line)


def test_number_errors_keep_their_texts():
    cases = [("      MOV =FACADE, WA", "bad literal 'FACADE'"),
             ("      MOV =12345, WA", "bad literal '12345'"),
             ("      MOV =8000, WA", "literal '8000' exceeds"),
             ("      MOV @SECOND, WA", "bad address 'SECOND'"),
             ("      BRN 123456", "unrecognized operand '123456'"),
             ("      BRN +FACADE", "unrecognized operand '\\+FACADE'")]
    for line, message in cases:
        with pytest.raises(AsmError, match=message):
            parse_source(line)


def test_duplicate_label_reports_both_lines():
    with pytest.raises(AsmError, match="line 2.*line 1"):
        parse_source("L1 NOP\nL1 HLT\n")


def test_repeated_bad_line_reports_its_first_line():
    for bad in ("MOV =8000, WA", "MOV WA, =5"):  # parse, then encode error
        text = f"      HLT\n      {bad}\nL1    {bad}\n"
        with pytest.raises(AsmError, match="^line 2: "):
            assemble(text)
    # a bad operand token on lines 3 and 6, in two texts
    with pytest.raises(AsmError) as err:
        assemble("      HLT\n      NOP\n      OUT ??\n      NOP\n"
                 "      NOP\n      MOV ??, WA\n")
    assert str(err.value) == "line 3: unrecognized operand '??'"


def test_repeated_text_under_different_labels():
    text = "ONE   OUT =5\nTWO   OUT =5\nTHREE OUT =5\n      BRN TWO\n"
    assert [i.label for i in parse_source(text)] == ["ONE", "TWO", "THREE",
                                                     None]
    stream, layout = assemble_stream(text)
    assert layout.symbols == {"ONE": 0x100, "TWO": 0x103, "THREE": 0x106}
    assert asm.resolve_stream(stream, layout) == bytes(
        [0x40, 0x0B, 0x85] * 3 + [0x03, 0x0C, 0x01, 0x03])


def test_parse_errors_come_before_translate_errors():
    # line 1 parses but cannot be encoded (a literal cannot be written);
    # line 2 does not parse, and every parse error is reported first
    with pytest.raises(AsmError) as err:
        assemble("       ZER =5\n       BEQ WA, ??, L1\n")
    assert str(err.value) == "line 2: unrecognized operand '??'"
    # a text whose encoding is refused (by role, count or target), on
    # lines 2 and 5, waits for the parse error on line 7; without it,
    # its first line is reported
    for bad, message in (
            ("ZER =5", "operand '=5' cannot be used as dst of ZER"),
            ("OUT WA, WB", "OUT takes 1 operand(s), got 2"),
            ("BRN @10", "branch target must be a label")):
        refused = (f"       HLT\n       {bad}\n       NOP\n       NOP\n"
                   f"       {bad}\n       NOP\n")
        with pytest.raises(AsmError) as err:
            assemble(refused + "       OUT ??\n")
        assert str(err.value) == "line 7: unrecognized operand '??'"
        with pytest.raises(AsmError) as err:
            assemble(refused)
        assert str(err.value) == "line 2: " + message


@pytest.mark.parametrize("line, tokens, message", [
    ("ZER {}", ("=5", "=7"), "operand {!r} cannot be used as dst of ZER"),
    ("MOV WA, {}", ("=5", "=7"), "operand {!r} cannot be used as dst of MOV"),
    ("OUT WA, {}", ("@10", "@20"), "OUT takes 1 operand(s), got 2"),
    ("BRN {}", ("@10", "@2F"), "branch target must be a label"),
])
def test_a_refused_encoding_names_its_own_line(line, tokens, message):
    # both lines share one mnemonic and one set of operand modes, so one
    # encode row refuses both; each error keeps its line and its operand
    first, later = (line.format(tok) for tok in tokens)
    for text, line_no, tok in (
            (f"       {first}\n       NOP\n       {later}\n", 1, tokens[0]),
            (f"       HLT\n       NOP\n       {later}\n", 3, tokens[1])):
        with pytest.raises(AsmError) as err:
            assemble(text)
        assert str(err.value) == f"line {line_no}: " + message.format(tok)


def test_assembly_keeps_nothing_of_one_call_for_the_next():
    near = "      BRN +L1\nL1    OUT =5\n      BEQ WA, =L1, -L1\n      HLT\n"
    far = ("L2    OUT =7\n" + "      NOP\n" * 0x50
           + "      BEQ WB, =L2, -L2\n      BRN +L2\n      HLT\n")
    before = assemble_stream(near)
    assert any(getattr(it, "relaxed", False) for it in before[0].items)
    other = assemble_stream(far)
    assert not any(getattr(it, "relaxed", False) for it in other[0].items)
    assert fields(other[0].items) == fields(
        reference_assemble_stream(far)[0].items)
    after = assemble_stream(near)
    assert fields(after[0].items) == fields(before[0].items)
    assert asm.resolve_stream(*after) == asm.resolve_stream(*before)
    # the encode rows that persist are keyed by ISA vocabulary only
    for seed in range(50):
        assemble(corpus.generate_program(seed))
    for (mnemonic, modes), (head, _, _) in asm._ROWS.items():
        assert mnemonic in isa.OPCODES
        assert type(modes) is tuple
        assert all(m is None or type(m) is int and 0 <= m <= 15
                   for m in modes)
        assert all(type(it) is asm.LiteralByte for it in head)


def test_unknown_mnemonic():
    with pytest.raises(AsmError, match="line 1"):
        parse_source("      XYZ WA")


def test_style_mixing_rejected():
    with pytest.raises(AsmError, match="mix"):
        parse_source("      MOV WA, 25")


def test_operand_role_validation():
    bad_lines = [
        "      MOV -(XS), WA",   # push cannot be read
        "      MOV WA, (XS)+",   # pop cannot be written
        "      MOV WA, =5",      # literal cannot be written
        "      ADD WA, =5",
        "      BRN WA",
        "      OUT",
        "      ICV WA, WB",
    ]
    for line in bad_lines:
        with pytest.raises(AsmError):
            code_for(line)


def test_value_ranges_enforced():
    with pytest.raises(AsmError):
        parse_source("      MOV =8000, WA")
    with pytest.raises(AsmError):
        parse_source("      MOV @FFFF, WA")


# --- layout errors ---------------------------------------------------------

def test_undefined_label():
    with pytest.raises(LayoutError, match="NOPE"):
        code_for("      BRN NOPE")


def test_label_address_bound():
    with pytest.raises(LayoutError, match="0x8000"):
        assemble_stream("BIG   HLT", origin=0x8000)


def test_program_must_fit_in_memory():
    with pytest.raises(LayoutError):
        assemble_stream("      NOP\n      HLT", origin=0xFFFF)


# --- object container ------------------------------------------------------

def test_assemble_object_round_trip():
    text = (
        "START ZER WC\n"
        "LOOP  ICV WC\n"
        "      BLT WC, =5, -LOOP\n"
        "      HLT\n"
    )
    img = assemble(text, entry="LOOP")
    assert img.entry == 0x102
    back = objfile.parse(img.serialize())
    assert back.code == img.code
    assert back.origin == 0x100
    assert back.entry == 0x102
    assert back.macros == []
    assert back.flags == 0


def test_entry_label_must_exist():
    with pytest.raises(LayoutError):
        assemble("      HLT", entry="NOPE")


def test_container_rejects_garbage():
    img = assemble("      HLT")
    blob = img.serialize()
    with pytest.raises(ObjectError, match="magic"):
        objfile.parse(b"XXXX" + blob[4:])
    with pytest.raises(ObjectError, match="version"):
        objfile.parse(blob[:4] + b"\x09" + blob[5:])
    with pytest.raises(ObjectError, match="truncated"):
        objfile.parse(blob[:-1])
    with pytest.raises(ObjectError, match="trailing"):
        objfile.parse(blob + b"\x00")


def test_container_long_raw_payload():
    img = ObjectImage(code=bytes(70000), origin=0, entry=0, flags=FLAG_RAW)
    back = objfile.parse(img.serialize())
    assert back.code == img.code
    assert back.is_raw


@pytest.mark.parametrize("size", [0xFFFE, 0xFFFF, 0x10000])
def test_serialize_length_escape_boundary(size):
    # a code length of 0xFFFF or more is written as the 0xFFFF escape
    # followed by the 4-byte length
    code = random.Random(size).randbytes(size)
    img = ObjectImage(code=code, origin=0x1234, entry=0xBEEF, flags=FLAG_RAW,
                      macros=[MacroEntry(0x50, b"\x07\x08"),
                              MacroEntry(0xFF, b"\x09")])
    blob = img.serialize()
    length = (size.to_bytes(2, "big") if size < 0xFFFF
              else b"\xff\xff" + size.to_bytes(4, "big"))
    head = b"MCRL\x01\x01\xbe\xef\x12\x34" + length
    assert blob == (head + code + b"\x02" + b"\x50\x02\x07\x08"
                    + b"\xff\x01\x09")
    assert objfile.parse(blob) == img
    assert reference_parse(blob) == img


def _full_table():
    return [MacroEntry(isa.MACRO_OPCODE_BASE + i, bytes([0x01, i]))
            for i in range(isa.MAX_MACROS)]


# (rule, entry, field, value, the message validate raises)
_BROKEN_TABLES = [
    ("dense", 0, "code", 0x51, "macro opcodes not dense: slot 0 holds 0x51"),
    ("dense", 88, "code", 0xA9, "macro opcodes not dense: slot 88 holds 0xa9"),
    # the last slot has no free code left, so its gap is a duplicate
    ("dense", 175, "code", 0xFE, "duplicate macro opcode 0xfe"),
    ("duplicate", 1, "code", 0x50, "duplicate macro opcode 0x50"),
    ("duplicate", 88, "code", 0xA7, "duplicate macro opcode 0xa7"),
    ("duplicate", 175, "code", 0x50, "duplicate macro opcode 0x50"),
    ("short", 0, "body", b"\x01", "macro 0x50 body under 2 bytes"),
    ("short", 88, "body", b"\x01", "macro 0xa8 body under 2 bytes"),
    ("short", 175, "body", b"", "macro 0xff has an empty body"),
    ("long", 0, "body", bytes(256), "macro 0x50 body over 255 bytes"),
    ("long", 88, "body", bytes(256), "macro 0xa8 body over 255 bytes"),
    ("long", 175, "body", bytes(300), "macro 0xff body over 255 bytes"),
    ("nested", 0, "body", b"\x50\x01",
     "macro 0x50 body starts with another macro opcode"),
    ("nested", 88, "body", b"\xa8\x01",
     "macro 0xa8 body starts with another macro opcode"),
    ("nested", 175, "body", b"\xff\x01",
     "macro 0xff body starts with another macro opcode"),
]


def test_full_executable_table_is_sound():
    img = ObjectImage(code=b"\x00", macros=_full_table())
    assert objfile.parse(img.serialize()) == img


@pytest.mark.parametrize("rule, i, field, value, message", _BROKEN_TABLES,
                         ids=[f"{rule}-{i}" for rule, i, *_ in _BROKEN_TABLES])
def test_full_executable_table_names_its_first_bad_entry(rule, i, field,
                                                         value, message):
    table = _full_table()
    setattr(table[i], field, value)
    with pytest.raises(ObjectError) as err:
        ObjectImage(code=b"\x00", macros=table).validate()
    assert str(err.value) == message


def test_macro_table_validation():
    def img(macros, flags=0):
        return ObjectImage(code=b"\x00", macros=macros, flags=flags)

    with pytest.raises(ObjectError, match="opcode slots"):
        img([MacroEntry(0x50 + i, b"\x01\x01") for i in range(177)]).validate()
    with pytest.raises(ObjectError, match="duplicate"):
        img([MacroEntry(0x50, b"\x01\x01"), MacroEntry(0x50, b"\x01\x01")],
            flags=FLAG_RAW).validate()
    with pytest.raises(ObjectError, match="dense"):
        img([MacroEntry(0x51, b"\x01\x01")]).validate()
    with pytest.raises(ObjectError, match="starts with"):
        img([MacroEntry(0x50, b"\x50\x01")]).validate()
    with pytest.raises(ObjectError, match="under 2"):
        img([MacroEntry(0x50, b"\x01")]).validate()
    with pytest.raises(ObjectError, match="empty"):
        img([MacroEntry(0x50, b"")], flags=FLAG_RAW).validate()
    for flags in (0, FLAG_RAW):
        with pytest.raises(ObjectError, match="0x50 body over 255 bytes"):
            img([MacroEntry(0x50, b"\x01" * 256)], flags).validate()
    img([MacroEntry(0x50, b"\x32\x94"), MacroEntry(0x51, b"\x1c\x02")]).validate()


@pytest.mark.parametrize("field", ["origin", "entry"])
@pytest.mark.parametrize("value", [-1, 0x10000])
def test_image_addresses_must_be_words(field, value):
    image = ObjectImage(code=b"\x00", **{field: value})
    with pytest.raises(ObjectError, match=f"{field} {value:#x} out of range"):
        image.validate()


def test_signatures_take_at_most_two_values_then_a_target():
    # an encode row packs the value modes into one header byte, and the
    # target's items come last; decode reads the same shapes back
    for mnemonic, sig in isa.SIGNATURES.items():
        assert sum(role != "target" for role in sig) <= 2, mnemonic
        assert "target" not in sig[:-1], mnemonic
