import random

import pytest

import corpus
import oracles
from macroforge import decode, disasm, macros, objfile, vm
from macroforge.disasm import DisasmError, decode_image, render_listing
from macroforge.objfile import MacroEntry, ObjectError, ObjectImage
from macroforge.vm import LoadError


# --- the decoder itself ------------------------------------------------------

def test_decode_fields_of_a_conditional_branch():
    # BLT WC, =5, back to itself: the offset byte sits at 0103
    code = bytes([0x0A, 0xB2, 0x85, 0xC3])
    assert decode.decode(code, 0, 0, 0x100) == (
        "BLT", 0x2, None, 0xB, 5, 0x100, True, None, 4)


def test_decode_reads_a_body_then_the_main_stream():
    # body holds MOV's opcode and header, the literal follows in main code
    buf = bytes([0x32, 0x4B]) + bytes([0x12, 0x34, 0x00])
    fields = decode.decode(buf, 0, 2, 0x101)
    assert fields[:5] == ("MOV", 0xB, 0x1234, 0x4, None)
    assert fields[-1] == 4


def test_decode_refuses_a_short_branch_byte_in_a_body():
    with pytest.raises(decode.DecodeError, match="short branch"):
        decode.decode(bytes([0x03, 0x0C, 0xC0]), 0, 3, 0)


def test_decode_runs_off_the_buffer_with_index_error():
    with pytest.raises(IndexError):
        decode.decode(bytes([0x32, 0x4B, 0x12]), 0, 0, 0x100)


# --- the decoder against the one that reads extensions by helper call --------

def decode_outcome(decoder, buf, pos, main_from, main_addr):
    try:
        return "ok", decoder(buf, pos, main_from, main_addr)
    except (IndexError, decode.DecodeError) as exc:
        return type(exc).__name__, str(exc)


def test_decode_matches_reference_on_every_opcode_and_header():
    # extension bytes near the short/long and 1-/2-byte boundaries
    pool = [0x00, 0x01, 0x7F, 0x80, 0x81, 0xC0, 0xFF]
    rng = random.Random(15)
    kinds = set()
    for op in range(256):
        for header in range(256):
            lead = bytes(rng.randrange(256) for _ in range(rng.randrange(3)))
            if rng.random() < 0.25:   # every 2-byte form long
                ext = bytes([0x00, rng.choice((0x05, 0x7F, 0xFF))] * 3)
            else:
                ext = bytes(rng.choice(pool) if rng.random() < 0.5
                            else rng.randrange(256) for _ in range(6))
            buf = lead + bytes([op, header]) + ext
            if rng.random() < 0.3:   # truncate at or after the opcode
                buf = buf[:rng.randrange(len(lead) + 1, len(buf))]
            if rng.random() < 0.5:
                buf = bytearray(buf)
            pos = len(lead)
            main_from = rng.randrange(len(buf) + 2)
            main_addr = rng.randrange(0x10000)
            want = decode_outcome(oracles.reference_decode, buf, pos,
                                  main_from, main_addr)
            assert decode_outcome(decode.decode, buf, pos, main_from,
                                  main_addr) == want, (buf, pos, main_from)
            kinds.add(want[1][7] if want[0] == "ok" else want[0])
    assert kinds >= {"IndexError", "DecodeError", None,
                     "2-byte address under 0x100",
                     "long-form literal under 0x80",
                     "stray high header nibble", "unexpected BRN header"}


# --- no stale decode ---------------------------------------------------------

@pytest.mark.parametrize("code, table", [
    # MOV =B87, @107 rewrites the literal of the OUT =5 at 0106 to 7
    (bytes([0x32, 0xCB, 0x0B, 0x87, 0x01, 0x07,
            0x40, 0x0B, 0x85,
            0x00]), []),
    # MOV =5087, @106 rewrites the main-stream literal byte that follows
    # a macro whose body is OUT's opcode and header
    (bytes([0x32, 0xCB, 0x50, 0x87, 0x01, 0x06,
            0x50, 0x85,
            0x00]), [MacroEntry(0x50, bytes([0x40, 0x0B]))]),
])
def test_self_modified_operand_is_executed(code, table):
    out = vm.run(vm.load(ObjectImage(code=code, macros=table)), 100)
    assert out.status == "halted"
    assert out.trace == [7]


# --- listings of bodies that end mid-instruction -----------------------------

def test_listing_completes_a_prefix_body_from_the_main_stream():
    image = ObjectImage(code=bytes([0x50, 0x12, 0x34, 0x40, 0x04, 0x00]),
                        macros=[MacroEntry(0x50, bytes([0x32, 0x4B]))])
    unit = decode_image(image)[0]
    assert unit.main_bytes == bytes([0x50, 0x12, 0x34])
    assert [i.text() for i in unit.instrs] == ["MOV =1234, XR"]
    lines = render_listing(image).splitlines()
    assert lines[2] == "0100  50 12 34     ***  MOV =1234, XR"
    assert lines[3].endswith("OUT XR")
    assert lines[-1].endswith("(instruction prefix)")


# --- mutated objects ---------------------------------------------------------

def test_mutated_objects_fail_only_in_documented_ways():
    blobs = [macros.compact_source(corpus.generate_program(seed=s),
                                   mode=mode)[0].serialize()
             for s in range(3) for mode in ("greedy", "freq")]
    rng = random.Random(20)
    runs = 0
    for _ in range(2000):
        blob = bytearray(rng.choice(blobs))
        for _ in range(rng.randint(1, 4)):
            blob[rng.randrange(len(blob))] = rng.randrange(256)
        try:
            image = objfile.parse(bytes(blob))
        except ObjectError:
            continue
        try:
            disasm.render_listing(image)
        except DisasmError:
            pass
        try:
            state = vm.load(image)
        except (ObjectError, LoadError):
            continue
        outcome = vm.run(state, 2000)
        assert outcome.status in ("halted", "out-of-fuel", "fault")
        runs += 1
    assert runs > 1000
