import pytest

from macroforge import asm, decode, isa, vm
from macroforge.objfile import FLAG_RAW, MacroEntry, ObjectError, ObjectImage
from macroforge.vm import LoadError, load, run
from oracles import reference_run


def exec_source(text, fuel=10_000):
    return run(load(asm.assemble(text)), fuel)


def test_counter_program():
    out = exec_source("      ZER WA\n      ICV WA\n      OUT WA\n      HLT\n")
    assert out.status == "halted"
    assert out.trace == [1]
    assert out.steps == 4


def test_halt_only():
    out = exec_source("      HLT\n")
    assert out.status == "halted"
    assert out.trace == []
    assert out.steps == 1


def test_stack_round_trip():
    text = (
        "      MOV =1234, XR\n"
        "      MOV XR, -(XS)\n"
        "      OUT XS\n"
        "      MOV (XS)+, WB\n"
        "      OUT XS\n"
        "      OUT WB\n"
        "      HLT\n"
    )
    out = exec_source(text)
    assert out.status == "halted"
    assert out.trace == [0xFEFE, 0xFF00, 0x1234]


def test_sixteen_bit_wraparound():
    text = (
        "      ZER WA\n"
        "      DCV WA\n"
        "      OUT WA\n"
        "      ICV WA\n"
        "      OUT WA\n"
        "      HLT\n"
    )
    assert exec_source(text).trace == [0xFFFF, 0x0000]


def test_memory_is_big_endian():
    text = (
        "      MOV =7ABC, @30\n"
        "      OUT @30\n"
        "      OUT @31\n"
        "      HLT\n"
    )
    # Word at 0x31 straddles the stored high/low split: BC then 00.
    assert exec_source(text).trace == [0x7ABC, 0xBC00]


def test_counted_loop():
    text = (
        "      ZER WC\n"
        "LOOP  ICV WC\n"
        "      BLT WC, =5, -LOOP\n"
        "      OUT WC\n"
        "      HLT\n"
    )
    out = exec_source(text)
    assert out.trace == [5]
    assert out.steps == 13


def test_indirect_and_lcw():
    text = (
        "      MOV =200, XL\n"
        "      MOV =7EEF, (XL)\n"
        "      LCW WB\n"
        "      OUT WB\n"
        "      OUT XL\n"
        "      HLT\n"
    )
    assert exec_source(text).trace == [0x7EEF, 0x0202]


def test_branch_indirect():
    text = (
        "      MOV =SKIP, WA\n"
        "      BRI WA\n"
        "      OUT =1\n"
        "SKIP  OUT =2\n"
        "      HLT\n"
    )
    assert exec_source(text).trace == [2]


def test_out_of_fuel():
    out = exec_source("SPIN  BRN SPIN\n", fuel=1000)
    assert out.status == "out-of-fuel"
    assert out.steps == 1000
    assert out.trace == []


def test_fuel_prefix_monotonicity():
    text = (
        "      ZER WC\n"
        "LOOP  ICV WC\n"
        "      OUT WC\n"
        "      BLT WC, =4, -LOOP\n"
        "      HLT\n"
    )
    full = exec_source(text)
    assert full.trace == [1, 2, 3, 4]
    partial = run(load(asm.assemble(text)), fuel=7)
    assert partial.status == "out-of-fuel"
    assert partial.trace == [1, 2]
    assert full.trace[:2] == partial.trace


def test_determinism():
    text = "      ZER WA\n      ICV WA\n      OUT WA\n      HLT\n"
    a = exec_source(text)
    b = exec_source(text)
    assert (a.status, a.steps, a.trace) == (b.status, b.steps, b.trace)


# --- faults ----------------------------------------------------------------

def test_undefined_opcode_faults():
    img = ObjectImage(code=bytes([0x02]))
    out = run(load(img), 10)
    assert out.status == "fault"
    assert "undefined opcode" in out.fault_reason


def test_stack_underflow_faults():
    out = exec_source("      MOV (XS)+, WA\n")
    assert out.status == "fault"
    assert "underflow" in out.fault_reason


def test_stack_overflow_faults():
    text = (
        "      MOV =7FFF, XS\n"
        "      ADD =3, XS\n"
        "      MOV WA, -(XS)\n"
        "      MOV WA, -(XS)\n"
    )
    out = exec_source(text)
    assert out.status == "fault"
    assert "overflow" in out.fault_reason
    assert out.steps == 4


def test_first_operand_push_overflow_matches_reference():
    # ZER writes its only operand, so the push is the first operand's
    img = asm.assemble("LOOP   ZER -(XS)\n       BRN LOOP\n")
    got = run(load(img), 100_000)
    assert (got.status, got.steps, got.trace, got.fault_reason) == \
        reference_run(load(img), 100_000)
    assert got.fault_reason == "stack overflow"
    # 16,256 words fit between the stack top and bottom; each push is
    # followed by a branch, and the next push faults
    assert got.steps == 2 * 16_256 + 1


def test_run_past_end_of_memory_faults():
    img = ObjectImage(code=bytes([0x01]), origin=0xFFFF, entry=0xFFFF)
    out = run(load(img), 10)
    assert out.status == "fault"
    assert "end of memory" in out.fault_reason


def test_step_after_halt_rejected():
    state = load(asm.assemble("      HLT\n"))
    assert run(state, 1).status == "halted"
    with pytest.raises(ValueError):
        run(state, 1)


def test_fuel_must_be_positive():
    state = load(asm.assemble("      HLT\n"))
    with pytest.raises(ValueError):
        run(state, 0)


# --- loading ---------------------------------------------------------------

def test_load_rejects_bad_images():
    with pytest.raises(LoadError, match="work area"):
        load(ObjectImage(code=b"\x00", origin=0x50, entry=0x50))
    with pytest.raises(LoadError, match="entry"):
        load(ObjectImage(code=b"\x00\x00", origin=0x100, entry=0x200))
    with pytest.raises(LoadError, match="raw"):
        load(ObjectImage(code=b"\x00", flags=FLAG_RAW))
    with pytest.raises(ObjectError):
        load(ObjectImage(code=bytes(0x200), origin=0xFF00, entry=0xFF00))


def test_load_initial_state():
    state = load(asm.assemble("      HLT\n"))
    assert state.pc == 0x100
    assert state.regs == [0, 0, 0, 0, 0, 0xFF00]
    assert state.cursor is None
    assert not state.halted


# --- macro expansion -------------------------------------------------------

def test_macro_matches_inline_code():
    # MOV =0x1234, XR; <push XR>; MOV (XS)+, WB; OUT WB; HLT
    inline = bytes([0x32, 0x4B, 0x12, 0x34,
                    0x32, 0x94,
                    0x32, 0x18,
                    0x40, 0x01,
                    0x00])
    packed = bytes([0x32, 0x4B, 0x12, 0x34,
                    0x50,
                    0x32, 0x18,
                    0x40, 0x01,
                    0x00])
    plain = ObjectImage(code=inline)
    macroed = ObjectImage(code=packed,
                          macros=[MacroEntry(0x50, bytes([0x32, 0x94]))])
    a = run(load(plain), 100)
    b = run(load(macroed), 100)
    assert a.trace == b.trace == [0x1234]
    assert a.status == b.status == "halted"


def test_macro_body_can_end_mid_instruction():
    # Body carries only opcode+header of MOV =..., XR; the literal bytes
    # stream in from main code after the body runs dry.
    code = bytes([0x50, 0x12, 0x34,
                  0x40, 0x04,
                  0x00])
    img = ObjectImage(code=code, macros=[MacroEntry(0x50, bytes([0x32, 0x4B]))])
    out = run(load(img), 100)
    assert out.status == "halted"
    assert out.trace == [0x1234]


def test_taken_branch_abandons_macro_body():
    # Body: BRN 0x0101 followed by a poison byte.  If the cursor survived
    # the jump, the poison byte would fault as an opcode.
    body = bytes([0x03, 0x0C, 0x01, 0x01, 0x02])
    code = bytes([0x50, 0x40, 0x00, 0x00])
    img = ObjectImage(code=code, macros=[MacroEntry(0x50, body)])
    out = run(load(img), 100)
    assert out.status == "halted"
    assert out.trace == [0]


def test_untaken_branch_continues_macro_body():
    # Body: BNE WA, WB, 0x0103 then ICV WA.  Registers start equal, the
    # branch falls through, the increment still belongs to the body.
    body = bytes([0x09, 0x10, 0x01, 0x03, 0x1C, 0x00])
    code = bytes([0x50, 0x40, 0x00, 0x00])
    img = ObjectImage(code=code, macros=[MacroEntry(0x50, body)])
    out = run(load(img), 100)
    assert out.status == "halted"
    assert out.trace == [1]


def test_macro_opcode_inside_body_faults():
    state = vm.VmState(memory=bytearray(0x10000), regs=[0] * 6, pc=0x100,
                       macros=[bytes([0x01, 0x50])])
    state.memory[0x100] = 0x50
    first = run(state, 1)
    assert (first.status, first.steps, first.trace) == ("out-of-fuel", 1, [])
    second = run(state, 1)
    assert second.status == "fault"
    assert "inside a macro body" in second.fault_reason


def test_macro_body_starting_with_macro_opcode_faults():
    state = vm.VmState(memory=bytearray(0x10000), regs=[0] * 6, pc=0x100,
                       macros=[bytes([0x51, 0x01])])
    state.memory[0x100] = 0x50
    out = run(state, 1)
    assert out.status == "fault"
    assert "begins with" in out.fault_reason


def test_unassigned_macro_opcode_faults():
    img = ObjectImage(code=bytes([0x7F]))
    out = run(load(img), 10)
    assert out.status == "fault"
    assert "undefined opcode" in out.fault_reason


# --- self-modifying code ---------------------------------------------------
# The interpreter caches each decoded instruction; a write to bytes it
# has decoded must be seen by the next fetch, as in the reference
# interpreter that decodes every step afresh.

def run_both(image, fuel=1_000):
    got = run(load(image), fuel)
    assert (got.status, got.steps, got.trace, got.fault_reason) == \
        reference_run(load(image), fuel)
    return got


def test_rewritten_operand_byte_is_seen_on_the_next_pass():
    # XL points at the literal of OUT =5; the second pass outputs 6.
    text = (
        "      ZER WC\n"
        "      MOV =LOOP, XL\n"
        "      ICV XL\n"
        "LOOP  OUT =5\n"
        "      MOV =0B86, (XL)\n"
        "      ICV WC\n"
        "      BLT WC, =2, LOOP\n"
        "      HLT\n"
    )
    out = run_both(asm.assemble(text))
    assert out.status == "halted"
    assert out.trace == [5, 6]


def test_rewritten_tail_of_a_macro_body_is_seen_on_the_next_activation():
    # Body NOP; BRN opcode + header.  The branch target is the main-stream
    # tail at 0110, past every other code byte, rewritten from 0100 to
    # 0112 (a zero byte, HLT) between two activations of the site at 010F.
    code = bytes([0x40, 0x02,                       # 0100 OUT WC
                  0x1C, 0x02,                       # 0102 ICV WC
                  0x0A, 0xB2, 0x82, 0x01, 0x0F,     # 0104 BLT WC, =2, 010F
                  0x32, 0xCB, 0x01, 0x12, 0x01, 0x10,  # 0109 MOV =112, @0110
                  0x50, 0x01, 0x00])                # 010F <macro> tail
    img = ObjectImage(code=code,
                      macros=[MacroEntry(0x50, bytes([0x01, 0x03, 0x0C]))])
    out = run_both(img)
    assert out.status == "halted"
    assert out.trace == [0, 1]


def test_write_straddling_the_last_code_byte():
    # The word at the header of BRI WA, the last code byte, turns it into
    # BRI WB; its low byte lands past the code.
    text = (
        "      MOV =ONE, WA\n"
        "      MOV =TWO, WB\n"
        "      MOV =LAST, XL\n"
        "      ICV XL\n"
        "      BRN LAST\n"
        "ONE   OUT =1\n"
        "      MOV =0100, (XL)\n"
        "      BRN LAST\n"
        "TWO   OUT =2\n"
        "      HLT\n"
        "LAST  BRI WA\n"
    )
    out = run_both(asm.assemble(text))
    assert out.status == "halted"
    assert out.trace == [1, 2]


def test_write_straddling_the_first_code_byte():
    # The word at 00FF ends on the opcode at 0100: ICV WA becomes DCV WA.
    text = (
        "BUMP  ICV WA\n"
        "      BRI WB\n"
        "MAIN  MOV =AGAIN, WB\n"
        "      BRN BUMP\n"
        "AGAIN OUT WA\n"
        "      MOV =1D, @FF\n"
        "      MOV =DONE, WB\n"
        "      BRN BUMP\n"
        "DONE  OUT WA\n"
        "      HLT\n"
    )
    out = run_both(asm.assemble(text, entry="MAIN"))
    assert out.status == "halted"
    assert out.trace == [1, 0]


# --- body entries shared across sites ----------------------------------------
# An instruction wholly inside a body is decoded once for every site; one
# that runs past the body's end reads its site's main-stream bytes.

def test_sites_of_one_body_read_their_own_tails():
    # Body ICV WA; MOV opcode + header.  The ICV is shared; the MOV's
    # literal comes from each site's tail, 1234 at 0100 and 5 at 0105.
    code = bytes([0x50, 0x12, 0x34,                 # 0100 <macro> =1234
                  0x40, 0x04,                       # 0103 OUT XR
                  0x50, 0x85,                       # 0105 <macro> =5
                  0x40, 0x04,                       # 0107 OUT XR
                  0x40, 0x00,                       # 0109 OUT WA
                  0x00])                            # 010B HLT
    img = ObjectImage(code=code, macros=[
        MacroEntry(0x50, bytes([0x1C, 0x00, 0x32, 0x4B]))])
    out = run_both(img)
    assert out.status == "halted"
    assert out.trace == [0x1234, 5, 2]


def test_rewritten_tail_of_one_site_leaves_the_other_site_alone():
    # As above, in a loop of two passes; ADD =1, @0101 bumps the first
    # site's tail between its two activations.
    code = bytes([0x50, 0x12, 0x34,                 # 0100 <macro> =1234
                  0x40, 0x04,                       # 0103 OUT XR
                  0x50, 0x85,                       # 0105 <macro> =5
                  0x40, 0x04,                       # 0107 OUT XR
                  0x10, 0xCB, 0x81, 0x01, 0x01,     # 0109 ADD =1, @0101
                  0x0A, 0xB0, 0x84, 0x01, 0x00,     # 010E BLT WA, =4, 0100
                  0x00])                            # 0113 HLT
    img = ObjectImage(code=code, macros=[
        MacroEntry(0x50, bytes([0x1C, 0x00, 0x32, 0x4B]))])
    out = run_both(img)
    assert out.status == "halted"
    assert out.trace == [0x1234, 5, 0x1235, 5]


@pytest.mark.parametrize("opcode, trace", [(0x51, [1, 2, 1]), (0x01, [1, 2])])
def test_rewritten_site_opcode_after_its_body_is_shared(opcode, trace):
    # Both NOPs become sites of macro 50 (ICV WA; OUT WA).  MAIN's site
    # decodes the body; SITE, the lowest code byte, reuses it.  The word
    # write at 00FF then turns SITE into macro 51 (DCV WA; OUT WA) or a
    # plain NOP, which only the watch on SITE's opcode byte can see.
    text = (
        "SITE  NOP\n"
        "      BRI WB\n"
        "MAIN  NOP\n"
        "      MOV =BACK, WB\n"
        "      BRN SITE\n"
        f"BACK  MOV ={opcode:X}, @FF\n"
        "      MOV =DONE, WB\n"
        "      BRN SITE\n"
        "DONE  HLT\n"
    )
    plain = asm.assemble(text, entry="MAIN")
    code = bytearray(plain.code)
    assert code[0] == code[3] == 0x01
    code[0] = code[3] = 0x50
    img = ObjectImage(code=bytes(code), entry=plain.entry, macros=[
        MacroEntry(0x50, bytes([0x1C, 0x00, 0x40, 0x00])),
        MacroEntry(0x51, bytes([0x1D, 0x00, 0x40, 0x00]))])
    out = run_both(img)
    assert out.status == "halted"
    assert out.trace == trace


def test_body_decodes_once_for_every_site(monkeypatch):
    # One whole-instruction macro, ICV WA, at eight sites.
    img = ObjectImage(code=bytes([0x50] * 8 + [0x40, 0x00, 0x00]),
                      macros=[MacroEntry(0x50, bytes([0x1C, 0x00]))])
    real, body_decodes = decode.line, []

    def counting(buf, pos, main_from, main_addr, *rest):
        if main_from:                    # read from a body, not in place
            body_decodes.append(pos)
        return real(buf, pos, main_from, main_addr, *rest)

    monkeypatch.setattr(decode, "line", counting)
    state = load(img)
    out = run(state, 100)
    assert out.status == "halted"
    assert out.trace == [8]
    assert len(body_decodes) == 1
    assert len(state.entries) == 10
    assert [sum(map(bool, b)) for b in state.bodies] == [1]
    again = load(img)
    assert again.entries == {} and again.bodies == state.bodies
    assert len(body_decodes) == 2                # one body decode per load


# --- the body table, decoded at load -----------------------------------------
# Each body is decoded once when the machine is built, one instruction at
# a time, past line ends, up to the first instruction that runs past the
# body's end or does not decode.  The load itself never faults.

@pytest.mark.parametrize("branch, outcome", [
    (0x08, ("halted", 3, [0], None)),                   # BEQ, taken
    (0x09, ("fault", 2, [], "undefined opcode 0x02")),  # BNE, falls through
])
def test_undecodable_byte_after_a_body_branch(branch, outcome):
    # Body: B.. WA, WB, 0101 then 0x02, no instruction.  Registers start
    # equal, so BEQ jumps to OUT WA; HLT and BNE fetches the 0x02.
    body = bytes([branch, 0x10, 0x01, 0x01, 0x02])
    img = ObjectImage(code=bytes([0x50, 0x40, 0x00, 0x00]),
                      macros=[MacroEntry(0x50, body)])
    assert [off for off, s in enumerate(load(img).bodies[0]) if s] == [0]
    out = run_both(img)
    assert (out.status, out.steps, out.trace, out.fault_reason) == outcome


def count_body_decodes(monkeypatch):
    """Spy on decode.line; return a list that grows by one on each call
    that reads from a body."""
    real, body_decodes = decode.line, []

    def counting(buf, pos, main_from, main_addr, *rest):
        if main_from:                    # read from a body, not in place
            body_decodes.append(main_from)
        return real(buf, pos, main_from, main_addr, *rest)

    monkeypatch.setattr(decode, "line", counting)
    return body_decodes


def test_body_table_runs_past_a_branch_that_falls_through(monkeypatch):
    # Body ICV WA; BNE WA, WA, 0100 (never taken); OUT WA, at two sites.
    body = bytes([0x1C, 0x00, 0x09, 0x00, 0x01, 0x00, 0x40, 0x00])
    img = ObjectImage(code=bytes([0x50, 0x50, 0x00]),
                      macros=[MacroEntry(0x50, body)])
    out = run_both(img)
    assert (out.status, out.steps, out.trace) == ("halted", 7, [1, 2])
    state = load(img)
    assert [off for off, s in enumerate(state.bodies[0]) if s] == [0, 2, 6]
    body_decodes = count_body_decodes(monkeypatch)
    assert run(state, 100).trace == [1, 2]
    assert body_decodes == []            # every body step came from the table


def test_load_decodes_the_table_once(monkeypatch):
    # A full table of 255-byte bodies, each ICV WA; MOV =1234, WB
    # repeated, then three NOPs, every body used once.  A load decodes
    # each body instruction at most once, and the run decodes no body.
    codes = range(isa.MACRO_OPCODE_BASE, 0x100)
    body = bytes([0x1C, 0x00, 0x32, 0x1B, 0x12, 0x34]) * 42 + b"\x01" * 3
    assert (len(codes), len(body)) == (isa.MAX_MACROS, isa.MAX_BODY_BYTES)
    img = ObjectImage(code=bytes(codes) + bytes([0x40, 0x00, 0x00]),
                      macros=[MacroEntry(code, body) for code in codes])
    instructions = len(codes) * (2 * 42 + 3)
    out = run_both(img, fuel=instructions + 2)
    assert (out.status, out.steps) == ("halted", instructions + 2)
    assert out.trace == [len(codes) * 42]
    body_decodes = count_body_decodes(monkeypatch)
    state = load(img)
    assert sum(sum(map(bool, b)) for b in state.bodies) == instructions
    assert len(body_decodes) <= instructions
    body_decodes.clear()
    assert run(state, instructions + 2).trace == out.trace
    assert body_decodes == []


# --- straight-line fill -------------------------------------------------------
# A miss decodes the line ahead of the missed position.  What it decoded
# ahead must see the writes that run before it, and what does not decode
# must not fault until it is fetched.

# Macro 50 is OUT's opcode and header; its literal comes from main memory.
OUT_PREFIX = [MacroEntry(0x50, bytes([0x40, 0x0B]))]


@pytest.mark.parametrize("code, table, trace", [
    # MOV =0B82, @0107 rewrites the header and literal of OUT =1 to OUT =2
    ([0x32, 0xCB, 0x0B, 0x82, 0x01, 0x07, 0x40, 0x0B, 0x81, 0x00], [], [2]),
    # MOV =0100, @0106 turns the site at 0106 into NOP; HLT
    ([0x32, 0xCB, 0x01, 0x00, 0x01, 0x06, 0x50, 0x81, 0x00], OUT_PREFIX, []),
    # MOV =5083, @0106 keeps the site and sets its literal byte to 3
    ([0x32, 0xCB, 0x50, 0x83, 0x01, 0x06, 0x50, 0x81, 0x00], OUT_PREFIX, [3]),
    # MOV =0, @0109 writes HLT over the undefined bytes after ICV WA; OUT WA
    ([0x32, 0xCB, 0x80, 0x01, 0x09, 0x1C, 0x00, 0x40, 0x00, 0x02, 0x02], [],
     [1]),
])
def test_rewritten_later_part_of_the_line_is_seen(code, table, trace):
    out = run_both(ObjectImage(code=bytes(code), macros=table))
    assert (out.status, out.trace) == ("halted", trace)


@pytest.mark.parametrize("origin, tail, reason", [
    (0x0100, [0x02], "undefined opcode 0x02"),
    (0x0100, [0x7F], "undefined opcode 0x7f"),
    (0xFFFA, [0x32, 0x1B], "fetch past the end of memory"),   # MOV =.., WB
])
def test_line_into_bytes_that_do_not_decode(origin, tail, reason):
    # ICV WA; OUT WA; then bytes that do not form an instruction.
    img = ObjectImage(code=bytes([0x1C, 0x00, 0x40, 0x00, *tail]),
                      origin=origin, entry=origin)
    stopped = run_both(img, fuel=2)
    assert (stopped.status, stopped.trace) == ("out-of-fuel", [1])
    faulted = run_both(img)
    assert (faulted.status, faulted.steps, faulted.trace,
            faulted.fault_reason) == ("fault", 3, [1], reason)


def test_earlier_fault_wins_over_an_undecodable_byte_ahead():
    out = run_both(ObjectImage(code=bytes([0x32, 0x08, 0x02])))  # MOV (XS)+, WA
    assert (out.status, out.steps, out.fault_reason) == \
        ("fault", 1, "stack underflow")


def test_refill_after_every_write_is_bounded(monkeypatch):
    # Each MOV =32CB, @addr writes its own first two bytes back, a
    # watched code byte, so every step clears the table and misses.  A
    # miss decodes at most FILL_CAP entries, so decodes per step stay at
    # the cap at both lengths; refilling the rest of the line on every
    # miss would decode (length + 2) / 2 per step on average.
    real, decoded = decode.line, []

    def counting(*args):
        entries = real(*args)
        decoded.append(len(entries))
        return entries

    monkeypatch.setattr(decode, "line", counting)
    for length in (128, 512):
        decoded.clear()
        code = b"".join(bytes([0x32, 0xCB, 0x32, 0xCB, addr >> 8, addr & 0xFF])
                        for addr in range(0x100, 0x100 + 6 * length, 6))
        out = run_both(ObjectImage(code=code + b"\x00"), fuel=10_000)
        assert (out.status, out.steps) == ("halted", length + 1)
        assert len(decoded) == out.steps                # a miss every step
        per_step = sum(decoded) / out.steps
        assert per_step <= vm.FILL_CAP
        assert per_step < (length + 2) / 4
