import pytest

from macroforge import asm, vm
from macroforge.objfile import FLAG_RAW, MacroEntry, ObjectError, ObjectImage
from macroforge.vm import LoadError, load, run, step
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


def test_run_past_end_of_memory_faults():
    img = ObjectImage(code=bytes([0x01]), origin=0xFFFF, entry=0xFFFF)
    out = run(load(img), 10)
    assert out.status == "fault"
    assert "end of memory" in out.fault_reason


def test_step_after_halt_rejected():
    state = load(asm.assemble("      HLT\n"))
    assert step(state).kind == "halted"
    with pytest.raises(ValueError):
        step(state)


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
    first = step(state)
    assert first.kind == "executed"
    second = step(state)
    assert second.kind == "fault"
    assert "inside a macro body" in second.reason


def test_macro_body_starting_with_macro_opcode_faults():
    state = vm.VmState(memory=bytearray(0x10000), regs=[0] * 6, pc=0x100,
                       macros=[bytes([0x51, 0x01])])
    state.memory[0x100] = 0x50
    event = step(state)
    assert event.kind == "fault"
    assert "begins with" in event.reason


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
