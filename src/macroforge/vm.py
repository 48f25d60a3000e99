"""Interpreter for assembled images, including macro-table expansion.

The core trick is the macro cursor: fetching an opcode in 0x50..0xFF
switches the byte source to that entry of the macro table, and
instructions decode from the body before falling back to the saved PC.
Expansion is one level deep by construction; a macro opcode fetched
from a body is a fault, never a recursion.

A body can end mid-instruction (a macro may cover just an opcode/header
prefix); the instruction's remaining bytes then come from the main
stream, which is why decode.decode reads a body step from the rest of
the body followed by main memory.
Taken branches drop the cursor outright: the jump target is a main
stream address, so whatever remained of the body is abandoned.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import decode, isa


class LoadError(Exception):
    pass


class VmFault(Exception):
    """Internal signal; surfaces to callers as a fault StepEvent."""


@dataclass
class StepEvent:
    kind: str                    # executed | output | halted | fault
    value: int | None = None     # output only
    reason: str | None = None    # fault only


@dataclass
class RunOutcome:
    status: str                  # halted | out-of-fuel | fault
    steps: int
    trace: list
    fault_reason: str | None = None


@dataclass
class VmState:
    memory: bytearray
    regs: list
    pc: int
    macros: list
    cursor: tuple | None = None  # (table index, body offset, resume pc)
    out_trace: list = field(default_factory=list)
    halted: bool = False
    stack_top: int = isa.DEFAULT_STACK_TOP
    stack_bottom: int = isa.DEFAULT_STACK_BOTTOM


def load(image) -> VmState:
    image.validate()
    if image.is_raw:
        raise LoadError("raw container holds packed bytes, not a program")
    if image.origin < isa.WORK_AREA_END:
        raise LoadError(f"origin {image.origin:#06x} overlaps the reserved "
                        f"work area below {isa.WORK_AREA_END:#06x}")
    if image.origin + len(image.code) > 0x10000:
        raise LoadError("image runs past the end of memory")
    if not image.code:
        raise LoadError("image has no code")
    if not image.origin <= image.entry < image.origin + len(image.code):
        raise LoadError(f"entry {image.entry:#06x} outside the loaded code")
    memory = bytearray(0x10000)
    memory[image.origin:image.origin + len(image.code)] = image.code
    regs = [0] * 6
    regs[isa.REG_XS] = isa.DEFAULT_STACK_TOP
    return VmState(memory=memory, regs=regs, pc=image.entry,
                   macros=[m.body for m in image.macros])


# ---------------------------------------------------------------------------
# Fetch

def _fetch(state: VmState) -> tuple:
    """Decode the next instruction and move pc and cursor past it.

    Main-stream instructions decode in place from memory.  A body step
    decodes the rest of the body followed by main memory at the resume
    pc, which covers a body that ends mid-instruction.
    """
    memory = state.memory
    try:
        if state.cursor is None:
            pc = state.pc
            op = memory[pc]
            if op < isa.MACRO_OPCODE_BASE:
                instr = decode.decode(memory, pc, 0, 0)
                state.pc = instr[-1]
                return instr
            idx = op - isa.MACRO_OPCODE_BASE
            if idx >= len(state.macros):
                raise VmFault(f"undefined opcode {op:#04x}")
            off, resume = 0, pc + 1
            body = state.macros[idx]
            if body[0] >= isa.MACRO_OPCODE_BASE:
                raise VmFault(f"macro body begins with opcode {body[0]:#04x}")
        else:
            idx, off, resume = state.cursor
            body = state.macros[idx]
        left = len(body) - off
        instr = decode.decode(body[off:] + memory[resume:resume + 8], 0,
                              left, resume)
    except IndexError:
        raise VmFault("fetch past the end of memory") from None
    except decode.DecodeError as err:
        raise VmFault(str(err)) from None
    end = instr[-1]
    if end < left:
        state.cursor = (idx, off + end, resume)
        state.pc = resume
    else:
        state.cursor = None
        state.pc = resume + end - left
    return instr


def _read_word(state: VmState, addr: int) -> int:
    addr &= 0xFFFF
    return (state.memory[addr] << 8) | state.memory[(addr + 1) & 0xFFFF]


def _write_word(state: VmState, addr: int, value: int) -> None:
    addr &= 0xFFFF
    state.memory[addr] = (value >> 8) & 0xFF
    state.memory[(addr + 1) & 0xFFFF] = value & 0xFF


# ---------------------------------------------------------------------------
# Operands

def _resolve(state: VmState, mode: int, ext: int | None) -> tuple:
    """Location of one decoded operand as (kind, where): kind is reg, mem
    or lit, where a register index, address or literal value.  Applies
    any stack side effect immediately (operands resolve left to right)."""
    if mode <= isa.REG_XS:
        return "reg", mode
    if mode == isa.MODE_POP:
        addr = state.regs[isa.REG_XS]
        moved = addr + 2
        if moved > state.stack_top:
            raise VmFault("stack underflow")
        state.regs[isa.REG_XS] = moved
        return "mem", addr
    if mode == isa.MODE_PUSH:
        moved = state.regs[isa.REG_XS] - 2
        if moved < state.stack_bottom:
            raise VmFault("stack overflow")
        state.regs[isa.REG_XS] = moved
        return "mem", moved
    if mode == isa.MODE_LIT:
        return "lit", ext
    if mode in (isa.MODE_MEM1, isa.MODE_MEM2):
        return "mem", ext
    if mode in (isa.MODE_IND_XL, isa.MODE_IND_XR):
        return "mem", state.regs[isa.BASE_REG[mode]]
    return "mem", state.regs[isa.BASE_REG[mode]] + ext


def _read(state: VmState, loc: tuple) -> int:
    kind, where = loc
    if kind == "reg":
        return state.regs[where]
    if kind == "mem":
        return _read_word(state, where)
    return where


def _write(state: VmState, loc: tuple, value: int) -> None:
    kind, where = loc
    value &= 0xFFFF
    if kind == "reg":
        state.regs[where] = value
    elif kind == "mem":
        _write_word(state, where, value)
    else:
        raise VmFault("write to a literal operand")


def _jump(state: VmState, target: int) -> None:
    # A taken branch lands in the main stream, so any active body is done.
    state.cursor = None
    state.pc = target & 0xFFFF


# ---------------------------------------------------------------------------
# Stepping

def step(state: VmState) -> StepEvent:
    if state.halted:
        raise ValueError("cannot step a halted machine")
    try:
        return _step(state)
    except VmFault as fault:
        state.halted = True
        return StepEvent("fault", reason=str(fault))


def _step(state: VmState) -> StepEvent:
    name, mode1, ext1, mode2, ext2, target, _, _, _ = _fetch(state)

    if name == "HLT":
        state.halted = True
        return StepEvent("halted")
    if name == "NOP":
        return StepEvent("executed")
    if name == "BRN":
        _jump(state, target)
        return StepEvent("executed")

    if name in ("BEQ", "BNE", "BLT"):
        a = _read(state, _resolve(state, mode1, ext1))
        b = _read(state, _resolve(state, mode2, ext2))
        taken = (a == b if name == "BEQ"
                 else a != b if name == "BNE"
                 else a < b)
        if taken:
            _jump(state, target)
        return StepEvent("executed")

    if name == "MOV":
        value = _read(state, _resolve(state, mode1, ext1))
        _write(state, _resolve(state, mode2, ext2), value)
        return StepEvent("executed")
    if name in ("ADD", "SUB"):
        value = _read(state, _resolve(state, mode1, ext1))
        loc = _resolve(state, mode2, ext2)
        old = _read(state, loc)
        _write(state, loc, old + value if name == "ADD" else old - value)
        return StepEvent("executed")
    loc = _resolve(state, mode1, ext1)
    if name in ("ICV", "DCV"):
        old = _read(state, loc)
        _write(state, loc, old + 1 if name == "ICV" else old - 1)
        return StepEvent("executed")
    if name == "ZER":
        _write(state, loc, 0)
        return StepEvent("executed")
    if name == "LCW":
        value = _read_word(state, state.regs[isa.REG_XL])
        state.regs[isa.REG_XL] = (state.regs[isa.REG_XL] + 2) & 0xFFFF
        _write(state, loc, value)
        return StepEvent("executed")
    if name == "BRI":
        _jump(state, _read(state, loc))
        return StepEvent("executed")
    if name == "OUT":
        value = _read(state, loc)
        state.out_trace.append(value)
        return StepEvent("output", value=value)
    raise VmFault(f"unhandled mnemonic {name}")  # unreachable by table


def run(state: VmState, fuel: int) -> RunOutcome:
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    steps = 0
    while steps < fuel:
        event = step(state)
        steps += 1
        if event.kind == "halted":
            return RunOutcome("halted", steps, list(state.out_trace))
        if event.kind == "fault":
            return RunOutcome("fault", steps, list(state.out_trace),
                              fault_reason=event.reason)
    return RunOutcome("out-of-fuel", steps, list(state.out_trace))
