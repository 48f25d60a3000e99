"""Interpreter for assembled images, including macro-table expansion.

The core trick is the macro cursor: fetching an opcode in 0x50..0xFF
switches the byte source to that entry of the macro table, and
instructions decode from the body before falling back to the saved PC.
Expansion is one level deep by construction; a macro opcode fetched
from a body is a fault, never a recursion.

A body can end mid-instruction (a macro may cover just an opcode/header
prefix); the instruction's remaining bytes then come from the main
stream.  Taken branches drop the cursor outright: the jump target is a
main stream address, so whatever remained of the body is abandoned.

Each fetch position (the main-stream pc, or the cursor inside a body)
is decoded once, into an entry of a table on VmState.  A word write
that touches a main-memory byte some entry was decoded from clears the
table, so self-modifying code stays exact.
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
    # Decoded entries by fetch position and the main-memory bytes [lo, hi]
    # they came from; code that writes memory directly must clear entries.
    entries: dict = field(default_factory=dict)
    watched: tuple = (0x10000, -1)       # empty


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
# Predecoding
#
# An entry is (op, k1, a1, b1, k2, a2, b2, target, next position).  op
# numbers the mnemonics so that ranges pick the shape: 0-2 take no value
# operand, 3-8 two, 9-14 one.  A value operand is a kind and two ints:
# register (index, 0), literal (value, 0), memory (address, 0), based
# (register, offset; 0 for the indirect modes), stack (0, +2 pop or -2
# push).

_OPS = ("HLT", "NOP", "BRN", "BEQ", "BNE", "BLT", "MOV", "ADD", "SUB",
        "OUT", "BRI", "ICV", "DCV", "ZER", "LCW")
_OPCODE = {name: i for i, name in enumerate(_OPS)}
K_REG, K_LIT, K_MEM, K_BASED, K_STACK = range(5)
# mode nibble (None when absent) -> (kind, a, b); a None is the extension
_MODES = {None: (K_REG, 0, 0), isa.MODE_POP: (K_STACK, 0, 2),
          isa.MODE_PUSH: (K_STACK, 0, -2), isa.MODE_LIT: (K_LIT, None, 0),
          isa.MODE_MEM1: (K_MEM, None, 0), isa.MODE_MEM2: (K_MEM, None, 0),
          **{r: (K_REG, r, 0) for r in range(isa.REG_XS + 1)},
          **{m: (K_BASED, r, 0 if m < isa.MODE_MEM1 else None)
             for m, r in isa.BASE_REG.items()}}


def _decode_at(state: VmState, key) -> tuple:
    """Decode the instruction at fetch position key, cache its entry and
    widen the watched range over the main-memory bytes it read.

    A main-stream instruction decodes in place.  A body step decodes the
    rest of the body followed by main memory at the resume pc, which
    covers a body that ends mid-instruction.
    """
    memory, buf = state.memory, None
    try:
        if type(key) is tuple:
            idx, off, resume = key
            body, first = state.macros[idx], resume
        elif memory[key] < isa.MACRO_OPCODE_BASE:   # decode in place
            buf, pos, left, resume, first = memory, key, 0, 0, key
        else:
            idx = memory[key] - isa.MACRO_OPCODE_BASE
            off, resume, first = 0, key + 1, key
            if idx >= len(state.macros):
                raise VmFault(f"undefined opcode {memory[key]:#04x}")
            body = state.macros[idx]
            if body[0] >= isa.MACRO_OPCODE_BASE:
                raise VmFault("macro body begins with opcode "
                              f"{body[0]:#04x}")
        if buf is None:
            left = len(body) - off
            buf, pos = body[off:] + memory[resume:resume + 8], 0
        name, mode1, ext1, mode2, ext2, target, _, _, end = decode.decode(
            buf, pos, left, resume)
    except IndexError:
        raise VmFault("fetch past the end of memory") from None
    except decode.DecodeError as err:
        raise VmFault(str(err)) from None
    if end < left:
        after, last = (idx, off + end, resume), resume - 1
    else:
        after = resume + end - left
        last = after - 1
    k1, a1, b1 = _MODES[mode1]
    k2, a2, b2 = _MODES[mode2]
    entry = (_OPCODE[name], k1, ext1 if a1 is None else a1,
             ext1 if b1 is None else b1, k2, ext2 if a2 is None else a2,
             ext2 if b2 is None else b2, target, after)
    lo, hi = state.watched
    if first <= last and (first < lo or last > hi):
        state.watched = (first if first < lo else lo,
                         last if last > hi else hi)
    state.entries[key] = entry
    return entry


# ---------------------------------------------------------------------------
# Execution

def _execute(state: VmState, fuel: int) -> tuple:
    """Run up to fuel instructions; return (status, steps, fault reason).

    Operands resolve left to right and apply any stack side effect
    immediately.  pc, cursor and halted are written back at the end.
    """
    if state.halted:
        raise ValueError("cannot step a halted machine")
    memory, regs, entries = state.memory, state.regs, state.entries
    get, emit = entries.get, state.out_trace.append
    top, bottom = state.stack_top, state.stack_bottom
    lo, hi = state.watched
    key = state.pc if state.cursor is None else state.cursor
    status, steps, reason = "out-of-fuel", 0, None
    try:
        while steps < fuel:
            steps += 1
            entry = get(key)
            if entry is None:
                entry = _decode_at(state, key)
                lo, hi = state.watched
            op, k1, a1, b1, k2, a2, b2, target, key = entry
            if op < 3:                                # HLT NOP BRN
                if op == 2:
                    key = target
                elif op == 0:
                    status = "halted"
                    break
                continue
            if k1 == K_BASED:                         # to an address now
                a1, k1 = (regs[a1] + b1) & 0xFFFF, K_MEM
            elif k1 == K_STACK:                       # b1: +2 pop, -2 push
                moved = regs[isa.REG_XS] + b1
                if moved > top if b1 > 0 else moved < bottom:
                    raise VmFault("stack underflow" if b1 > 0
                                  else "stack overflow")
                regs[isa.REG_XS] = moved
                a1, k1 = min(moved, moved - b1), K_MEM      # lower XS
            if op < 13:                               # all but ZER LCW read
                v = (regs[a1] if k1 == K_REG else a1 if k1 == K_LIT
                     else memory[a1] << 8 | memory[(a1 + 1) & 0xFFFF])
            if op < 9:                                # second operand
                if k2 == K_BASED:
                    a2, k2 = (regs[a2] + b2) & 0xFFFF, K_MEM
                elif k2 == K_STACK:
                    moved = regs[isa.REG_XS] + b2
                    if moved > top if b2 > 0 else moved < bottom:
                        raise VmFault("stack underflow" if b2 > 0
                                      else "stack overflow")
                    regs[isa.REG_XS] = moved
                    a2, k2 = min(moved, moved - b2), K_MEM
                if op != 6:                           # all but MOV read it
                    w = (regs[a2] if k2 == K_REG else a2 if k2 == K_LIT
                         else memory[a2] << 8 | memory[(a2 + 1) & 0xFFFF])
                    if op < 6:                        # BEQ BNE BLT
                        if v == w if op == 3 else v != w if op == 4 else v < w:
                            key = target
                        continue
                    v = w + v if op == 7 else w - v   # ADD SUB
                k1, a1 = k2, a2
            elif op == 9:                             # OUT
                emit(v)
                continue
            elif op == 10:                            # BRI
                key = v & 0xFFFF
                continue
            elif op < 13:                             # ICV DCV
                v += 1 if op == 11 else -1
            elif op == 13:                            # ZER
                v = 0
            else:                                     # LCW
                x = regs[isa.REG_XL]
                v = memory[x] << 8 | memory[(x + 1) & 0xFFFF]
                regs[isa.REG_XL] = (x + 2) & 0xFFFF
            if k1 == K_REG:                           # store v
                regs[a1] = v & 0xFFFF
            elif k1 == K_LIT:
                raise VmFault("write to a literal operand")
            else:
                a2 = (a1 + 1) & 0xFFFF
                memory[a1], memory[a2] = v >> 8 & 0xFF, v & 0xFF
                if lo <= a1 <= hi or lo <= a2 <= hi:  # code changed
                    entries.clear()
                    lo, hi = state.watched = (0x10000, -1)
    except VmFault as fault:
        status, reason = "fault", str(fault)
    state.cursor = key if type(key) is tuple else None
    state.pc = key if state.cursor is None else key[2]
    state.halted = status != "out-of-fuel"
    return status, steps, reason


def step(state: VmState) -> StepEvent:
    before = len(state.out_trace)
    status, _, reason = _execute(state, 1)
    if status != "out-of-fuel":                  # halted or fault
        return StepEvent(status, reason=reason)
    if len(state.out_trace) > before:
        return StepEvent("output", value=state.out_trace[-1])
    return StepEvent("executed")


def run(state: VmState, fuel: int) -> RunOutcome:
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    status, steps, reason = _execute(state, fuel)
    return RunOutcome(status, steps, list(state.out_trace),
                      fault_reason=reason)
