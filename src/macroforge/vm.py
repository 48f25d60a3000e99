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
is decoded once, into an entry of a table on VmState.  Entries come
from decode.line, which reads each instruction's row in decode's one
(opcode, header) row table; the VM keeps no operand or mnemonic table
of its own.  A miss fills the straight line from the missed position:
it caches each fall-through entry, main-stream, site and body step
alike, up to the first branch, HLT or BRI, a position already cached,
a position that does not decode (nothing is cached there, and it
faults only when fetched), or FILL_CAP entries.  Only the missed
position itself faults, with the same text as a decode on every step.

A word write that touches a main-memory byte some entry was decoded
from clears the table, so self-modifying code stays exact.  Each fill
widens the watched range once, over the contiguous main-memory bytes
its line read.  Because a fill caches at most FILL_CAP entries, a run
decodes at most FILL_CAP instructions per executed step, however often
writes clear the table, plus one decode of the macro table per machine.

The macro table is decoded once, when the machine is built, into one
list per table entry indexed by body offset and shared by every site:
a slot holds the instruction that lies wholly inside the body there,
or None.  A site reads its body's slot 0 and a body step the slot at
its offset, and its entry copies the shared one with its own next
position.  The table is not in main memory, so the lists are never
cleared.  The pass stops in each body at the first instruction that
runs past the body's end or does not decode, and never faults.  Such a
position is decoded at its site, from the rest of the body followed by
memory at the resume pc, and a fault it raises surfaces only when it
is fetched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import decode, isa
from .decode import K_BASED, K_LIT, K_MEM, K_REG, K_STACK


class LoadError(Exception):
    pass


class VmFault(Exception):
    """Internal signal; surfaces to callers as a RunOutcome with status
    "fault" and the fault's text as its fault_reason."""


@dataclass
class StepEvent:
    kind: str                    # executed | output | halted | fault


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
    # Decoded entries by fetch position and the main-memory bytes [lo, hi]
    # they came from; code that writes memory directly must clear entries.
    entries: dict = field(default_factory=dict)
    watched: tuple = (0x10000, -1)       # empty
    # One list per table entry, indexed by body offset, shared by every
    # site: (entry less its next position, next body offset or None at
    # the end) where an instruction lies wholly inside the body, else
    # None.  Built with the machine and never cleared, because the table
    # is not in main memory.
    bodies: list = field(init=False)

    def __post_init__(self):
        _share_bodies(self)


def load(image) -> VmState:
    image.validate()
    if image.is_raw:
        raise LoadError("raw container holds packed bytes, not a program")
    if image.origin < isa.WORK_AREA_END:
        raise LoadError(f"origin {image.origin:#06x} overlaps the reserved "
                        f"work area below {isa.WORK_AREA_END:#06x}")
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
# An entry is decode.line's (op, k1, a1, b1, k2, a2, b2, target, end)
# with end turned into the next fetch position: a main-stream pc, or
# (table index, body offset, resume pc) inside a body.  op and the
# operand kinds are the execution form of the instruction's row in
# decode (see decode.K_REG and the ranges in _execute).  A miss fills
# the straight line from the missed position on, so a run makes one
# _decode_at call per line instead of one per instruction, and a site
# of a body costs two list reads and a tuple.

FILL_CAP = 16          # most entries one miss caches
_BASE = isa.MACRO_OPCODE_BASE
_PADDING = bytes(isa.MAX_INSTRUCTION_BYTES - 1)


def _share_bodies(state: VmState) -> None:
    """Decode each body of the macro table once, one instruction at a
    time, into its list in state.bodies.  A body's pass stops at the
    first instruction that runs past its end or does not decode."""
    state.bodies = bodies = []
    for body in state.macros:
        # The zero padding lets an instruction that runs past the body's
        # end decode, to be dropped here, rather than raise IndexError.
        size, off, padded = len(body), 0, body + _PADDING
        bodies.append(shared := [None] * size)
        try:
            while off < size:
                entry, = decode.line(padded, off, size, 0)
                end = entry[8]
                if end > size:
                    break
                shared[off] = (entry[:8], end if end < size else None)
                off = end
        except decode.DecodeError:
            pass


def _decode_at(state: VmState, key) -> tuple:
    """Decode the straight line from the missed fetch position key, cache
    its entries, widen the watched range once over the main-memory bytes
    they read, and return key's entry.

    A main-stream run decodes in place, in one decode.line call.  A site
    reads offset 0 of its body's list in state.bodies, a body step its
    own offset, and each copies the shared instruction there, adding its
    next position.  A body position without a shared instruction is
    decoded at its site, from the rest of the body followed by memory at
    the resume pc.  The line reads main memory from its first
    main-stream position up to where it stopped.
    """
    memory, entries, bodies = state.memory, state.entries, state.bodies
    line, ends, cap, base = decode.line, decode.LINE_ENDS, FILL_CAP, _BASE
    missed, n = key, 0
    try:
        while True:
            if type(key) is tuple:                    # a body step
                idx, off, resume = key
            elif (idx := memory[key] - base) < 0:     # main stream, in place
                run = line(memory, key, 0, 0, entries, cap - n)
            elif idx >= len(bodies):                  # past the table
                raise decode.DecodeError(
                    f"undefined opcode {memory[key]:#04x}")
            else:                                     # a macro site
                off, resume = 0, key + 1
            if idx >= 0:
                if shared := bodies[idx][off]:        # wholly inside the body
                    head, after = shared
                    after = resume if after is None else (idx, after, resume)
                    entries[key] = head + (after,)
                    key = after
                    n += 1
                    if head[0] in ends or n == cap or key in entries:
                        break
                    continue
                body = state.macros[idx]              # decoded at its site
                if not off and body[0] >= base:
                    raise decode.DecodeError("macro body begins with opcode "
                                             f"{body[0]:#04x}")
                left = len(body) - off
                entry, = line(body[off:] + memory[
                    resume:resume + isa.MAX_INSTRUCTION_BYTES],
                    0, left, resume)
                run = [entry[:8] + (resume + entry[8] - left,)]
            for entry in run:
                entries[key] = entry
                key = entry[8]
            n += len(run)
            if entry[0] in ends or n == cap or key in entries:
                break
    except IndexError:
        if not n:
            raise VmFault("fetch past the end of memory") from None
    except decode.DecodeError as err:
        if not n:
            raise VmFault(str(err)) from None
    first = missed if type(missed) is int else missed[2]
    last = (key if type(key) is int else key[2]) - 1
    lo, hi = state.watched
    if first <= last and (first < lo or last > hi):
        state.watched = (min(first, lo), max(last, hi))
    return entries[missed]


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
    top, bottom = isa.DEFAULT_STACK_TOP, isa.DEFAULT_STACK_BOTTOM
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
    """Run one instruction, as run(state, 1) does, and name what it did:
    the status if the machine halted or faulted, else "output" when the
    trace grew and "executed" when it did not.  run is the entry point;
    perfbench's traced rounds step with this to count macro
    activations."""
    before = len(state.out_trace)
    kind = _execute(state, 1)[0]
    if kind == "out-of-fuel":                    # neither halted nor faulted
        kind = "output" if len(state.out_trace) > before else "executed"
    return StepEvent(kind)


def run(state: VmState, fuel: int) -> RunOutcome:
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    status, steps, reason = _execute(state, fuel)
    return RunOutcome(status, steps, list(state.out_trace),
                      fault_reason=reason)
