"""Independent reference implementations used to pin expected values.

Deliberately dumb and quadratic-or-worse; nothing here shares code with
the package under test, apart from the instruction tables and the one
decoder that the reference interpreter reads instructions with.
"""

from __future__ import annotations

from macroforge import decode, isa


def naive_count(haystack: bytes, needle: bytes) -> int:
    """Leftmost-greedy non-overlapping occurrence count by direct scan."""
    assert len(needle) >= 1
    count = 0
    i = 0
    while i + len(needle) <= len(haystack):
        if haystack[i:i + len(needle)] == needle:
            count += 1
            i += len(needle)
        else:
            i += 1
    return count


def naive_freq(data: bytes, max_len: int) -> dict[bytes, int]:
    distinct = {data[i:i + k]
                for k in range(2, max_len + 1)
                for i in range(len(data) - k + 1)}
    return {s: naive_count(data, s) for s in distinct}


def naive_objective(data: bytes, body: bytes) -> int:
    """len(residual) + len(body) computed by literally substituting."""
    f = naive_count(data, body)
    if f == 0:
        return len(data)
    out = []
    i = 0
    while i < len(data):
        if data[i:i + len(body)] == body:
            out.append(None)  # marker
            i += len(body)
        else:
            out.append(data[i])
            i += 1
    return len(out) + len(body)


def exhaustive_mwis_weight(intervals: list[tuple[int, int, int]]) -> int:
    """Max total weight over every independent subset of closed intervals
    (start, end, weight), by take/skip recursion with explicit pairwise
    overlap checks against everything taken so far."""
    def overlaps(a, b):
        return a[0] <= b[1] and b[0] <= a[1]

    def rec(i, taken):
        if i == len(intervals):
            return 0
        best = rec(i + 1, taken)
        cand = intervals[i]
        if all(not overlaps(cand, t) for t in taken):
            taken.append(cand)
            best = max(best, cand[2] + rec(i + 1, taken))
            taken.pop()
        return best

    return rec(0, [])


def naive_greedy(data: bytes, max_macros: int, max_len: int,
                 allow_embed: bool = False) -> tuple[list, bytes]:
    """Iterated best-single-macro adoption by direct enumeration.

    Each round scores every substring of 2..max_len bytes of the residual
    by its net saving f*(len-1) - len, f from naive_count, and adopts the
    best positive one: larger saving, then the longer body, then the
    smaller body.  Without allow_embed, substrings holding an assigned
    opcode are skipped.  The opcode is the smallest of 0x50..0xFF neither
    assigned nor in the residual.  Returns ([(body, code)], residual).
    """
    residual = bytes(data)
    table: list[tuple[bytes, int]] = []
    while len(table) < max_macros:
        assigned = {code for _, code in table}
        best = None
        for k in range(2, max_len + 1):
            for i in range(len(residual) - k + 1):
                body = residual[i:i + k]
                if not allow_embed and any(b in assigned for b in body):
                    continue
                net = naive_count(residual, body) * (k - 1) - k
                rank = (-net, -k, body)
                if net > 0 and (best is None or rank < best):
                    best = rank
        if best is None:
            break
        free = [c for c in range(0x50, 0x100)
                if c not in assigned and c not in residual]
        if not free:
            break
        body, code = best[2], free[0]
        out = bytearray()
        i = 0
        while i < len(residual):
            if residual[i:i + len(body)] == body:
                out.append(code)
                i += len(body)
            else:
                out.append(residual[i])
                i += 1
        residual = bytes(out)
        table.append((body, code))
    return table, residual


# ---------------------------------------------------------------------------
# Step-at-a-time reference interpreter

class _Fault(Exception):
    pass


def _ref_fetch(state) -> tuple:
    """Decode the next instruction and move pc and cursor past it."""
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
                raise _Fault(f"undefined opcode {op:#04x}")
            off, resume = 0, pc + 1
            body = state.macros[idx]
            if body[0] >= isa.MACRO_OPCODE_BASE:
                raise _Fault(f"macro body begins with opcode {body[0]:#04x}")
        else:
            idx, off, resume = state.cursor
            body = state.macros[idx]
        left = len(body) - off
        instr = decode.decode(body[off:] + memory[resume:resume + 8], 0,
                              left, resume)
    except IndexError:
        raise _Fault("fetch past the end of memory") from None
    except decode.DecodeError as err:
        raise _Fault(str(err)) from None
    end = instr[-1]
    if end < left:
        state.cursor = (idx, off + end, resume)
        state.pc = resume
    else:
        state.cursor = None
        state.pc = resume + end - left
    return instr


def _ref_resolve(state, mode, ext) -> tuple:
    """(kind, where) of one operand, applying stack side effects now."""
    if mode <= isa.REG_XS:
        return "reg", mode
    if mode == isa.MODE_POP:
        addr = state.regs[isa.REG_XS]
        if addr + 2 > state.stack_top:
            raise _Fault("stack underflow")
        state.regs[isa.REG_XS] = addr + 2
        return "mem", addr
    if mode == isa.MODE_PUSH:
        moved = state.regs[isa.REG_XS] - 2
        if moved < state.stack_bottom:
            raise _Fault("stack overflow")
        state.regs[isa.REG_XS] = moved
        return "mem", moved
    if mode == isa.MODE_LIT:
        return "lit", ext
    if mode in (isa.MODE_MEM1, isa.MODE_MEM2):
        return "mem", ext
    base = state.regs[isa.BASE_REG[mode]]
    return "mem", base if ext is None else base + ext


def _ref_read(state, loc) -> int:
    kind, where = loc
    if kind == "reg":
        return state.regs[where]
    if kind == "mem":
        where &= 0xFFFF
        return (state.memory[where] << 8) | state.memory[(where + 1) & 0xFFFF]
    return where


def _ref_write(state, loc, value) -> None:
    kind, where = loc
    value &= 0xFFFF
    if kind == "reg":
        state.regs[where] = value
    elif kind == "mem":
        where &= 0xFFFF
        state.memory[where] = value >> 8
        state.memory[(where + 1) & 0xFFFF] = value & 0xFF
    else:
        raise _Fault("write to a literal operand")


def _ref_step(state) -> bool:
    """Execute one instruction; True when it was HLT."""
    name, mode1, ext1, mode2, ext2, target, _, _, _ = _ref_fetch(state)
    if name in ("HLT", "NOP"):
        return name == "HLT"
    if name == "BRN":
        state.cursor, state.pc = None, target
        return False
    first = _ref_resolve(state, mode1, ext1)
    if name in ("BEQ", "BNE", "BLT"):
        a = _ref_read(state, first)
        b = _ref_read(state, _ref_resolve(state, mode2, ext2))
        if a == b if name == "BEQ" else a != b if name == "BNE" else a < b:
            state.cursor, state.pc = None, target
    elif name == "MOV":
        value = _ref_read(state, first)
        _ref_write(state, _ref_resolve(state, mode2, ext2), value)
    elif name in ("ADD", "SUB"):
        value = _ref_read(state, first)
        loc = _ref_resolve(state, mode2, ext2)
        old = _ref_read(state, loc)
        _ref_write(state, loc, old + value if name == "ADD" else old - value)
    elif name in ("ICV", "DCV"):
        old = _ref_read(state, first)
        _ref_write(state, first, old + 1 if name == "ICV" else old - 1)
    elif name == "ZER":
        _ref_write(state, first, 0)
    elif name == "LCW":
        xl = state.regs[isa.REG_XL]
        value = (state.memory[xl] << 8) | state.memory[(xl + 1) & 0xFFFF]
        state.regs[isa.REG_XL] = (xl + 2) & 0xFFFF
        _ref_write(state, first, value)
    elif name == "BRI":
        state.cursor, state.pc = None, _ref_read(state, first) & 0xFFFF
    elif name == "OUT":
        state.out_trace.append(_ref_read(state, first))
    else:
        raise AssertionError(f"unhandled mnemonic {name}")
    return False


def reference_run(state, fuel: int) -> tuple:
    """Run a freshly loaded machine state one re-decoded instruction at a
    time, as the interpreter did before it cached decoded entries.
    Returns (status, steps, trace, fault reason)."""
    for steps in range(1, fuel + 1):
        try:
            if _ref_step(state):
                return "halted", steps, list(state.out_trace), None
        except _Fault as fault:
            return "fault", steps, list(state.out_trace), str(fault)
    return "out-of-fuel", fuel, list(state.out_trace), None
